"""Image-adaptive multi-stage Saak transform (KLT with augmented kernels).

Each stage projects non-overlapping ``BLOCK_SIZE x BLOCK_SIZE`` blocks onto
an orthonormal basis learned from the image itself: a fixed constant DC
kernel plus covariance eigenvectors of the DC-removed patch residuals,
ordered by descending eigenvalue. Between stages every signed AC channel is
split into a disjoint non-negative positive/negative pair (S/P conversion),
so rectification loses no information and the cascade stays exactly
invertible.

Conventions
-----------
* Images are 2-D float64 arrays; feature tensors are ``(rows, cols,
  channels)`` float64 arrays with channel 0 holding the DC component.
* Block vectorization is channel-major outermost, then row-major within the
  spatial block: flat index ``c * 16 + r * 4 + col``.
* After S/P conversion, channel ``1 + 2*(k-1)`` is the positive part and
  channel ``2 + 2*(k-1)`` the negative part of signed AC channel ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatchError,
    GeometryMismatchError,
    ImageTooSmallError,
    InsufficientSamplesError,
    InvalidPairError,
    NoTrainingSamplesError,
)
from .image import as_image

# Both members of a positive/negative pair above this are a contract breach.
PAIR_TOLERANCE = 1e-12

# The paper's fixed design: two stages of 4x4 blocks, stage 1 trained on
# stride-2 patches with standard deviation above 2 (496 output channels).
BLOCK_SIZE = 4
NUM_STAGES = 2
TRAIN_STRIDE = 2
STD_THRESHOLD = 2.0
TILE = BLOCK_SIZE ** NUM_STAGES

# Float64 values in the one buffer _centred_gram centres its samples into
# (16 MiB): the smallest power of two that holds a 272x272 reference's
# stage-2 windows, so references up to that size are centred in one block.
_CENTRED_BLOCK = 1 << 21


@dataclass(frozen=True, eq=False)
class SaakStage:
    """One learned transform stage.

    ``kernels`` stacks the full orthonormal basis as rows: row 0 is the DC
    kernel ``(1/sqrt(d), ...)``, rows 1..d-1 the AC kernels by descending
    eigenvalue. ``eigenvalues`` holds the d-1 AC eigenvalues (non-negative,
    non-increasing). ``dim`` (d) and ``input_channels`` are read off the
    kernels; every stage has ``BLOCK_SIZE x BLOCK_SIZE`` blocks.
    """

    kernels: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.kernels.shape[0]

    @property
    def input_channels(self) -> int:
        return self.dim // (BLOCK_SIZE * BLOCK_SIZE)


def extract_training_patches(img, block: int, stride: int) -> np.ndarray:
    """Vectorize overlapped pixel patches that carry enough texture.

    Patches of ``block x block`` pixels are sampled on a ``stride`` grid and
    flattened row-major. Only patches whose population standard deviation
    exceeds ``STD_THRESHOLD`` (2) are kept; flat patches carry no structure
    worth training on.

    Returns an ``(n, block**2)`` array. Raises ``ValueError`` when
    ``block`` or ``stride`` is below 1 and :class:`NoTrainingSamplesError`
    when nothing survives the filter.
    """
    wins = _windows(as_image(img)[:, :, np.newaxis], block, stride)
    vecs = wins.reshape(-1, block * block)
    keep = vecs.std(axis=1) > STD_THRESHOLD
    if not keep.any():
        raise NoTrainingSamplesError(
            f"no patch has standard deviation > {STD_THRESHOLD}")
    return vecs[keep]


def extract_feature_windows(features) -> np.ndarray:
    """Vectorize every ``BLOCK_SIZE x BLOCK_SIZE`` window of a feature grid
    at stride 1, the samples :func:`train_model` trains stage 2 on.

    No variance filter is applied. Returns a contiguous copy of ``(n,
    channels * 16)`` rows in the package's block vectorization order.
    """
    wins = _windows(_as_features(features), BLOCK_SIZE, 1)
    return np.ascontiguousarray(wins.reshape(-1, wins.shape[2] * BLOCK_SIZE ** 2))


def _windows(f: np.ndarray, block: int, stride: int) -> np.ndarray:
    """Zero-copy ``(rows, cols, channels, block, block)`` view of the
    ``block x block`` windows of a feature grid on a ``stride`` grid.

    Flattening a window gives the package's block vectorization order.
    Raises ``ValueError`` when ``block`` or ``stride`` is below 1 and
    :class:`ImageTooSmallError` when the grid is smaller than a block.
    """
    # A negative stride would sample in reverse and zero is no step at all.
    if block < 1 or stride < 1:
        raise ValueError(f"block and stride must be >= 1, got block={block}, "
                         f"stride={stride}")
    if f.shape[0] < block or f.shape[1] < block:
        raise ImageTooSmallError(
            f"grid {f.shape[1]}x{f.shape[0]} smaller than block {block}")
    return sliding_window_view(f, (block, block), axis=(0, 1))[::stride, ::stride]


def _as_features(t) -> np.ndarray:
    f = np.asarray(t, dtype=np.float64)
    if f.ndim != 3:
        raise GeometryMismatchError("feature tensor must be 3-D (rows, cols, channels)")
    return f


def _dc_complement_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the DC-orthogonal subspace, columns of (d, d-1).

    Built from the Householder reflection mapping e0 to the DC direction, so
    completeness and orthogonality hold to machine precision regardless of
    covariance rank.
    """
    dc = np.full(d, 1.0 / np.sqrt(d))
    v = dc.copy()
    v[0] -= 1.0
    basis = np.eye(d) - 2.0 * np.outer(v, v) / (v @ v)
    return basis[:, 1:]


def _fix_signs(kernels: np.ndarray) -> np.ndarray:
    """Force the largest-magnitude entry of each row positive (first on tie)."""
    idx = np.argmax(np.abs(kernels), axis=1)
    flip = kernels[np.arange(kernels.shape[0]), idx] < 0
    kernels[flip] *= -1.0
    return kernels


def _centred_gram(windows: np.ndarray) -> np.ndarray:
    """Population covariance, channel-major ``(d, d)``, of ``(rows, cols,
    c, 4, 4)`` windows about their mean; ``ValueError`` if not finite.

    Centring first keeps bright low-contrast content exact, where ``x.T @
    x / n - mu mu^T`` cancels digits (scores move by ~1e-11, not ~1e-15).
    Blocks of whole window rows are centred into one reused C-ordered
    buffer of at most ``_CENTRED_BLOCK`` float64 (16 MiB, or one window
    row if larger), whose reshape is a view, and their Grams are summed:
    memory beyond the d x d matrices does not grow with n. Up to 2**21
    values (a 272x272 reference's stage-2 windows) are one block, the same
    bits as an unbounded buffer. The buffer holds windows position-major
    (block row, block column, channel), so a window's block row is copied
    as one run of ``4 * c`` values (124 for stage 2); permuting the summed
    Gram back to channel-major order leaves every entry the same sum of
    the same products, so the same bits.
    """
    # A NaN or inf sample, or a finite column whose sum overflows, makes its
    # mean non-finite, so the check costs nothing beyond the mean itself.
    with np.errstate(invalid="ignore", over="ignore"):
        mean = windows.mean(axis=(0, 1))
    if not np.isfinite(mean).all():
        raise ValueError("samples contain non-finite values")
    rows, d = windows.shape[0], mean.size
    step = max(1, min(rows, _CENTRED_BLOCK // (windows.size // rows)))
    x, mean = windows.transpose(0, 1, 3, 4, 2), mean.transpose(1, 2, 0)
    buf = np.empty((step,) + x.shape[1:])
    for start in range(0, rows, step):
        block = buf[:min(step, rows - start)]
        np.subtract(x[start:start + step], mean, out=block)
        xc = block.reshape(-1, d)
        if start:
            gram += xc.T @ xc
        else:  # a zeroed Gram would raise the peak when one block holds all windows
            gram = xc.T @ xc
    del buf, block, xc
    order = np.arange(d).reshape(x.shape[2:]).transpose(2, 0, 1).ravel()
    gram = gram[np.ix_(order, order)]
    gram /= rows * x.shape[1]
    return gram


def _kernels(cov: np.ndarray) -> SaakStage:
    """The stage of input-space covariance ``cov``, diagonalized as ``B.T @
    cov @ B`` with ``B`` the DC-complement basis: the covariance of the
    projected samples in d³ work, not the n·d² of projecting every sample."""
    d = cov.shape[0]
    basis = _dc_complement_basis(d)
    evals, evecs = np.linalg.eigh(basis.T @ cov @ basis)
    order = np.argsort(-evals, kind="stable")
    ac = _fix_signs((basis @ evecs[:, order]).T)
    kernels = np.vstack([np.full(d, 1.0 / np.sqrt(d)), ac])
    return SaakStage(kernels=kernels, eigenvalues=np.maximum(evals[order], 0.0))


def train_stage(samples, *, input_channels: int = 1) -> SaakStage:
    """Learn one stage's orthonormal kernel set from vectorized samples.

    ``samples`` is either an ``(n, d)`` array of vectorized blocks, with
    ``d = 16 * input_channels``, or a ``(rows, cols, input_channels, 4,
    4)`` array of windows such as the zero-copy ``sliding_window_view`` of
    a feature grid, which counts as ``n = rows * cols`` samples in the
    package's vectorization order. Rows are read as ``(n, 1,
    input_channels, 4, 4)`` windows, so both take one path and give the
    same kernels bit for bit while the samples fit one centring block, and
    agree to round-off beyond it.

    The DC kernel is the normalized constant vector. AC kernels are the
    eigenvectors of the population covariance (about the ensemble mean) of
    the DC-removed residuals (:func:`_centred_gram`), restricted to the
    DC-orthogonal subspace, in descending eigenvalue order with a
    deterministic sign rule (:func:`_kernels`). The returned basis is
    always complete, even for rank-deficient covariance.
    Raises :class:`DimensionMismatchError` for a channel count below 1 or
    samples of neither shape and ``ValueError`` for NaN or infinite
    samples.
    """
    if input_channels < 1:
        raise DimensionMismatchError(f"channels {input_channels} must be >= 1")
    try:
        x = np.asarray(samples, dtype=np.float64)
    except ValueError:
        raise DimensionMismatchError("samples must share a common dimension") from None
    window = (input_channels, BLOCK_SIZE, BLOCK_SIZE)
    d = math.prod(window)
    if x.ndim == 2 and x.shape[1] == d:
        x = x.reshape(x.shape[0], 1, *window)
    if x.shape[2:] != window:
        raise DimensionMismatchError(
            f"samples must be (n, {d}) vectors or (rows, cols, {input_channels}, "
            f"{BLOCK_SIZE}, {BLOCK_SIZE}) windows")
    n = x.shape[0] * x.shape[1]
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    return _kernels(_centred_gram(x))


def sp_convert(features) -> np.ndarray:
    """Split signed AC channels into disjoint non-negative pairs.

    DC is copied through; each of the d-1 signed AC channels becomes a
    (positive part, negative part) pair, giving ``1 + 2*(d-1)`` channels,
    all non-negative.
    """
    f = _as_features(features)
    d = f.shape[2]
    out = np.empty(f.shape[:2] + (1 + 2 * (d - 1),), dtype=np.float64)
    out[..., 0] = f[..., 0]
    ac = f[..., 1:]
    out[..., 1::2] = np.maximum(ac, 0.0)
    out[..., 2::2] = np.maximum(-ac, 0.0)
    return out


def ps_convert(features) -> np.ndarray:
    """Merge positive/negative channel pairs back into signed channels.

    Exact inverse of :func:`sp_convert`. Raises :class:`InvalidPairError`
    when both members of a pair are active at the same position, which no
    S/P output can produce. The activation threshold is ``PAIR_TOLERANCE``
    scaled by the tensor's magnitude, so reconstruction round-off on
    image-scale data never trips it while genuinely overlapping pairs do.
    """
    f = _as_features(features)
    if f.shape[2] % 2 != 1:
        raise GeometryMismatchError(
            f"paired tensor needs an odd channel count, got {f.shape[2]}")
    pos = f[..., 1::2]
    neg = f[..., 2::2]
    tol = PAIR_TOLERANCE * max(1.0, float(np.abs(f).max(initial=0.0)))
    if np.any((pos > tol) & (neg > tol)):
        raise InvalidPairError("positive and negative parts overlap")
    out = np.empty(f.shape[:2] + (1 + (f.shape[2] - 1) // 2,), dtype=np.float64)
    out[..., 0] = f[..., 0]
    out[..., 1:] = pos - neg
    return out


def forward_stage(features, stage: SaakStage) -> np.ndarray:
    """Project non-overlapping blocks onto one stage's kernels.

    Input ``(H, W, C)`` with ``C == stage.input_channels`` and both spatial
    dims divisible by the block size; output ``(H/bs, W/bs, d)`` signed
    coefficients, channel 0 being DC. All blocks go through one
    ``(blocks, d) @ (d, d)`` product: a 3-D operand would make numpy run
    one small product per block row.
    """
    f = _as_features(features)
    bs = BLOCK_SIZE
    if f.shape[2] != stage.input_channels:
        raise GeometryMismatchError(
            f"expected {stage.input_channels} channels, got {f.shape[2]}")
    if f.shape[0] % bs or f.shape[1] % bs:
        raise GeometryMismatchError(
            f"spatial dims {f.shape[1]}x{f.shape[0]} not divisible by {bs}")
    blocks = _windows(f, bs, bs)
    coeffs = blocks.reshape(-1, stage.dim) @ stage.kernels.T
    return coeffs.reshape(blocks.shape[:2] + (stage.dim,))


def inverse_stage(coefficients, stage: SaakStage) -> np.ndarray:
    """Invert :func:`forward_stage` (kernel-matrix transpose per block), as
    one ``(blocks, d) @ (d, d)`` product like the forward direction."""
    y = _as_features(coefficients)
    if y.shape[2] != stage.dim:
        raise GeometryMismatchError(
            f"expected {stage.dim} coefficients, got {y.shape[2]}")
    gh, gw = y.shape[:2]
    bs, c = BLOCK_SIZE, stage.input_channels
    blocks = y.reshape(-1, stage.dim) @ stage.kernels
    return (blocks.reshape(gh, gw, c, bs, bs)
            .transpose(0, 3, 1, 4, 2)
            .reshape(gh * bs, gw * bs, c))


def forward(img, model: tuple[SaakStage, ...]) -> np.ndarray:
    """Full multi-stage transform of an image into signed coefficients.

    ``model`` is any tuple of stages, chained with S/P conversion in between;
    each stage's :func:`forward_stage` checks that its input splits into its
    blocks. The result keeps the final stage's signed coefficients:
    ``(H/TILE, W/TILE, K)`` for :func:`train_model`'s two stages.
    """
    x = as_image(img)[:, :, np.newaxis]
    for i, stage in enumerate(model):
        if i:
            x = sp_convert(x)
        x = forward_stage(x, stage)
    return x


def inverse(features, model: tuple[SaakStage, ...]) -> np.ndarray:
    """Reconstruct the image from its multi-stage coefficients."""
    x = _as_features(features)
    for i in reversed(range(len(model))):
        x = inverse_stage(x, model[i])
        if i:
            x = ps_convert(x)
    if x.shape[2] != 1:
        raise GeometryMismatchError("tensor does not match the model geometry")
    return x[:, :, 0]


def train_model(ref) -> tuple[tuple[SaakStage, ...], np.ndarray]:
    """Learn the full transform from a (filtered, cropped) reference image,
    transform it by each stage once trained, and return ``(stages, features)``.

    Stage 1 trains on overlapped pixel patches passing the texture filter;
    later stages train on stride-1 windows of the previous stage's
    S/P-converted output with no variance filter, which reach
    :func:`train_stage` as a zero-copy view: no n x d window matrix is
    allocated, and the stage-1 patches are freed before stage 2 starts.
    Deterministic; ``features`` is ``forward(ref, stages)`` bit for bit.
    A reference too small for stage 2 raises :class:`ImageTooSmallError`;
    other sides not divisible by ``TILE``, :class:`GeometryMismatchError`.
    """
    ref = as_image(ref)
    stages = [train_stage(extract_training_patches(ref, BLOCK_SIZE, TRAIN_STRIDE),
                          input_channels=1)]
    x = forward_stage(ref[:, :, np.newaxis], stages[0])
    for _ in range(1, NUM_STAGES):
        x = sp_convert(x)
        stages.append(train_stage(_windows(x, BLOCK_SIZE, 1),
                                  input_channels=x.shape[2]))
        x = forward_stage(x, stages[-1])
    return tuple(stages), x
