"""Image-adaptive multi-stage Saak transform (KLT with augmented kernels).

Each stage projects non-overlapping ``block_size x block_size`` blocks onto
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
  spatial block: flat index ``c * bs**2 + r * bs + col``.
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


@dataclass(frozen=True, eq=False)
class SaakStage:
    """One learned transform stage.

    ``kernels`` stacks the full orthonormal basis as rows: row 0 is the DC
    kernel ``(1/sqrt(d), ...)``, rows 1..d-1 the AC kernels by descending
    eigenvalue. ``eigenvalues`` holds the d-1 AC eigenvalues (non-negative,
    non-increasing). ``dim`` (d) and ``input_channels`` are read off the
    kernels.
    """

    block_size: int
    kernels: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.kernels.shape[0]

    @property
    def input_channels(self) -> int:
        return self.dim // (self.block_size * self.block_size)


@dataclass(frozen=True, eq=False)
class SaakModel:
    """Ordered stages of a trained multi-stage transform."""

    stages: tuple[SaakStage, ...]


def extract_training_patches(img, block: int, stride: int,
                             std_threshold: float) -> np.ndarray:
    """Vectorize overlapped pixel patches that carry enough texture.

    Patches of ``block x block`` pixels are sampled on a ``stride`` grid and
    flattened row-major. Only patches whose population standard deviation
    exceeds ``std_threshold`` are kept; flat patches carry no structure
    worth training on.

    Returns an ``(n, block**2)`` array. Raises ``ValueError`` when
    ``block`` or ``stride`` is below 1 and :class:`NoTrainingSamplesError`
    when nothing survives the filter.
    """
    wins = _windows(as_image(img)[:, :, np.newaxis], block, stride)
    vecs = wins.reshape(-1, block * block)
    keep = vecs.std(axis=1) > std_threshold
    if not keep.any():
        raise NoTrainingSamplesError(
            f"no patch has standard deviation > {std_threshold}")
    return np.ascontiguousarray(vecs[keep])


def extract_feature_windows(features, block: int, stride: int = 1) -> np.ndarray:
    """Vectorize overlapped multi-channel spatial windows of a feature grid.

    No variance filter is applied. Returns a contiguous copy of ``(n,
    channels * block**2)`` rows in the package's block vectorization order:
    62 MB for the stage-2 windows of a 512x512 reference. :func:`train_model`
    does not call this; it hands :func:`train_stage` the zero-copy window
    view instead. Raises ``ValueError`` when ``block`` or ``stride`` is
    below 1.
    """
    wins = _windows(_as_features(features), block, stride)
    return np.ascontiguousarray(
        wins.reshape(-1, wins.shape[2] * block * block))


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


def train_stage(samples, block_size: int, input_channels: int = 1) -> SaakStage:
    """Learn one stage's orthonormal kernel set from vectorized samples.

    ``samples`` is either an ``(n, d)`` array of vectorized blocks, with
    ``d = block_size**2 * input_channels``, or a ``(rows, cols,
    input_channels, block_size, block_size)`` array of windows such as the
    zero-copy ``sliding_window_view`` of a feature grid, which counts as
    ``n = rows * cols`` samples in the package's vectorization order. Both
    give the same kernels bit for bit.

    The DC kernel is the normalized constant vector. AC kernels are the
    eigenvectors of the population covariance (about the ensemble mean) of
    the DC-removed residuals, restricted to the DC-orthogonal subspace, in
    descending eigenvalue order with a deterministic sign rule. The returned
    basis is always complete, even for rank-deficient covariance.

    That covariance is computed as ``B.T @ C @ B``, with ``C`` the centred
    input-space covariance and ``B`` the DC-complement basis: d³ work
    rather than the n·d² of projecting every sample, and no n x (d-1) copy.
    The one n x d array allocated is the centred copy of the samples, and
    it is freed once its d x d Gram is formed.
    Raises :class:`DimensionMismatchError` for a block size or channel
    count below 1 and ``ValueError`` for NaN or infinite samples.
    """
    if block_size < 1 or input_channels < 1:
        raise DimensionMismatchError(
            f"block size {block_size} and channels {input_channels} must be >= 1")
    try:
        x = np.asarray(samples, dtype=np.float64)
    except ValueError:
        raise DimensionMismatchError("samples must share a common dimension") from None
    if x.ndim == 2:
        lead = (0,)
    elif x.ndim == 5 and x.shape[2:] == (input_channels, block_size, block_size):
        lead = (0, 1)
    else:
        raise DimensionMismatchError(
            "samples must be (n, d) vectors or (rows, cols, channels, block, "
            "block) windows")
    n, d = math.prod(x.shape[:len(lead)]), math.prod(x.shape[len(lead):])
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    if d != block_size * block_size * input_channels:
        raise DimensionMismatchError(
            f"sample dimension {d} != block {block_size}^2 * {input_channels} channels")

    # Any NaN or inf sample makes its column mean non-finite, so checking the
    # d means costs nothing beyond the mean itself (a finite column whose
    # sum overflows is rejected too; its covariance would not be finite).
    with np.errstate(invalid="ignore", over="ignore"):
        mean = x.mean(axis=lead)
    if not np.isfinite(mean).all():
        raise ValueError("samples contain non-finite values")

    # The covariance of the projected samples x @ basis equals the input
    # covariance rotated into the DC-orthogonal basis, so rotate the d x d
    # matrix instead of projecting all n samples. Centring before the Gram
    # product keeps bright low-contrast content exact; x.T @ x / n - mu mu^T
    # cancels digits there (scores move by ~1e-11 instead of ~1e-15).
    # A C-ordered output buffer makes the reshape a view: ``x - mean`` on
    # a strided window view allocates in its stride order and would be
    # copied a second time by the reshape. That centred matrix is released
    # as soon as its Gram is formed, before the d x d temporaries of the
    # rotation are allocated.
    xc = np.subtract(x, mean, out=np.empty(x.shape)).reshape(n, d)
    gram = xc.T @ xc
    del xc
    gram /= n
    basis = _dc_complement_basis(d)
    cov = basis.T @ gram @ basis
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    ac = _fix_signs((basis @ evecs[:, order]).T)
    kernels = np.vstack([np.full(d, 1.0 / np.sqrt(d)), ac])
    return SaakStage(
        block_size=block_size,
        kernels=kernels,
        eigenvalues=np.maximum(evals[order], 0.0),
    )


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
    bs = stage.block_size
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
    bs, c = stage.block_size, stage.input_channels
    blocks = y.reshape(-1, stage.dim) @ stage.kernels
    return (blocks.reshape(gh, gw, c, bs, bs)
            .transpose(0, 3, 1, 4, 2)
            .reshape(gh * bs, gw * bs, c))


def forward(img, model: SaakModel) -> np.ndarray:
    """Full multi-stage transform of an image into signed coefficients.

    Stages are chained with S/P conversion in between; the result keeps the
    final stage's signed coefficients: ``(H/TILE, W/TILE, K)``.
    """
    img = as_image(img)
    if img.shape[0] % TILE or img.shape[1] % TILE:
        raise GeometryMismatchError(
            f"image {img.shape[1]}x{img.shape[0]} not divisible by {TILE}")
    x = img[:, :, np.newaxis]
    for i, stage in enumerate(model.stages):
        if i:
            x = sp_convert(x)
        x = forward_stage(x, stage)
    return x


def inverse(features, model: SaakModel) -> np.ndarray:
    """Reconstruct the image from its multi-stage coefficients."""
    x = _as_features(features)
    for i in reversed(range(len(model.stages))):
        x = inverse_stage(x, model.stages[i])
        if i:
            x = ps_convert(x)
    if x.shape[2] != 1:
        raise GeometryMismatchError("tensor does not match the model geometry")
    return x[:, :, 0]


def train_model(ref) -> SaakModel:
    """Learn the full transform from a (filtered, cropped) reference image.

    Stage 1 trains on overlapped pixel patches passing the texture filter;
    later stages train on stride-1 windows of the previous stage's
    S/P-converted output with no variance filter. Those windows reach
    :func:`train_stage` as a zero-copy view of the feature grid, so peak
    memory is about one centred n x d window matrix (62 MB at 512x512),
    and the stage-1 patches are freed before stage 2 starts. Deterministic
    for identical input.
    """
    ref = as_image(ref)
    stages = [train_stage(
        extract_training_patches(ref, BLOCK_SIZE, TRAIN_STRIDE, STD_THRESHOLD),
        BLOCK_SIZE, input_channels=1)]
    x = ref[:, :, np.newaxis]
    for _ in range(1, NUM_STAGES):
        x = sp_convert(forward_stage(x, stages[-1]))
        stages.append(train_stage(_windows(x, BLOCK_SIZE, 1), BLOCK_SIZE,
                                  input_channels=x.shape[2]))
    return SaakModel(stages=tuple(stages))

