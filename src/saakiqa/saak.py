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


@dataclass(frozen=True)
class SaakStage:
    """One learned transform stage.

    ``kernels`` stacks the full orthonormal basis as rows: row 0 is the DC
    kernel ``(1/sqrt(d), ...)``, rows 1..d-1 the AC kernels by descending
    eigenvalue. ``eigenvalues`` holds the d-1 AC eigenvalues (non-negative,
    non-increasing).
    """

    input_channels: int
    block_size: int
    kernels: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.block_size * self.block_size * self.input_channels


@dataclass(frozen=True)
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

    Returns an ``(n, block**2)`` array. Raises
    :class:`NoTrainingSamplesError` when nothing survives the filter.
    """
    img = as_image(img)
    if img.shape[0] < block or img.shape[1] < block:
        raise ImageTooSmallError(
            f"image {img.shape[1]}x{img.shape[0]} smaller than block {block}")
    wins = sliding_window_view(img, (block, block))[::stride, ::stride]
    vecs = wins.reshape(-1, block * block)
    keep = vecs.std(axis=1) > std_threshold
    if not keep.any():
        raise NoTrainingSamplesError(
            f"no patch has standard deviation > {std_threshold}")
    return np.ascontiguousarray(vecs[keep])


def extract_feature_windows(features, block: int, stride: int = 1) -> np.ndarray:
    """Vectorize overlapped multi-channel spatial windows of a feature grid.

    No variance filter is applied. Returns ``(n, channels * block**2)``
    rows in the package's block vectorization order.
    """
    f = _as_features(features)
    if f.shape[0] < block or f.shape[1] < block:
        raise ImageTooSmallError(
            f"feature grid {f.shape[1]}x{f.shape[0]} smaller than block {block}")
    wins = sliding_window_view(f, (block, block), axis=(0, 1))[::stride, ::stride]
    return np.ascontiguousarray(
        wins.reshape(-1, f.shape[2] * block * block))


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

    The DC kernel is the normalized constant vector. AC kernels are the
    eigenvectors of the population covariance (about the ensemble mean) of
    the DC-removed residuals, restricted to the DC-orthogonal subspace, in
    descending eigenvalue order with a deterministic sign rule. The returned
    basis is always complete, even for rank-deficient covariance.

    That covariance is computed as ``B.T @ C @ B``, with ``C`` the centred
    input-space covariance and ``B`` the DC-complement basis: d³ work
    rather than the n·d² of projecting every sample, and no n x (d-1) copy.
    Raises ``ValueError`` for NaN or infinite samples.
    """
    try:
        x = np.asarray(samples, dtype=np.float64)
    except ValueError:
        raise DimensionMismatchError("samples must share a common dimension") from None
    if x.ndim != 2:
        raise DimensionMismatchError("samples must share a common dimension")
    n, d = x.shape
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    if d != block_size * block_size * input_channels:
        raise DimensionMismatchError(
            f"sample dimension {d} != block {block_size}^2 * {input_channels} channels")

    # Any NaN or inf sample makes its column mean non-finite, so checking the
    # d means costs nothing beyond the mean itself (a finite column whose
    # sum overflows is rejected too; its covariance would not be finite).
    with np.errstate(invalid="ignore", over="ignore"):
        mean = x.mean(axis=0)
    if not np.isfinite(mean).all():
        raise ValueError("samples contain non-finite values")

    basis = _dc_complement_basis(d)
    # The covariance of the projected samples x @ basis equals the input
    # covariance rotated into the DC-orthogonal basis, so rotate the d x d
    # matrix instead of projecting all n samples. Centring before the Gram
    # product keeps bright low-contrast content exact; x.T @ x / n - mu mu^T
    # cancels digits there (scores move by ~1e-11 instead of ~1e-15).
    xc = x - mean
    cov = basis.T @ ((xc.T @ xc) / n) @ basis
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    ac = _fix_signs((basis @ evecs[:, order]).T)
    kernels = np.vstack([np.full(d, 1.0 / np.sqrt(d)), ac])
    return SaakStage(
        input_channels=input_channels,
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
    out = np.zeros(f.shape[:2] + (1 + 2 * (d - 1),), dtype=np.float64)
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


def _blocks(f: np.ndarray, bs: int) -> np.ndarray:
    gh, gw, c = f.shape[0] // bs, f.shape[1] // bs, f.shape[2]
    return (f.reshape(gh, bs, gw, bs, c)
            .transpose(0, 2, 4, 1, 3)
            .reshape(gh, gw, c * bs * bs))


def _unblocks(v: np.ndarray, bs: int, channels: int) -> np.ndarray:
    gh, gw = v.shape[:2]
    return (v.reshape(gh, gw, channels, bs, bs)
            .transpose(0, 3, 1, 4, 2)
            .reshape(gh * bs, gw * bs, channels))


def forward_stage(features, stage: SaakStage) -> np.ndarray:
    """Project non-overlapping blocks onto one stage's kernels.

    Input ``(H, W, C)`` with ``C == stage.input_channels`` and both spatial
    dims divisible by the block size; output ``(H/bs, W/bs, d)`` signed
    coefficients, channel 0 being DC.
    """
    f = _as_features(features)
    bs = stage.block_size
    if f.shape[2] != stage.input_channels:
        raise GeometryMismatchError(
            f"expected {stage.input_channels} channels, got {f.shape[2]}")
    if f.shape[0] % bs or f.shape[1] % bs:
        raise GeometryMismatchError(
            f"spatial dims {f.shape[1]}x{f.shape[0]} not divisible by {bs}")
    return _blocks(f, bs) @ stage.kernels.T


def inverse_stage(coefficients, stage: SaakStage) -> np.ndarray:
    """Invert :func:`forward_stage` (kernel-matrix transpose per block)."""
    y = _as_features(coefficients)
    if y.shape[2] != stage.dim:
        raise GeometryMismatchError(
            f"expected {stage.dim} coefficients, got {y.shape[2]}")
    return _unblocks(y @ stage.kernels, stage.block_size, stage.input_channels)


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
    S/P-converted output with no variance filter. Deterministic for
    identical input.
    """
    ref = as_image(ref)
    samples = extract_training_patches(ref, BLOCK_SIZE, TRAIN_STRIDE, STD_THRESHOLD)
    stages = [train_stage(samples, BLOCK_SIZE, input_channels=1)]
    x = ref[:, :, np.newaxis]
    for _ in range(1, NUM_STAGES):
        x = sp_convert(forward_stage(x, stages[-1]))
        windows = extract_feature_windows(x, BLOCK_SIZE, stride=1)
        stages.append(train_stage(windows, BLOCK_SIZE, input_channels=x.shape[2]))
    return SaakModel(stages=tuple(stages))


def energy_spectrum(features) -> np.ndarray:
    """Per-channel mean of squared coefficients (length-K energy vector)."""
    f = _as_features(features)
    return np.mean(f * f, axis=(0, 1))
