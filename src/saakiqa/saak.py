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
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
# Larger references size their row-lag buffers by it too, and those stay at
# 16 MiB although a smaller one would lower the peak: glibc raises its mmap
# and trim thresholds to the largest block freed, so freeing this buffer
# lets a warm assess reuse heap pages for every smaller array. Row-lag
# buffers of 4 or 1 MiB cost a warm 512x512 assess about 7000 minor page
# faults (about none at 16 MiB) and some of its speed.
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
    rows, cols, d = wins.shape[0], wins.shape[1], block * block
    # The mask is decided over chunks of about 4096 windows, each copied
    # into one reused buffer as (k, d) rows: a row's std is the same
    # reduction over the same d values as in one (n, d) matrix, so the kept
    # set is the same, and no copy or std temporary of every window is made.
    step = max(1, 4096 // cols)
    keep = np.empty((rows, cols), dtype=bool)
    buf = np.empty((min(step, rows),) + wins.shape[1:])
    for start in range(0, rows, step):
        chunk = buf[:min(step, rows - start)]
        np.copyto(chunk, wins[start:start + step])
        std = chunk.reshape(-1, d).std(axis=1)
        keep[start:start + step] = (std > STD_THRESHOLD).reshape(-1, cols)
    if not keep.any():
        raise NoTrainingSamplesError(
            f"no patch has standard deviation > {STD_THRESHOLD}")
    return wins[keep].reshape(-1, d)


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
    Memory beyond the d x d matrices does not grow with n: samples are
    copied, centred, into one reused buffer of at most ``_CENTRED_BLOCK``
    float64 (16 MiB), or a few grid rows if larger, in one of two ways.

    * Up to 2**21 values (a 272x272 reference's stage-2 windows), flat
      ``(n, 1, c, 4, 4)`` samples and any other layout: blocks of whole
      window rows are centred on the window mean and their Grams summed.
      One block gives the same bits as an unbounded buffer. The buffer
      holds windows position-major (block row, block column, channel), so
      a window's block row is copied as one run of ``4 * c`` values (124
      for stage 2); permuting the summed Gram back to channel-major order
      leaves every entry the same sum of the same products, so the same
      bits.
    * A larger stride-1 window view, such as ``train_model``'s stage-2
      windows beyond 272x272: the Gram is summed from the grid by window
      row lags (:func:`_row_lag_gram`), in about half the flops and a
      quarter of the copying. It differs from one unbounded centring in
      the last bits (within 1.1e-15 of the largest entry).
    """
    rows, cols, c = windows.shape[:3]
    lagged = windows.strides[3:] == windows.strides[:2] and windows.size > _CENTRED_BLOCK
    if lagged:  # the grid under the windows, each of whose values some window holds
        samples = as_strided(windows, (rows + BLOCK_SIZE - 1, cols + BLOCK_SIZE - 1, c),
                             windows.strides[:3])
    else:
        samples = windows
    # A NaN or inf sample, or a finite column whose sum overflows, makes its
    # mean non-finite, so the check costs nothing beyond the mean itself.
    with np.errstate(invalid="ignore", over="ignore"):
        mean = samples.mean(axis=(0, 1))
    if not np.isfinite(mean).all():
        raise ValueError("samples contain non-finite values")
    if lagged:
        gram = _row_lag_gram(samples, mean, _CENTRED_BLOCK)
    else:
        d = mean.size
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
    gram /= rows * cols
    return gram


def _row_lag_gram(grid: np.ndarray, mean: np.ndarray, bound: int) -> np.ndarray:
    """Channel-major ``(d, d)`` sum of the outer products of a ``(R, C, c)``
    grid's stride-1 ``BLOCK_SIZE`` windows about their mean, ``mean`` being
    the grid's channel means, in buffers of about ``bound`` float64.

    A window is the stack of its ``b = BLOCK_SIZE`` block rows, and block
    row ``p`` of the window at (i, j) is row ``H[i + p][j]``, ``H[u]``
    holding the ``b``-wide horizontal windows of grid row ``u`` less
    ``mean``. So the Gram's block (p, p + l) is ``sum H[u].T @ H[u + l]``
    over the grid rows ``u`` in ``[p, p + rows)``: the lag-l sum ``L_l``
    over every grid row, less the at most ``b - 1`` edge rows outside,
    less ``n mu_p mu_(p+l)^T`` for the mean ``mu_p`` of block row p about
    ``mean``. ``H`` is built in chunks of grid rows that overlap by ``b -
    1`` rows, so every lag of a chunk's own rows is summed from the chunk.
    """
    b, (height, width, c) = BLOCK_SIZE, grid.shape
    rows, cols, w = height - b + 1, width - b + 1, b * c
    s0, s1, s2 = grid.strides
    strips = as_strided(grid, (height, cols, b, c), (s0, s1, s1, s2))
    # Tiled, the mean lets numpy subtract a strip as one run of w values.
    mean = np.tile(mean, (b, 1))
    step = max(1, bound // (cols * w) - (b - 1))
    buf = np.empty((min(height, step + b - 1), cols, b, c))
    lags, sums = np.zeros((b, w, w)), np.empty((height, w))
    for start in range(0, height, step):
        h = buf[:min(height - start, step + b - 1)]
        np.subtract(strips[start:start + len(h)], mean, out=h)
        own = min(height - start, step)
        sums[start:start + own] = h[:own].sum(axis=1).reshape(own, w)
        h = h.reshape(-1, w)
        for lag in range(b):
            k = max(0, min(own, height - lag - start)) * cols
            lags[lag] += h[:k].T @ h[lag * cols:lag * cols + k]
    del buf, h
    n = rows * cols
    mu = np.stack([sums[p:p + rows].sum(axis=0) for p in range(b)]) / n
    head, tail = (np.subtract(strips[rs], mean).reshape(b - 1, cols, w)
                  for rs in (slice(0, b - 1), slice(rows, height)))
    gram = np.empty((c, b, b, c, b, b))
    for p in range(b):
        for lag in range(b - p):
            block = lags[lag] - n * np.outer(mu[p], mu[p + lag])
            for u in range(b - 1 - lag):  # grid row u or rows + u, as u < p
                edge = head if u < p else tail
                block -= edge[u].T @ edge[u + lag]
            block = block.reshape(b, c, b, c)
            gram[:, p, :, :, p + lag, :] = block.transpose(1, 0, 3, 2)
            gram[:, p + lag, :, :, p, :] = block.transpose(3, 2, 1, 0)
    return gram.reshape(b * w, b * w)


def _kernels(cov: np.ndarray) -> SaakStage:
    """The stage of input-space covariance ``cov``, diagonalized as ``B.T @
    cov @ B`` with ``B`` the DC-complement basis: the covariance of the
    projected samples in d³ work, not the n·d² of projecting every sample.

    ``B`` is the last d-1 columns of the Householder reflection that maps
    e0 to the DC kernel, so completeness and orthogonality hold to machine
    precision whatever the covariance's rank."""
    d = cov.shape[0]
    dc = np.full(d, 1.0 / np.sqrt(d))
    v = dc.copy()
    v[0] -= 1.0
    basis = (np.eye(d) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]
    evals, evecs = np.linalg.eigh(basis.T @ cov @ basis)
    order = np.argsort(-evals, kind="stable")
    ac = _fix_signs((basis @ evecs[:, order]).T)
    kernels = np.vstack([dc, ac])
    return SaakStage(kernels=kernels, eigenvalues=np.maximum(evals[order], 0.0))


def train_stage(samples, *, input_channels: int = 1) -> SaakStage:
    """Learn one stage's orthonormal kernel set from vectorized samples.

    ``samples`` is either an ``(n, d)`` array of vectorized blocks, with
    ``d = 16 * input_channels``, or a ``(rows, cols, input_channels, 4,
    4)`` array of windows such as the zero-copy ``sliding_window_view`` of
    a feature grid, which counts as ``n = rows * cols`` samples in the
    package's vectorization order. Rows are read as ``(n, 1,
    input_channels, 4, 4)`` windows, so while the samples fit one centring
    block both take one path and give the same kernels bit for bit; beyond
    it a window view is summed by row lags, and the two agree to round-off.

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
    all non-negative. Each half is written straight into the output, so
    nothing but the output is allocated.
    """
    f = _as_features(features)
    d = f.shape[2]
    out = np.empty(f.shape[:2] + (1 + 2 * (d - 1),), dtype=np.float64)
    out[..., 0] = f[..., 0]
    ac, neg = f[..., 1:], out[..., 2::2]
    np.maximum(ac, 0.0, out=out[..., 1::2])
    np.maximum(np.negative(ac, out=neg), 0.0, out=neg)
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
    grid, x = blocks.shape[:2], blocks.reshape(-1, stage.dim)
    # x copies the blocks unless they lie contiguous in the input, which is
    # then freed here unless the caller holds it.
    del features, f, blocks
    return (x @ stage.kernels.T).reshape(grid + (stage.dim,))


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
    # Each grid is popped from this list as it is handed on, so no local
    # holds it: the input image is freed once stage 1's blocks are copied,
    # each stage's output once it is S/P-converted, and each S/P grid once
    # its blocks are copied, before the stage's product is allocated.
    grid = [as_image(img)[:, :, np.newaxis]]
    del img
    for i, stage in enumerate(model):
        if i:
            grid.append(sp_convert(grid.pop()))
        grid.append(forward_stage(grid.pop(), stage))
    return grid.pop()


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
    # As in forward, each grid is handed on from this list with no local
    # holding it, so it is freed as soon as it has been read.
    grid = [ref[:, :, np.newaxis]]
    del ref
    for _ in range(1, NUM_STAGES):
        grid.append(sp_convert(forward_stage(grid.pop(), stages[-1])))
        stages.append(train_stage(_windows(grid[0], BLOCK_SIZE, 1),
                                  input_channels=grid[0].shape[2]))
    return tuple(stages), forward_stage(grid.pop(), stages[-1])
