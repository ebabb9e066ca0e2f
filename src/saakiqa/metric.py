"""Full-reference quality score in the learned feature domain.

The score blends two per-channel comparisons of the reference and distorted
feature tensors: mean squared error pushed through a decaying exponential,
and Pearson correlation of the spatial maps. Channels are weighted by their
energy so that structure-carrying low-frequency components dominate:

    score = (1 - lam) * exp(-sum_k w_k D_k / c) + lam * sum_k w_k C_k
    w_k   = (1 - exp(-E_k / h^2)) / Z,   Z normalizing to sum 1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import QualityConfig
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    GeometryMismatchError,
)
from .image import as_image, crop_to_multiple, gaussian_filter
from .saak import TILE, SaakModel, forward, train_model

# The paper's fixed scales c and h of the score formula above.
C = 400.0
H = 100.0

# Spatial maps with population variance below this count as constant for
# the correlation term.
_VAR_EPS = 1e-12
_MEAN_EPS = 1e-9
_WEIGHT_EPS = 1e-12


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel diagnostics behind one score.

    ``mse`` (D), ``correlation`` (C), ``energy`` (E) and the normalized
    ``weight`` (w) arrays, one entry per spectral channel.
    """

    mse: np.ndarray
    correlation: np.ndarray
    energy: np.ndarray
    weight: np.ndarray

    @property
    def weighted_mse(self) -> float:
        return float(self.weight @ self.mse)

    @property
    def weighted_correlation(self) -> float:
        return float(self.weight @ self.correlation)


def _channel_correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation per channel with deterministic degenerate rules.

    Columns of ``a``/``b`` are the flattened spatial maps. When both maps
    are (near-)constant they correlate perfectly iff their means agree;
    when exactly one is constant no linear relation exists and the
    correlation is 0.
    """
    mean_a = a.mean(axis=0)
    mean_b = b.mean(axis=0)
    da = a - mean_a
    db = b - mean_b
    var_a = np.mean(da * da, axis=0)
    var_b = np.mean(db * db, axis=0)
    cov = np.mean(da * db, axis=0)

    flat_a = var_a < _VAR_EPS
    flat_b = var_b < _VAR_EPS
    denom = np.sqrt(var_a * var_b)
    safe = denom > 0
    corr = np.zeros_like(cov)
    np.divide(cov, denom, out=corr, where=safe)
    corr = np.clip(corr, -1.0, 1.0)

    both_flat = flat_a & flat_b
    corr[both_flat] = np.where(
        np.abs(mean_a[both_flat] - mean_b[both_flat]) <= _MEAN_EPS, 1.0, 0.0)
    corr[flat_a ^ flat_b] = 0.0
    return corr


def channel_stats(f_ref, f_dist, h: float) -> ChannelStats:
    """Compare two feature tensors channel by channel.

    Computes per-channel MSE, spatial-map correlation, pooled mean-square
    energy, and the energy-driven weights normalized to sum 1. Raises
    :class:`GeometryMismatchError` on shape disagreement and
    :class:`DegenerateInputError` when both tensors are essentially zero
    (the weights would be undefined).
    """
    fr = np.asarray(f_ref, dtype=np.float64)
    fd = np.asarray(f_dist, dtype=np.float64)
    if fr.ndim != 3 or fr.shape != fd.shape:
        raise GeometryMismatchError(
            f"feature tensors disagree: {fr.shape} vs {fd.shape}")

    a = fr.reshape(-1, fr.shape[2])
    b = fd.reshape(-1, fd.shape[2])
    diff = a - b
    mse = np.mean(diff * diff, axis=0)
    corr = _channel_correlations(a, b)
    energy = 0.5 * (np.mean(a * a, axis=0) + np.mean(b * b, axis=0))

    raw = 1.0 - np.exp(-energy / (h * h))
    z = raw.sum()
    if z < _WEIGHT_EPS:
        raise DegenerateInputError("both feature tensors are essentially zero")
    return ChannelStats(mse=mse, correlation=corr, energy=energy, weight=raw / z)


def quality_from_stats(stats: ChannelStats, lam: float, c: float) -> float:
    """Blend the weighted MSE and correlation terms into one score.

    The result lies in [-lam, 1] and reaches 1 exactly when every weighted
    channel is undistorted and perfectly correlated. The correlation term
    is evaluated as one minus the weighted deficit (the weights sum to 1),
    which keeps the undistorted case at exactly 1.0 instead of drifting by
    the round-off of the weight normalization.
    """
    corr_term = 1.0 - float(stats.weight @ (1.0 - stats.correlation))
    return float((1.0 - lam) * np.exp(-stats.weighted_mse / c)
                 + lam * corr_term)


@dataclass(frozen=True)
class Reference:
    """A reference image prepared once for scoring many distortions.

    ``image`` is the raw reference (for shape checks and PSNR), ``model``
    the transform learned from its cropped, filtered copy, ``f_ref`` that
    copy's features, and ``sigma`` the pre-filter width it was prepared
    with.
    """

    image: np.ndarray
    model: SaakModel
    f_ref: np.ndarray
    sigma: float


def _filtered(img: np.ndarray, sigma: float) -> np.ndarray:
    return gaussian_filter(crop_to_multiple(img, TILE), sigma)


def prepare_reference(ref, config: QualityConfig | None = None) -> Reference:
    """Learn the transform from a reference and transform the reference.

    This is the part of :func:`assess` that depends on the reference and
    ``config.sigma`` alone, so one prepared reference scores any number of
    distortions under any ``lam``.
    """
    config = config or QualityConfig()
    image = as_image(ref)
    filtered = _filtered(image, config.sigma)
    model = train_model(filtered)
    return Reference(image, model, forward(filtered, model), config.sigma)


def assess(ref, dist, config: QualityConfig | None = None) -> tuple[float, ChannelStats]:
    """Score a distorted image against its reference.

    Pipeline: crop both to the transform's tiling, low-pass both, learn the
    transform from the filtered reference, transform both, and evaluate the
    weighted quality function. Returns ``(score, stats)`` so callers can
    inspect the per-channel diagnostics without recomputation.

    ``ref`` is an image or a :class:`Reference` from
    :func:`prepare_reference`, which skips the training and scores under
    any ``lam``; its ``sigma`` must equal ``config.sigma`` (``ValueError``
    otherwise).
    """
    config = config or QualityConfig()
    prepared = isinstance(ref, Reference)
    if prepared and ref.sigma != config.sigma:
        raise ValueError(
            f"reference was prepared with sigma {ref.sigma}, not {config.sigma}")
    image = ref.image if prepared else as_image(ref)
    dist = as_image(dist)
    if image.shape != dist.shape:
        raise DimensionMismatchError(
            f"reference {image.shape} vs distorted {dist.shape}")

    if not prepared:
        ref = prepare_reference(image, config)
    f_dist = forward(_filtered(dist, config.sigma), ref.model)
    stats = channel_stats(ref.f_ref, f_dist, H)
    return quality_from_stats(stats, config.lam, C), stats
