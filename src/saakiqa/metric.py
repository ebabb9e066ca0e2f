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
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    GeometryMismatchError,
    SaakIqaError,
)
from .image import as_image, crop_to_multiple, gaussian_filter
from .saak import TILE, SaakStage, forward, train_model

# The paper's fixed scales c and h of the score formula above.
C = 400.0
H = 100.0
# Default width of the Gaussian pre-filter; a prepared Reference holds its own.
SIGMA = 1.0

# Blend factor tuned per codec family: blockiness (jpeg) favors the MSE
# term, ringing (jpeg2000) the correlation term.
CODEC_LAMBDAS = {"jpeg": 0.7, "jpeg2000": 0.2}

# Spatial maps with population variance below this count as constant for
# the correlation term.
_VAR_EPS = 1e-12
_MEAN_EPS = 1e-9
_WEIGHT_EPS = 1e-12


@dataclass(frozen=True)
class QualityConfig:
    """The one value a caller sets per distortion; the rest is fixed design.

    ``lam`` is the MSE/correlation blend weight in [0, 1]. The pre-filter
    width belongs to the reference: it is the ``sigma`` given to
    :func:`prepare_reference`. The transform geometry lives in
    :mod:`saakiqa.saak` and the score scales are ``C`` and ``H`` above.
    """

    lam: float = CODEC_LAMBDAS["jpeg"]

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")

    @classmethod
    def for_codec(cls, codec: str, lam: float | None = None) -> "QualityConfig":
        """The one resolver of the blend factor: ``lam`` when given, else the
        codec's tuned default; a codec without one (``other``) raises
        :class:`SaakIqaError`."""
        if lam is None and codec not in CODEC_LAMBDAS:
            raise SaakIqaError(f"codec {codec!r} has no default lambda; pass an override")
        return cls(CODEC_LAMBDAS[codec] if lam is None else lam)


@dataclass(frozen=True, eq=False)
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
        # One minus the weighted deficit (the weights sum to 1): exactly 1.0
        # when every channel correlates perfectly, with no drift from the
        # round-off of the weight normalization.
        return 1.0 - float(self.weight @ (1.0 - self.correlation))


class _ReferenceTerms(NamedTuple):
    """One side of :func:`channel_stats`: the per-channel mean, variance
    and mean square of the flattened ``(n, K)`` spatial maps."""

    mean: np.ndarray
    variance: np.ndarray
    mean_square: np.ndarray


def _reference_terms(maps: np.ndarray, buf: np.ndarray,
                     centred: np.ndarray) -> _ReferenceTerms:
    # The maps are centred into ``centred``, which may be ``buf``; both
    # squares land in ``buf``, which the caller may reuse afterwards. No
    # feature-sized array is allocated.
    mean = maps.mean(axis=0)
    np.subtract(maps, mean, out=centred)
    variance = np.mean(np.multiply(centred, centred, out=buf), axis=0)
    mean_square = np.mean(np.multiply(maps, maps, out=buf), axis=0)
    return _ReferenceTerms(mean, variance, mean_square)


def channel_stats(f_ref, f_dist) -> ChannelStats:
    """Compare two feature tensors channel by channel.

    Computes per-channel MSE, spatial-map correlation, pooled mean-square
    energy, and the energy-driven weights normalized to sum 1. ``f_ref`` is
    a feature tensor or a :class:`Reference`, whose channel terms were
    computed once by :func:`prepare_reference`; both give the same stats
    bit for bit. Raises :class:`GeometryMismatchError` on shape
    disagreement and :class:`DegenerateInputError` when both tensors are
    essentially zero (the weights would be undefined).

    The correlation is Pearson's per channel with deterministic degenerate
    rules: when both spatial maps are (near-)constant they correlate
    perfectly iff their means agree; when exactly one is constant no
    linear relation exists and the correlation is 0.
    """
    prepared = isinstance(f_ref, Reference)
    fr = f_ref.f_ref if prepared else np.asarray(f_ref, dtype=np.float64)
    fd = np.asarray(f_dist, dtype=np.float64)
    if fr.ndim != 3 or fr.shape != fd.shape:
        raise GeometryMismatchError(
            f"feature tensors disagree: {fr.shape} vs {fd.shape}")

    # Every product lands in one scratch buffer; each is reduced before the
    # next overwrites it. Only the distorted maps stay centred, in a second
    # buffer; the reference maps are centred into the first for the
    # covariance, which gives the bits of centring them once. Without these
    # buffers channel_stats measured 3.5 % slower at 256x256, 9 % at 512x512.
    a = fr.reshape(-1, fr.shape[2])
    b = fd.reshape(-1, fd.shape[2])
    buf, centred = np.empty(b.shape), np.empty(b.shape)
    ref = f_ref.terms if prepared else _reference_terms(a, buf, buf)
    dist = _reference_terms(b, buf, centred)
    np.subtract(a, ref.mean, out=buf)
    cov = np.mean(np.multiply(buf, centred, out=buf), axis=0)
    # Freed before the per-channel results are made: with it held to the
    # end, a 512x512 assess measured 1.8 MB more peak RSS (heap layout).
    del centred
    np.subtract(a, b, out=buf)
    mse = np.mean(np.multiply(buf, buf, out=buf), axis=0)
    energy = 0.5 * (ref.mean_square + dist.mean_square)

    flat_a = ref.variance < _VAR_EPS
    flat_b = dist.variance < _VAR_EPS
    denom = np.sqrt(ref.variance * dist.variance)
    corr = np.zeros_like(cov)
    np.divide(cov, denom, out=corr, where=denom > 0)
    corr = np.clip(corr, -1.0, 1.0)
    both_flat = flat_a & flat_b
    corr[both_flat] = np.where(
        np.abs(ref.mean[both_flat] - dist.mean[both_flat]) <= _MEAN_EPS, 1.0, 0.0)
    corr[flat_a ^ flat_b] = 0.0

    raw = 1.0 - np.exp(-energy / (H * H))
    z = raw.sum()
    if z < _WEIGHT_EPS:
        raise DegenerateInputError("both feature tensors are essentially zero")
    return ChannelStats(mse=mse, correlation=corr, energy=energy, weight=raw / z)


def quality_from_stats(stats: ChannelStats, lam: float) -> float:
    """Blend the weighted MSE and correlation terms into one score.

    The result lies in [-lam, 1] and reaches 1 exactly when every weighted
    channel is undistorted and perfectly correlated.
    """
    return float((1.0 - lam) * np.exp(-stats.weighted_mse / C)
                 + lam * stats.weighted_correlation)


@dataclass(frozen=True, eq=False)
class Reference:
    """A reference image prepared once for scoring many distortions.

    ``image`` is the raw reference (for shape checks), ``model`` the
    stages of the transform learned from its cropped, filtered copy,
    ``f_ref`` that copy's features, and ``sigma`` the pre-filter width it
    was prepared with. ``terms`` holds the reference side of
    :func:`channel_stats` computed once from ``f_ref``: per-channel mean,
    variance and mean square, so ``f_ref`` is the one array of its size.
    Every array of ``model``, ``f_ref`` and ``terms`` is read-only, so none
    can drift apart from the others.
    """

    image: np.ndarray
    model: tuple[SaakStage, ...]
    f_ref: np.ndarray
    sigma: float
    terms: _ReferenceTerms


def _filtered(img: np.ndarray, sigma: float) -> np.ndarray:
    return gaussian_filter(crop_to_multiple(img, TILE), sigma)


def prepare_reference(ref, sigma: float = SIGMA) -> Reference:
    """Learn the transform from a reference, transforming it in the same pass.

    This is the part of :func:`assess` that depends on the reference and
    the pre-filter width ``sigma`` alone, so one prepared reference scores
    any number of distortions under any ``lam``. A ``sigma`` that
    ``filter_radius`` rejects, or wider than the image, raises ``ValueError``.
    """
    image = as_image(ref)
    model, f_ref = train_model(_filtered(image, sigma))
    maps = f_ref.reshape(-1, f_ref.shape[2])
    buf = np.empty(maps.shape)  # all three terms in one feature-sized scratch
    terms = _reference_terms(maps, buf, buf)
    for a in (f_ref, *terms, *(x for s in model for x in (s.kernels, s.eigenvalues))):
        a.flags.writeable = False
    return Reference(image, model, f_ref, sigma, terms)


def assess(ref, dist, config: QualityConfig | None = None) -> tuple[float, ChannelStats]:
    """Score a distorted image against its reference.

    Pipeline: crop both to the transform's tiling, low-pass both, train on
    and transform the filtered reference in one pass, transform the
    distorted image, and evaluate the weighted quality function. Returns
    ``(score, stats)`` so callers can inspect the per-channel diagnostics.

    ``ref`` is an image, prepared with the default pre-filter width
    ``SIGMA``, or a :class:`Reference` from :func:`prepare_reference`,
    which skips the training and scores under any ``lam``. The distorted
    image is filtered with the reference's ``sigma``.
    """
    config = config or QualityConfig()
    prepared = isinstance(ref, Reference)
    image = ref.image if prepared else as_image(ref)
    dist = as_image(dist)
    if image.shape != dist.shape:
        raise DimensionMismatchError(
            f"reference {image.shape} vs distorted {dist.shape}")

    if not prepared:
        ref = prepare_reference(image)
    f_dist = forward(_filtered(dist, ref.sigma), ref.model)
    stats = channel_stats(ref, f_dist)
    return quality_from_stats(stats, config.lam), stats
