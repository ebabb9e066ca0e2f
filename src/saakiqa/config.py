"""Scoring configuration: the values callers choose per run."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SaakIqaError
from .image import filter_radius

# Blend factor tuned per codec family: blockiness (jpeg) favors the MSE
# term, ringing (jpeg2000) the correlation term.
CODEC_LAMBDAS = {"jpeg": 0.7, "jpeg2000": 0.2}


@dataclass(frozen=True)
class QualityConfig:
    """The two settings of the scoring pipeline; the rest is fixed design.

    ``lam`` is the MSE/correlation blend weight in [0, 1]. ``sigma`` is the
    standard deviation of the Gaussian pre-filter, as ``filter_radius``
    accepts it; its window radius is ``ceil(3 * sigma)`` and its borders
    are always reflected. The transform geometry lives in
    :mod:`saakiqa.saak` and the score scales ``C`` and ``H`` in
    :mod:`saakiqa.metric`.
    """

    lam: float = CODEC_LAMBDAS["jpeg"]
    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        filter_radius(self.sigma)  # raises ValueError on an unusable sigma

    @classmethod
    def for_codec(cls, codec: str, lam: float | None = None,
                  sigma: float = sigma) -> "QualityConfig":
        """The one resolver of the blend factor: ``lam`` when given, else the
        codec's tuned default; a codec without one (``other``) raises
        :class:`SaakIqaError`. ``sigma`` defaults to the field default."""
        if lam is None and codec not in CODEC_LAMBDAS:
            raise SaakIqaError(f"codec {codec!r} has no default lambda; pass an override")
        return cls(CODEC_LAMBDAS[codec] if lam is None else lam, sigma)
