"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of ``(seed, index)``: the same seed
always gives the same images, MOS values and statistics samples, whatever
order they are drawn in. Nothing is taken from the test suite; the only
program functions used are ``synth_distort``, the distortion the package
itself ships for self-contained evaluation, and ``write_pgm``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import saakiqa as sq

# Ten block-DCT quantization steps, mild to heavy, per reference.
QSTEPS = tuple(float(q) for q in np.geomspace(2.0, 128.0, 10))
CODECS = ("jpeg", "jpeg2000")

# Independent random streams, so adding draws to one never shifts another.
_STREAM_PAIR, _STREAM_MANIFEST, _STREAM_STATS = 1, 2, 3


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _smooth(img: np.ndarray, sigma: float, radius: int) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-x * x / (2.0 * sigma * sigma))
    taps /= taps.sum()
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(img, pad, mode="reflect")
        out = np.zeros_like(img)
        n = img.shape[axis]
        for i, w in enumerate(taps):
            out += w * (padded[i:i + n] if axis == 0 else padded[:, i:i + n])
        img = out
    return img


def textured_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """Natural-looking 8-bit content: smoothed noise plus fine grain.

    Large correlated structures keep most 4x4 patches above the stage-1
    texture threshold; values are integers in [0, 255] so PGM round trips
    are exact.
    """
    smooth = _smooth(rng.uniform(0.0, 1.0, (size, size)), sigma=3.0, radius=9)
    smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min())
    img = 20.0 + 215.0 * smooth + rng.normal(0.0, 4.0, (size, size))
    return np.clip(np.rint(img), 0.0, 255.0)


def mos_for(qstep: float, rng: np.random.Generator) -> float:
    """DMOS-like opinion score: falls with log qstep, plus rater noise."""
    return round(92.0 - 12.0 * float(np.log2(qstep)) + float(rng.normal(0.0, 5.0)), 3)


@dataclass(frozen=True)
class Pair:
    ref: np.ndarray
    dist: np.ndarray
    codec: str


def assess_pair(seed: int, index: int, size: int) -> Pair:
    """Pair ``index`` of the single-pair workload: its own reference, a
    seeded quantization step, and a codec alternating jpeg/jpeg2000."""
    rng = _rng(seed, _STREAM_PAIR, index)
    ref = textured_image(rng, size)
    qstep = QSTEPS[int(rng.integers(len(QSTEPS)))]
    return Pair(ref, sq.synth_distort(ref, qstep), CODECS[index % 2])


def write_manifest(seed: int, directory: str, rows: int, refs: int,
                   size: int) -> str:
    """Write a LIVE-shaped batch: ``rows`` distortions over ``refs``
    references, as 8-bit PGMs plus a ``ref,dist,mos,codec`` manifest.

    Row ``r`` uses reference ``r * refs // rows`` and qstep
    ``QSTEPS[r % 10]``; codecs alternate by row, so each codec gets half
    the rows and, with shared references, every reference appears under
    both codecs. Returns the manifest path.
    """
    lines = ["ref,dist,mos,codec"]
    references = {}
    for r in range(rows):
        k = r * refs // rows
        if k not in references:
            references[k] = textured_image(_rng(seed, _STREAM_MANIFEST, k), size)
            sq.write_pgm(references[k], os.path.join(directory, f"ref{k:03d}.pgm"))
        qstep = QSTEPS[r % len(QSTEPS)]
        sq.write_pgm(sq.synth_distort(references[k], qstep),
                     os.path.join(directory, f"dist{r:03d}.pgm"))
        mos = mos_for(qstep, _rng(seed, _STREAM_MANIFEST, 10_000 + r))
        lines.append(f"ref{k:03d}.pgm,dist{r:03d}.pgm,{mos!r},{CODECS[r % 2]}")
    path = os.path.join(directory, "manifest.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def stats_sample(seed: int, index: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """TID-scale objective/subjective score pairs with ties on both sides.

    A latent quality drives a saturating objective score (rounded to three
    decimals) and a linear MOS (rounded to one decimal), each with its own
    noise, so the logistic fit has a real nonlinearity to find.
    """
    rng = _rng(seed, _STREAM_STATS, index)
    latent = rng.uniform(0.0, 1.0, n)
    scores = 0.55 + 0.4 * np.tanh(3.0 * (latent - 0.5)) + rng.normal(0.0, 0.03, n)
    mos = 10.0 + 80.0 * latent + rng.normal(0.0, 6.0, n)
    return np.round(scores, 3), np.round(mos, 1)
