"""Grayscale image I/O and spatial preprocessing.

Images are plain 2-D float64 arrays in row-major order with intensities on
the raw 0-255 scale. Decoding an 8-bit PGM yields exact integer values; no
rescaling or normalization happens anywhere in the pipeline.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (
    ImageTooSmallError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedMaxvalError,
)

# Skips whitespace and ``#`` comments (to the end of the line or of the
# buffer), then captures one token. Matched at a position rather than with
# ``finditer``, which would resume inside an unterminated trailing comment.
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*(?:\n|\Z))*([^ \t\n\r\x0b\x0c#]+)")

# The extreme sigmas whose Gaussian tap denominator 2*sigma**2 is normal.
_SIGMA_MIN = math.sqrt(np.finfo(float).tiny / 2.0)
_SIGMA_MAX = math.sqrt(np.finfo(float).max / 2.0)


def as_image(data) -> np.ndarray:
    """Coerce to a 2-D float64 image array, validating finiteness."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError("image must be a non-empty 2-D array")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite values")
    return img


def _tokens(buf: bytes):
    """Yield (token, end_offset) over PNM header/ASCII data.

    Tokens are whitespace-separated; ``#`` starts a comment running to the
    end of the line, per PNM convention.
    """
    pos = 0
    while m := _TOKEN.match(buf, pos):
        pos = m.end()
        yield m.group(1), pos


def _header_int(token: bytes, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedHeaderError(f"invalid {what}: {token!r}") from None


def read_pgm(path) -> np.ndarray:
    """Decode a P5 (binary) or P2 (ASCII) PGM file into a float64 image.

    Only single-channel 8-bit data (maxval <= 255) is accepted. Header
    comments are honored. Raises :class:`MalformedHeaderError`,
    :class:`UnsupportedMaxvalError` or :class:`TruncatedDataError` on bad
    input, and ``FileNotFoundError`` if the path does not exist.
    """
    with open(path, "rb") as fh:
        buf = fh.read()

    toks = _tokens(buf)
    try:
        magic, _ = next(toks)
    except StopIteration:
        raise MalformedHeaderError("empty file") from None
    if magic not in (b"P2", b"P5"):
        raise MalformedHeaderError(f"not a PGM file (magic {magic!r})")

    fields = []
    end = 0
    for _ in range(3):
        try:
            tok, end = next(toks)
        except StopIteration:
            raise MalformedHeaderError("header ends early") from None
        fields.append(tok)
    width = _header_int(fields[0], "width")
    height = _header_int(fields[1], "height")
    maxval = _header_int(fields[2], "maxval")
    if width <= 0 or height <= 0:
        raise MalformedHeaderError(f"nonpositive dimensions {width}x{height}")
    if maxval <= 0:
        raise MalformedHeaderError(f"nonpositive maxval {maxval}")
    if maxval > 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} > 255")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates the maxval token from the
        # raster.
        if not buf[end:end + 1].isspace():
            raise MalformedHeaderError("missing raster separator")
        raster = buf[end + 1:]
        if len(raster) < count:
            raise TruncatedDataError(
                f"expected {count} raster bytes, found {len(raster)}")
        values = np.frombuffer(raster[:count], dtype=np.uint8)
        if maxval < 255 and values.max(initial=0) > maxval:
            raise TruncatedDataError("sample value exceeds declared maxval")
    else:
        samples = []
        for tok, _ in toks:
            try:
                v = int(tok)
            except ValueError:
                raise TruncatedDataError(f"non-numeric sample {tok!r}") from None
            if v < 0 or v > maxval:
                raise TruncatedDataError(f"sample {v} outside 0..{maxval}")
            samples.append(v)
            if len(samples) == count:
                break
        if len(samples) < count:
            raise TruncatedDataError(
                f"expected {count} samples, found {len(samples)}")
        values = np.asarray(samples, dtype=np.uint8)

    return values.astype(np.float64).reshape(height, width)


def write_pgm(img, path) -> None:
    """Encode an image as binary (P5) PGM, rounding to 8-bit samples."""
    img = as_image(img)
    data = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    height, width = data.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(data.tobytes())


def crop_to_multiple(img, m: int) -> np.ndarray:
    """Top-left crop so both dimensions are multiples of ``m``.

    Returns the input unchanged when it already tiles exactly. Raises
    :class:`ImageTooSmallError` when a cropped dimension would fall below
    one block.
    """
    img = as_image(img)
    if m < 1:
        raise ValueError("m must be a positive integer")
    h, w = img.shape
    h2 = (h // m) * m
    w2 = (w // m) * m
    if h2 < m or w2 < m:
        raise ImageTooSmallError(f"{w}x{h} image cannot be cropped to a multiple of {m}")
    if (h2, w2) == (h, w):
        return img
    return img[:h2, :w2].copy()


def _filter_axis(img: np.ndarray, taps: np.ndarray, radius: int, axis: int) -> np.ndarray:
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(img, pad, mode="symmetric")
    out = np.zeros_like(img)
    term = np.empty_like(img)
    n = img.shape[axis]
    for i, w in enumerate(taps):
        sl = [slice(None), slice(None)]
        sl[axis] = slice(i, i + n)
        out += np.multiply(w, padded[tuple(sl)], out=term)
    return out


def filter_radius(sigma: float) -> int:
    """Half-width of the Gaussian window: ``ceil(3 * sigma)``.

    The window covers three standard deviations on each side. Raises
    ``ValueError`` unless ``2 * sigma**2``, the taps' denominator, is a
    normal float; otherwise the taps overflow or are NaN, or no window fits.
    """
    if not _SIGMA_MIN <= sigma <= _SIGMA_MAX:
        raise ValueError(
            f"sigma must lie in [{_SIGMA_MIN:.4g}, {_SIGMA_MAX:.4g}], got {sigma!r}")
    return math.ceil(3.0 * sigma)


def gaussian_filter(img, sigma: float) -> np.ndarray:
    """Separable 2-D Gaussian convolution with reflected borders.

    Taps are sampled at offsets ``-r..r`` with ``r = filter_radius(sigma)``
    and normalized to sum to one. Border samples are mirrored
    edge-inclusively, so constant images are exact fixed points and output
    dimensions equal input dimensions.
    """
    img = as_image(img)
    radius = filter_radius(sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(x * x) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    out = _filter_axis(img, taps, radius, axis=0)
    return _filter_axis(out, taps, radius, axis=1)
