import math
import sys
import tracemalloc

import numpy as np
import pytest

from saakiqa import (
    ImageTooSmallError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedMaxvalError,
    crop_to_multiple,
    gaussian_filter,
    prepare_reference,
    read_pgm,
    write_pgm,
)
from saakiqa import image
from saakiqa.image import filter_radius


def _write(tmp_path, name, payload: bytes):
    p = tmp_path / name
    p.write_bytes(payload)
    return p


class TestReadPgm:
    def test_p5_binary(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = read_pgm(p)
        assert img.shape == (2, 2)
        assert img.dtype == np.float64
        np.testing.assert_array_equal(img, [[0, 255], [128, 64]])

    def test_p2_ascii(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P2\n1 1\n255\n7")
        np.testing.assert_array_equal(read_pgm(p), [[7.0]])

    def test_header_comments(self, tmp_path):
        p = _write(tmp_path, "a.pgm",
                   b"P5\n# made by hand\n2 1 # dims\n# more\n255\n" + bytes([9, 10]))
        np.testing.assert_array_equal(read_pgm(p), [[9, 10]])

    def test_p6_rejected(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P6\n1 1\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(MalformedHeaderError):
            read_pgm(p)

    def test_nonpositive_dims(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P5\n0 2\n255\n")
        with pytest.raises(MalformedHeaderError):
            read_pgm(p)

    def test_maxval_too_large(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(UnsupportedMaxvalError):
            read_pgm(p)

    def test_truncated_raster(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(TruncatedDataError):
            read_pgm(p)

    def test_p2_truncated(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P2\n2 2\n255\n1 2 3")
        with pytest.raises(TruncatedDataError):
            read_pgm(p)

    def test_p2_bad_sample(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P2\n2 1\n255\n1 x")
        with pytest.raises(TruncatedDataError):
            read_pgm(p)

    def test_p2_trailing_comment_without_newline(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P2\n2 1\n255\n3 4 # 5 6")
        np.testing.assert_array_equal(read_pgm(p), [[3, 4]])
        # Numbers inside the comment are not samples.
        p = _write(tmp_path, "b.pgm", b"P2\n2 1\n255\n3 # 4")
        with pytest.raises(TruncatedDataError):
            read_pgm(p)

    def test_comment_glued_to_token(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P2\n2 1#dims\n255#max\n3#c\n4")
        np.testing.assert_array_equal(read_pgm(p), [[3, 4]])
        p = _write(tmp_path, "b.pgm", b"P5\n1 1\n255#c\n" + bytes([7]))
        with pytest.raises(MalformedHeaderError, match="separator"):
            read_pgm(p)

    def test_comments_between_p2_samples(self, tmp_path):
        p = _write(tmp_path, "a.pgm",
                   b"P2\n3 1\n255\n1 # one\n2\n#\n# two 9\r\n\t3\x0b")
        np.testing.assert_array_equal(read_pgm(p), [[1, 2, 3]])

    def test_tokens_match_byte_scan_oracle(self):
        # Oracle: a byte-at-a-time scan of whitespace, comments and tokens.
        space = b" \t\n\r\x0b\x0c"

        def scan(buf):
            out, i, n = [], 0, len(buf)
            while i < n:
                if buf[i] in space:
                    i += 1
                elif buf[i:i + 1] == b"#":
                    j = buf.find(b"\n", i)
                    i = n if j < 0 else j + 1
                else:
                    j = i
                    while j < n and buf[j] not in space and buf[j:j + 1] != b"#":
                        j += 1
                    out.append((buf[i:j], j))
                    i = j
            return out

        rng = np.random.default_rng(7)
        alphabet = np.frombuffer(b" \t\n\r\x0b\x0c##ab12", dtype=np.uint8)
        for _ in range(2000):
            buf = rng.choice(alphabet, int(rng.integers(0, 30))).tobytes()
            assert list(image._tokens(buf)) == scan(buf), buf

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_pgm(tmp_path / "nope.pgm")

    def test_malformed_header_or_samples(self, tmp_path):
        cases = [
            (b"", MalformedHeaderError, "empty file"),
            (b"P5\n2 2", MalformedHeaderError, "header ends early"),
            (b"P5\nx 2\n255\n", MalformedHeaderError, "invalid width: b'x'"),
            (b"P2\n1 1\n0\n0", MalformedHeaderError, "nonpositive maxval 0"),
            # A P5 sample above a maxval below 255, and P2 samples outside
            # 0..maxval on either side.
            (b"P5\n2 1\n100\n" + bytes([100, 101]), TruncatedDataError,
             "sample value exceeds declared maxval"),
            (b"P2\n2 1\n10\n10 11", TruncatedDataError, r"sample 11 outside 0\.\.10"),
            (b"P2\n1 1\n255\n-1", TruncatedDataError, r"sample -1 outside 0\.\.255"),
        ]
        for payload, error, match in cases:
            with pytest.raises(error, match=match):
                read_pgm(_write(tmp_path, "a.pgm", payload))

    def test_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, (13, 17)).astype(np.float64)
        p = tmp_path / "rt.pgm"
        write_pgm(img, p)
        once = read_pgm(p)
        write_pgm(once, p)
        np.testing.assert_array_equal(read_pgm(p), img)


class TestAsImage:
    def test_rejects_non_2d_empty_or_non_finite(self):
        for data in (np.zeros(4), np.zeros((2, 2, 1)), np.zeros((0, 3)), np.zeros((3, 0))):
            with pytest.raises(ValueError, match="image must be a non-empty 2-D array"):
                image.as_image(data)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="image contains non-finite values"):
                image.as_image([[1.0, bad]])


class TestCropToMultiple:
    def test_floor_crop(self):
        img = np.arange(17 * 33, dtype=np.float64).reshape(17, 33)
        out = crop_to_multiple(img, 16)
        assert out.shape == (16, 32)
        np.testing.assert_array_equal(out, img[:16, :32])

    def test_identity_when_aligned(self):
        img = np.zeros((64, 64))
        assert crop_to_multiple(img, 16).shape == (64, 64)

    def test_too_small(self):
        with pytest.raises(ImageTooSmallError):
            crop_to_multiple(np.zeros((10, 10)), 16)

    def test_multiple_must_be_positive(self):
        for m in (0, -8):
            with pytest.raises(ValueError, match="m must be a positive integer"):
                crop_to_multiple(np.zeros((16, 16)), m)

    def test_idempotent(self):
        img = np.arange(23 * 29, dtype=np.float64).reshape(23, 29)
        once = crop_to_multiple(img, 8)
        np.testing.assert_array_equal(crop_to_multiple(once, 8), once)


def _impulse_response(sigma, size=31):
    img = np.zeros((size, size))
    img[size // 2, size // 2] = 1.0
    return gaussian_filter(img, sigma)


# A reference the size of one transform tile, to prepare under a bad sigma.
_REF16 = np.arange(256.0).reshape(16, 16)


class TestSigmaSetsRadius:
    # The filter is specified by sigma alone: radius ceil(3*sigma),
    # reflected borders.
    def test_kernel_normalized_and_nonnegative(self):
        out = _impulse_response(1.0)
        support = np.argwhere(out > 0)
        assert support.min(axis=0).tolist() == [12, 12]
        assert support.max(axis=0).tolist() == [18, 18]
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_radius_floor(self):
        for sigma, radius in ((0.1, 1), (0.5, 2), (1.0, 3), (2.0, 6), (3.0, 9)):
            assert filter_radius(sigma) == radius
            support = np.flatnonzero(_impulse_response(sigma).sum(axis=0))
            assert support.size == 2 * radius + 1
        # No finite window reaches 3 sigma.
        for sigma in (math.inf, 1e308):
            with pytest.raises(ValueError):
                filter_radius(sigma)

    def test_sigma_needs_normal_tap_denominator(self):
        # 2*sigma**2 must be a normal float: subnormal, its taps overflow
        # (1e-160); zero, they are NaN (1e-200); infinite, the window is
        # unbounded (1e154).
        smallest = math.sqrt(sys.float_info.min / 2.0)
        largest = math.sqrt(sys.float_info.max / 2.0)
        below = math.nextafter(smallest, 0.0)
        assert 2.0 * below * below < sys.float_info.min <= 2.0 * smallest * smallest
        assert 2.0 * largest * largest < math.inf
        for sigma in (1e-160, 1e-200, 5e-324, below,
                      math.nextafter(largest, math.inf), 1e154, np.float64(1e200)):
            with pytest.raises(ValueError, match="sigma"):
                filter_radius(sigma)
            with pytest.raises(ValueError, match="sigma"):
                prepare_reference(_REF16, sigma)
        assert filter_radius(largest) == math.ceil(3.0 * largest)
        # The smallest accepted sigma filters without a warning; its
        # window is a single tap.
        img = np.arange(30.0).reshape(5, 6)
        assert filter_radius(smallest) == 1
        assert np.array_equal(gaussian_filter(img, smallest), img)

    def test_bad_sigma(self):
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                gaussian_filter(np.zeros((4, 4)), sigma)
            with pytest.raises(ValueError, match="sigma"):
                prepare_reference(_REF16, sigma)


def _gaussian_filter_tap_loop(img, sigma):
    """Oracle: the separable filter as a tap loop that allocates each
    weighted term afresh, rows first, then columns."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(x * x) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    out = img
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="symmetric")
        acc = np.zeros_like(out)
        n = out.shape[axis]
        for i, w in enumerate(taps):
            sl = [slice(None), slice(None)]
            sl[axis] = slice(i, i + n)
            acc += w * padded[tuple(sl)]
        out = acc
    return out


class TestGaussianFilter:
    def test_matches_tap_loop_oracle(self):
        rng = np.random.default_rng(5)
        img = np.rint(rng.uniform(0.0, 255.0, (70, 53)))
        for sigma in (0.5, 1.0, 2.0, 2.7):
            for a in (img, img.T):
                assert np.array_equal(gaussian_filter(a, sigma),
                                      _gaussian_filter_tap_loop(a, sigma))

    def test_constant_fixed_point(self):
        img = np.full((20, 20), 100.0)
        out = gaussian_filter(img, 1.0)
        np.testing.assert_allclose(out, 100.0, atol=1e-12)

    def test_impulse_matches_sampled_kernel(self):
        # Oracle: normalize exp(-(dx^2 + dy^2) / 2 sigma^2) over the 7x7
        # window, scaled by the impulse height.
        sigma, radius = 1.0, 3
        img = np.zeros((15, 15))
        img[7, 7] = 255.0
        dx = np.arange(-radius, radius + 1)
        g2 = np.exp(-(dx[:, None] ** 2 + dx[None, :] ** 2) / (2 * sigma ** 2))
        expected = np.zeros_like(img)
        expected[4:11, 4:11] = 255.0 * g2 / g2.sum()
        out = gaussian_filter(img, sigma)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_double_filter_equals_composed_kernel(self):
        # Oracle: explicit convolution with reflected indexing, applied with
        # the self-convolved tap set in one pass.
        img = np.zeros((12, 11))
        img[:, 1::2] = 255.0
        img[3:6, 4:9] += 17.0
        twice = gaussian_filter(gaussian_filter(img, 1.0), 1.0)

        def reflect(i, n):
            period = 2 * n
            i %= period
            return i if i < n else period - 1 - i

        def conv_axis(a, taps, r, axis):
            out = np.zeros_like(a)
            n = a.shape[axis]
            for pos in range(n):
                acc = 0.0
                for t, w in enumerate(taps):
                    src = reflect(pos + t - r, n)
                    acc = acc + w * np.take(a, src, axis=axis)
                idx = [slice(None)] * a.ndim
                idx[axis] = pos
                out[tuple(idx)] = acc
            return out

        dx = np.arange(-3, 4)
        taps = np.exp(-dx ** 2 / 2.0)
        taps /= taps.sum()
        taps2 = np.convolve(taps, taps)
        composed = conv_axis(conv_axis(img, taps2, 6, 0), taps2, 6, 1)
        np.testing.assert_allclose(twice, composed, atol=1e-9)

    def test_preserves_shape(self):
        img = np.arange(30.0).reshape(5, 6)
        assert gaussian_filter(img, 1.0).shape == (5, 6)

    def test_single_pixel(self):
        out = gaussian_filter(np.array([[42.0]]), 1.0)
        np.testing.assert_allclose(out, 42.0, atol=1e-12)

    def test_sigma_beyond_image_raises_before_building_taps(self):
        # filter_radius accepts 1e9 (a 6e9-tap window); the image-side
        # check refuses it before any of that is allocated.
        img = np.zeros((16, 16))
        assert np.array_equal(gaussian_filter(img, 16.0), img)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="longer side 16"):
                gaussian_filter(img, 1e9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_row_mean_preserved_for_constant_columns(self):
        # Columns constant: vertical pass is exact; horizontal reflection
        # keeps the global mean of a symmetric pattern.
        img = np.tile(np.array([[10.0, 30.0, 30.0, 10.0]]), (8, 1))
        out = gaussian_filter(img, 1.0)
        assert math.isclose(out.mean(), img.mean(), rel_tol=1e-12)
