import math
import tracemalloc
import warnings

import numpy as np
import pytest

from saakiqa import (
    DegenerateVarianceError,
    DimensionMismatchError,
    LengthMismatchError,
    kendall_tau_b,
    logistic5_eval,
    logistic5_fit,
    pearson,
    psnr,
    rankdata,
    spearman,
)


def _rank_oracle(v):
    """Average ranks by brute force: mean 1-based position among equals."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.size)
    srt = np.sort(v)
    for i, value in enumerate(v):
        positions = np.nonzero(srt == value)[0] + 1
        out[i] = positions.mean()
    return out


def _pearson_oracle(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx, dy = x - x.mean(), y - y.mean()
    return float(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


def _kendall_oracle(x, y):
    """Brute-force tau-b over all pairs."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / np.sqrt((n0 - ties_x) * (n0 - ties_y))


def _kendall_sign_matrix_oracle(x, y):
    """tau-b from two n x n sign matrices: the quadratic-memory formula,
    kept as the reference that the rank-based count must equal exactly."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    s = float(np.sum(da * db)) / 2.0
    n0 = a.size * (a.size - 1) / 2.0
    ties = [float(np.sum(c * (c - 1)) / 2.0)
            for c in (np.unique(a, return_counts=True)[1],
                      np.unique(b, return_counts=True)[1])]
    denom = np.sqrt((n0 - ties[0]) * (n0 - ties[1]))
    return float(np.clip(s / denom, -1.0, 1.0))


def test_non_finite_input_rejected():
    x = np.arange(12.0)
    for bad in (math.nan, math.inf, -math.inf):
        y = x.copy()
        y[3] = bad
        with pytest.raises(ValueError, match="x contains non-finite values"):
            rankdata(y)
        for fn in (pearson, spearman, kendall_tau_b, logistic5_fit):
            with pytest.raises(ValueError, match="y contains non-finite values"):
                fn(x, y)
            with pytest.raises(ValueError, match="x contains non-finite values"):
                fn(y, x)


class TestPearson:
    def test_identical(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negated(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_four_point_hand_value(self):
        x, y = [1, 2, 3, 4], [2, 1, 4, 3]
        assert _pearson_oracle(x, y) == pytest.approx(0.6)
        assert pearson(x, y) == pytest.approx(0.6, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(LengthMismatchError):
            pearson([1], [1])

    def test_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            pearson([5, 5, 5], [1, 2, 3])

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        r = pearson(x, y)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(-2.0 * x, y) == pytest.approx(-r, abs=1e-12)

    def test_extreme_magnitudes(self):
        # Squaring 1e200 overflows, squaring 1e-200 underflows, and summing
        # 1e308 twice overflows the mean.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e200, 1e-200):
                assert pearson([scale, -scale, 0], [1, 2, 3]) == pytest.approx(
                    -0.5, abs=1e-15)
            assert pearson([1e308, 1e308, -1e308], [1, 2, 3]) == pytest.approx(
                -np.sqrt(0.75), abs=1e-15)
            # Inputs one step from constant still have a nonzero variance.
            for x in ([0.5, 0.5, np.nextafter(0.5, 1.0)], [5e-324, 0.0, 0.0],
                      [1e300, 1e-300, 1e-300], [1.0, 1.0, 1.0 + 2**-52, 1.0]):
                r = pearson(x, range(len(x)))
                assert math.isfinite(r) and -1.0 <= r <= 1.0, x

    def test_bit_identical_to_unscaled_formula(self):
        def unscaled(x, y):
            dx, dy = x - x.mean(), y - y.mean()
            return float(np.clip((dx @ dy) / np.sqrt((dx @ dx) * (dy @ dy)), -1.0, 1.0))

        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 100))
            scale = 10.0 ** rng.uniform(-5, 5)
            offset = rng.normal() * scale * 10.0 ** rng.uniform(-3, 3)
            x = rng.normal(size=n) * scale + offset
            y = rng.normal(size=n) + 0.5 * x / scale
            assert pearson(x, y) == unscaled(x, y)


class TestSpearman:
    def test_monotone_agreement(self):
        assert spearman([1, 5, 9, 10], [0.1, 0.2, 0.7, 3.0]) == pytest.approx(1.0)

    def test_monotone_reversal(self):
        assert spearman([1, 2, 3], [9, 4, 1]) == pytest.approx(-1.0)

    def test_tie_handling_against_oracle(self):
        x, y = [1, 1, 2], [3, 5, 4]
        np.testing.assert_array_equal(rankdata(x), [1.5, 1.5, 3.0])
        np.testing.assert_array_equal(rankdata(y), [1.0, 3.0, 2.0])
        expected = _pearson_oracle(_rank_oracle(x), _rank_oracle(y))
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)
        # Tie-heavy at manifest scale, with signed zeros tied to each other.
        heavy = np.random.default_rng(7).integers(-20, 21, size=3000) / 4.0
        heavy[::2] *= -1.0
        np.testing.assert_array_equal(rankdata(heavy), _rank_oracle(heavy))

    def test_is_pearson_of_ranks_by_construction(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 6, size=25).astype(float)
        y = rng.integers(0, 6, size=25).astype(float)
        assert spearman(x, y) == pearson(rankdata(x), rankdata(y))

    def test_all_tied(self):
        with pytest.raises(DegenerateVarianceError):
            spearman([2, 2, 2], [1, 2, 3])


class TestKendall:
    def test_concordant(self):
        assert kendall_tau_b([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_four_point_hand_value(self):
        x, y = [1, 2, 3, 4], [1, 3, 2, 4]
        assert _kendall_oracle(x, y) == pytest.approx(4.0 / 6.0)
        assert kendall_tau_b(x, y) == pytest.approx(4.0 / 6.0, abs=1e-12)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            kendall_tau_b([3, 3, 3], [1, 2, 3])

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(3, 21))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert kendall_tau_b(x, y) == pytest.approx(
                _kendall_oracle(x, y), abs=1e-12)

    def test_bit_identical_to_sign_matrix_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 301))
            x = rng.integers(-4, 5, size=n) / 2.0
            y = rng.integers(-3, 4, size=n).astype(float)
            # Signed zeros must tie with each other, as in the sign matrices.
            x[rng.random(n) < 0.5] *= -1.0
            y[rng.random(n) < 0.5] *= -1.0
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert kendall_tau_b(x, y) == _kendall_sign_matrix_oracle(x, y)
        ramp = np.arange(3000.0)
        assert kendall_tau_b(ramp, ramp) == 1.0
        assert kendall_tau_b(ramp, ramp[::-1]) == -1.0
        # A manifest-scale score/MOS sample with the ties rounding leaves.
        scores = np.round(rng.normal(0.5, 0.2, size=2000), 3)
        mos = np.round(50.0 + 40.0 * scores + rng.normal(0.0, 8.0, size=2000), 1)
        assert kendall_tau_b(scores, mos) == _kendall_sign_matrix_oracle(scores, mos)

    def test_extreme_magnitudes_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kendall_tau_b([1e308, -1e308, 0.0], [1, 2, 3]) == -1.0 / 3.0

    def test_peak_memory_linear(self):
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=3000), 3)
        y = np.round(x + rng.normal(size=3000), 1)
        tracemalloc.start()
        try:
            kendall_tau_b(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two n x n sign matrices alone would take 144 MB here.
        assert peak < 4e6

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert kendall_tau_b(-x, y) == pytest.approx(
            -kendall_tau_b(x, y), abs=1e-12)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.arange(16.0).reshape(4, 4)
        assert psnr(img, img) == float("inf")

    def test_uniform_unit_error(self):
        ref = np.full((8, 8), 100.0)
        assert psnr(ref, ref + 1.0) == pytest.approx(10 * np.log10(65025.0))
        assert psnr(ref, ref + 1.0) == pytest.approx(48.1308, abs=1e-4)

    def test_checkerboard_zero_db(self):
        ref = np.indices((8, 8)).sum(axis=0) % 2 * 255.0
        assert psnr(ref, 255.0 - ref) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_empty_or_non_finite_input_rejected(self):
        ok = np.zeros((4, 4))
        for bad in (np.nan, np.inf, -np.inf):
            img = ok.copy()
            img[1, 2] = bad
            for a, b in ((img, ok), (ok, img)):
                with pytest.raises(ValueError, match="non-finite"):
                    psnr(a, b)
        with pytest.raises(ValueError, match="empty"):
            psnr(np.zeros((0, 4)), np.zeros((0, 4)))


    def test_far_apart_finite_inputs_do_not_overflow(self):
        peak = 10 * np.log10(255.0 ** 2)
        # The difference is finite but its square overflows.
        assert psnr([[1e200]], [[-1e200]]) == pytest.approx(
            peak - 20 * np.log10(2e200), rel=1e-12)
        assert psnr([[1e200, 0.0], [0.0, 0.0]], np.zeros((2, 2))) == pytest.approx(
            peak - 4000 + 10 * np.log10(4.0), rel=1e-12)
        # The difference itself overflows.
        assert psnr([[1.7e308]], [[-1.7e308]]) == pytest.approx(
            peak - 20 * (np.log10(3.4) + 308), rel=1e-12)


class TestLogisticEval:
    def test_center_point(self):
        beta = [2.0, 1.5, 0.7, 0.3, -1.0]
        assert logistic5_eval(beta, 0.7) == pytest.approx(0.3 * 0.7 - 1.0)

    def test_linear_degenerate(self):
        beta = [0.0, 1.0, 0.0, 1.0, 0.0]
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(logistic5_eval(beta, x), x)

    def test_saturation(self):
        beta = [2.0, 1.0, 0.0, 0.0, 0.0]
        assert logistic5_eval(beta, 1e9) == pytest.approx(1.0)
        assert logistic5_eval(beta, -1e9) == pytest.approx(-1.0)

    def test_no_overflow_warning(self):
        with np.errstate(over="raise"):
            logistic5_eval([1.0, 50.0, 0.0, 0.0, 0.0], np.array([-1e8, 1e8]))


class TestLogisticFit:
    def test_exact_recovery(self):
        beta_true = np.array([2.0, 1.0, 0.5, 0.1, 3.0])
        # On the second grid mean(scores) is exactly 0, so the search starts
        # at b3 = 0 and the simplex steps off that zero coordinate by a fixed
        # offset instead of by 5 %.
        for x in (np.linspace(-3.0, 4.0, 50), np.arange(-20.0, 21.0) / 4.0):
            y = logistic5_eval(beta_true, x)
            fit = logistic5_fit(x, y)
            assert fit.sse <= 1e-10
            assert pearson(logistic5_eval(fit.beta, x), y) >= 1.0 - 1e-9

    def test_sse_is_that_of_the_returned_beta(self):
        # The ridge example (b1 ~ -7.9e13) is where an SSE taken from the
        # fit's own least-squares design drifted from the returned curve's.
        ridge_x = np.sort(1.0 - np.geomspace(2e-4, 2e-2, 20))
        ridge_y = np.round(20.0 + 3000.0 * (ridge_x - ridge_x.min())
                           + np.random.default_rng(1).normal(0, 5, 20), 1)
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        for xs, ys in ((ridge_x, ridge_y), (x, np.tanh(x) + 0.1 * rng.normal(size=40))):
            fit = logistic5_fit(xs, ys)
            r = logistic5_eval(fit.beta, xs) - ys
            assert fit.sse == float(r @ r)

    def test_linear_subfamily(self):
        x = np.linspace(0, 10, 30)
        y = 2.0 * x + 1.0
        fit = logistic5_fit(x, y)
        assert fit.sse <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        y = np.tanh(x) + 0.1 * rng.normal(size=40)
        f1 = logistic5_fit(x, y)
        f2 = logistic5_fit(x, y)
        np.testing.assert_array_equal(f1.beta, f2.beta)
        assert f1.sse == f2.sse
        assert f1.iterations == f2.iterations

    def test_never_worse_than_initial(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        fit = logistic5_fit(x, y)
        resid = y - y.mean()
        assert fit.sse <= float(resid @ resid) + 1e-9

    def test_constant_scores(self):
        with pytest.raises(DegenerateVarianceError):
            logistic5_fit(np.ones(20), np.arange(20.0))

    def test_too_few_points(self):
        with pytest.raises(LengthMismatchError):
            logistic5_fit(np.arange(5.0), np.arange(5.0))


def _plcc_of_fitted_curve(x, y):
    # The per-codec sequence of the batch harness: fit, map, correlate.
    return pearson(logistic5_eval(logistic5_fit(x, y).beta, x), y)


class TestPlccOfFittedCurve:
    def test_perfect_fit(self):
        beta = np.array([1.5, 2.0, 0.0, -0.2, 4.0])
        x = np.linspace(-2, 2, 40)
        assert _plcc_of_fitted_curve(x, logistic5_eval(beta, x)) >= 1 - 1e-9

    def test_noise_is_uncorrelated(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=1000)
        y = rng.normal(size=1000)
        assert abs(_plcc_of_fitted_curve(x, y)) < 0.1

    def test_beats_raw_pearson_on_monotone_nonlinearity(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.normal(0, 2.0, size=200))
        y = np.tanh(x)
        assert _plcc_of_fitted_curve(x, y) > pearson(x, y)

    def test_at_least_absolute_pearson(self):
        for seed in (8, 9, 10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=60)
            y = 0.5 * x + rng.normal(size=60)
            assert _plcc_of_fitted_curve(x, y) >= abs(pearson(x, y)) - 1e-9
