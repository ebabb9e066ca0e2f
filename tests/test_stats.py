import math
import warnings

import numpy as np
import pytest
from conftest import (blas_threads, kendall_oracle, pearson_oracle, rank_oracle,
                      tied_sample, traced_peak)

from saakiqa import stats
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
        assert pearson_oracle(x, y) == pytest.approx(0.6)
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
            return float(np.clip(np.sum(dx * dy)
                                 / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)), -1.0, 1.0))

        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 100))
            scale = 10.0 ** rng.uniform(-5, 5)
            offset = rng.normal() * scale * 10.0 ** rng.uniform(-3, 3)
            x = rng.normal(size=n) * scale + offset
            y = rng.normal(size=n) + 0.5 * x / scale
            assert pearson(x, y) == unscaled(x, y)

    def test_one_blas_thread_gives_the_same_bits_at_large_n(self):
        # At n = 20000 a BLAS dot would split each sum across threads.
        x, y = tied_sample(17, 20000)
        results = []
        for n in (1, 2):
            with blas_threads(n):
                results.append((pearson(x, y), spearman(x, y)))
        assert results[0] == results[1]


class TestSpearman:
    def test_monotone_agreement(self):
        assert spearman([1, 5, 9, 10], [0.1, 0.2, 0.7, 3.0]) == pytest.approx(1.0)

    def test_monotone_reversal(self):
        assert spearman([1, 2, 3], [9, 4, 1]) == pytest.approx(-1.0)

    def test_tie_handling_against_oracle(self):
        x, y = [1, 1, 2], [3, 5, 4]
        np.testing.assert_array_equal(rankdata(x), [1.5, 1.5, 3.0])
        np.testing.assert_array_equal(rankdata(y), [1.0, 3.0, 2.0])
        expected = pearson_oracle(rank_oracle(x), rank_oracle(y))
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)
        # Tie-heavy at manifest scale, with signed zeros tied to each other.
        heavy = np.random.default_rng(7).integers(-20, 21, size=3000) / 4.0
        heavy[::2] *= -1.0
        np.testing.assert_array_equal(rankdata(heavy), rank_oracle(heavy))

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
        assert kendall_oracle(x, y) == pytest.approx(4.0 / 6.0)
        assert kendall_tau_b(x, y) == pytest.approx(4.0 / 6.0, abs=1e-12)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            kendall_tau_b([3, 3, 3], [1, 2, 3])

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

    def test_two_points(self):
        assert kendall_tau_b([1.0, 2.0], [3.0, 4.0]) == 1.0
        assert kendall_tau_b([1.0, 2.0], [4.0, 3.0]) == -1.0
        with pytest.raises(DegenerateVarianceError):
            kendall_tau_b([1.0, 2.0], [3.0, 3.0])

    def test_all_distinct(self):
        # No ties on either side: tau is (concordant - discordant) / n0.
        rng = np.random.default_rng(13)
        for n in (3, 4, 17, 64, 300):
            x = rng.permutation(n) * 0.5 - 7.0
            y = rng.normal(size=n)
            assert kendall_tau_b(x, y) == _kendall_sign_matrix_oracle(x, y)
            assert kendall_tau_b(x, y) == pytest.approx(
                kendall_oracle(x, y), abs=1e-12)

    def test_extreme_magnitudes_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kendall_tau_b([1e308, -1e308, 0.0], [1, 2, 3]) == -1.0 / 3.0

    def test_peak_memory_linear(self):
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=3000), 3)
        y = np.round(x + rng.normal(size=3000), 1)
        peak, _ = traced_peak(kendall_tau_b, x, y)
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


def _reference_logistic5_eval(beta, x):
    """The curve as a fresh-array formula, without :func:`stats._sigmoid`."""
    b1, b2, b3, b4, b5 = np.asarray(beta, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    t = np.clip(b2 * (x - b3), -stats._LOGISTIC_CLIP, stats._LOGISTIC_CLIP)
    q = b1 * (0.5 - 1.0 / (1.0 + np.exp(t))) + b4 * x + b5
    return float(q) if q.ndim == 0 else q


def _reference_nelder_mead(fun, x0, max_iter):
    """The simplex on a numpy (3, 2) vertex array, which
    :func:`stats._nelder_mead` runs on Python floats."""
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for i in range(n):
        if sim[i + 1, i] != 0.0:
            sim[i + 1, i] *= 1.05
        else:
            sim[i + 1, i] = 0.00025
    fsim = np.array([fun(p) for p in sim])

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        spread = (fsim[-1] - fsim[0]) / max(fsim[0], 1e-30)
        diameter = np.max(np.abs(sim[1:] - sim[0]))
        if spread < stats._NM_SPREAD_TOL or diameter <= 1e-12 * (1.0 + np.max(np.abs(sim[0]))):
            converged = True
            break
        iterations += 1

        centroid = sim[:-1].mean(axis=0)
        xr = centroid + stats._NM_ALPHA * (centroid - sim[-1])
        fr = fun(xr)
        if fr < fsim[0]:
            xe = centroid + stats._NM_GAMMA * (centroid - sim[-1])
            fe = fun(xe)
            sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            if fr < fsim[-1]:
                xc = centroid + stats._NM_RHO * (xr - centroid)
                fc = fun(xc)
                accept = fc <= fr
            else:
                xc = centroid - stats._NM_RHO * (centroid - sim[-1])
                fc = fun(xc)
                accept = fc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fc
            else:
                sim[1:] = sim[0] + stats._NM_SIGMA * (sim[1:] - sim[0])
                fsim[1:] = [fun(p) for p in sim[1:]]

    best = int(np.argmin(fsim))
    return sim[best].copy(), float(fsim[best]), iterations, converged


def _reference_logistic5_fit(scores, mos):
    """The fit with a fresh ``column_stack`` design per profile evaluation,
    each restart solving its start vertex again; the package's buffered
    fit must return the same bits."""
    x = np.asarray(scores, dtype=np.float64)
    y = np.asarray(mos, dtype=np.float64)
    ones = np.ones_like(x)

    def profile(nl):
        t = np.clip(nl[0] * (x - nl[1]), -stats._LOGISTIC_CLIP, stats._LOGISTIC_CLIP)
        design = np.column_stack([0.5 - 1.0 / (1.0 + np.exp(t)), x, ones])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        r = design @ coef - y
        return float(np.sum(r * r)), coef

    nl0 = np.array([1.0 / x.std(), x.mean()])
    best, best_f = nl0, profile(nl0)[0]
    total_iter = 0
    converged = False
    while total_iter < stats._NM_MAX_ITER:
        pt, f, used, ok = _reference_nelder_mead(
            lambda nl: profile(nl)[0], best, stats._NM_MAX_ITER - total_iter)
        total_iter += used
        improved = f < best_f - 1e-12 * max(1.0, best_f)
        if f < best_f:
            best, best_f = pt, f
        if (ok and not improved) or used == 0:
            converged = ok
            break

    coef = profile(best)[1]
    beta = np.array([coef[0], best[0], best[1], coef[1], coef[2]])
    r = _reference_logistic5_eval(beta, x) - y
    return beta, float(np.sum(r * r)), total_iter, converged


def _ridge_example():
    # b1 ~ -7.9e13: the sigmoid column is nearly a step, the fit sits on a
    # ridge, and any last-bit change of the SSE moves it.
    x = np.sort(1.0 - np.geomspace(2e-4, 2e-2, 20))
    y = np.round(20.0 + 3000.0 * (x - x.min())
                 + np.random.default_rng(1).normal(0, 5, 20), 1)
    return x, y


def _assert_same_fit(x, y):
    fit = logistic5_fit(x, y)
    beta, sse, iterations, converged = _reference_logistic5_fit(x, y)
    assert fit.beta.tobytes() == beta.tobytes()
    assert fit.sse == sse
    assert (fit.iterations, fit.converged) == (iterations, converged)
    return fit


def _assert_fit_blas_thread_invariant(x, y):
    """The fit gives the same bits under one BLAS thread as under two."""
    fits = []
    for n in (1, 2):
        with blas_threads(n):
            fit = logistic5_fit(x, y)
        fits.append((fit.beta.tobytes(), fit.sse, fit.iterations, fit.converged))
    assert fits[0] == fits[1]


class TestLogisticFitOracle:
    def test_ridge_example(self):
        fit = _assert_same_fit(*_ridge_example())
        assert fit.beta[0] < -1e13

    def test_zero_mean_grid_takes_the_offset_branch(self):
        x = np.arange(-20.0, 21.0) / 4.0
        assert x.mean() == 0.0
        _assert_same_fit(x, logistic5_eval([2.0, 1.0, 0.5, 0.1, 3.0], x))

    def test_fewest_points(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=stats.MIN_REGRESSION_N)
        _assert_same_fit(x, np.tanh(x) + 0.1 * rng.normal(size=x.size))

    def test_noise(self):
        rng = np.random.default_rng(5)
        _assert_same_fit(rng.normal(size=25), rng.normal(size=25))

    def test_tied_manifest_scale_sample(self):
        _assert_same_fit(*tied_sample(17, 3000))

    def test_budget_exhausted(self, monkeypatch):
        # A spent budget stops the simplex before it sorts its vertices, so
        # the best one is picked from an unsorted simplex.
        x, y = tied_sample(3, 200)
        for budget in (1, 7, 40):
            monkeypatch.setattr(stats, "_NM_MAX_ITER", budget)
            fit = _assert_same_fit(x, y)
            assert (fit.iterations, fit.converged) == (budget, False)

    def test_one_blas_thread_gives_the_same_bits(self):
        for x, y in (_ridge_example(), tied_sample(17, 3000)):
            _assert_fit_blas_thread_invariant(x, y)

    def test_one_blas_thread_gives_the_same_bits_at_large_n(self):
        # At n = 20000 a BLAS dot would split the SSE's sum across threads.
        _assert_fit_blas_thread_invariant(*tied_sample(17, 20000))


class TestLogisticEval:
    def test_matches_fresh_array_formula(self):
        beta = [3.5, -2.0, 0.25, 0.5, -1.0]
        x = np.random.default_rng(6).normal(size=500) * 100.0
        for value in (0.25, 0.3, -0.0, 1e9, -1e9, *x[:20]):
            got = logistic5_eval(beta, value)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(
                _reference_logistic5_eval(beta, value)).tobytes()
        for xs in (x, x.reshape(20, 25), np.array([-1e9, 1e9, 0.0])):
            assert logistic5_eval(beta, xs).tobytes() == _reference_logistic5_eval(
                beta, xs).tobytes()

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
            assert fit.sse == float(np.sum(r * r))

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
