import numpy as np
import pytest
from conftest import make_textured_image

from saakiqa import (
    CODEC_LAMBDAS,
    ChannelStats,
    DegenerateInputError,
    DimensionMismatchError,
    GeometryMismatchError,
    QualityConfig,
    SaakIqaError,
    assess,
    channel_stats,
    forward,
    gaussian_filter,
    prepare_reference,
    quality_from_stats,
    synth_distort,
)


def _stats(d, c, e, w):
    return ChannelStats(
        mse=np.asarray(d, float),
        correlation=np.asarray(c, float),
        energy=np.asarray(e, float),
        weight=np.asarray(w, float),
    )


def _channel_stats_oracle(f_ref, f_dist):
    """Oracle: the per-channel formulas evaluated afresh on both tensors,
    every product in a new array."""
    a = f_ref.reshape(-1, f_ref.shape[2])
    b = f_dist.reshape(-1, f_dist.shape[2])
    diff = a - b
    mse = np.mean(diff * diff, axis=0)
    mean_a = a.mean(axis=0)
    mean_b = b.mean(axis=0)
    da = a - mean_a
    db = b - mean_b
    var_a = np.mean(da * da, axis=0)
    var_b = np.mean(db * db, axis=0)
    cov = np.mean(da * db, axis=0)
    flat_a = var_a < 1e-12
    flat_b = var_b < 1e-12
    denom = np.sqrt(var_a * var_b)
    corr = np.zeros_like(cov)
    np.divide(cov, denom, out=corr, where=denom > 0)
    corr = np.clip(corr, -1.0, 1.0)
    both_flat = flat_a & flat_b
    corr[both_flat] = np.where(
        np.abs(mean_a[both_flat] - mean_b[both_flat]) <= 1e-9, 1.0, 0.0)
    corr[flat_a ^ flat_b] = 0.0
    energy = 0.5 * (np.mean(a * a, axis=0) + np.mean(b * b, axis=0))
    raw = 1.0 - np.exp(-energy / (100.0 * 100.0))
    return mse, corr, energy, raw / raw.sum()


def _assert_stats_equal(got, want):
    for name, w in zip(("mse", "correlation", "energy", "weight"), want):
        assert np.array_equal(getattr(got, name), w), name


class TestChannelStats:
    def test_matches_formula_oracle(self, textured_image):
        rng = np.random.default_rng(4)
        ref = rng.normal(0, 40, (9, 7, 8))
        dist = ref + rng.normal(0, 6, (9, 7, 8))
        # Near-constant maps (variance far below the flat threshold but not
        # 0), so that each degenerate rule decides the correlation.
        def flat(level):
            return level + rng.normal(0, 1e-9, (9, 7))

        ref[..., 1], dist[..., 1] = flat(3.0), flat(3.0)  # equal means
        ref[..., 2], dist[..., 2] = flat(3.0), flat(4.0)  # different means
        ref[..., 3] = flat(-2.0)                          # reference only
        dist[..., 4] = flat(7.0)                          # distortion only
        got = channel_stats(ref, dist)
        _assert_stats_equal(got, _channel_stats_oracle(ref, dist))
        np.testing.assert_array_equal(got.correlation[1:5], [1.0, 0.0, 0.0, 0.0])

        img = textured_image(37, 128, 128)
        prepared = prepare_reference(img)
        f_dist = forward(gaussian_filter(synth_distort(img, 32.0), 1.0),
                         prepared.model)
        want = _channel_stats_oracle(prepared.f_ref, f_dist)
        _assert_stats_equal(channel_stats(prepared, f_dist), want)
        _assert_stats_equal(channel_stats(prepared.f_ref, f_dist), want)

    def test_prepared_reference_matches_tensor(self, textured_image):
        img = textured_image(38, 96, 128)
        prepared = prepare_reference(img, 2.0)
        f_dist = forward(gaussian_filter(synth_distort(img, 16.0), 2.0),
                         prepared.model)
        got = channel_stats(prepared, f_dist)
        want = channel_stats(prepared.f_ref, f_dist)
        _assert_stats_equal(got, (want.mse, want.correlation, want.energy,
                                  want.weight))
        with pytest.raises(GeometryMismatchError):
            channel_stats(prepared, f_dist[:-1])

    def test_identical_tensors(self):
        rng = np.random.default_rng(0)
        for shape in ((6, 6, 4), (6, 6, 31), (4, 4, 496)):
            f = rng.normal(0, 50, shape)
            stats = channel_stats(f, f.copy())
            np.testing.assert_array_equal(stats.mse, np.zeros(shape[2]))
            np.testing.assert_allclose(stats.correlation, 1.0)
            assert stats.weight.sum() == pytest.approx(1.0, abs=1e-12)
            # Exactly 1.0 even where the normalized weights do not sum to 1.0.
            assert stats.weighted_correlation == 1.0, shape

    def test_equal_energy_channels_split_weight(self):
        t = np.zeros((2, 2, 2))
        t[..., 0] = [[1, -1], [1, -1]]
        t[..., 1] = [[-1, 1], [-1, 1]]
        t *= 10.0
        stats = channel_stats(t, t.copy())
        np.testing.assert_allclose(stats.weight, [0.5, 0.5], atol=1e-12)

    def test_two_point_hand_values(self):
        # Oracle: direct formula evaluation on 2-element vectors.
        ref = np.array([[[0.0]], [[2.0]]])
        dist = np.array([[[2.0]], [[0.0]]])
        stats = channel_stats(ref, dist)
        assert stats.mse[0] == pytest.approx(4.0)
        assert stats.correlation[0] == pytest.approx(-1.0)
        assert stats.energy[0] == pytest.approx(2.0)
        assert stats.weight[0] == pytest.approx(1.0)

    def test_degenerate_zero_tensors(self):
        z = np.zeros((3, 3, 2))
        with pytest.raises(DegenerateInputError):
            channel_stats(z, z)

    def test_constant_channel_rules(self):
        ref = np.zeros((2, 2, 3))
        dist = np.zeros((2, 2, 3))
        # Same constant: perfect agreement.
        ref[..., 0] = 5.0
        dist[..., 0] = 5.0
        # Different constants: no credit.
        ref[..., 1] = 5.0
        dist[..., 1] = 9.0
        # Constant vs varying: no linear relation.
        ref[..., 2] = 5.0
        dist[..., 2] = [[1, 2], [3, 4]]
        stats = channel_stats(ref, dist)
        np.testing.assert_allclose(stats.correlation, [1.0, 0.0, 0.0])

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatchError):
            channel_stats(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))

    def test_weight_tracks_energy(self):
        rng = np.random.default_rng(1)
        f = 10.0 * rng.normal(0, 1, (8, 8, 6)) * np.array([1, 3, 9, 27, 81, 243])
        stats = channel_stats(f, f.copy())
        order_e = np.argsort(stats.energy)
        order_w = np.argsort(stats.weight)
        np.testing.assert_array_equal(order_e, order_w)

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(2)
        ref = 2.0 * rng.normal(0, 20, (4, 5, 3))
        dist = ref + 2.0 * rng.normal(0, 5, (4, 5, 3))
        stats = channel_stats(ref, dist)
        perm = rng.permutation(20)
        ref_p = ref.reshape(20, 3)[perm].reshape(4, 5, 3)
        dist_p = dist.reshape(20, 3)[perm].reshape(4, 5, 3)
        stats_p = channel_stats(ref_p, dist_p)
        np.testing.assert_allclose(stats_p.mse, stats.mse, rtol=1e-12)
        np.testing.assert_allclose(stats_p.correlation, stats.correlation,
                                   rtol=1e-12)
        np.testing.assert_allclose(stats_p.energy, stats.energy, rtol=1e-12)


class TestQualityFromStats:
    def test_perfect_score(self):
        stats = _stats([0, 0], [1, 1], [5, 5], [0.5, 0.5])
        for lam in (0.0, 0.2, 0.7, 1.0):
            assert quality_from_stats(stats, lam) == pytest.approx(1.0)

    def test_single_exponential(self):
        stats = _stats([400.0], [0.0], [1.0], [1.0])
        assert quality_from_stats(stats, 0.0) == pytest.approx(
            np.exp(-1.0), abs=1e-12)

    def test_weighted_correlation_only(self):
        stats = _stats([0, 0], [1.0, -1.0], [1, 1], [0.25, 0.75])
        assert quality_from_stats(stats, 1.0) == pytest.approx(-0.5)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            w = rng.uniform(0, 1, k)
            w /= w.sum()
            stats = _stats(rng.uniform(0, 1e4, k), rng.uniform(-1, 1, k),
                           rng.uniform(0, 1e4, k), w)
            lam = float(rng.uniform(0, 1))
            s = quality_from_stats(stats, lam)
            assert -lam - 1e-12 <= s <= 1.0 + 1e-12

    def test_monotone_in_distortion(self):
        base = _stats([10.0, 5.0], [0.9, 0.8], [1, 1], [0.5, 0.5])
        worse_d = _stats([20.0, 15.0], [0.9, 0.8], [1, 1], [0.5, 0.5])
        worse_c = _stats([10.0, 5.0], [0.9, 0.5], [1, 1], [0.5, 0.5])
        for lam in (0.0, 0.5, 0.99):
            assert quality_from_stats(worse_d, lam) < quality_from_stats(
                base, lam)
        for lam in (0.01, 0.5, 1.0):
            assert quality_from_stats(worse_c, lam) < quality_from_stats(
                base, lam)


class TestAssess:
    def test_dimension_mismatch(self, textured_image):
        with pytest.raises(DimensionMismatchError):
            assess(np.zeros((64, 64)), np.zeros((64, 48)))
        prepared = prepare_reference(textured_image(34, 64, 64))
        with pytest.raises(DimensionMismatchError):
            assess(prepared, textured_image(34, 64, 48))

    def test_prepared_reference_matches_image_path(self, textured_image):
        ref = textured_image(35, 64, 64)
        dist = synth_distort(ref, 32.0)
        prepared = prepare_reference(ref)
        for config in (None, QualityConfig(lam=0.2), QualityConfig(lam=0.5)):
            score, stats = assess(prepared, dist, config)
            expected, expected_stats = assess(ref, dist, config)
            assert score == expected
            np.testing.assert_array_equal(stats.weight, expected_stats.weight)

    def test_prepared_arrays_are_read_only(self, textured_image):
        img = textured_image(39, 64, 64)
        prepared = prepare_reference(img)
        model = [a for stage in prepared.model for a in (stage.kernels, stage.eigenvalues)]
        for arr in (prepared.f_ref, *prepared.terms, *model):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
        # The caller's image is left as it was given.
        assert prepared.image is img
        assert img.flags.writeable

    def test_prepared_reference_rejects_other_transform(self, textured_image):
        ref = textured_image(36, 64, 64)
        dist = synth_distort(ref, 32.0)
        prepared = prepare_reference(ref, 2.0)
        # The distorted image is filtered with the reference's own width.
        score, _ = assess(prepared, dist)
        assert score == quality_from_stats(channel_stats(
            prepared, forward(gaussian_filter(dist, 2.0), prepared.model)), 0.7)
        assert score != assess(ref, dist)[0]
        # The pre-filter width belongs to the reference; the transform
        # geometry and the score scales are fixed. None is a config field.
        for name in ("sigma", "c", "h", "block_size", "num_stages", "train_stride",
                     "std_threshold"):
            with pytest.raises(TypeError):
                QualityConfig(**{name: 1})

    def test_codec_defaults(self):
        assert QualityConfig().lam == pytest.approx(0.7)
        assert QualityConfig.for_codec("jpeg").lam == pytest.approx(0.7)
        assert QualityConfig.for_codec("jpeg2000").lam == pytest.approx(0.2)
        assert CODEC_LAMBDAS == {"jpeg": 0.7, "jpeg2000": 0.2}
        with pytest.raises(SaakIqaError,
                           match="codec 'other' has no default lambda; pass an override"):
            QualityConfig.for_codec("other")

    def test_for_codec_overrides(self):
        # An explicit lam wins over the codec default and stands in for a
        # missing one; the pre-filter width is not the config's to set.
        assert QualityConfig.for_codec("jpeg", 0.1) == QualityConfig(0.1)
        assert QualityConfig.for_codec("other", 0.4) == QualityConfig(0.4)
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError, match="lam"):
                QualityConfig.for_codec("jpeg", bad)
        with pytest.raises(TypeError):
            QualityConfig.for_codec("jpeg2000", sigma=2.0)

    def test_crops_unaligned_inputs(self, textured_image):
        img = textured_image(31, 70, 67)
        score, _ = assess(img, img)
        assert abs(score - 1.0) <= 1e-9

    def test_deterministic(self, textured_image):
        ref = textured_image(32, 64, 64)
        dist = synth_distort(ref, 32.0)
        s1, _ = assess(ref, dist)
        s2, _ = assess(ref, dist)
        assert s1 == s2

    def test_distortion_regression_lock(self, textured_image):
        # Strict decrease with quantization strength, plus frozen scores
        # from the first recorded run as a drift guard, for the default and
        # two non-default pre-filter widths, which the prepared reference
        # carries.
        img = textured_image(1, 128, 128)
        for sigma, expected in REGRESSION_LOCK_SCORES_BY_SIGMA.items():
            ref = img if sigma == 1.0 else prepare_reference(img, sigma)
            scores = [assess(ref, synth_distort(img, q))[0] for q in (8, 32, 128)]
            assert scores[0] > scores[1] > scores[2]
            np.testing.assert_allclose(scores, expected, rtol=1e-9,
                                       err_msg=f"sigma={sigma}")


# First-run scores of test_distortion_regression_lock (textured seed 1,
# 128x128, qsteps 8/32/128, default jpeg config).
REGRESSION_LOCK_SCORES = [0.9973838328235394, 0.9635298431663696,
                          0.6952124345666797]
# The same run per pre-filter sigma; 0.5 and 2.0 give filter radius 2 and 6.
REGRESSION_LOCK_SCORES_BY_SIGMA = {
    1.0: REGRESSION_LOCK_SCORES,
    0.5: [0.9949658136316297, 0.9379949390487856, 0.6436518734665966],
    2.0: [0.9984739384465717, 0.9796749468303753, 0.7629421505253253],
}


class TestPreparedReferenceEnergy:
    def test_length_and_compaction(self, textured_image):
        e = prepare_reference(textured_image(33, 64, 64)).terms.mean_square
        assert e.shape == (496,)
        assert e[0] > np.median(e[1:])


# Quantiser steps of the distorted images that TestSymmetry scores.
SCORE_GUARD_QSTEPS = (8.0, 32.0, 128.0)


def _square_symmetries(image):
    """The image under each of the 8 symmetries of the square, identity first."""
    for k in range(4):
        yield np.rot90(image, k)
        yield np.rot90(image, k).T


class TestSymmetry:
    @pytest.mark.parametrize("size", [
        pytest.param(64, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 5: a 64x64 reference's stage-2 "
                                "null-space kernels move with a symmetry")),
        128, 256])
    def test_symmetries_of_the_square_leave_scores_unchanged(self, size):
        # Rotating, flipping or transposing a reference and its distorted
        # image alike only relabels pixels, so scores may move by round-off
        # alone (measured under 1 and 2 BLAS threads: at most 2.1e-14 at
        # 128x128, 4.3e-15 at 256x256). Sides are multiples of 16, so
        # crop_to_multiple crops nothing. At 64x64 the stage-2 covariance
        # has a null space, and scores move by up to 4.6e-7 under 2 BLAS
        # threads and 2.3e-7 under 1, until the null-space kernels are
        # deterministic.
        for seed in (310, 311, 312):
            ref = make_textured_image(seed, size, size)
            dists = [synth_distort(ref, q) for q in SCORE_GUARD_QSTEPS]
            scores = []
            for images in zip(*map(_square_symmetries, [ref, *dists])):
                prepared = prepare_reference(images[0])
                scores.append([assess(prepared, d)[0] for d in images[1:]])
            np.testing.assert_allclose(scores, np.tile(scores[0], (8, 1)),
                                       rtol=1e-12, atol=0)
