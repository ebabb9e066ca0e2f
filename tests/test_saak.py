import dataclasses
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from conftest import at_each_blas_thread_count, make_textured_image, traced_peak

from saakiqa import saak
from saakiqa.saak import extract_feature_windows
from saakiqa import (
    GeometryMismatchError,
    ImageTooSmallError,
    InsufficientSamplesError,
    InvalidPairError,
    NoTrainingSamplesError,
    QualityConfig,
    assess,
    channel_stats,
    crop_to_multiple,
    extract_training_patches,
    forward,
    forward_stage,
    gaussian_filter,
    inverse,
    inverse_stage,
    prepare_reference,
    ps_convert,
    sp_convert,
    train_model,
    train_stage,
)


def _random_stage(seed=0, channels=1, n=200):
    rng = np.random.default_rng(seed)
    return train_stage(rng.normal(0, 50, (n, 16 * channels)),
                       input_channels=channels)


def _bright_features():
    """S/P stage-1 output of a bright low-contrast reference (mean 235, std
    2.5), where a covariance formed without centring first loses digits."""
    img = make_textured_image(30, 128, 128)
    bright = 235.0 + 0.08 * (img - img.mean())
    stage1 = train_stage(extract_feature_windows(bright[:, :, None]))
    return sp_convert(forward_stage(bright[:, :, None], stage1))


def _stage1_grid(ref):
    """S/P stage-1 output of ``ref``: the grid stage 2 trains on."""
    stage1 = train_stage(extract_training_patches(ref, saak.BLOCK_SIZE, saak.TRAIN_STRIDE))
    return sp_convert(forward_stage(ref[:, :, None], stage1))


def _oracle_inputs():
    """(samples, channels) cases for the covariance oracle tests.

    Beyond 16-dim zero-mean noise: the 496-dim stage-2 windows of
    :func:`_bright_features`, and a rank-deficient set with fewer samples
    than dimensions.
    """
    rng = np.random.default_rng(2)
    noise = rng.normal(0, 30, (300, 16))
    windows = extract_feature_windows(_bright_features())
    assert windows.shape == (841, 496)
    deficient = rng.normal(100, 30, (100, 496))
    return [(noise, 1), (windows, 31), (deficient, 31)]


def _assert_same_stage(got, want):
    """Stages equal to round-off: eigenvalues within 1e-12 of the largest,
    and kernels within 1e-12.

    Adjacent eigenvalues less than 1e-6 of the largest apart form one
    cluster, whose kernels are compared by their projector: a perturbation
    e rotates kernels whose eigenvalues are g apart by about e / g, and any
    orthonormal basis of a tied space, such as the null space, is valid.
    The DC kernel and each kernel alone in its cluster are compared
    entry-wise.
    """
    top = want.eigenvalues[0]
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues,
                               rtol=0, atol=1e-12 * top)
    # Kernel row k + 1 belongs to eigenvalue k; a cluster starts below each gap.
    starts = 2 + np.flatnonzero(-np.diff(want.eigenvalues) >= 1e-6 * top)
    bounds = [0, 1, *starts, want.dim]
    for lo, hi in zip(bounds, bounds[1:]):
        g, w = got.kernels[lo:hi], want.kernels[lo:hi]
        if hi - lo > 1:
            g, w = g.T @ g, w.T @ w
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12,
                                   err_msg=f"kernel rows {lo}:{hi}")


class TestExtractTrainingPatches:
    def test_block_and_stride_must_be_positive(self):
        img = np.arange(64, dtype=np.float64).reshape(8, 8)
        for block, stride in ((4, -1), (4, 0), (0, 1), (-4, 2)):
            with pytest.raises(ValueError, match="block and stride"):
                extract_training_patches(img, block, stride)

    def test_constant_image_has_no_samples(self):
        # One chunk of windows, and 512x512's 16 chunks of 16 window rows.
        for size in (16, 512):
            with pytest.raises(NoTrainingSamplesError,
                               match=r"^no patch has standard deviation > 2\.0$"):
                extract_training_patches(np.full((size, size), 77.0), 4, 1)

    @pytest.mark.parametrize("case, block, stride", [
        pytest.param("512x512", 4, 2, id="512x512"),
        pytest.param("1000x72-ragged", 4, 2, id="1000x72-ragged"),
        pytest.param("1000x72-ragged", 2, 1, id="1000x72-ragged-block2-stride1"),
        pytest.param("1000x72-ragged", 3, 2, id="1000x72-ragged-block3-stride2"),
        pytest.param("near-threshold", 4, 2, id="near-threshold"),
    ])
    def test_chunked_selection_matches_one_shot_oracle(self, case, block, stride):
        # The mask is decided over bands of about 4096 windows: 16 bands
        # of 16 window rows at 512x512, 117-row bands and a last one of 31
        # for 1000x72's 499 x 35 windows, 4 bands for 256x256. At block 2,
        # stride 1, 1000x72's 999 x 71 windows take 57-row bands and a last
        # one of 30; at block 3, stride 2, its 499 x 35 windows take the
        # same bands as block 4. A +-2 checkerboard about 0.7, each pixel
        # moved by up to 3 ulp, puts every patch's std within a few ulp of
        # STD_THRESHOLD, most of them on it: a std summed in another order,
        # or the variance compared with 4, decides thousands of these
        # patches the other way.
        if case == "near-threshold":
            rng = np.random.default_rng(36)
            checker = np.indices((256, 256)).sum(axis=0) % 2 * 2.0 - 1.0
            img = 0.7 + 2.0 * checker
            img += rng.integers(-3, 4, img.shape) * np.spacing(img)
        else:
            h, w = (512, 512) if case == "512x512" else (1000, 72)
            img = make_textured_image(36, h, w)
        v = sliding_window_view(img, (block, block))[::stride, ::stride]
        v = v.reshape(-1, block * block)
        std = v.std(axis=1)
        assert v.shape[0] > 3 * 4096
        if case == "near-threshold":
            assert np.abs(std - saak.STD_THRESHOLD).max() < 1e-14
        assert 0 < np.count_nonzero(std > saak.STD_THRESHOLD) < v.shape[0]
        got = extract_training_patches(img, block, stride)
        want = v[std > saak.STD_THRESHOLD]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_single_textured_patch(self):
        img = np.arange(16, dtype=np.float64).reshape(4, 4)
        patches = extract_training_patches(img, 4, 1)
        assert patches.shape == (1, 16)
        np.testing.assert_array_equal(patches[0], np.arange(16))
        # Oracle: population standard deviation computed from first
        # principles exceeds the threshold.
        v = np.arange(16.0)
        std = np.sqrt(np.mean((v - v.mean()) ** 2))
        assert std == pytest.approx(np.sqrt(21.25))
        assert std > 2.0

    def test_stride_grid_count(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, (8, 8))
        patches = extract_training_patches(img, 4, 2)
        assert patches.shape == (9, 16)

    def test_row_major_vectorization(self):
        img = np.arange(25, dtype=np.float64).reshape(5, 5)
        patches = extract_training_patches(img, 2, 1)
        np.testing.assert_array_equal(patches[0], [0, 1, 5, 6])

    def test_peak_memory_is_output_plus_one_image(self):
        # Each band of windows is copied and reduced alone, so beyond the
        # kept patches the peak holds less than one image's worth of bands
        # and masks (at 1024x1024: 33.4 MB of patches, an 8.4 MB image).
        img = make_textured_image(36, 1024, 1024)
        patches = extract_training_patches(img, 4, 2)
        peak, _ = traced_peak(extract_training_patches, img, 4, 2)
        assert peak <= patches.nbytes + img.nbytes


class TestTrainStage:
    def test_stage_stores_kernels_not_derived_sizes(self):
        # dim and input_channels are read off the kernels, so they cannot
        # disagree with them.
        samples = np.random.default_rng(3).normal(size=(60, 48))
        stage = train_stage(samples, input_channels=3)
        fields = [f.name for f in dataclasses.fields(stage)]
        assert fields == ["kernels", "eigenvalues"]
        assert stage.dim == stage.kernels.shape[0] == 48
        assert stage.input_channels == 3

    def test_input_channels_is_keyword_only(self):
        # The traced benchmark names the stage-1/stage-2 spans from this keyword.
        x = np.random.default_rng(4).normal(size=(600, 496))
        with pytest.raises(TypeError):
            train_stage(x, 31)
        stage = train_stage(x, input_channels=31)
        assert stage.dim == 496 and stage.input_channels == 31

    def test_two_dim_closed_form(self):
        # Samples t_i * u + k_i * dc vary along one unit vector u orthogonal
        # to the DC vector, shifted by arbitrary DC offsets. The DC-removed
        # residuals are t_i * u, so the covariance is var(t) * u u^T: the
        # first AC kernel is u (sign rule applied), its eigenvalue var(t),
        # and every other eigenvalue is 0.
        rng = np.random.default_rng(14)
        dc = np.full(16, 0.25)
        u = np.zeros(16)
        u[:4] = [3.0, -1.0, -4.0, 2.0]
        u /= np.linalg.norm(u)
        assert abs(u @ dc) < 1e-16
        t = rng.normal(0.0, 30.0, 200)
        k = rng.uniform(0.0, 1000.0, 200)
        stage = train_stage(t[:, None] * u + k[:, None] * dc)
        np.testing.assert_allclose(stage.kernels[0], dc, atol=1e-12)
        # The largest-magnitude entry of u is -4/sqrt(30), so u flips sign.
        np.testing.assert_allclose(stage.kernels[1], -u, atol=1e-12)
        var = np.mean((t - t.mean()) ** 2)
        assert stage.eigenvalues[0] == pytest.approx(var, rel=1e-12)
        np.testing.assert_allclose(stage.eigenvalues[1:], 0.0,
                                   atol=1e-12 * var)

    def test_constant_samples_give_deterministic_completion(self):
        samples = np.tile(np.full(16, 5.0), (10, 1))
        stage = train_stage(samples)
        np.testing.assert_allclose(stage.eigenvalues, 0.0, atol=1e-12)
        gram = stage.kernels @ stage.kernels.T
        assert np.abs(gram - np.eye(16)).max() <= 1e-9
        again = train_stage(samples)
        np.testing.assert_array_equal(stage.kernels, again.kernels)

    def test_orthonormality(self):
        stage = _random_stage(seed=1)
        gram = stage.kernels @ stage.kernels.T
        assert np.abs(gram - np.eye(stage.dim)).max() <= 1e-9

    def test_eigenvector_residuals(self):
        # Oracle: the full-dimension covariance of DC-removed residuals must
        # reproduce each AC kernel as an eigenvector to solver accuracy.
        for x, channels in _oracle_inputs():
            stage = train_stage(x, input_channels=channels)
            dc = stage.kernels[0]
            resid = x - np.outer(x @ dc, dc)
            centered = resid - resid.mean(axis=0)
            cov = centered.T @ centered / len(x)
            scale = max(1.0, np.abs(cov).max())
            for lam, v in zip(stage.eigenvalues, stage.kernels[1:]):
                assert np.abs(cov @ v - lam * v).max() <= 1e-10 * scale

    def test_sign_rule(self):
        stage = _random_stage(seed=4)
        for v in stage.kernels[1:]:
            assert v[np.argmax(np.abs(v))] > 0

    def test_eigenvalues_match_projection_variance(self):
        rng = np.random.default_rng(5)
        cases = [(rng.normal(0, 20, (500, 16)), 1)] + _oracle_inputs()[1:]
        for x, channels in cases:
            stage = train_stage(x, input_channels=channels)
            proj = x @ stage.kernels[1:].T
            variances = proj.var(axis=0)
            np.testing.assert_allclose(variances, stage.eigenvalues,
                                       atol=1e-9 * max(1.0, variances.max()))
            assert np.all(np.diff(stage.eigenvalues) <= 0)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            train_stage(np.ones((1, 16)))

    def test_nonfinite_samples_rejected(self):
        # A column holding both infinities sums to NaN rather than inf.
        rng = np.random.default_rng(6)
        for values in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]):
            x = rng.normal(0, 30, (50, 16))
            x[1:1 + len(values), 2] = values
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    train_stage(x)

    def test_eigenvalues_invariant_to_constant_shift(self):
        # Covariance ignores the sample mean. On the bright windows (mean up
        # to 940, eigenvalues 0.002 to 496) centring before the Gram
        # product keeps the eigenvalues shift-invariant to ~1e-16 of the
        # largest; x.T @ x / n - mu mu^T is off by ~5e-11 there.
        windows, channels = _oracle_inputs()[1]
        stage = train_stage(windows, input_channels=channels)
        shifted = train_stage(windows - windows.mean(axis=0),
                              input_channels=channels)
        np.testing.assert_allclose(shifted.eigenvalues, stage.eigenvalues,
                                   rtol=0, atol=1e-12 * stage.eigenvalues[0])

    def test_dimension_mismatch(self):
        from saakiqa import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            train_stage([np.ones(16), np.ones(15)])
        with pytest.raises(DimensionMismatchError):
            train_stage(np.ones((5, 15)))
        # Windows must carry (channels, block, block) as their last axes.
        with pytest.raises(DimensionMismatchError):
            train_stage(np.ones((3, 3, 2, 4, 4)), input_channels=1)
        with pytest.raises(DimensionMismatchError):
            train_stage(np.ones((3, 3, 16)))
        # A zero channel count is rejected before any arithmetic (the DC
        # kernel would divide by zero).
        with pytest.raises(DimensionMismatchError):
            train_stage(np.ones((5, 0)), input_channels=0)


class TestSpPsConversion:
    def test_positive_branch(self):
        t = np.array([[[1.0, 3.0]]])
        out = sp_convert(t)
        np.testing.assert_array_equal(out[0, 0], [1.0, 3.0, 0.0])

    def test_negative_branch(self):
        t = np.array([[[1.0, -2.0]]])
        out = sp_convert(t)
        np.testing.assert_array_equal(out[0, 0], [1.0, 0.0, 2.0])

    def test_zero_maps_to_zero_pair(self):
        out = sp_convert(np.array([[[5.0, 0.0]]]))
        np.testing.assert_array_equal(out[0, 0], [5.0, 0.0, 0.0])

    def test_invalid_pair_rejected(self):
        t = np.array([[[0.0, 1.0, 1.0]]])
        with pytest.raises(InvalidPairError):
            ps_convert(t)

    def test_tensors_must_be_3d(self):
        for convert in (sp_convert, ps_convert):
            for t in (np.zeros((4, 4)), np.zeros((1, 1, 1, 3))):
                with pytest.raises(GeometryMismatchError, match="must be 3-D"):
                    convert(t)

    def test_even_channel_count_rejected(self):
        with pytest.raises(GeometryMismatchError,
                           match="needs an odd channel count, got 4"):
            ps_convert(np.zeros((1, 1, 4)))

    def test_ps_merges(self):
        t = np.array([[[7.0, 3.0, 0.0, 0.0, 2.0]]])
        out = ps_convert(t)
        np.testing.assert_array_equal(out[0, 0], [7.0, 3.0, -2.0])

    def test_roundtrip_exact_and_disjoint(self):
        rng = np.random.default_rng(11)
        t = rng.normal(0, 100, (5, 6, 9))
        t[..., 0] = np.abs(t[..., 0])
        split = sp_convert(t)
        assert np.all(split >= 0)
        pos, neg = split[..., 1::2], split[..., 2::2]
        assert np.array_equal(pos * neg, np.zeros_like(pos))
        assert np.array_equal(ps_convert(split), t)

    def test_peak_memory_is_its_output(self):
        # Both halves are written into the output, so the split allocates
        # nothing else; making each half as a temporary first peaked at
        # 1.97x the output. The input is only read.
        t = np.random.default_rng(12).normal(0, 100, (256, 256, 16))
        before = t.copy()
        out_bytes = sp_convert(t).nbytes
        peak, _ = traced_peak(sp_convert, t)
        assert peak <= 1.1 * out_bytes
        assert np.array_equal(t, before)


class TestForwardStage:
    def test_constant_image(self):
        stage = _random_stage(seed=6)
        img = np.full((8, 8, 1), 128.0)
        out = forward_stage(img, stage)
        assert out.shape == (2, 2, 16)
        np.testing.assert_allclose(out[..., 0], 512.0, atol=1e-9)
        np.testing.assert_allclose(out[..., 1:], 0.0, atol=1e-9)

    def test_single_block_matches_dense_matmul(self):
        # Oracle: explicit kernel-matrix times vectorized block.
        stage = _random_stage(seed=7)
        rng = np.random.default_rng(8)
        block = rng.uniform(0, 255, (4, 4))
        out = forward_stage(block[:, :, None], stage)
        expected = np.array([k @ block.ravel() for k in stage.kernels])
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-12)

    def test_geometry(self):
        stage = _random_stage(seed=9)
        rng = np.random.default_rng(9)
        out = forward_stage(rng.uniform(0, 255, (64, 64, 1)), stage)
        assert out.shape == (16, 16, 16)

    def test_geometry_mismatch(self):
        stage = _random_stage(seed=10)
        with pytest.raises(GeometryMismatchError):
            forward_stage(np.zeros((6, 8, 1)), stage)
        with pytest.raises(GeometryMismatchError):
            forward_stage(np.zeros((8, 8, 2)), stage)

    def test_parseval(self):
        stage = _random_stage(seed=12)
        rng = np.random.default_rng(12)
        x = rng.normal(0, 80, (16, 16, 1))
        y = forward_stage(x, stage)
        assert np.sum(y * y) == pytest.approx(np.sum(x * x), rel=1e-6)

    def test_dc_nonnegative_for_nonnegative_input(self):
        stage = _random_stage(seed=13)
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 255, (12, 12, 1))
        assert np.all(forward_stage(x, stage)[..., 0] >= 0)

    def test_inverse_stage_roundtrip(self):
        stage = _random_stage(seed=14)
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 255, (8, 12, 1))
        np.testing.assert_allclose(
            inverse_stage(forward_stage(x, stage), stage), x, atol=1e-9)


def _forward_batched(img, model):
    """Oracle: the multi-stage forward as one 3-D ``(gh, gw, d) @ (d, d)``
    product per stage, which numpy runs as one product per block row."""
    x = img[:, :, np.newaxis]
    for i, stage in enumerate(model):
        if i:
            x = sp_convert(x)
        bs, c = saak.BLOCK_SIZE, x.shape[2]
        gh, gw = x.shape[0] // bs, x.shape[1] // bs
        blocks = (x.reshape(gh, bs, gw, bs, c).transpose(0, 2, 4, 1, 3)
                  .reshape(gh, gw, c * bs * bs))
        x = blocks @ stage.kernels.T
    return x


class TestFullTransform:
    def test_matches_batched_product_oracle(self, textured_image):
        # Grids of 8 block rows and more at stage 2 (128 px and up): the
        # single product is bit-identical to the per-block-row products.
        for seed, (h, w) in enumerate(((128, 128), (256, 256), (128, 192),
                                       (192, 128))):
            img = textured_image(40 + seed, h, w)
            model = train_model(img)[0]
            assert np.array_equal(forward(img, model),
                                  _forward_batched(img, model))

    def test_output_geometry_496(self, textured_image):
        img = textured_image(20, 64, 64)
        model = train_model(img)[0]
        out = forward(img, model)
        assert out.shape == (4, 4, 496)
        assert model[-1].dim == 496
        assert model[0].input_channels == 1
        assert model[1].input_channels == 31

    def test_peak_memory_below_three_outputs(self):
        # forward_stage frees its input once its blocks are copied, and
        # forward holds no grid it has handed on, so at 512x512 stage 2's
        # product (4 MB) overlaps only its copied blocks: that is the
        # peak, 2.0x the output. The S/P conversion, stage 1's output
        # (2 MB) and the 4 MB S/P grid, allocates nothing else; its split
        # made temporaries at 2.5x. Holding the S/P grid as well during
        # stage 2's product made it 3x.
        img = make_textured_image(37, 512, 512)
        model = train_model(img)[0]
        out_bytes = forward(img, model).nbytes
        peak, _ = traced_peak(forward, img, model)
        assert peak < 2.75 * out_bytes

    def test_forward_deterministic(self, textured_image):
        img = textured_image(21, 64, 64)
        model = train_model(img)[0]
        assert np.array_equal(forward(img, model), forward(img, model))

    def test_roundtrip(self):
        rng = np.random.default_rng(22)
        img = np.floor(rng.uniform(0, 256, (32, 32)))
        model = train_model(img)[0]
        rec = inverse(forward(img, model), model)
        assert np.abs(rec - img).max() <= 1e-6

    def test_zero_tensor_inverts_to_zero_image(self, textured_image):
        img = textured_image(23, 64, 64)
        model = train_model(img)[0]
        rec = inverse(np.zeros((4, 4, 496)), model)
        np.testing.assert_array_equal(rec, np.zeros((64, 64)))

    def test_dc_only_tensor_reconstructs_constant(self, textured_image):
        img = textured_image(24, 64, 64)
        model = train_model(img)[0]
        # Amplitude below the pair-activation threshold: a DC-only tensor
        # feeds equal values into both members of every S/P pair, which is
        # rejected as invalid above that threshold.
        v = 1e-11
        t = np.zeros((4, 4, 496))
        t[..., 0] = v
        rec = inverse(t, model)

        # Oracle: apply stage-2 then stage-1 transposes explicitly.
        k2 = model[1].kernels
        k1 = model[0].kernels
        vec = v * k2[0]
        block31 = vec.reshape(31, 4, 4)
        pairs = block31[1:].reshape(15, 2, 4, 4)
        signed = np.concatenate([block31[:1], pairs[:, 0] - pairs[:, 1]])
        pixel = signed[:, 0, 0] @ k1[:, 0]
        np.testing.assert_allclose(rec, pixel, rtol=1e-9)
        assert np.abs(rec - rec[0, 0]).max() <= 1e-20

    def test_dc_only_tensor_with_large_amplitude_is_invalid(self, textured_image):
        img = textured_image(24, 64, 64)
        model = train_model(img)[0]
        t = np.zeros((4, 4, 496))
        t[..., 0] = 100.0
        with pytest.raises(InvalidPairError):
            inverse(t, model)

    def test_one_stage_model_needs_only_its_own_blocks(self, textured_image):
        # 20x20 splits into 4x4 blocks but not into TILE x TILE tiles.
        stage = train_model(textured_image(26, 64, 64))[0][0]
        img = textured_image(27, 20, 20)
        out = forward(img, (stage,))
        assert out.shape == (5, 5, 16)
        assert out.tobytes() == forward_stage(img[:, :, np.newaxis], stage).tobytes()
        np.testing.assert_allclose(inverse(out, (stage,)), img, rtol=1e-9)

    def test_geometry_mismatch(self, textured_image):
        model = train_model(textured_image(25, 64, 64))[0]
        with pytest.raises(GeometryMismatchError):
            forward(np.zeros((60, 64)), model)
        with pytest.raises(GeometryMismatchError):
            inverse(np.zeros((4, 4, 495)), model)

    def test_inverse_must_end_in_one_channel(self):
        # A model whose first stage reads two channels inverts a valid
        # coefficient tensor to a two-channel grid, which is no image.
        model = (_random_stage(seed=26, channels=2),)
        with pytest.raises(GeometryMismatchError,
                           match="tensor does not match the model geometry"):
            inverse(np.zeros((1, 1, 32)), model)


def _channel_major_stage(x, cols):
    """Reference stage trained on an ``(n, d)`` sample matrix in the
    package's channel-major order, without :func:`saak._centred_gram`.

    ``x - x.mean(0)`` is centred in blocks of ``k * cols`` samples, the
    split ``train_stage`` makes for windows in rows of ``cols`` under
    ``saak._CENTRED_BLOCK``; the block Grams ``xc.T @ xc`` are summed,
    divided by n and diagonalized by ``saak._kernels``.
    """
    n, d = x.shape
    mean = x.mean(axis=0)
    step = cols * max(1, saak._CENTRED_BLOCK // (cols * d))
    for start in range(0, n, step):
        xc = x[start:start + step] - mean
        if start:
            gram += xc.T @ xc
        else:
            gram = xc.T @ xc
    gram /= n
    return saak._kernels(gram)


def _window_matrix_oracle(ref):
    """Stage 1 and stage 2 trained channel-major by
    :func:`_channel_major_stage`, stage 2 on the contiguous window matrix
    from :func:`extract_feature_windows`, and the S/P grid it came from."""
    stage1 = _channel_major_stage(extract_training_patches(
        ref, saak.BLOCK_SIZE, saak.TRAIN_STRIDE), 1)
    f = sp_convert(forward_stage(ref[:, :, None], stage1))
    cols = f.shape[1] - saak.BLOCK_SIZE + 1
    return stage1, _channel_major_stage(extract_feature_windows(f), cols), f


def _assert_identical_stages(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.kernels, w.kernels)
        assert np.array_equal(g.eigenvalues, w.eigenvalues)


class TestTrainModel:
    def test_defaults(self, textured_image):
        assert (saak.BLOCK_SIZE, saak.NUM_STAGES, saak.TRAIN_STRIDE) == (4, 2, 2)
        assert saak.STD_THRESHOLD == 2.0 and isinstance(saak.STD_THRESHOLD, float)
        assert saak.TILE == 16
        model = train_model(textured_image(26, 64, 64))[0]
        assert [stage.dim for stage in model] == [16, 496]

    def test_constant_reference_rejected(self):
        with pytest.raises(NoTrainingSamplesError):
            train_model(np.full((64, 64), 128.0))

    def test_training_is_bitwise_deterministic(self, textured_image):
        img = textured_image(26, 64, 64)
        _assert_identical_stages(train_model(img)[0], train_model(img)[0])

    def test_tied_eigenvalues_periodic_reference(self):
        # A 4-periodic image has 4 distinct stage-1 patches and spatially
        # constant stage-1 output, so 12 of 15 stage-1 and all 495 stage-2
        # eigenvalues tie at zero. Training must still be repeatable bit
        # for bit and give complete orthonormal bases.
        rng = np.random.default_rng(40)
        img = np.tile(np.floor(rng.uniform(0, 256, (4, 4))), (16, 16))
        m1 = train_model(img)[0]
        m2 = train_model(img)[0]
        for s1, s2 in zip(m1, m2):
            assert np.array_equal(s1.kernels, s2.kernels)
            assert s1.kernels.shape == (s1.dim, s1.dim)
            assert np.abs(s1.kernels @ s1.kernels.T - np.eye(s1.dim)).max() <= 1e-9
        assert np.sum(m1[0].eigenvalues <= 1e-9) == 12
        assert np.all(m1[1].eigenvalues <= 1e-9)
        for lam in (0.7, 0.2):
            assert assess(img, img, QualityConfig(lam=lam))[0] == 1.0

    def test_too_small_for_second_stage(self):
        rng = np.random.default_rng(27)
        img = np.floor(rng.uniform(0, 256, (8, 8)))
        with pytest.raises(ImageTooSmallError):
            train_model(img)

    def test_one_stage2_window_is_too_small(self, textured_image):
        # A 16x16 reference leaves a 4x4 stage-1 grid, one stage-2 window;
        # the two narrowest references above it still train.
        with pytest.raises(ImageTooSmallError, match="grid 4x4"):
            train_model(textured_image(28, 16, 16))
        for shape in ((16, 32), (32, 16)):
            features = train_model(textured_image(28, *shape))[1]
            assert features.shape == (shape[0] // 16, shape[1] // 16, 496)

    @at_each_blas_thread_count
    def test_stage2_matches_window_matrix_oracle(self):
        # Oracle: channel-major centring of the contiguous window matrix
        # from extract_feature_windows. train_stage centres windows
        # position-major and permutes the Gram back, which must give the
        # same bits, from the zero-copy window view and from the matrix.
        rng = np.random.default_rng(40)
        refs = [make_textured_image(31, 64, 64), make_textured_image(32, 96, 160),
                make_textured_image(33, 208, 112),
                np.tile(np.floor(rng.uniform(0, 256, (4, 4))), (16, 16))]
        grids = [_bright_features()]
        for ref in refs:
            stage1, stage2, f = _window_matrix_oracle(ref)
            grids.append(f)
            _assert_identical_stages(train_model(ref)[0], (stage1, stage2))
        for f in grids:
            view = sliding_window_view(f, (4, 4), axis=(0, 1))
            flat = extract_feature_windows(f)
            assert np.shares_memory(view, f)
            want = [_channel_major_stage(flat, view.shape[1])]
            for x in (view, flat):
                _assert_identical_stages([train_stage(x, input_channels=31)], want)

    @pytest.mark.parametrize("height, width, rows_per_block", [
        (64, 64, 5), (96, 160, 3), (320, 320, None)],
        ids=["64x64-5-5-3", "96x160-3", "320x320-default"])
    @at_each_blas_thread_count
    def test_stage2_matches_window_matrix_oracle_across_blocks(
            self, monkeypatch, height, width, rows_per_block):
        # A bound of k * C * 496 values, with C window columns, makes
        # train_stage centre the flat window matrix in blocks of k * C
        # samples, as the channel-major oracle does, so both sum the same
        # block Grams. None takes the default bound rounded down to whole
        # window rows: 54 of 320x320's 77 rows. A window view that size is
        # summed by row lags instead (test_row_lag_gram_matches_one_block).
        ref = make_textured_image(36, height, width)
        rows, cols = height // 4 - 3, width // 4 - 3
        k = rows_per_block or saak._CENTRED_BLOCK // (cols * 496)
        assert k < rows
        monkeypatch.setattr(saak, "_CENTRED_BLOCK", k * cols * 496)
        _, want, f = _window_matrix_oracle(ref)
        got = train_stage(extract_feature_windows(f), input_channels=31)
        _assert_identical_stages([got], [want])

    @pytest.mark.parametrize("grid, bound", [
        (lambda: _stage1_grid(make_textured_image(31, 64, 64)), 5 * 13 * 496),
        (lambda: _stage1_grid(make_textured_image(36, 96, 160)), 3 * 37 * 496),
        (_bright_features, 4 * 29 * 124),
        (lambda: _stage1_grid(make_textured_image(36, 320, 320)), None)],
        ids=["64x64-5", "96x160-3", "bright-1", "320x320-default"])
    @at_each_blas_thread_count
    def test_row_lag_gram_matches_one_block(self, monkeypatch, grid, bound):
        # A stride-1 window view above the bound is summed by window-row
        # lags, in chunks of bound // (C * 124) - 3 grid rows (C window
        # columns) plus 3 rows of overlap: one chunk for 64x64's 16 grid
        # rows and at the default bound, chunks of 9 rows for 96x160 and of
        # 1 row for the bright grid, whose channel means are large against
        # its spread. Both the Gram and the stage must match one unbounded
        # block, including the 64x64 rank-deficient null space.
        windows = saak._windows(grid(), saak.BLOCK_SIZE, 1)
        bound = bound or saak._CENTRED_BLOCK
        assert windows.size > bound

        def summed(bound):
            monkeypatch.setattr(saak, "_CENTRED_BLOCK", bound)
            return saak._centred_gram(windows), train_stage(windows, input_channels=31)

        (lagged, stage), (whole, want) = summed(bound), summed(1 << 62)
        np.testing.assert_allclose(lagged, whole, rtol=0,
                                   atol=1e-14 * np.abs(whole).max())
        _assert_same_stage(stage, want)

    def test_peak_memory_bounded_by_centred_block(self):
        # At 512x512 the stage-2 window matrix is n x d float64 with
        # n = 125**2 windows of d = 496: 62 MB. Training centres it in
        # blocks of at most 16 MiB, so the peak (about 0.4x the window
        # matrix, stage 2's buffer plus the small grids) stays well below
        # one centred copy of it.
        img = make_textured_image(34, 512, 512)
        grid = 512 // saak.BLOCK_SIZE - saak.BLOCK_SIZE + 1
        window_bytes = grid * grid * 496 * 8
        peak, _ = traced_peak(train_model, img)
        assert peak < 0.5 * window_bytes

    def test_peak_memory_at_1024_below_seven_images(self):
        # At 1024x1024 the peak is about 6x the image: stage 1's training
        # (its kept patches, up to 511**2 x 16 float64 or 4x the image, and
        # the 16 MiB centring buffer). Copying every window and a std
        # temporary of that size made stage 1 8.5x.
        img = make_textured_image(38, 1024, 1024)
        peak, _ = traced_peak(train_model, img)
        assert peak < 7 * img.nbytes

    def test_peak_memory_at_2048_below_five_and_a_half_images(self):
        # At 2048x2048 stage 1's patch sampling (its kept patches are 3x
        # the image) sets the peak at 4.5x the image, with stage 1's
        # training next. The S/P conversion of stage 1's output (1x the
        # image; the S/P grid, 2x) set it at 4.8x while the split made
        # temporaries. Holding the S/P grid while stage 2's forward copied
        # its blocks and made its product (2x the image each) peaked at 5.9x.
        img = make_textured_image(38, 2048, 2048)
        peak, _ = traced_peak(train_model, img)
        assert peak < 5.5 * img.nbytes

    def test_row_lag_peak_memory_bounded_by_centred_block(self, monkeypatch):
        # Row lags build the grid rows' horizontal windows in chunks of at
        # most the bound (here 8 rows of a 256x256 reference's 61 x 124
        # values), so the peak of summing its window view is the bound plus
        # the d x d Gram and small per-row terms: under three grids. The
        # whole 64 x 61 x 124 set of rows alone would be 3.8 grids.
        grid = _stage1_grid(make_textured_image(35, 256, 256))
        windows = saak._windows(grid, saak.BLOCK_SIZE, 1)
        bound = 8 * 61 * 124
        monkeypatch.setattr(saak, "_CENTRED_BLOCK", bound)
        peak, _ = traced_peak(saak._centred_gram, windows)
        assert peak < 8 * bound + 3 * grid.nbytes

    @at_each_blas_thread_count
    def test_centring_blocks_match_one_block(self, monkeypatch):
        # A bound of 128 rows splits 300 flat 16-value samples into blocks
        # of 128, 128 and 44, which must match one unbounded block to
        # round-off. A window view above the bound is summed by row lags
        # instead (test_row_lag_gram_matches_one_block).
        flat = np.random.default_rng(41).normal(0, 30, (300, 16))

        def trained(bound):
            monkeypatch.setattr(saak, "_CENTRED_BLOCK", bound)
            return train_stage(flat)

        _assert_same_stage(trained(128 * 16), trained(1 << 62))

    @at_each_blas_thread_count
    def test_centred_gram_blocks_match_one_block(self, monkeypatch):
        # The Gram source alone, with no eigen-conditioning in the way:
        # blocks of 5 of 300 flat 16-value samples must sum to one
        # unbounded block's Gram within 1e-14 of its largest entry.
        flat = np.random.default_rng(41).normal(0, 30, (300, 1, 1, 4, 4))
        monkeypatch.setattr(saak, "_CENTRED_BLOCK", 5 * flat[0].size)
        blocked = saak._centred_gram(flat)
        monkeypatch.setattr(saak, "_CENTRED_BLOCK", 1 << 62)
        whole = saak._centred_gram(flat)
        np.testing.assert_allclose(blocked, whole, rtol=0,
                                   atol=1e-14 * np.abs(whole).max())

    def test_reference_of_256_is_one_centring_block(self, monkeypatch):
        # Eval-size references (3721 x 496 stage-2 windows) fit the default
        # bound, so their kernels are the unbounded buffer's bit for bit.
        ref = make_textured_image(35, 256, 256)
        default = train_model(ref)[0]
        monkeypatch.setattr(saak, "_CENTRED_BLOCK", 1 << 62)
        _assert_identical_stages(default, train_model(ref)[0])

    def test_stage2_window_layout(self):
        f = np.arange(5 * 5 * 3, dtype=np.float64).reshape(5, 5, 3)
        wins = extract_feature_windows(f)
        assert wins.shape == (4, 48)
        expected = np.concatenate([f[0:4, 0:4, c].ravel() for c in range(3)])
        np.testing.assert_array_equal(wins[0], expected)


class TestTrainAndTransform:
    # train_model transforms the reference by each stage right after
    # training it; its features must be forward's over the same stages.

    @pytest.mark.parametrize("height, width", [(64, 64), (208, 112), (256, 256),
                                               (512, 512)],
                             ids=["64x64-rank-deficient", "208x112",
                                  "256x256-one-block", "512x512-blocks"])
    def test_features_are_forward_bit_for_bit(self, height, width):
        ref = make_textured_image(50, height, width)
        stages, features = train_model(ref)
        want = forward(ref, stages)
        assert features.shape == want.shape == (height // 16, width // 16, 496)
        assert features.dtype == want.dtype
        assert features.tobytes() == want.tobytes()

    def test_prepared_features_are_forward_of_filtered_reference(self):
        image = make_textured_image(51, 70, 90)
        for sigma in (1.0, 2.0):
            prepared = prepare_reference(image, sigma)
            filtered = gaussian_filter(crop_to_multiple(image, saak.TILE), sigma)
            want = forward(filtered, prepared.model)
            assert prepared.f_ref.tobytes() == want.tobytes()

    def test_reference_not_tiling_raises_geometry_mismatch(self):
        # 80x72 tiles by the stage-1 block but not by TILE: stage 2 trains on
        # its 20x18 grid, then cannot split that grid into 4x4 blocks.
        with pytest.raises(GeometryMismatchError, match="not divisible"):
            train_model(make_textured_image(52, 80, 72))

    def test_assess_runs_each_stage_once_per_image(self, monkeypatch):
        calls = []
        original = saak.forward_stage

        def counted(features, stage):
            calls.append(stage.dim)
            return original(features, stage)

        monkeypatch.setattr(saak, "forward_stage", counted)
        ref = make_textured_image(53, 64, 64)
        assess(ref, np.clip(ref + 3.0, 0.0, 255.0))
        assert len(calls) == 2 * saak.NUM_STAGES


class TestChannelEnergyCompaction:
    def test_energy_compaction(self, textured_image):
        img = textured_image(28, 64, 64)
        model = train_model(img)[0]
        f = forward(img, model)
        e = channel_stats(f, f).energy
        # Oracle: the mean square evaluated channel by channel.
        manual = np.array([np.mean(f[:, :, k] ** 2) for k in range(f.shape[2])])
        np.testing.assert_allclose(e, manual, rtol=1e-12)
        assert e[0] > np.median(e[1:])
