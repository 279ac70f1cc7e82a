import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from dpimage.codec import AutoencoderModel, init_model
from dpimage.metrics import (
    ald,
    blur_baseline,
    calibrate_threshold,
    evaluate_pairs,
    fed,
    iss_from_embeddings,
    iss_scores,
    l2_distances,
    mosaic_baseline,
    nearest_rank_percentile,
    ssim,
    ssim_scores,
    write_aggregate_csv,
    write_per_image_csv,
)

RNG = np.random.default_rng(0)


def random_image(side=32, rng=None):
    rng = rng or RNG
    return rng.uniform(0.0, 1.0, size=(side, side))


def linear_probe_model():
    """2x2 images; encode() reads the first two pixels verbatim."""
    w_enc = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    w_dec = w_enc.T.copy()
    return AutoencoderModel(
        encoder_dims=(4, 2),
        identity_len=2,
        weights=[w_enc, w_dec],
        biases=[np.zeros(2), np.zeros(4)],
    )


def probe_image(e0, e1):
    return np.array([[e0, e1], [0.0, 0.0]])


def l2(x, y):
    return float(l2_distances([x], [y])[0])


def pair_report(model, pairs, threshold):
    """evaluate_pairs over (x, y) pairs; a 1x1 SSIM window fits 2x2 probes."""
    return evaluate_pairs(
        model, [(f"{i:03d}", x, y) for i, (x, y) in enumerate(pairs)], threshold, ssim_window=1
    )


def pair_iss(model, x, y):
    return pair_report(model, [(x, y)], 0.5).rows[0].iss


class TestL2:
    def test_identical(self):
        x = random_image()
        assert l2(x, x) == 0.0

    def test_unit_cube_distance(self):
        assert l2(np.zeros((32, 32)), np.ones((32, 32))) == 32.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_image(8, rng), random_image(8, rng)
        assert l2(x, y) == l2(y, x)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (random_image(8, rng) for _ in range(3))
        assert l2(x, z) <= l2(x, y) + l2(y, z) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l2(np.zeros((4, 4)), np.zeros((5, 5)))


    def test_stack_rows_match_single(self):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(size=(2, 9, 32, 32))
        d = l2_distances(x, y)
        for i in range(9):
            assert d[i] == l2(x[i], y[i])


class TestAld:
    def test_identical(self):
        x = random_image()
        assert ald(x, x) == 0.0

    def test_double(self):
        x = random_image() + 0.1
        for p in (1, 2, math.inf):
            assert ald(x, 2 * x, p) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images(self):
        x = np.full((32, 32), 0.5)
        y = np.full((32, 32), 0.75)
        assert ald(x, y, math.inf) == pytest.approx(0.5, abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            ald(np.zeros((8, 8)), np.ones((8, 8)))

    def test_bad_p(self):
        with pytest.raises(ValueError):
            ald(np.ones((8, 8)), np.ones((8, 8)), p=0.5)


class TestSsim:
    def test_self_similarity(self):
        x = random_image()
        assert abs(ssim(x, x) - 1.0) < 1e-12

    def test_constant_images_closed_form(self):
        x = np.full((32, 32), 0.5)
        y = np.full((32, 32), 0.25)
        expected = (2 * 0.5 * 0.25 + 1e-4) / (0.5**2 + 0.25**2 + 1e-4)
        assert ssim(x, y) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_image(16, rng), random_image(16, rng)
        assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_bounded_above(self, seed):
        rng = np.random.default_rng(seed)
        assert ssim(random_image(12, rng), random_image(12, rng)) <= 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def tensordot_ssim(x, y, window=11, sigma=1.5):
    """Direct 2-D windowed SSIM: the separable stack form's oracle."""
    half = (window - 1) / 2.0
    g = np.exp(-((np.arange(window) - half) ** 2) / (2.0 * sigma * sigma))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()

    def filt(a):
        return np.tensordot(sliding_window_view(a, (window, window)), kernel, axes=([2, 3], [0, 1]))

    mu_x, mu_y = filt(x), filt(y)
    var_x = filt(x * x) - mu_x * mu_x
    var_y = filt(y * y) - mu_y * mu_y
    cov = filt(x * y) - mu_x * mu_y
    c1, c2 = 0.01**2, 0.03**2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


class TestSsimStack:
    @pytest.mark.parametrize(
        "shape,window,sigma", [((32, 32), 11, 1.5), ((11, 11), 11, 1.5), ((20, 24), 7, 1.0)]
    )
    def test_matches_tensordot_oracle(self, shape, window, sigma):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(size=shape)
            y = np.clip(x + rng.normal(0.0, 0.2, size=shape), 0.0, 1.0)
            expected = tensordot_ssim(x, y, window, sigma)
            assert abs(ssim(x, y, window, sigma) - expected) < 1e-12

    def test_rows_independent_of_batch_mates(self):
        rng = np.random.default_rng(8)
        x, y = rng.uniform(size=(2, 20, 32, 32))
        scores = ssim_scores(x, y)
        for i in range(20):
            assert scores[i] == ssim(x[i], y[i])
        order = rng.permutation(20)[:7]
        assert np.array_equal(ssim_scores(x[order], y[order]), scores[order])


class TestIss:
    def test_same_image(self):
        model = linear_probe_model()
        x = probe_image(0.3, 0.7)
        assert pair_iss(model, x, x) == 1.0

    def test_orthogonal(self):
        assert iss_from_embeddings([1.0, 0.0], [0.0, 1.0]) == 0.5

    def test_opposite(self):
        assert iss_from_embeddings([1.0, 0.5], [-1.0, -0.5]) == 0.0

    def test_zero_embedding(self):
        assert iss_from_embeddings([0.0, 0.0], [1.0, 0.0]) == 0.5

    def test_rows_match_single(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(2, 30, 12))
        b[0] = a[0]
        b[1] = -a[1]
        a[2] = 0.0
        scores = iss_scores(a, b)
        assert scores[0] == 1.0 and scores[1] == 0.0 and scores[2] == 0.5
        for i in range(30):
            assert scores[i] == iss_from_embeddings(a[i], b[i])

    def test_model_pathway_matches_embeddings(self):
        model = linear_probe_model()
        x, y = probe_image(1.0, 0.0), probe_image(-0.6, 0.8)
        assert pair_iss(model, x, y) == pytest.approx(
            iss_from_embeddings([1.0, 0.0], [-0.6, 0.8]), abs=1e-12
        )


class TestFppsr:
    def test_no_change_no_success(self):
        model = linear_probe_model()
        pairs = [(probe_image(0.5, 0.5), probe_image(0.5, 0.5))] * 3
        assert pair_report(model, pairs, 1.0).fppsr == 0.0

    def test_opposite_embeddings_all_succeed(self):
        model = linear_probe_model()
        pairs = [(probe_image(1.0, 0.0), probe_image(-1.0, 0.0))] * 4
        assert pair_report(model, pairs, 0.5).fppsr == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pair_report(linear_probe_model(), [], 0.5)

    def test_threshold_extremes(self):
        model = linear_probe_model()
        rng = np.random.default_rng(3)
        pairs = [
            (probe_image(*rng.uniform(0.1, 1.0, 2)), probe_image(*rng.uniform(0.1, 1.0, 2)))
            for _ in range(6)
        ]
        assert pair_report(model, pairs, 0.0).fppsr == 0.0
        max_iss = max(pair_iss(model, x, y) for x, y in pairs)
        above = min(1.0, max_iss + 1e-9)
        if above > max_iss:
            assert pair_report(model, pairs, above).fppsr == 1.0

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        pairs = [(probe_image(1.0, 0.0), probe_image(0.5, 0.5))] * 2
        with pytest.raises(ValueError, match="threshold"):
            pair_report(linear_probe_model(), pairs, threshold)


class TestCalibrate:
    def test_constant_impostors(self):
        model = linear_probe_model()
        genuine = [(probe_image(1.0, 0.0), probe_image(1.0, 0.0))]
        # cos = -0.6 between (1,0) and (-0.6,0.8): iss = 0.2
        impostor = [(probe_image(1.0, 0.0), probe_image(-0.6, 0.8))] * 5
        report = calibrate_threshold(model, genuine, impostor, percentile=95.0)
        assert report.tau == pytest.approx(0.2, abs=1e-12)

    def test_shared_images_score_like_copies(self):
        model = init_model((256, 32, 8), 4, seed=2)
        rng = np.random.default_rng(11)
        images = [rng.uniform(size=(16, 16)) for _ in range(6)]
        pairs = [(images[i], images[j]) for i in range(6) for j in range(i + 1, 6)]
        copies = [(x.copy(), y.copy()) for x, y in pairs]
        shared = calibrate_threshold(model, pairs[:4], pairs[4:], 90.0)
        copied = calibrate_threshold(model, copies[:4], copies[4:], 90.0)
        assert np.array_equal(shared.genuine_scores, copied.genuine_scores)
        assert np.array_equal(shared.impostor_scores, copied.impostor_scores)
        assert shared.impostor_scores[0] == pair_iss(model, *pairs[4])

    def test_nearest_rank_grid(self):
        grid = [i / 100.0 for i in range(100)]
        assert nearest_rank_percentile(grid, 95.0) == pytest.approx(0.94, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_threshold(linear_probe_model(), [], [], 95.0)


def fed_oracle(a, b):
    """Same closed form, independent eigensolver (LAPACK via numpy)."""
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))

    def sqrt_psd(m):
        w, v = np.linalg.eigh((m + m.T) / 2.0)
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T

    root = sqrt_psd(cov_a)
    cross = sqrt_psd(root @ cov_b @ root)
    return float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a + cov_b - 2.0 * cross))


class TestFed:
    def test_identical_sets(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 4))
        assert abs(fed(a, a)) < 1e-8

    def test_one_dimensional_closed_form(self):
        rng = np.random.default_rng(4)
        base = rng.normal(0.0, 1.0, size=(400, 1))
        d = 2.5
        # equal variance, means differing by d: distance is exactly d^2
        assert fed(base, base + d) == pytest.approx(d * d, abs=1e-9)

    def test_against_independent_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(60, 4)) @ rng.normal(size=(4, 4))
            b = rng.normal(size=(50, 4)) + rng.normal(size=4)
            assert fed(a, b) == pytest.approx(fed_oracle(a, b), abs=1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(30, 3))
        b = 0.5 * rng.normal(size=(25, 3)) + 1.0
        assert fed(a, b) == pytest.approx(fed(b, a), abs=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.normal(size=(10, 3))
            b = rng.normal(size=(12, 3))
            assert fed(a, b) >= -1e-8

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            fed(np.zeros((1, 3)), np.zeros((5, 3)))


def blur_oracle(x, sigma, radius):
    """Direct nested-loop convolution with clamp-to-edge indexing."""
    taps = np.exp(-(np.arange(-radius, radius + 1) ** 2) / (2.0 * sigma**2))
    kernel = np.outer(taps, taps) / np.outer(taps, taps).sum()
    h, w = x.shape
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in range(-radius, radius + 1):
                for dj in range(-radius, radius + 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    acc += kernel[di + radius, dj + radius] * x[ii, jj]
            out[i, j] = acc
    return out


class TestBlur:
    def test_constant_unchanged(self):
        x = np.full((16, 16), 0.37)
        assert np.max(np.abs(blur_baseline(x, 2.0, 3) - x)) < 1e-12

    def test_radius_zero_identity(self):
        x = random_image(16)
        assert np.array_equal(blur_baseline(x, 1.5, 0), x)

    def test_single_pixel_mass_preserved(self):
        x = np.zeros((17, 17))
        x[8, 8] = 1.0
        out = blur_baseline(x, 1.5, 3)
        assert abs(out.sum() - 1.0) < 1e-9
        assert out[8, 8] < 1.0

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(10, 10))
        got = blur_baseline(x, 1.2, 2)
        want = blur_oracle(x, 1.2, 2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_range_preserved(self):
        x = random_image(16)
        out = blur_baseline(x, 3.0, 5)
        assert out.min() >= 0.0 and out.max() <= 1.0


def mosaic_oracle(x, block):
    """One-image tile loop: each tile takes the mean of its own pixels."""
    out = np.empty_like(x)
    for i in range(0, x.shape[0], block):
        for j in range(0, x.shape[1], block):
            out[i : i + block, j : j + block] = x[i : i + block, j : j + block].mean()
    return out


class TestBaselineStacks:
    """A stack's rows equal one-image calls bit for bit."""

    def stack(self):
        return np.random.default_rng(12).uniform(0.0, 1.0, size=(20, 32, 32))

    @pytest.mark.parametrize("block", [1, 2, 5, 7, 16, 31, 32])
    def test_mosaic_rows(self, block):
        x = self.stack()
        out = mosaic_baseline(x, block)
        for i in range(len(x)):
            assert np.array_equal(out[i], mosaic_baseline(x[i], block))
            assert np.array_equal(out[i], mosaic_oracle(x[i], block))
        assert np.array_equal(mosaic_baseline(x.reshape(4, 5, 32, 32), block).reshape(x.shape), out)

    @pytest.mark.parametrize("sigma, radius", [(0.6, 2), (2.5, 8), (16.0, 48)])
    def test_blur_rows(self, sigma, radius):
        x = self.stack()
        out = blur_baseline(x, sigma, radius)
        for i in range(len(x)):
            assert np.array_equal(out[i], blur_baseline(x[i], sigma, radius))
        nested = blur_baseline(x.reshape(4, 5, 32, 32), sigma, radius)
        assert np.array_equal(nested.reshape(x.shape), out)


class TestMosaic:
    def test_block_one_identity(self):
        x = random_image(8)
        assert np.array_equal(mosaic_baseline(x, 1), x)

    def test_block_full_width(self):
        x = random_image(8)
        out = mosaic_baseline(x, 8)
        assert np.allclose(out, x.mean(), atol=1e-12)

    def test_two_by_two(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert np.allclose(mosaic_baseline(x, 2), 0.5, atol=1e-15)

    def test_partial_edge_tiles(self):
        x = np.arange(15.0).reshape(3, 5) / 15.0
        out = mosaic_baseline(x, 2)
        assert out[2, 4] == pytest.approx(x[2, 4], abs=1e-15)  # 1x1 corner tile
        assert out[0, 0] == pytest.approx(x[:2, :2].mean(), abs=1e-15)

    def test_range_preserved(self):
        x = random_image(9)
        out = mosaic_baseline(x, 4)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_block(self):
        with pytest.raises(ValueError):
            mosaic_baseline(random_image(8), 0)


class TestEvaluatePairs:
    def test_identical_pairs(self):
        model = linear_probe_model()
        rng = np.random.default_rng(8)
        imgs = [rng.uniform(0.3, 0.7, size=(16, 16)) for _ in range(4)]
        # 2x2 probe model cannot embed 16x16 images; use a model-free check
        # via a probe-sized evaluation instead
        pairs = [(f"img{i:02d}", im, im.copy()) for i, im in enumerate(imgs)]
        model16 = AutoencoderModel(
            encoder_dims=(256, 2),
            identity_len=2,
            weights=[np.eye(2, 256), np.eye(256, 2)],
            biases=[np.zeros(2), np.zeros(256)],
        )
        report = evaluate_pairs(model16, pairs, threshold=0.5)
        assert all(r.l2 == 0.0 for r in report.rows)
        assert all(abs(r.ssim - 1.0) < 1e-12 for r in report.rows)
        assert all(r.iss == 1.0 for r in report.rows)
        assert report.fppsr == 0.0
        assert report.fed < 1e-8

    def test_rows_sorted_and_counted(self, tmp_path):
        model = linear_probe_model()
        pairs = [
            ("b", probe_image(0.5, 0.1), probe_image(0.4, 0.2)),
            ("a", probe_image(0.2, 0.9), probe_image(0.3, 0.8)),
            ("c", probe_image(0.7, 0.3), probe_image(0.6, 0.4)),
        ]
        # 2x2 images are below the SSIM window; evaluate_pairs must reject
        with pytest.raises(ValueError):
            evaluate_pairs(model, pairs, threshold=0.5)

    def test_csv_row_count(self, tmp_path):
        rng = np.random.default_rng(9)
        model16 = AutoencoderModel(
            encoder_dims=(256, 2),
            identity_len=2,
            weights=[rng.normal(size=(2, 256)) * 0.1, rng.normal(size=(256, 2)) * 0.1],
            biases=[np.zeros(2), np.zeros(256)],
        )
        pairs = [
            (f"{i:03d}", rng.uniform(0, 1, (16, 16)), rng.uniform(0, 1, (16, 16)))
            for i in range(5)
        ]
        report = evaluate_pairs(model16, pairs, threshold=0.4)
        per_image = tmp_path / "per_image.csv"
        aggregate = tmp_path / "aggregate.csv"
        write_per_image_csv(report, per_image)
        write_aggregate_csv(report, aggregate)
        assert len(per_image.read_text().strip().splitlines()) == 6  # header + 5
        agg_lines = aggregate.read_text().strip().splitlines()
        assert agg_lines[0] == "metric,value"
        assert len(agg_lines) == 8
        ids = [line.split(",")[0] for line in per_image.read_text().splitlines()[1:]]
        assert ids == sorted(ids)
