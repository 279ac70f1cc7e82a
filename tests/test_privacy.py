import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimage import privacy
from dpimage.codec import decode, encode, init_model
from dpimage.errors import FormatError
from dpimage.numerics import derive_states, make_stream, rng_uniform_rows
from dpimage.privacy import (
    PrivacyBudgetLedger,
    PrivacyParams,
    clip_latent,
    dp_images,
    estimate_sensitivity,
    full_mask,
    identity_mask,
    laplace_from_uniform,
    pairwise_l1,
    perturb_latents,
)
from support import dp_image, laplace_batch, perturb_latent, verify_dp_empirical


# the largest noise scale laplace_from_uniform accepts
LARGEST_SCALE = 4.8934395673698066e306


def laplace_cdf(x, b):
    x = np.asarray(x)
    return np.where(x < 0, 0.5 * np.exp(x / b), 1.0 - 0.5 * np.exp(-x / b))


class TestLaplaceSampler:
    def test_quarter_uniform_closed_form(self):
        # u = 0.25, b = 1 inverts to -ln(0.5)
        assert laplace_from_uniform(0.25, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_scale(self):
        v, _ = laplace_batch(make_stream(0), 1, 0.0)
        assert v[0] == 0.0
        rows = laplace_from_uniform(rng_uniform_rows(derive_states(0, np.arange(3)), 4), 0.0)
        # +0.0 everywhere; the inverse-CDF formula would give -0.0 for u < 0
        assert np.array_equal(rows, np.zeros((3, 4))) and not np.signbit(rows).any()

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_batch(make_stream(0), 1, -1.0)
        with pytest.raises(ValueError):
            laplace_from_uniform(rng_uniform_rows(derive_states(0, np.arange(3)), 4), -1.0)
        # NaN, inf and any scale whose draw at |u| = 0.5 would overflow
        for scale in (math.nan, math.inf, 1e307, math.nextafter(LARGEST_SCALE, math.inf)):
            with pytest.raises(ValueError, match="overflow"):
                laplace_from_uniform(np.array([0.25, -0.5]), scale)

    def test_draw_mean(self):
        draws, _ = laplace_batch(make_stream(5), 10**4, 1.0)
        assert abs(np.mean(draws)) < 0.05  # 3 sigma / sqrt(n) with sigma = sqrt(2)

    def test_sign_symmetry(self):
        assert laplace_from_uniform(-0.25, 2.0) == -laplace_from_uniform(0.25, 2.0)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_variance(self, b):
        x, _ = laplace_batch(make_stream(1), 10**6, b)
        assert abs(x.var() - 2.0 * b * b) < 0.02 * 2.0 * b * b

    def test_ks_statistic_vs_analytic_cdf(self):
        n = 10**6
        x, _ = laplace_batch(make_stream(2), n, 1.0)
        x = np.sort(x)
        cdf = laplace_cdf(x, 1.0)
        i = np.arange(1, n + 1)
        d = max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf))
        assert d < 0.002

    def test_endpoints_finite(self):
        for u in (0.5, -0.5):
            v = laplace_from_uniform(u, 1.0)
            assert np.isfinite(v) and abs(v) > 36.0
        assert laplace_from_uniform(0.5, 1.0) == -laplace_from_uniform(-0.5, 1.0)
        # the largest scale accepted reaches the largest double without overflow
        v = laplace_from_uniform(np.array([0.5, -0.5, 0.25]), LARGEST_SCALE)
        assert np.isfinite(v).all() and v[0] == -v[1] > 1.79e308

    def test_interior_draws_unchanged(self):
        u = rng_uniform_rows(make_stream(4), 10**5)[0]
        u = np.concatenate([u, [0.5 - 2.0**-53, -0.5 + 2.0**-53, 0.0]])
        unclamped = -2.0 * np.sign(u) * np.log1p(-2.0 * np.abs(u))
        assert np.array_equal(laplace_from_uniform(u, 2.0), unclamped)

    @pytest.mark.parametrize("scale", [0.0, 0.5, 3.0])
    def test_rows_match_task_streams(self, scale):
        # a block of tasks draws its noise in one array operation: the
        # mechanism fed rng_uniform_rows equals one stream per task
        rep, item = np.divmod(np.arange(120), 40)
        params = PrivacyParams(epsilon=1.0, sensitivity=scale, mask=full_mask(32))
        z = np.random.default_rng(3).normal(size=(120, 32))
        u = rng_uniform_rows(derive_states(9, 3, 1, rep, item), 32)
        rows = perturb_latents(z, params, u)
        assert rows.shape == (120, 32)
        for i in range(120):
            stream = derive_states(9, 3, 1, int(rep[i]), int(item[i]))
            expected, _ = perturb_latent(z[i], params, stream)
            assert np.array_equal(rows[i], expected)
            noise, _ = laplace_batch(stream, 32, scale)
            assert np.array_equal(expected, z[i] + noise)

    def test_scale_zero_still_consumes_draws(self):
        a, position_a = laplace_batch(make_stream(3), 10, 0.0)
        b, position_b = laplace_batch(make_stream(3), 10, 1.0)
        assert position_a == position_b == 10 and a.shape == b.shape == (10,)


class TestSensitivity:
    def test_identical_latents(self):
        z = [[1.0, 2.0], [1.0, 2.0]]
        rep = estimate_sensitivity(z)
        assert rep.delta_f == 0.0
        assert pairwise_l1(z)[0, 1] == 0.0

    def test_subnormal_distance(self):
        rep = estimate_sensitivity([[0.0, 0.0], [0.0, 5e-324]])
        assert rep.delta_f == 5e-324
        assert rep.counts.sum() == 1

    def test_hand_example(self):
        rep = estimate_sensitivity([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert rep.delta_f == 3.0  # pair (1,0),(0,2)

    @given(
        st.lists(
            st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=100)
    def test_counts_partition_pairs(self, latents):
        # every unordered pair lands in exactly one bin, the top one closed
        rep = estimate_sensitivity(latents)
        n = len(latents)
        assert int(rep.counts.sum()) == n * (n - 1) // 2
        assert rep.counts.size == rep.bin_edges.size - 1
        assert np.all(np.diff(rep.bin_edges) > 0)

    def test_diagonal_zero(self):
        rng = np.random.default_rng(0)
        assert np.all(np.diag(pairwise_l1(rng.normal(size=(10, 4)))) == 0.0)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(200, 32))
        rep = estimate_sensitivity(z)
        distances = pairwise_l1(z)
        best = 0.0
        for i in range(len(z)):
            for j in range(len(z)):
                d = np.sum(np.abs(z[i] - z[j]))
                if d > best:
                    best = d
                assert distances[i, j] == d
        assert rep.delta_f == best

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            estimate_sensitivity([[1.0, 2.0]])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_sensitivity([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_symmetric_matrix(self):
        rng = np.random.default_rng(2)
        distances = pairwise_l1(rng.normal(size=(20, 8)))
        assert np.array_equal(distances, distances.T)

    @pytest.mark.parametrize("ties", [False, True], ids=["normal", "ties_at_delta_f"])
    def test_counts_and_delta_f_of_brute_force_pairs(self, ties):
        z = np.random.default_rng(3).normal(size=(200, 32))
        if ties:  # rows 0 and 1 at +100, rows 198 and 199 at -100: four pairs at 6400
            z[:2], z[198:] = 100.0, -100.0
        pairs = [np.sum(np.abs(z[j] - z[i])) for i in range(len(z)) for j in range(i + 1, len(z))]
        rep = estimate_sensitivity(z)
        assert rep.delta_f == max(pairs)
        if ties:
            assert rep.delta_f == 6400.0 and pairs.count(6400.0) == 4
        counts, _ = np.histogram(pairs, bins=rep.bin_edges)
        assert np.array_equal(rep.counts, counts)
        assert np.array_equal(rep.bin_edges, np.linspace(0.0, max(pairs), 21))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_latent_rejected(self, bad):
        z = np.random.default_rng(4).normal(size=(6, 4))
        z[3, 2] = bad
        with pytest.raises(ValueError, match="latent 3 is not finite"):
            estimate_sensitivity(z)

    def test_overflowing_distance_rejected(self):
        # finite latents whose l1 distance overflows: a ValueError, with no
        # RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="overflows"):
                estimate_sensitivity([[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]])

    def test_peak_memory_one_distance_per_pair(self):
        # n(n-1)/2 doubles and row-sized temporaries; no n x n matrix or index pairs
        z = np.random.default_rng(5).normal(size=(400, 32))
        tracemalloc.start()
        try:
            estimate_sensitivity(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 399 // 2 * 8 + 0.75 * 2**20


class TestClip:
    def test_inside_unchanged(self):
        z = clip_latent(np.array([1.0, 1.0]), 4.0)
        assert np.array_equal(z, [1.0, 1.0])

    def test_outside_scaled(self):
        z = clip_latent(np.array([3.0, 1.0]), 2.0)
        assert np.allclose(z, [1.5, 0.5], atol=1e-12)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=16),
        st.floats(min_value=0.01, max_value=50),
    )
    @settings(max_examples=200)
    def test_norm_bound(self, values, radius):
        z = clip_latent(np.array(values), radius)
        assert np.sum(np.abs(z)) <= radius + 1e-12

    def test_rows_clipped_independently(self):
        z = np.random.default_rng(3).normal(0.0, 2.0, size=(10, 6))
        clipped = clip_latent(z, 4.0)
        for i in range(10):
            assert np.array_equal(clipped[i], clip_latent(z[i], 4.0))

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
        st.floats(min_value=0.1, max_value=20),
    )
    @settings(max_examples=100)
    def test_clipped_sensitivity_bound(self, a, b, radius):
        n = min(len(a), len(b))
        latents = [clip_latent(np.array(a[:n]), radius), clip_latent(np.array(b[:n]), radius)]
        rep = estimate_sensitivity(latents)
        assert rep.delta_f <= 2.0 * radius + 1e-9


class TestPerturb:
    def test_zero_sensitivity_identity(self):
        params = PrivacyParams(epsilon=1.0, sensitivity=0.0, mask=full_mask(4))
        z = np.array([1.0, -2.0, 3.0, 0.5])
        out, _ = perturb_latent(z, params, make_stream(0))
        assert np.array_equal(out, z)

    def test_all_false_mask_identity(self):
        params = PrivacyParams(epsilon=1.0, sensitivity=5.0, mask=np.zeros(4, dtype=bool))
        z = np.array([1.0, -2.0, 3.0, 0.5])
        out, _ = perturb_latent(z, params, make_stream(0))
        assert np.array_equal(out, z)

    def test_unmasked_coordinates_bit_identical(self):
        params = PrivacyParams(epsilon=0.5, sensitivity=2.0, mask=identity_mask(6, 3))
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        out, _ = perturb_latent(z, params, make_stream(7))
        assert np.array_equal(out[3:], z[3:])
        assert not np.array_equal(out[:3], z[:3])

    def test_deterministic(self):
        params = PrivacyParams(epsilon=1.0, sensitivity=1.0, mask=full_mask(8))
        z = np.linspace(-1, 1, 8)
        a, _ = perturb_latent(z, params, make_stream(5))
        b, _ = perturb_latent(z, params, make_stream(5))
        assert np.array_equal(a, b)

    def test_mask_length_mismatch(self):
        params = PrivacyParams(epsilon=1.0, sensitivity=1.0, mask=full_mask(3))
        with pytest.raises(ValueError):
            perturb_latent(np.zeros(4), params, make_stream(0))

    def test_mean_concentration(self):
        # 1e5 repeated perturbations of a fixed 2-vector; the repetition loop
        # is equivalent to one long batch because draws are consumed in order
        b = 0.7
        params = PrivacyParams(epsilon=1.0, sensitivity=b, mask=full_mask(2))
        z = np.array([3.0, -1.5])
        reps = 10**5
        stream = make_stream(11)
        noise, _ = laplace_batch(stream, 2 * reps, b)
        samples = z + noise.reshape(reps, 2)
        err = np.abs(samples.mean(axis=0) - z)
        assert np.all(err < 0.02 * b)

    def test_repetition_equals_batch(self):
        b = 0.7
        params = PrivacyParams(epsilon=1.0, sensitivity=b, mask=full_mask(2))
        z = np.array([3.0, -1.5])
        stream, position = make_stream(11), 0
        outs = []
        for _ in range(5):
            out, position = perturb_latent(z, params, stream, position)
            outs.append(out)
        noise, _ = laplace_batch(make_stream(11), 10, b)
        assert np.allclose(np.stack(outs), z + noise.reshape(5, 2), atol=0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=0.0, sensitivity=1.0, mask=full_mask(2))
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, sensitivity=-1.0, mask=full_mask(2))
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, sensitivity=1.0, mask=full_mask(2), clip_radius=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                PrivacyParams(epsilon=bad, sensitivity=1.0, mask=full_mask(2))
            with pytest.raises(ValueError, match="finite"):
                PrivacyParams(epsilon=1.0, sensitivity=bad, mask=full_mask(2))
            with pytest.raises(ValueError, match="finite"):
                PrivacyParams(epsilon=1.0, sensitivity=1.0, mask=full_mask(2), clip_radius=bad)

    def test_clip_radius_clips_before_noise(self):
        z = np.array([3.0, -1.0, 0.5, 0.5])
        params = PrivacyParams(epsilon=1.0, sensitivity=0.0, mask=full_mask(4), clip_radius=2.0)
        out, _ = perturb_latent(z, params, make_stream(0))
        assert np.array_equal(out, clip_latent(z, 2.0))
        noisy = PrivacyParams(epsilon=1.0, sensitivity=1.0, mask=full_mask(4), clip_radius=2.0)
        out, _ = perturb_latent(z, noisy, make_stream(1))
        noise, _ = laplace_batch(make_stream(1), 4, 1.0)
        assert np.array_equal(out, clip_latent(z, 2.0) + noise)

    @pytest.mark.parametrize("clip_radius", [None, 1.5])
    def test_stack_rows_match_single(self, clip_radius):
        params = PrivacyParams(
            epsilon=0.5, sensitivity=1.0, mask=identity_mask(8, 3), clip_radius=clip_radius
        )
        z = np.random.default_rng(4).normal(size=(20, 8))
        states = derive_states(2, 2, np.arange(20))
        rows = perturb_latents(z, params, rng_uniform_rows(states, params.n_noisy))
        for i in range(20):
            single, _ = perturb_latent(z[i], params, states[i : i + 1])
            assert np.array_equal(rows[i], single)

    @pytest.mark.parametrize(
        "shape", [(3,), (1, 3), (4, 3), (5, 2), (5, 4), (5, 1, 3)],
        ids=["one_row", "one_row_2d", "short_stack", "narrow", "wide", "extra_axis"],
    )
    def test_uniforms_not_one_row_per_latent_rejected(self, shape):
        # numpy would broadcast a single row into the same noise for every latent
        params = PrivacyParams(epsilon=1.0, sensitivity=1.0, mask=identity_mask(8, 3))
        with pytest.raises(ValueError, match=r"uniforms of shape .*, need \(5, 3\)"):
            perturb_latents(np.zeros((5, 8)), params, np.zeros(shape))

    def test_one_stream_for_a_stack_rejected(self):
        params = PrivacyParams(epsilon=1.0, sensitivity=1.0, mask=full_mask(4))
        with pytest.raises(ValueError, match="uniforms of shape"):
            perturb_latent(np.zeros((2, 4)), params, make_stream(0))

    @pytest.mark.parametrize(
        "mask, clip_radius",
        [(full_mask(32), None), (identity_mask(32, 12), None), (full_mask(32), 40.0)],
        ids=["full", "identity", "full_clipped"],
    )
    def test_peak_memory_within_four_inputs_and_bits_of_reference(self, mask, clip_radius):
        # the textbook form: the sampler's formula over the masked columns
        # of a copy; the call keeps at most four copies of its input live
        params = PrivacyParams(epsilon=0.5, sensitivity=3.0, mask=mask, clip_radius=clip_radius)
        z = np.random.default_rng(9).normal(0.0, 3.0, size=(4000, 32))
        z[:5] = -0.0  # unmasked -0.0 passes through; masked -0.0 gains the noise
        u = rng_uniform_rows(derive_states(3, 2, np.arange(4000)), params.n_noisy)
        before = z.copy()
        tracemalloc.start()
        try:
            out = perturb_latents(z, params, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * z.nbytes
        assert np.array_equal(z.view(np.uint64), before.view(np.uint64))
        ref = clip_latent(z, clip_radius) if clip_radius else z.copy()
        magnitude = np.log1p(-2.0 * np.minimum(np.abs(u), privacy._U_MAX))
        ref[:, mask] += -params.scale * np.sign(u) * magnitude
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
        assert np.signbit(out[:5, ~mask]).all()

    def test_uniforms_fed_directly(self):
        # u = 0.25 inverts to scale * ln 2 and u = -0.25 to its negative, on masked coordinates only
        params = PrivacyParams(epsilon=0.5, sensitivity=1.0, mask=identity_mask(4, 2))
        out = perturb_latents(np.ones((2, 4)), params, [[0.25, -0.25], [0.0, 0.25]])
        step = 2.0 * math.log(2.0)
        assert np.allclose(out, [[1 + step, 1 - step, 1, 1], [1, 1 + step, 1, 1]], rtol=0, atol=1e-12)

    def test_released_vectors_within_metric_dp_bound(self):
        # d_X-privacy: releases of z and z' differ in log density by at most
        # epsilon * ||z - z'||_1 / delta_f, here epsilon. The projection on
        # sign(z' - z) is post-processing, so it obeys the same bound.
        epsilon, delta_f, n, chunk, bins = 1.0, 2.0, 10**6, 10**5, 64
        params = PrivacyParams(epsilon=epsilon, sensitivity=delta_f, mask=full_mask(8))
        z = np.random.default_rng(0).normal(size=8)
        # moved on three coordinates, so ||z - z_other||_1 = delta_f
        z_other = z + delta_f * np.array([0.5, -0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0])
        direction = np.sign(z_other - z)

        def projections(latent, stream_id):
            return np.concatenate([
                perturb_latents(
                    np.broadcast_to(latent, (chunk, 8)),
                    params,
                    rng_uniform_rows(derive_states(9, stream_id, np.arange(start, start + chunk)), 8),
                ) @ direction
                for start in range(0, n, chunk)
            ])

        p, q = projections(z, 0), projections(z_other, 1)
        # equal-mass cells and add-one smoothing, as in verify_dp_empirical
        pooled = np.sort(np.concatenate([p, q]))
        edges = pooled[np.arange(bins + 1) * (pooled.size - 1) // bins]
        p_hat = (np.histogram(p, bins=edges)[0] + 1.0) / (n + bins)
        q_hat = (np.histogram(q, bins=edges)[0] + 1.0) / (n + bins)
        assert np.max(np.abs(np.log(p_hat / q_hat))) <= 1.1 * epsilon


class TestDpImage:
    def setup_method(self):
        self.model = init_model((64, 16, 8), 4, seed=3)
        rng = np.random.default_rng(0)
        self.image = rng.uniform(0, 1, size=(8, 8))

    def test_zero_scale_is_clean_reconstruction(self):
        params = PrivacyParams(epsilon=1.0, sensitivity=0.0, mask=full_mask(8))
        out, _ = dp_image(self.model, self.image, params, make_stream(0))
        clean = decode(self.model, encode(self.model, self.image))
        assert np.array_equal(out, clean)

    def test_deterministic(self):
        params = PrivacyParams(epsilon=0.5, sensitivity=1.0, mask=full_mask(8))
        a, _ = dp_image(self.model, self.image, params, make_stream(9))
        b, _ = dp_image(self.model, self.image, params, make_stream(9))
        assert np.array_equal(a, b)

    def test_stack_rows_match_single(self):
        params = PrivacyParams(epsilon=0.5, sensitivity=1.0, mask=full_mask(8), clip_radius=3.0)
        images = np.random.default_rng(1).uniform(0, 1, size=(19, 8, 8))
        states = derive_states(6, 2, np.arange(19))
        u = rng_uniform_rows(states, 8)
        stack = dp_images(self.model, images, params, u)
        for i in range(19):
            single, _ = dp_image(self.model, images[i], params, states[i : i + 1])
            assert np.array_equal(stack[i], single)
        assert np.array_equal(dp_images(self.model, images[3:5], params, u[3:5]), stack[3:5])

    def test_matches_manual_composition(self):
        params = PrivacyParams(epsilon=0.5, sensitivity=1.0, mask=full_mask(8))
        out, _ = dp_image(self.model, self.image, params, make_stream(4))
        z = encode(self.model, self.image)
        z_noisy, _ = perturb_latent(z, params, make_stream(4))
        assert np.array_equal(out, decode(self.model, z_noisy))


NOT_FINITE = "epsilon must be positive and finite"


class TestLedger:
    def test_sequential_sum(self):
        ledger = PrivacyBudgetLedger()
        ledger.record("r1", 0.5, group="same")
        ledger.record("r2", 0.5, group="same")
        assert ledger.total() == 1.0

    def test_parallel_max(self):
        ledger = PrivacyBudgetLedger()
        ledger.record("r1", 1.0, group="subset_a")
        ledger.record("r2", 1.0, group="subset_b")
        assert ledger.total() == 1.0

    def test_empty(self):
        assert PrivacyBudgetLedger().total() == 0.0

    def test_mixed_groups(self):
        ledger = PrivacyBudgetLedger()
        ledger.record("a", 0.25, group="g1")
        ledger.record("b", 0.5, group="g1")
        ledger.record("c", 0.6, group="g2")
        assert ledger.total() == 0.75

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            PrivacyBudgetLedger().record("x", 0.0)
        ledger = PrivacyBudgetLedger()
        with pytest.raises(ValueError, match=NOT_FINITE):
            ledger.record("x", math.inf)
        assert len(ledger) == 0 and ledger.total() == 0.0

    def test_post_processing_same_charge(self):
        model = init_model((64, 16, 8), 4, seed=1)
        rng = np.random.default_rng(2)
        image = rng.uniform(0, 1, size=(8, 8))
        params = PrivacyParams(epsilon=0.7, sensitivity=1.0, mask=full_mask(8))
        latent_ledger = PrivacyBudgetLedger()
        image_ledger = PrivacyBudgetLedger()
        z = encode(model, image)
        _, _ = perturb_latent(z, params, make_stream(0))
        latent_ledger.record("latent_release", params.epsilon)
        _, _ = dp_image(model, image, params, make_stream(0))
        image_ledger.record("image_release", params.epsilon)
        assert latent_ledger.total() == image_ledger.total()

    def test_csv_round_trip(self, tmp_path):
        ledger = PrivacyBudgetLedger()
        ledger.record("a", 0.25, group="g1")
        ledger.record("b", 0.125, group="g2")
        path = tmp_path / "ledger.csv"
        ledger.save_csv(path)
        back = PrivacyBudgetLedger.load_csv(path)
        assert back.entries == ledger.entries

    def test_append_equals_full_write(self, tmp_path):
        records = [("a,with comma", 0.25, "g1"), ("b", 0.125, "g2"), ("c", 0.5, "g1")]
        records.append(("d", 1.0, "g2"))
        whole = PrivacyBudgetLedger()
        for record in records:
            whole.record(*record)
        whole.save_csv(tmp_path / "whole.csv")
        path = tmp_path / "appended.csv"
        ledger = PrivacyBudgetLedger()
        ledger.record(*records[0])
        ledger.save_csv(path)
        ledger = PrivacyBudgetLedger.load_csv(path)  # load, record, save
        ledger.record(*records[1])
        ledger.record(*records[2])
        ledger.save_csv(path)
        ledger.record(*records[3])  # record and save again on the same ledger
        ledger.save_csv(str(path))  # the same file, named by a str
        assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert PrivacyBudgetLedger.load_csv(path).entries == ledger.entries == tuple(records)
        assert ledger.checkpoint() == whole.checkpoint()

    @pytest.mark.parametrize("loaded", [False, True])
    def test_save_to_another_file_rejected(self, tmp_path, loaded):
        path, other = tmp_path / "ledger.csv", tmp_path / "other.csv"
        ledger = PrivacyBudgetLedger()
        ledger.record("a", 0.25)
        ledger.save_csv(path)
        if loaded:
            ledger = PrivacyBudgetLedger.load_csv(path)
        ledger.record("b", 0.5)
        blob = path.read_bytes()
        with pytest.raises(ValueError, match=f"{path}.*{other}"):
            ledger.save_csv(other)
        assert not other.exists() and path.read_bytes() == blob
        ledger.save_csv(path)  # the rows are still pending, for the ledger's own file
        back = PrivacyBudgetLedger.load_csv(path)
        assert back.entries == (("a", 0.25, "default"), ("b", 0.5, "default"))

    @given(
        records=st.integers(1, 3).flatmap(
            lambda n_groups: st.lists(
                st.tuples(
                    st.text(
                        st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\r\n")
                    ),
                    st.floats(min_value=1e-6, max_value=1e3),
                    st.sampled_from([f"g{k}" for k in range(n_groups)]),
                ),
                max_size=40,
            )
        ),
        cut=st.integers(0, 40),
    )
    @settings(max_examples=100)
    def test_loaded_total_equals_sequential_sum(self, records, cut):
        cut = min(cut, len(records))
        ledger = PrivacyBudgetLedger()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.csv"
            for record in records[:cut]:
                ledger.record(*record)
            ledger.save_csv(path)
            ledger = PrivacyBudgetLedger.load_csv(path)
            for record in records[cut:]:
                ledger.record(*record)
            ledger.save_csv(path)
            back = PrivacyBudgetLedger.load_csv(path)
            entries = back.entries  # parsed from the file
        sums = {}  # the sequential per-group sum, in row order
        for _, epsilon, group in records:
            sums[group] = sums.get(group, 0.0) + epsilon
        assert back.total() == max(sums.values(), default=0.0)
        assert len(back) == len(records)
        assert entries == tuple(map(tuple, records))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("release_id,epsilon\r\n", "line 1: header"),
            ("release_id,epsilon,group\r\na,0.5,g\r\nb,0.5\r\n", "line 3: 2 fields"),
            ("release_id,epsilon,group\r\na,half,g\r\n", "line 2: epsilon 'half'"),
            ("release_id,epsilon,group\r\na,0.0,g\r\n", "line 2: epsilon must be positive"),
            ("release_id,epsilon,group\r\na,0.5,g\r\nb,inf,g\r\n", f"line 3: {NOT_FINITE}"),
            ("release_id,epsilon,group\r\na,1e999,g\r\n", f"line 2: {NOT_FINITE}"),
            ("release_id,epsilon,group\r\na,0.5,g\r\nb,0.5,g", "line 3: last row has no line end"),
        ],
    )
    def test_malformed_file_named_with_line(self, tmp_path, text, message):
        path = tmp_path / "ledger.csv"
        path.write_bytes(text.encode())
        with pytest.raises(FormatError, match=f"ledger.csv, {message}"):
            PrivacyBudgetLedger.load_csv(path)


class TestLedgerCheckpoint:
    @staticmethod
    def saved(path, records):
        ledger = PrivacyBudgetLedger()
        for record in records:
            ledger.record(*record)
        ledger.save_csv(path)
        return ledger

    @staticmethod
    def through_json(checkpoint):
        # as the CLI stores it: a provenance record's extra, indented and sorted
        return json.loads(json.dumps({"extra": checkpoint}, indent=2, sort_keys=True))["extra"]

    def test_two_group_sums_come_back_exactly(self, tmp_path):
        path = tmp_path / "ledger.csv"
        records = [("a", 0.1, "g1"), ("b", 1 / 3, "g2"), ("c", 0.2, "g1"), ("d", 1e-7, "g2")]
        records += [(f"r{k}", 0.1 * (k + 1), "g1") for k in range(5)]
        ledger = self.saved(path, records)
        checkpoint = ledger.checkpoint()
        back = PrivacyBudgetLedger.load_csv(path, self.through_json(checkpoint))
        parsed = PrivacyBudgetLedger.load_csv(path)
        assert parsed.checkpoint() == checkpoint
        assert back.checkpoint() == checkpoint
        assert set(checkpoint["ledger_sums"]) == {"g1", "g2"}
        assert back.total() == parsed.total() == ledger.total()
        assert len(back) == len(records)
        assert back.entries == parsed.entries == ledger.entries

    def test_matching_checkpoint_parses_no_row(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.csv"
        checkpoint = self.saved(path, [("a", 0.5, "g"), ("b", 0.25, "h")]).checkpoint()
        calls = []
        parse = privacy._parse_rows
        monkeypatch.setattr(
            privacy, "_parse_rows", lambda *args: calls.append(args) or parse(*args)
        )
        back = PrivacyBudgetLedger.load_csv(path, checkpoint)
        assert calls == [] and len(back) == 2 and back.total() == 0.5
        PrivacyBudgetLedger.load_csv(path, {**checkpoint, "ledger_rows": 3})
        assert len(calls) == 1

    def test_checkpointed_ledger_appends_and_lists_every_row(self, tmp_path):
        path = tmp_path / "ledger.csv"
        records = [("a,with comma", 0.5, "g"), ("b", 0.25, "h"), ("c", 2.0, "g")]
        checkpoint = self.saved(path, records[:2]).checkpoint()
        back = PrivacyBudgetLedger.load_csv(path, checkpoint)
        back.record(*records[2])
        assert back.entries == tuple(map(tuple, records))  # the first two come from the file
        back.save_csv(path)
        self.saved(tmp_path / "expected.csv", records)
        assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()
        again = PrivacyBudgetLedger.load_csv(path, back.checkpoint())
        assert again.entries == back.entries and again.total() == 2.5

    @pytest.mark.parametrize(
        "damage",
        [
            lambda c: None,
            lambda c: [],
            lambda c: {k: v for k, v in c.items() if k != "ledger_digest"},
            lambda c: {**c, "ledger_rows": str(c["ledger_rows"])},
            lambda c: {**c, "ledger_rows": float(c["ledger_rows"])},
            lambda c: {**c, "ledger_sums": list(c["ledger_sums"].values())},
            lambda c: {**c, "ledger_sums": {"g": 1}},
            lambda c: {**c, "ledger_digest": None},
            lambda c: {**c, "ledger_rows": c["ledger_rows"] - 1},
            lambda c: {**c, "ledger_sums": {"g": 0.5}},
        ],
        ids=[
            "none", "list", "no_digest", "rows_str", "rows_float", "sums_list", "sums_int",
            "digest_none", "rows_off_by_one", "older_sums",
        ],
    )
    def test_unverified_checkpoint_parses_every_row(self, tmp_path, damage):
        path = tmp_path / "ledger.csv"
        records = [("a", 0.5, "g"), ("b", 0.75, "g")]
        checkpoint = self.saved(path, records).checkpoint()
        back = PrivacyBudgetLedger.load_csv(path, damage(checkpoint))
        assert back.entries == tuple(map(tuple, records))
        assert back.checkpoint() == checkpoint

    def test_checkpoint_of_other_bytes_rejected(self, tmp_path):
        path = tmp_path / "ledger.csv"
        checkpoint = self.saved(path, [("a", 0.5, "g"), ("b", 0.5, "g")]).checkpoint()
        damaged = path.read_bytes().replace(b"b,0.5", b"b,x.5")
        path.write_bytes(damaged)
        with pytest.raises(FormatError, match="ledger.csv, line 3: epsilon 'x.5'"):
            PrivacyBudgetLedger.load_csv(path, checkpoint)

    def test_checkpoint_needs_every_row_saved(self, tmp_path):
        ledger = self.saved(tmp_path / "ledger.csv", [("a", 0.5, "g")])
        ledger.record("b", 0.5, "g")
        with pytest.raises(ValueError, match="saved"):
            ledger.checkpoint()
        ledger.save_csv(tmp_path / "ledger.csv")
        whole = self.saved(tmp_path / "whole.csv", ledger.entries)
        assert ledger.checkpoint() == whole.checkpoint()

    def test_checkpointed_and_parsed_loads_are_one_state(self, tmp_path):
        records = [("a", 0.1, "g1"), ("b", 1 / 3, "g2"), ("c,d", 0.3, "g1")]
        checkpoint = self.saved(tmp_path / "verified.csv", records).checkpoint()
        (tmp_path / "parsed.csv").write_bytes((tmp_path / "verified.csv").read_bytes())
        verified = PrivacyBudgetLedger.load_csv(tmp_path / "verified.csv", checkpoint)
        parsed = PrivacyBudgetLedger.load_csv(tmp_path / "parsed.csv")
        for ledger in (verified, parsed):
            assert len(ledger) == 3 and ledger.total() == 0.1 + 0.3
            assert ledger.entries == tuple(records)
            assert ledger.checkpoint() == checkpoint
        for ledger, name in ((verified, "verified.csv"), (parsed, "parsed.csv")):
            ledger.record("e", 0.5, "g2")
            ledger.record("f", 0.25, "g3")
            ledger.save_csv(tmp_path / name)
        assert (tmp_path / "verified.csv").read_bytes() == (tmp_path / "parsed.csv").read_bytes()
        assert verified.checkpoint() == parsed.checkpoint()
        assert verified.checkpoint()["ledger_rows"] == 5


class TestVerifyDp:
    def test_identical_distributions(self):
        max_lr, _ = verify_dp_empirical(1.0, 0.0, 10**6, 64, make_stream(0))
        assert max_lr < 0.05

    def test_eps_one_passes(self):
        max_lr, ok = verify_dp_empirical(1.0, 1.0, 10**6, 64, make_stream(0))
        assert ok and max_lr <= 1.1

    def test_eps_two_measures_two(self):
        max_lr, ok = verify_dp_empirical(0.5, 1.0, 10**6, 64, make_stream(0))
        assert ok
        assert max_lr == pytest.approx(2.0, abs=0.2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_dp_empirical(0.0, 1.0)
        with pytest.raises(ValueError):
            verify_dp_empirical(1.0, 1.0, n_samples=10)
