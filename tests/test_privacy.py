import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimage.codec import decode, encode, init_model
from dpimage.errors import BadMagicError, FormatError, TruncatedError, VersionError
from dpimage.numerics import RngStream, derive_states, derive_stream, make_stream, rng_uniform_batch
from dpimage.privacy import (
    PrivacyBudgetLedger,
    PrivacyParams,
    clip_latent,
    dp_image,
    dp_images,
    estimate_sensitivity,
    full_mask,
    identity_mask,
    laplace_batch,
    laplace_from_uniform,
    laplace_rows,
    latents_to_csv,
    load_latents,
    perturb_latent,
    perturb_latents,
    save_latents,
    verify_dp_empirical,
)


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

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_batch(make_stream(0), 1, -1.0)

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

    def test_interior_draws_unchanged(self):
        u, _ = rng_uniform_batch(make_stream(4), 10**5)
        u = np.concatenate([u, [0.5 - 2.0**-53, -0.5 + 2.0**-53, 0.0]])
        unclamped = -2.0 * np.sign(u) * np.log1p(-2.0 * np.abs(u))
        assert np.array_equal(laplace_from_uniform(u, 2.0), unclamped)

    @pytest.mark.parametrize("scale", [0.0, 0.5, 3.0])
    def test_rows_match_task_streams(self, scale):
        rep, item = np.divmod(np.arange(120), 40)
        rows = laplace_rows(derive_states(9, 3, 1, rep, item), 32, scale)
        assert rows.shape == (120, 32)
        for i in range(120):
            expected, _ = laplace_batch(derive_stream(9, 3, 1, int(rep[i]), int(item[i])), 32, scale)
            assert np.array_equal(rows[i], expected)

    def test_scale_zero_still_consumes_draws(self):
        _, s_a = laplace_batch(make_stream(3), 10, 0.0)
        _, s_b = laplace_batch(make_stream(3), 10, 1.0)
        assert s_a == s_b


class TestSensitivity:
    def test_identical_latents(self):
        rep = estimate_sensitivity([[1.0, 2.0], [1.0, 2.0]])
        assert rep.delta_f == 0.0
        assert rep.distances[0, 1] == 0.0

    def test_subnormal_distance(self):
        rep = estimate_sensitivity([[0.0, 0.0], [0.0, 5e-324]])
        assert rep.delta_f == 5e-324
        assert rep.stats.counts.sum() == 1

    def test_hand_example(self):
        rep = estimate_sensitivity([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert rep.delta_f == 3.0  # pair (1,0),(0,2)

    def test_diagonal_zero(self):
        rng = np.random.default_rng(0)
        rep = estimate_sensitivity(rng.normal(size=(10, 4)))
        assert np.all(np.diag(rep.distances) == 0.0)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(200, 32))
        rep = estimate_sensitivity(z)
        best = 0.0
        for i in range(len(z)):
            for j in range(len(z)):
                d = np.sum(np.abs(z[i] - z[j]))
                if d > best:
                    best = d
                assert rep.distances[i, j] == d
        assert rep.delta_f == best

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            estimate_sensitivity([[1.0, 2.0]])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_sensitivity([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_symmetric_matrix(self):
        rng = np.random.default_rng(2)
        rep = estimate_sensitivity(rng.normal(size=(20, 8)))
        assert np.array_equal(rep.distances, rep.distances.T)


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
        stream = make_stream(11)
        outs = []
        for _ in range(5):
            out, stream = perturb_latent(z, params, stream)
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
        rows = perturb_latents(z, params, states)
        for i in range(20):
            single, _ = perturb_latent(z[i], params, RngStream(int(states[i])))
            assert np.array_equal(rows[i], single)


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
        stack = dp_images(self.model, images, params, states)
        for i in range(19):
            single, _ = dp_image(self.model, images[i], params, RngStream(int(states[i])))
            assert np.array_equal(stack[i], single)
        assert np.array_equal(dp_images(self.model, images[3:5], params, states[3:5]), stack[3:5])

    def test_matches_manual_composition(self):
        params = PrivacyParams(epsilon=0.5, sensitivity=1.0, mask=full_mask(8))
        out, _ = dp_image(self.model, self.image, params, make_stream(4))
        z = encode(self.model, self.image)
        z_noisy, _ = perturb_latent(z, params, make_stream(4))
        assert np.array_equal(out, decode(self.model, z_noisy))


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
        ledger = PrivacyBudgetLedger()
        ledger.record("a,with comma", 0.25, group="g1")
        ledger.save_csv(tmp_path / "appended.csv")
        ledger.record("b", 0.125, group="g2")
        ledger.record("c", 0.5, group="g1")
        ledger.save_csv(tmp_path / "appended.csv", start=1)
        ledger.save_csv(tmp_path / "whole.csv")
        assert (tmp_path / "appended.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert PrivacyBudgetLedger.load_csv(tmp_path / "appended.csv").entries == ledger.entries

    def test_start_outside_entries_rejected(self, tmp_path):
        ledger = PrivacyBudgetLedger()
        ledger.record("a", 0.25)
        with pytest.raises(ValueError):
            ledger.save_csv(tmp_path / "ledger.csv", start=2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("release_id,epsilon\r\n", "line 1: header"),
            ("release_id,epsilon,group\r\na,0.5,g\r\nb,0.5\r\n", "line 3: 2 fields"),
            ("release_id,epsilon,group\r\na,half,g\r\n", "line 2: epsilon 'half'"),
            ("release_id,epsilon,group\r\na,0.0,g\r\n", "line 2: epsilon must be positive"),
            ("release_id,epsilon,group\r\na,0.5,g\r\nb,0.5,g", "line 3: last row has no line end"),
        ],
    )
    def test_malformed_file_named_with_line(self, tmp_path, text, message):
        path = tmp_path / "ledger.csv"
        path.write_bytes(text.encode())
        with pytest.raises(FormatError, match=f"ledger.csv, {message}"):
            PrivacyBudgetLedger.load_csv(path)


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


class TestLatentIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(10, 8))
        path = tmp_path / "z.dplz"
        save_latents(z, path)
        assert np.array_equal(load_latents(path), z)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(BadMagicError):
            load_latents(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v"
        save_latents(np.zeros((2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_latents(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t"
        save_latents(np.zeros((4, 4)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TruncatedError):
            load_latents(path)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "z.csv"
        latents_to_csv(np.array([[1.0, 2.5], [3.0, -0.125]]), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "z0,z1"
        assert len(lines) == 3
