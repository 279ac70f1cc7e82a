import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimage.numerics import (
    RngStream,
    derive_states,
    derive_stream,
    gaussian_batch,
    make_stream,
    rng_batch_u64,
    rng_uniform_batch,
    rng_uniform_rows,
)

MASK = (1 << 64) - 1


def reference_splitmix64(seed, n):
    # Independent re-statement of the four-line recurrence, used as the oracle.
    state = seed & MASK
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestSplitmix:
    def test_seed0_reference_value(self):
        # First output for seed 0, frozen from the reference recurrence.
        v = int(rng_batch_u64(make_stream(0), 1)[0][0])
        assert v == 0xE220A8397B1DCDAF
        assert v == reference_splitmix64(0, 1)[0]

    def test_matches_reference_sequence(self):
        for seed in (0, 1, 2, 987654321, 2**63):
            got, _ = rng_batch_u64(make_stream(seed), 64)
            assert [int(v) for v in got] == reference_splitmix64(seed, 64)

    def test_same_seed_same_first_1000(self):
        a, _ = rng_batch_u64(make_stream(42), 1000)
        b, _ = rng_batch_u64(make_stream(42), 1000)
        assert np.array_equal(a, b)

    def test_seeds_1_and_2_differ(self):
        v1 = int(rng_batch_u64(make_stream(1), 1)[0][0])
        v2 = int(rng_batch_u64(make_stream(2), 1)[0][0])
        assert v1 != v2
        assert v1 == reference_splitmix64(1, 1)[0]
        assert v2 == reference_splitmix64(2, 1)[0]

    def test_batch_matches_scalar(self):
        # one batch equals the oracle and 1000 one-draw calls, each resuming
        # the stream the last one returned
        s0 = make_stream(7)
        batch, s_batch = rng_batch_u64(s0, 1000)
        assert [int(v) for v in batch] == reference_splitmix64(7, 1000)
        s = s0
        for i in range(1000):
            v, s = rng_batch_u64(s, 1)
            assert v[0] == batch[i]
        assert s_batch == s

    def test_batch_empty(self):
        s = make_stream(3)
        vals, s2 = rng_batch_u64(s, 0)
        assert vals.size == 0 and s2 == s

    def test_stream_is_a_value(self):
        s = make_stream(5)
        rng_batch_u64(s, 3)
        assert s == make_stream(5)  # original untouched

    def test_stream_ids_decorrelate(self):
        a, _ = rng_batch_u64(make_stream(9, stream_id=1), 100)
        b, _ = rng_batch_u64(make_stream(9, stream_id=2), 100)
        assert not np.array_equal(a, b)

    def test_stream_id_zero_is_plain_seed(self):
        assert make_stream(123) == RngStream(state=123)

    def test_derive_stream_deterministic(self):
        assert derive_stream(1, 2, 3) == derive_stream(1, 2, 3)
        assert derive_stream(1, 2, 3) != derive_stream(1, 3, 2)


class TestStreamArrays:
    """Array forms of derive_stream and rng_uniform_batch match the scalar path."""

    def test_derive_states_match_scalar(self):
        rep, item = np.divmod(np.arange(250), 100)
        for seed in (0, 7, 2**64 - 1):
            states = derive_states(seed, 3, 2, rep, item)
            assert states.dtype == np.uint64 and states.shape == (250,)
            for i in range(250):
                assert int(states[i]) == derive_stream(seed, 3, 2, int(rep[i]), int(item[i])).state

    def test_derive_states_scalar_indices(self):
        assert int(derive_states(5)[0]) == derive_stream(5).state
        assert int(derive_states(5, 2, 9)[0]) == derive_stream(5, 2, 9).state

    def test_uniform_rows_match_batch(self):
        states = derive_states(11, 2, np.arange(20))
        rows = rng_uniform_rows(states, 33)
        assert rows.shape == (20, 33)
        for i in range(20):
            expected, _ = rng_uniform_batch(RngStream(int(states[i])), 33)
            assert np.array_equal(rows[i], expected)
        assert rng_uniform_rows(states, 0).shape == (20, 0)


class TestUniform:
    def test_range(self):
        u, _ = rng_uniform_batch(make_stream(11), 100000)
        assert np.all(u > -0.5)
        assert np.all(u <= 0.5)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200)
    def test_range_any_state(self, state):
        v = rng_uniform_rows([state], 1)[0, 0]
        assert -0.5 < v <= 0.5

    def test_moments_at_1e6(self):
        u, _ = rng_uniform_batch(make_stream(0), 10**6)
        assert abs(u.mean()) < 0.002  # 3 sigma / sqrt(n), sigma ~ 0.289
        assert abs(u.var() - 1.0 / 12.0) < 0.02 / 12.0

    def test_scalar_matches_batch(self):
        batch, _ = rng_uniform_batch(make_stream(4), 5)
        # the top 53 bits, shifted off 0
        got = [((v >> 11) + 1) * 2.0**-53 - 0.5 for v in reference_splitmix64(4, 5)]
        assert got == list(batch)


class TestGaussian:
    def test_zero_std_returns_mean_exactly(self):
        v, _ = gaussian_batch(make_stream(0), 1, mean=5.0, std=0.0)
        assert v[0] == 5.0

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_batch(make_stream(0), 1, 0.0, -1.0)

    def test_moments_at_1e6(self):
        x, _ = gaussian_batch(make_stream(1), 10**6)
        assert abs(x.mean()) < 0.004  # 4 sigma / sqrt(n)
        assert abs(x.var() - 1.0) < 0.02

    def test_stream_position_independent_of_std(self):
        _, s_a = gaussian_batch(make_stream(2), 10, std=1.0)
        _, s_b = gaussian_batch(make_stream(2), 10, std=0.0)
        assert s_a == s_b

    def test_scalar_matches_batch(self):
        batch, _ = gaussian_batch(make_stream(6), 3)
        s = make_stream(6)
        got = []
        for _ in range(3):
            v, s = gaussian_batch(s, 1)
            got.append(v[0])
        assert got == list(batch)
