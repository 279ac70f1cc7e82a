import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimage.numerics import derive_states, gaussian_from_uniform, make_stream, rng_uniform_rows

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_splitmix64(seed, n):
    # Independent re-statement of the four-line recurrence, used as the oracle.
    state = seed & MASK
    out = []
    for _ in range(n):
        state = (state + GOLDEN) & MASK
        out.append(reference_mix(state))
    return out


def reference_state(seed, stream_id=0):
    """State of stream (seed, stream_id), in Python ints."""
    return (seed ^ reference_mix((stream_id * GOLDEN) & MASK)) & MASK


def reference_derive_state(seed, *indices):
    """State of the task stream addressed by indices: each index folds into
    the stream id through the finalizer, in Python ints."""
    sid = 0
    for idx in indices:
        sid = reference_mix(((sid + idx + 1) * GOLDEN) & MASK)
    return reference_state(seed, sid)


def top_bits(u):
    """The 53-bit integers behind uniforms: u = (k + 1) * 2**-53 - 0.5 exactly."""
    return [int(k) for k in ((np.asarray(u).reshape(-1) + 0.5) * 2.0**53).astype(np.int64) - 1]


def oracle_bits(state, n, start=0):
    """Top 53 bits of draws start+1 ... start+n of the stream in state."""
    return [v >> 11 for v in reference_splitmix64(state, start + n)[start:]]


class TestSplitmix:
    def test_seed0_reference_value(self):
        # First output for seed 0, frozen from the reference recurrence.
        assert reference_splitmix64(0, 1)[0] == 0xE220A8397B1DCDAF
        assert top_bits(rng_uniform_rows(make_stream(0), 1)) == [0xE220A8397B1DCDAF >> 11]

    def test_matches_reference_sequence(self):
        for seed in (0, 1, 2, 987654321, 2**63):
            got = top_bits(rng_uniform_rows(make_stream(seed), 64))
            assert got == oracle_bits(seed, 64)

    def test_same_seed_same_first_1000(self):
        a = rng_uniform_rows(make_stream(42), 1000)
        b = rng_uniform_rows(make_stream(42), 1000)
        assert np.array_equal(a, b)

    def test_seeds_1_and_2_differ(self):
        v1 = top_bits(rng_uniform_rows(make_stream(1), 1))
        v2 = top_bits(rng_uniform_rows(make_stream(2), 1))
        assert v1 != v2
        assert v1 == oracle_bits(1, 1)
        assert v2 == oracle_bits(2, 1)

    def test_batch_matches_scalar(self):
        # one batch equals the oracle and 1000 one-draw calls, each at the
        # position the last one reached
        state = make_stream(7)
        batch = rng_uniform_rows(state, 1000)[0]
        assert top_bits(batch) == oracle_bits(7, 1000)
        for i in range(1000):
            assert rng_uniform_rows(state, 1, i)[0, 0] == batch[i]

    def test_batch_empty(self):
        assert rng_uniform_rows(make_stream(3), 0).shape == (1, 0)
        assert rng_uniform_rows(make_stream(3), 0, 17).shape == (1, 0)
        with pytest.raises(ValueError):
            rng_uniform_rows(make_stream(3), -1)

    def test_stream_ids_decorrelate(self):
        a = rng_uniform_rows(make_stream(9, stream_id=1), 100)
        b = rng_uniform_rows(make_stream(9, stream_id=2), 100)
        assert not np.array_equal(a, b)

    def test_stream_id_zero_is_plain_seed(self):
        state = make_stream(123)
        assert state.dtype == np.uint64 and state.shape == (1,) and int(state[0]) == 123

    def test_derive_states_deterministic(self):
        assert np.array_equal(derive_states(1, 2, 3), derive_states(1, 2, 3))
        assert not np.array_equal(derive_states(1, 2, 3), derive_states(1, 3, 2))


class TestAddressedDraws:
    """Integer pins of each draw's address against the Python-int oracle.

    init_model reads stream 0 of its seed at running offsets, train reads
    epoch e's shuffle at offset e*n of stream 1, and generate_corpus reads
    derive_states(seed, 0, i) and derive_states(seed, 1, i*S + k); these are
    the draws a sequential consumer of each stream reads in turn.
    """

    @pytest.mark.parametrize("stream_id", [0, 1])
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
    def test_rows_at_start_match_oracle(self, seed, stream_id):
        state = make_stream(seed, stream_id)
        assert int(state[0]) == reference_state(seed, stream_id)
        for n, start in ((40, 0), (40, 13), (7, 500), (1, 999)):
            got = top_bits(rng_uniform_rows(state, n, start))
            assert got == oracle_bits(reference_state(seed, stream_id), n, start)

    def test_running_offsets_read_one_sequence(self):
        # init_model's layers, and train's epochs, read consecutive runs
        state = make_stream(5, 1)
        sizes = [6, 1, 13, 0, 8]
        runs = [rng_uniform_rows(state, m, o)[0] for m, o in zip(sizes, np.cumsum([0, *sizes[:-1]]))]
        assert top_bits(np.concatenate(runs)) == oracle_bits(reference_state(5, 1), sum(sizes))

    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    def test_corpus_states_match_fold(self, seed):
        samples = 6
        for ident in (0, 1, 49):
            assert int(derive_states(seed, 0, ident)[0]) == reference_derive_state(seed, 0, ident)
            states = derive_states(seed, 1, ident * samples + np.arange(samples))
            expected = [reference_derive_state(seed, 1, ident * samples + k) for k in range(samples)]
            assert [int(s) for s in states] == expected


class TestStreamArrays:
    """Array states and rows match the Python-int fold and the oracle."""

    def test_derive_states_match_scalar(self):
        rep, item = np.divmod(np.arange(250), 100)
        for seed in (0, 7, 2**64 - 1):
            states = derive_states(seed, 3, 2, rep, item)
            assert states.dtype == np.uint64 and states.shape == (250,)
            for i in range(250):
                assert int(states[i]) == reference_derive_state(seed, 3, 2, int(rep[i]), int(item[i]))

    def test_derive_states_scalar_indices(self):
        assert int(derive_states(5)[0]) == reference_derive_state(5)
        assert int(derive_states(5, 2, 9)[0]) == reference_derive_state(5, 2, 9)

    def test_derive_states_broadcast_row_major(self):
        rep, item = np.arange(3)[:, None], np.arange(4)
        states = derive_states(2, 1, rep, item)
        assert states.shape == (12,)
        assert [int(s) for s in states] == [
            reference_derive_state(2, 1, r, i) for r in range(3) for i in range(4)
        ]

    def test_uniform_rows_match_oracle(self):
        states = derive_states(11, 2, np.arange(20))
        rows = rng_uniform_rows(states, 33, 4)
        assert rows.shape == (20, 33)
        for i in range(20):
            assert top_bits(rows[i]) == oracle_bits(int(states[i]), 33, 4)
            assert np.array_equal(rows[i], rng_uniform_rows(states[i : i + 1], 33, 4)[0])
        assert rng_uniform_rows(states, 0).shape == (20, 0)


class TestUniform:
    def test_range(self):
        u = rng_uniform_rows(make_stream(11), 100000)
        assert np.all(u > -0.5)
        assert np.all(u <= 0.5)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200)
    def test_range_any_state(self, state):
        v = rng_uniform_rows([state], 1)[0, 0]
        assert -0.5 < v <= 0.5

    def test_moments_at_1e6(self):
        u = rng_uniform_rows(make_stream(0), 10**6)
        assert abs(u.mean()) < 0.002  # 3 sigma / sqrt(n), sigma ~ 0.289
        assert abs(u.var() - 1.0 / 12.0) < 0.02 / 12.0

    def test_scalar_matches_batch(self):
        batch = rng_uniform_rows(make_stream(4), 5)[0]
        # the top 53 bits, shifted off 0
        got = [((v >> 11) + 1) * 2.0**-53 - 0.5 for v in reference_splitmix64(4, 5)]
        assert got == list(batch)


class TestGaussian:
    def test_zero_std_returns_mean_exactly(self):
        v = gaussian_from_uniform(rng_uniform_rows(make_stream(0), 2)[0], mean=5.0, std=0.0)
        assert v.shape == (1,) and v[0] == 5.0

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_from_uniform(rng_uniform_rows(make_stream(0), 2)[0], 0.0, -1.0)

    def test_moments_at_1e6(self):
        x = gaussian_from_uniform(rng_uniform_rows(make_stream(1), 2 * 10**6)[0])
        assert abs(x.mean()) < 0.004  # 4 sigma / sqrt(n)
        assert abs(x.var() - 1.0) < 0.02

    def test_scalar_matches_batch(self):
        u = rng_uniform_rows(make_stream(6), 6)[0]
        batch = gaussian_from_uniform(u)
        got = [gaussian_from_uniform(u[2 * i : 2 * i + 2])[0] for i in range(3)]
        assert got == list(batch)
        # rows pair their own uniforms along the last axis
        rows = rng_uniform_rows(derive_states(6, np.arange(4)), 10)
        out = gaussian_from_uniform(rows, 1.0, 2.0)
        assert out.shape == (4, 5)
        for i in range(4):
            assert np.array_equal(out[i], gaussian_from_uniform(rows[i], 1.0, 2.0))

    def test_std_column_equals_per_row_scalar_calls(self):
        # one std per row, zero among them: each row has the bits of its own
        # scalar call, and the zero row is the mean exactly
        rows = rng_uniform_rows(derive_states(7, np.arange(4)), 10)
        std = np.array([[0.5], [0.0], [2.0], [1e-3]])
        out = gaussian_from_uniform(rows, 3.0, std)
        assert out.shape == (4, 5)
        for i in range(4):
            assert np.array_equal(out[i], gaussian_from_uniform(rows[i], 3.0, std[i, 0]))
        assert np.array_equal(out[1], np.full(5, 3.0))
        with pytest.raises(ValueError):
            gaussian_from_uniform(rows, 0.0, -std)


def test_python_int_scalars_raise_no_warning():
    # 0-d uint64 arithmetic warns on wraparound; states stay 1-d arrays, so
    # no numerics call warns however its Python ints wrap
    seed = 2**64 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = make_stream(seed, 1)
        states = derive_states(seed, 1, 2**62, np.arange(3))
        derive_states(seed)
        rng_uniform_rows(state, 5, 2**40)
        rng_uniform_rows([seed], 3)
        u = rng_uniform_rows(states, 4, 1)
        gaussian_from_uniform(u, 0.0, 1.0)
        gaussian_from_uniform(u, 1.0, 0.0)
