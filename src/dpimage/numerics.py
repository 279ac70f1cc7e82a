"""Deterministic numeric kernel: addressed splitmix64 draws.

A draw is addressed by ``(seed, task indices, position)``. The seed and
task indices fix a stream's state (:func:`derive_states`, or
:func:`make_stream` for a bare stream id); the position picks a draw within
it. splitmix64 is counter-based, so draw k of a stream in state s is
``mix(s + k * golden)`` and any run of draws of many streams is one array
operation (:func:`rng_uniform_rows`), whatever order or thread count the
consumer uses.

All floating point is 64-bit. States are 1-d uint64 arrays, whose
arithmetic wraps mod 2**64 without a warning. The generator is splitmix64:
portable, bit-exact, and trivially seedable. It is not cryptographically
secure; do not use the toolkit where an adversary may predict the noise.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def make_stream(seed: int, stream_id=0) -> np.ndarray:
    """States of the streams (seed, stream_id), as a 1-d uint64 array.

    stream_id is a nonnegative int or a uint64 array. Id 0 is the raw
    splitmix64 sequence for ``seed``; nonzero ids offset the state through
    the splitmix finalizer so distinct ids give uncorrelated-looking
    sequences from the same seed.
    """
    sid = np.asarray(stream_id, dtype=np.uint64).reshape(-1)
    return np.uint64(seed & _MASK64) ^ _mix64_array(sid * np.uint64(_GOLDEN))


def derive_states(seed: int, *indices) -> np.ndarray:
    """States of many task streams at once, as a 1-d uint64 array.

    Each index is an int or an integer array; they broadcast together, and
    their index tuples fold into one stream id per task, so parallel work
    can assign one stream per (level, repetition, item, ...) task.
    """
    sid = np.zeros(1, dtype=np.uint64)
    for idx in indices:
        idx = np.asarray(idx, dtype=np.int64).astype(np.uint64)
        sid = _mix64_array((sid + idx + np.uint64(1)) * np.uint64(_GOLDEN))
    return make_stream(seed, sid)


def rng_uniform_rows(states, n: int, start: int = 0) -> np.ndarray:
    """Uniforms on (-0.5, 0.5] at positions start+1 ... start+n of many
    streams, one row per stream state; the top 53 bits of each draw."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    steps = np.arange(start + 1, start + n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = _mix64_array(np.asarray(states, dtype=np.uint64).reshape(-1, 1) + steps)
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53 - 0.5


def gaussian_from_uniform(u, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """Box-Muller map from pairs of uniforms on (-0.5, 0.5] to Gaussian draws.

    The last axis holds the pairs, so it halves. Std 0 maps every pair to
    ``mean``, so the draws consumed never depend on parameter values.
    """
    if std < 0:
        raise ValueError(f"std must be nonnegative, got {std}")
    u = np.asarray(u, dtype=np.float64)
    u1 = u[..., 0::2] + 0.5  # (0, 1], so log is finite
    u2 = u[..., 1::2] + 0.5
    if std == 0.0:
        return np.full(u1.shape, float(mean))
    r = np.sqrt(-2.0 * np.log(u1))
    return mean + std * r * np.cos(2.0 * np.pi * u2)
