"""Deterministic numeric kernel.

Seeded splitmix64 streams with value semantics (advancing returns a new
stream), uniform/Gaussian samplers and descriptive statistics.

All floating point is 64-bit. Streams are plain values, so every sampler is
a pure function ``(stream, ...) -> (result, advanced_stream)`` and results
are independent of thread count as long as each task gets its own child
stream (see :func:`derive_stream`).

The generator is splitmix64: portable, bit-exact, and trivially seedable.
It is not cryptographically secure; do not use the toolkit where an
adversary may predict the noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


@dataclass(frozen=True)
class RngStream:
    """Immutable splitmix64 stream state."""

    state: int


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """_mix64 over a uint64 array; array arithmetic wraps mod 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def make_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Create a stream for (seed, stream_id).

    stream_id 0 reproduces the raw splitmix64 sequence for ``seed``; nonzero
    ids offset the state through the splitmix finalizer so distinct ids give
    uncorrelated-looking sequences from the same seed.
    """
    sid = stream_id & _MASK64
    state = (seed ^ _mix64((sid * _GOLDEN) & _MASK64)) & _MASK64
    return RngStream(state)


def derive_stream(seed: int, *indices: int) -> RngStream:
    """Child stream for a task addressed by one or more indices.

    Folds the index tuple into a stream_id so that parallel work can assign
    one stream per (level, repetition, item, ...) task deterministically.
    """
    sid = 0
    for idx in indices:
        sid = _mix64(((sid + idx + 1) * _GOLDEN) & _MASK64)
    return make_stream(seed, sid)


def derive_states(seed: int, *indices) -> np.ndarray:
    """States of many task streams at once, as a uint64 array.

    Each index is an int or an integer array; they broadcast together, and
    element i is ``derive_stream(seed, *task_i).state`` bit for bit.
    """
    sid = np.zeros(1, dtype=np.uint64)
    for idx in indices:
        idx = np.asarray(idx, dtype=np.int64).astype(np.uint64)
        sid = _mix64_array((sid + idx + np.uint64(1)) * np.uint64(_GOLDEN))
    return np.uint64(seed & _MASK64) ^ _mix64_array(sid * np.uint64(_GOLDEN))


def rng_next_u64(stream: RngStream) -> tuple[int, RngStream]:
    """Next raw 64-bit output; returns (value, advanced stream)."""
    state = (stream.state + _GOLDEN) & _MASK64
    return _mix64(state), RngStream(state)


def rng_batch_u64(stream: RngStream, n: int) -> tuple[np.ndarray, RngStream]:
    """n raw outputs as a uint64 array, bit-identical to n scalar calls."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    z = _splitmix_rows(np.array([stream.state], dtype=np.uint64), n)[0]
    return z, RngStream((stream.state + n * _GOLDEN) & _MASK64)


def _splitmix_rows(states: np.ndarray, n: int) -> np.ndarray:
    """Row i: the next n raw outputs of the stream in state states[i]."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix64_array(states[:, None] + steps)


def _to_uniform(z: np.ndarray) -> np.ndarray:
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53 - 0.5


def rng_uniform_batch(stream: RngStream, n: int) -> tuple[np.ndarray, RngStream]:
    """n uniform draws on (-0.5, 0.5] as float64."""
    z, stream = rng_batch_u64(stream, n)
    return _to_uniform(z), stream


def rng_uniform_rows(states, n: int) -> np.ndarray:
    """The first n uniforms of many streams, one row per stream state.

    Row i equals ``rng_uniform_batch(RngStream(states[i]), n)[0]`` bit for
    bit; ``states`` comes from :func:`derive_states`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _to_uniform(_splitmix_rows(np.asarray(states, dtype=np.uint64).reshape(-1), n))


def gaussian_batch(
    stream: RngStream, n: int, mean: float = 0.0, std: float = 1.0
) -> tuple[np.ndarray, RngStream]:
    """n Gaussian draws via Box-Muller; consumes exactly 2n uniforms.

    The two uniforms per draw are consumed regardless of ``std`` so the
    stream position depends only on n, never on parameter values.
    """
    if std < 0:
        raise ValueError(f"std must be nonnegative, got {std}")
    u, stream = rng_uniform_batch(stream, 2 * n)
    if std == 0.0:
        return np.full(n, float(mean)), stream
    u1 = u[0::2] + 0.5  # (0, 1], so log is finite
    u2 = u[1::2] + 0.5
    r = np.sqrt(-2.0 * np.log(u1))
    return mean + std * r * np.cos(2.0 * np.pi * u2), stream


@dataclass(frozen=True)
class StatsSummary:
    """Min/max/mean plus a histogram over caller-supplied bin edges.

    ``counts[i]`` covers ``[edges[i], edges[i+1])`` (last bin closed on the
    right); values outside the edges land in ``underflow``/``overflow`` so
    the counts always partition the input.
    """

    minimum: float
    maximum: float
    mean: float
    bin_edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int


def descriptive_stats(values, bin_edges) -> StatsSummary:
    """Summarize a nonempty sequence of reals over strictly increasing edges."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("values must be nonempty")
    edges = np.asarray(bin_edges, dtype=np.float64).ravel()
    if edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("bin edges must be strictly increasing with >= 2 entries")
    counts, _ = np.histogram(vals, bins=edges)
    underflow = int(np.count_nonzero(vals < edges[0]))
    overflow = int(np.count_nonzero(vals > edges[-1]))
    return StatsSummary(
        minimum=float(vals.min()),
        maximum=float(vals.max()),
        mean=float(vals.mean()),
        bin_edges=edges,
        counts=counts,
        underflow=underflow,
        overflow=overflow,
    )
