"""Latent-space privacy mechanism.

Laplace sampling calibrated by feature-space sensitivity, masked latent
perturbation, the encode-perturb-decode image mechanism, budget accounting
with sequential/parallel composition, and an empirical one-dimensional
check of the privacy-loss ratio bound.

Two sensitivity modes are supported. The empirical mode measures the
maximum pairwise l1 distance over the latents of a local dataset; it is an
experience value only and says nothing about unseen images. The clip mode
projects every latent onto an l1 ball of radius B, which yields the
provable bound delta_f <= 2B.

Never select or discard mechanism outputs by comparing them to the original
image: output selection conditioned on the input voids the privacy
guarantee. The toolkit itself never does this.
"""

from __future__ import annotations

import csv
import io
import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .codec import AutoencoderModel, decode, decode_batch, encode, encode_batch
from .errors import BadMagicError, FormatError, TruncatedError, VersionError
from .numerics import (
    RngStream,
    StatsSummary,
    descriptive_stats,
    make_stream,
    rng_uniform_batch,
    rng_uniform_rows,
)

LATENT_MAGIC = b"DPLZ"
LATENT_VERSION = 1
LEDGER_HEADER = ("release_id", "epsilon", "group")


@dataclass(frozen=True)
class PrivacyParams:
    """Noise calibration: scale b = sensitivity / epsilon.

    mask selects which latent coordinates receive noise (True = perturb).
    "No noise" is expressed as sensitivity 0, never as infinite epsilon.
    clip_radius, when set, projects every latent onto the l1 ball of that
    radius before the noise is added (clip mode, delta_f <= 2B).
    """

    epsilon: float
    sensitivity: float
    mask: np.ndarray
    clip_radius: float | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 <= self.sensitivity < math.inf:
            raise ValueError(f"sensitivity must be nonnegative and finite, got {self.sensitivity}")
        if self.clip_radius is not None and not 0 < self.clip_radius < math.inf:
            raise ValueError(f"clip_radius must be positive and finite, got {self.clip_radius}")
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon

    @property
    def n_noisy(self) -> int:
        return int(np.count_nonzero(self.mask))


def full_mask(m: int) -> np.ndarray:
    return np.ones(m, dtype=bool)


def identity_mask(m: int, identity_len: int) -> np.ndarray:
    """Mask selecting only the identity block (leading coordinates)."""
    if not 1 <= identity_len <= m:
        raise ValueError(f"identity_len {identity_len} outside [1, {m}]")
    mask = np.zeros(m, dtype=bool)
    mask[:identity_len] = True
    return mask


# |u| = 0.5 would map to an infinite draw. The uniforms lie on a 2**-53 grid,
# so u = 0.5 stands for the top cell (0.5 - 2**-53, 0.5]; its midpoint gives a
# finite draw, about 36.7 * scale, and every other grid point is below it.
_U_MAX = 0.5 - 2.0**-54


def laplace_from_uniform(u, scale: float):
    """Inverse-CDF map from u in [-0.5, 0.5] to Laplace(0, scale); always finite."""
    u = np.asarray(u, dtype=np.float64)
    return -scale * np.sign(u) * np.log1p(-2.0 * np.minimum(np.abs(u), _U_MAX))


def laplace_batch(
    stream: RngStream, n: int, scale: float
) -> tuple[np.ndarray, RngStream]:
    """n Laplace(0, scale) draws; consumes n uniforms even when scale is 0."""
    if scale < 0:
        raise ValueError(f"scale must be nonnegative, got {scale}")
    u, stream = rng_uniform_batch(stream, n)
    if scale == 0.0:
        return np.zeros(n), stream
    return laplace_from_uniform(u, scale), stream


def laplace_rows(states, n: int, scale: float) -> np.ndarray:
    """n Laplace(0, scale) draws per stream state, one row each.

    Row i equals ``laplace_batch(RngStream(states[i]), n, scale)[0]`` bit for
    bit, so a block of tasks draws its noise in one array operation.
    """
    if scale < 0:
        raise ValueError(f"scale must be nonnegative, got {scale}")
    u = rng_uniform_rows(states, n)
    if scale == 0.0:
        return np.zeros_like(u)
    return laplace_from_uniform(u, scale)


@dataclass(frozen=True)
class SensitivityReport:
    """Empirical feature-space sensitivity over a set of latents.

    distances is the full pairwise l1 matrix; stats summarizes the
    off-diagonal pairs (each unordered pair counted once).
    """

    delta_f: float
    distances: np.ndarray
    stats: StatsSummary


def pairwise_l1(latents: np.ndarray) -> np.ndarray:
    z = np.asarray(latents, dtype=np.float64)
    n = z.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        out[i] = np.sum(np.abs(z - z[i]), axis=1)
    return out


def estimate_sensitivity(latents, n_bins: int = 20) -> SensitivityReport:
    """Max pairwise l1 latent distance plus histogram/heatmap material."""
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need at least 2 latent vectors of equal length")
    distances = pairwise_l1(z)
    iu = np.triu_indices(z.shape[0], k=1)
    pair_values = distances[iu]
    delta_f = float(pair_values.max())
    edges = np.linspace(0.0, delta_f, n_bins + 1)
    if not np.all(np.diff(edges) > 0):  # delta_f 0, or too small to split
        edges = np.linspace(0.0, 1.0, n_bins + 1)
    return SensitivityReport(
        delta_f=delta_f,
        distances=distances,
        stats=descriptive_stats(pair_values, edges),
    )


def clip_latent(latent: np.ndarray, radius: float) -> np.ndarray:
    """Project onto the l1 ball of the given radius (returns a copy).

    A 2-D array is clipped row by row.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    z = np.asarray(latent, dtype=np.float64)
    norm = np.sum(np.abs(z), axis=-1, keepdims=True)
    # the factor is exactly 1.0 inside the ball
    return z * (radius / np.maximum(norm, radius))


def _add_noise(latents, params: PrivacyParams, noise: np.ndarray) -> np.ndarray:
    z = np.array(latents, dtype=np.float64)
    if z.shape[-1:] != params.mask.shape:
        raise ValueError(
            f"mask length {params.mask.size} does not match latents of shape {z.shape}"
        )
    if params.clip_radius is not None:
        z = clip_latent(z, params.clip_radius)
    z[..., params.mask] += noise
    return z


def perturb_latent(
    latent: np.ndarray, params: PrivacyParams, stream: RngStream
) -> tuple[np.ndarray, RngStream]:
    """Clip (when params.clip_radius is set), then add Laplace(scale) noise.

    Noise goes to the masked coordinates only; draws are consumed in
    coordinate order over the masked positions, so the output is a
    deterministic function of (latent, params, stream). Unmasked coordinates
    of an unclipped latent pass through bit-identical.
    """
    noise, stream = laplace_batch(stream, params.n_noisy, params.scale)
    return _add_noise(latent, params, noise), stream


def perturb_latents(latents, params: PrivacyParams, states) -> np.ndarray:
    """perturb_latent over a stack of latents, one stream state per row.

    Row i equals ``perturb_latent(latents[i], params, RngStream(states[i]))``
    bit for bit; ``states`` comes from :func:`derive_states`.
    """
    return _add_noise(latents, params, laplace_rows(states, params.n_noisy, params.scale))


def dp_image(
    model: AutoencoderModel,
    image: np.ndarray,
    params: PrivacyParams,
    stream: RngStream,
) -> tuple[np.ndarray, RngStream]:
    """Encode, clip and perturb the latent, decode: f2[f(X) + N].

    Decoding is input-independent post-processing of the perturbed latent,
    so the release costs exactly params.epsilon, the same as releasing the
    perturbed latent itself. The result equals the matching row of
    :func:`dp_images`.
    """
    z_noisy, stream = perturb_latent(encode(model, image), params, stream)
    return decode(model, z_noisy), stream


def dp_images(model: AutoencoderModel, images, params: PrivacyParams, states) -> np.ndarray:
    """The mechanism over a stack of images, one stream state per image.

    Image i equals ``dp_image(model, images[i], params, RngStream(states[i]))``
    bit for bit, whatever else is in the stack.
    """
    return decode_batch(model, perturb_latents(encode_batch(model, images), params, states))


@dataclass(frozen=True)
class LedgerEntry:
    release_id: str
    epsilon: float
    group: str


class PrivacyBudgetLedger:
    """Append-only record of releases with composition accounting.

    Releases within one disjointness group touch the same data and compose
    sequentially (budgets add); distinct groups touch disjoint data and
    compose in parallel (overall budget is the max over groups). Appends are
    serialized; entries are never mutated or removed.
    """

    def __init__(self):
        self._entries: list[LedgerEntry] = []
        self._lock = threading.Lock()

    def record(self, release_id: str, epsilon: float, group: str = "default") -> None:
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        with self._lock:
            self._entries.append(LedgerEntry(release_id, float(epsilon), group))

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        with self._lock:
            return tuple(self._entries)

    def total(self) -> float:
        """Overall budget: max over groups of the within-group epsilon sum."""
        sums: dict[str, float] = {}
        for e in self.entries:
            sums[e.group] = sums.get(e.group, 0.0) + e.epsilon
        return max(sums.values(), default=0.0)

    def save_csv(self, path, start: int = 0) -> None:
        """Write the ledger as CSV; ``entries[:start]`` are already in the file.

        start 0 writes the header and every row. start > 0 appends only the
        rows after it, so a release request costs its own rows, not the
        ledger's length.
        """
        entries = self.entries
        if not 0 <= start <= len(entries):
            raise ValueError(f"start {start} outside [0, {len(entries)}]")
        with open(path, "a" if start else "w", newline="") as f:
            writer = csv.writer(f)
            if not start:
                writer.writerow(LEDGER_HEADER)
            writer.writerows((e.release_id, repr(e.epsilon), e.group) for e in entries[start:])

    @classmethod
    def load_csv(cls, path) -> "PrivacyBudgetLedger":
        """Read a ledger written by save_csv; a malformed file raises FormatError.

        The error names the file and the line. A last line without its line
        end is malformed too: it is what an interrupted append leaves.
        """
        with open(path, newline="") as f:
            text = f.read()
        rows = csv.reader(io.StringIO(text))

        def malformed(what: str) -> FormatError:
            return FormatError(f"{path}, line {rows.line_num}: {what}")

        header = next(rows, None)
        if header is not None and header != list(LEDGER_HEADER):
            raise malformed(f"header {header}, expected {list(LEDGER_HEADER)}")
        entries = []
        for row in rows:
            try:
                release_id, epsilon, group = row
                epsilon = float(epsilon)
            except ValueError:
                if len(row) != 3:
                    raise malformed(f"{len(row)} fields, expected 3") from None
                raise malformed(f"epsilon {row[1]!r} is not a number") from None
            if not epsilon > 0:
                raise malformed(f"epsilon must be positive, got {epsilon}")
            entries.append(LedgerEntry(release_id, epsilon, group))
        if text and not text.endswith("\n"):
            raise malformed("last row has no line end")
        ledger = cls()
        ledger._entries = entries
        return ledger


def verify_dp_empirical(
    scale: float,
    delta_f: float,
    n_samples: int = 10**6,
    bins: int = 64,
    stream: RngStream | None = None,
) -> tuple[float, bool]:
    """Empirical 1-D check of the Laplace privacy-loss ratio bound.

    Draws n_samples from Laplace(0, scale) and from delta_f +
    Laplace(0, scale), clamps both into [-8*scale, delta_f + 8*scale], and
    compares add-one-smoothed cell frequencies. Cells hold equal pooled
    mass (empirical quantiles of the combined sample) so every cell's
    frequency estimate carries roughly the same sampling error; with
    equal-width cells the near-empty tail cells would swamp the ratio
    statistic with noise far beyond any fixed slack.

    Returns (max over cells of |ln(p/q)|, pass) where pass means the
    maximum stays within 10% slack of the analytic bound delta_f / scale.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if n_samples < 10**5:
        raise ValueError(f"need at least 1e5 samples, got {n_samples}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if stream is None:
        stream = make_stream(0)
    p, stream = laplace_batch(stream, n_samples, scale)
    q, stream = laplace_batch(stream, n_samples, scale)
    q = q + delta_f
    lo = -8.0 * scale
    hi = delta_f + 8.0 * scale
    p = np.clip(p, lo, hi)
    q = np.clip(q, lo, hi)
    pooled = np.sort(np.concatenate([p, q]))
    cut = (np.arange(1, bins) * pooled.size) // bins
    edges = np.concatenate([[lo], pooled[cut], [hi]])
    edges = np.maximum.accumulate(edges)
    cp, _ = np.histogram(p, bins=edges)
    cq, _ = np.histogram(q, bins=edges)
    p_hat = (cp + 1.0) / (n_samples + bins)
    q_hat = (cq + 1.0) / (n_samples + bins)
    max_log_ratio = float(np.max(np.abs(np.log(p_hat / q_hat))))
    epsilon = delta_f / scale
    return max_log_ratio, max_log_ratio <= epsilon * 1.1


def save_latents(latents: np.ndarray, path) -> None:
    """Canonical binary latent file: magic, version, count, dim, f64 LE."""
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected a (count, m) array, got shape {z.shape}")
    with open(path, "wb") as f:
        f.write(LATENT_MAGIC)
        f.write(struct.pack("<III", LATENT_VERSION, z.shape[0], z.shape[1]))
        f.write(z.astype("<f8").tobytes(order="C"))


def load_latents(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != LATENT_MAGIC:
        raise BadMagicError(f"bad magic {blob[:4]!r}, expected {LATENT_MAGIC!r}")
    if len(blob) < 16:
        raise TruncatedError("latent file header incomplete")
    version, count, m = struct.unpack("<III", blob[4:16])
    if version != LATENT_VERSION:
        raise VersionError(f"unsupported latent file version {version}")
    expected = 16 + 8 * count * m
    if len(blob) < expected:
        raise TruncatedError(f"latent file ends at {len(blob)}, needed {expected}")
    if len(blob) > expected:
        raise TruncatedError(f"{len(blob) - expected} unexpected trailing bytes")
    return np.frombuffer(blob[16:], dtype="<f8").reshape(count, m).copy()


def latents_to_csv(latents: np.ndarray, path) -> None:
    z = np.asarray(latents, dtype=np.float64)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"z{i}" for i in range(z.shape[1])])
        for row in z:
            writer.writerow([repr(float(v)) for v in row])
