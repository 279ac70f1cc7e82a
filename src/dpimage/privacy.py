"""Latent-space privacy mechanism.

One mechanism function, perturb_latents, clips latents and adds Laplace
noise to their masked coordinates from uniform rows its caller supplies, one
per latent. dp_images, the one release path, encodes a stack, perturbs it and
decodes it. Around them: the Laplace sampler, feature-space sensitivity, and
budget accounting with sequential/parallel composition.

The guarantee is d_X-privacy (Chatzikokolakis et al., PETS 2013): noise of
scale delta_f / epsilon on f(x) bounds the privacy loss between any two
images x and x' by epsilon * ||f(x) - f(x')||_1 / delta_f. The empirical
mode takes delta_f as the maximum pairwise l1 distance over a local
dataset's latents, so pairs within it cost at most epsilon. The clip mode
projects every latent onto an l1 ball of radius B and uses delta_f = 2B,
which caps every pair at epsilon. A mask confines the guarantee to the
masked coordinates. The inverse-CDF Laplace draw on doubles is open to
Mironov's floating-point attack (CCS 2012).

The guarantee assumes secret noise, but a release's N is a function of
(seed, ledger row), which provenance records next to the images: anyone
holding the model can recompute N and undo the mechanism (ROADMAP item 1).

Never select or discard mechanism outputs by comparing them to the original
image: output selection conditioned on the input voids the privacy
guarantee. The toolkit itself never does this.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import AutoencoderModel, decode_batch, encode_batch
from .errors import FormatError, decode_utf8

LEDGER_HEADER = ("release_id", "epsilon", "group")
CHECKPOINT_KEYS = ("ledger_rows", "ledger_sums", "ledger_digest")
SENSITIVITY_BINS = 20  # histogram bins over [0, delta_f]


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
# the largest draw at scale 1, reached at |u| = 0.5
_MAX_DRAW = -math.log1p(-2.0 * _U_MAX)


def laplace_from_uniform(u, scale: float):
    """Inverse-CDF map from u in [-0.5, 0.5] to Laplace(0, scale); always finite.

    Scale 0 maps every u to +0.0. A scale whose largest draw would overflow
    (NaN, inf, or above about 4.89e306) is rejected.
    """
    if scale < 0:
        raise ValueError(f"scale must be nonnegative, got {scale}")
    if not math.isfinite(float(scale) * _MAX_DRAW):
        raise ValueError(f"scale {scale} makes Laplace draws overflow")
    u = np.asarray(u, dtype=np.float64)
    if scale == 0.0:
        return np.zeros_like(u)
    # -scale * sign(u) * log1p(-2 * min(|u|, U_MAX)) in one buffer: the same
    # bits, since times -sign(u) is a negation where u < 0 (+0.0 at u = +-0)
    noise = np.abs(u, out=np.empty_like(u))  # an array for a scalar u too
    np.minimum(noise, _U_MAX, out=noise)
    noise *= -2.0
    np.log1p(noise, out=noise)
    noise *= -scale
    return np.negative(noise, out=noise, where=u < 0)


@dataclass(frozen=True)
class SensitivityReport:
    """Empirical feature-space sensitivity over a set of latents.

    distances is the full pairwise l1 matrix; counts histograms the
    off-diagonal pairs (each unordered pair counted once) over bin_edges.
    """

    delta_f: float
    distances: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray


def pairwise_l1(latents: np.ndarray) -> np.ndarray:
    z = np.asarray(latents, dtype=np.float64)
    n = z.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        out[i] = np.sum(np.abs(z - z[i]), axis=1)
    return out


def estimate_sensitivity(latents) -> SensitivityReport:
    """Max pairwise l1 latent distance plus histogram/heatmap material."""
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need at least 2 latent vectors of equal length")
    distances = pairwise_l1(z)
    iu = np.triu_indices(z.shape[0], k=1)
    pair_values = distances[iu]
    delta_f = float(pair_values.max())
    edges = np.linspace(0.0, delta_f, SENSITIVITY_BINS + 1)
    if not np.all(np.diff(edges) > 0):  # delta_f 0, or too small to split
        edges = np.linspace(0.0, 1.0, SENSITIVITY_BINS + 1)
    counts, _ = np.histogram(pair_values, bins=edges)
    return SensitivityReport(delta_f, distances, edges, counts)


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


def perturb_latents(latents, params: PrivacyParams, uniforms) -> np.ndarray:
    """The mechanism: clip (when params.clip_radius is set), then add Laplace noise.

    uniforms holds one row of params.n_noisy values in [-0.5, 0.5] per latent,
    which becomes Laplace(scale) noise on that latent's masked coordinates in
    coordinate order. Unmasked coordinates of an unclipped latent pass through
    bit-identical.
    """
    z = np.asarray(latents, dtype=np.float64)
    u = np.asarray(uniforms, dtype=np.float64)
    if z.shape[-1:] != params.mask.shape:
        raise ValueError(
            f"mask length {params.mask.size} does not match latents of shape {z.shape}"
        )
    if u.shape != z.shape[:-1] + (params.n_noisy,):  # one row per latent, never broadcast
        raise ValueError(f"uniforms of shape {u.shape}, need {z.shape[:-1] + (params.n_noisy,)}")
    # a copy of the latents, which clip_latent makes itself
    z = clip_latent(z, params.clip_radius) if params.clip_radius is not None else z.copy()
    noise = laplace_from_uniform(u, params.scale)
    if params.n_noisy == params.mask.size:
        z += noise
    else:
        z[..., params.mask] += noise
    return z


def dp_images(model: AutoencoderModel, images, params: PrivacyParams, uniforms) -> np.ndarray:
    """Encode, clip and perturb, decode: f2[f(X) + N], one row of uniforms per image.

    Decoding is input-independent post-processing of the perturbed latent,
    so a release costs exactly params.epsilon, the same as releasing the
    perturbed latent itself. Image i is a function of images[i] and
    uniforms[i] alone, bit for bit, whatever else is in the stack.
    """
    return decode_batch(model, perturb_latents(encode_batch(model, images), params, uniforms))


class PrivacyBudgetLedger:
    """Append-only record of releases with composition accounting.

    Releases within one disjointness group touch the same data and compose
    sequentially (budgets add); distinct groups touch disjoint data and
    compose in parallel (overall budget is the max over groups). Entries are
    never mutated or removed. A ledger is the file of its saved rows, known
    by path, row count and a running sha256 of its bytes, plus the rows
    recorded since it was read or last saved. Per-group sums run over both
    in row order. A ledger appends only to its own file.
    """

    def __init__(self):
        self._path = None  # the file of the saved rows; None until a load or save
        self._file_rows = 0
        self._hash = hashlib.sha256()  # of the file's bytes
        self._pending: list[tuple[str, float, str]] = []
        self._sums: dict[str, float] = {}

    def record(self, release_id: str, epsilon: float, group: str = "default") -> None:
        if not 0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        epsilon = float(epsilon)
        self._pending.append((release_id, epsilon, group))
        self._sums[group] = self._sums.get(group, 0.0) + epsilon

    def __len__(self) -> int:
        return self._file_rows + len(self._pending)

    @property
    def entries(self) -> tuple[tuple[str, float, str], ...]:
        """Every row as a (release_id, epsilon, group) tuple; the file's are parsed."""
        saved = _parse_rows(self._path, self._path.read_bytes())[0] if self._file_rows else []
        return tuple(saved[: self._file_rows] + self._pending)

    def total(self) -> float:
        """Overall budget: max over groups of the within-group epsilon sum."""
        return max(self._sums.values(), default=0.0)

    def save_csv(self, path) -> None:
        """Write the rows not yet saved to path, which must be this ledger's file if it has one.

        A file of no rows is rewritten with the header; otherwise the rows are
        appended, so a release request costs its own rows, not the ledger's
        length, and the running hash hashes no byte twice.
        """
        path = Path(path)
        if self._path is not None and path != self._path:
            raise ValueError(f"this ledger's rows are in {self._path}, not {path}")
        text = io.StringIO()
        writer = csv.writer(text)
        if not self._file_rows:
            writer.writerow(LEDGER_HEADER)
            self._hash = hashlib.sha256()
        writer.writerows(self._pending)  # csv writes a float as its repr
        blob = text.getvalue().encode()
        with open(path, "ab" if self._file_rows else "wb") as f:
            f.write(blob)
        self._hash.update(blob)
        self._path = path
        self._file_rows += len(self._pending)
        self._pending = []

    def checkpoint(self) -> dict:
        """Row count, per-group sums and ``ledger_digest`` for load_csv to verify.

        The digest is the sha256 of the file's bytes followed by the
        canonical JSON of [rows, sums]. Every row must be saved.
        """
        if self._pending:
            raise ValueError("a checkpoint needs every row saved")
        sums = dict(self._sums)
        return {
            "ledger_rows": len(self),
            "ledger_sums": sums,
            "ledger_digest": _checkpoint_digest(self._hash, len(self), sums),
        }

    @classmethod
    def load_csv(cls, path, checkpoint=None) -> "PrivacyBudgetLedger":
        """Read a ledger written by save_csv; a malformed file raises FormatError.

        The error names the file and the line. A last line without its line
        end is malformed too: it is what an interrupted append leaves.

        checkpoint is a mapping that holds what checkpoint() returned, as
        read back from wherever the caller stored it. When its digest matches
        the file's bytes and its own count and sums, the ledger takes those
        and parses no row. Any other checkpoint (stale, damaged, of other
        bytes, of the wrong types) is ignored, and every row is parsed.
        """
        with open(path, "rb") as f:
            blob = f.read()
        ledger = cls()
        ledger._path = Path(path)
        ledger._hash = hashlib.sha256(blob)
        summary = _verified_summary(checkpoint, ledger._hash)
        if summary is None:
            rows, sums = _parse_rows(path, blob)
            summary = len(rows), sums
        ledger._file_rows, ledger._sums = summary
        return ledger


def _checkpoint_digest(file_hash, rows: int, sums: dict) -> str:
    digest = file_hash.copy()
    digest.update(json.dumps([rows, sums], sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()


def _verified_summary(checkpoint, file_hash) -> tuple[int, dict[str, float]] | None:
    """(rows, sums) of a checkpoint whose digest matches file_hash, else None."""
    try:
        rows, sums, digest = (checkpoint[key] for key in CHECKPOINT_KEYS)
    except (LookupError, TypeError):
        return None
    if not (
        type(rows) is int
        and rows >= 0
        and isinstance(sums, dict)
        and all(type(g) is str and type(v) is float for g, v in sums.items())
        and digest == _checkpoint_digest(file_hash, rows, sums)
    ):
        return None
    return rows, dict(sums)


def _parse_rows(path, blob: bytes) -> tuple[list[tuple[str, float, str]], dict[str, float]]:
    """The rows and per-group sums of a ledger file's bytes, every row validated."""
    text = decode_utf8(path, blob, FormatError)
    rows = csv.reader(io.StringIO(text))

    def malformed(what: str) -> FormatError:
        return FormatError(f"{path}, line {rows.line_num}: {what}")

    entries: list[tuple[str, float, str]] = []
    sums: dict[str, float] = {}
    try:  # the reader raises csv.Error on what it cannot split, such as a huge field
        header = next(rows, None)
        if header is not None and header != list(LEDGER_HEADER):
            raise malformed(f"header {header}, expected {list(LEDGER_HEADER)}")
        for row in rows:
            try:
                release_id, epsilon, group = row
                epsilon = float(epsilon)
            except ValueError:
                if len(row) != 3:
                    raise malformed(f"{len(row)} fields, expected 3") from None
                raise malformed(f"epsilon {row[1]!r} is not a number") from None
            if not 0 < epsilon < math.inf:
                raise malformed(f"epsilon must be positive and finite, got {epsilon}")
            entries.append((release_id, epsilon, group))
            sums[group] = sums.get(group, 0.0) + epsilon
    except csv.Error as exc:
        raise malformed(str(exc)) from None
    if text and not text.endswith("\n"):
        raise malformed("last row has no line end")
    return entries, sums
