"""Corpus management: synthetic toy faces, dataset manifests, PGM I/O.

The toy-face generator replaces any downloaded face dataset. Each identity
is a point in a six-parameter shape space (head ellipse, eye placement,
mouth geometry); repeated samples of one identity share those parameters
and differ only in nuisance (center jitter, brightness, pixel noise), which
gives ground-truth identity labels for privacy evaluation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import BadMagicError, BadMaxvalError, DataError, TruncatedError
from .numerics import RngStream, derive_stream, gaussian_batch, rng_uniform_batch

# Identity parameters are fractions of the image side; nuisance in the units
# noted. Ranges are inclusive.
IDENTITY_PARAM_RANGES = {
    "face_width": (0.24, 0.44),  # head semi-axis, horizontal
    "face_height": (0.28, 0.48),  # head semi-axis, vertical
    "eye_spacing": (0.14, 0.34),  # distance between eye centers
    "eye_height": (0.06, 0.24),  # eyes sit this far above center
    "mouth_width": (0.12, 0.42),  # full mouth width
    "mouth_curve": (-0.06, 0.10),  # vertical bend, + smiles
}
NUISANCE_PARAM_RANGES = {
    "jitter_x": (-2.0, 2.0),  # pixels
    "jitter_y": (-2.0, 2.0),  # pixels
    "brightness": (-0.05, 0.05),
    "noise_std": (0.0, 0.02),
}

_BACKGROUND = 0.92
_FACE = 0.55
_EYE = 0.08
_MOUTH = 0.15
_EYE_RX = 0.055
_EYE_RY = 0.042
_MOUTH_DROP = 0.24  # mouth center sits this far below face center
_MOUTH_THICKNESS = 0.022


@dataclass(frozen=True)
class FaceParams:
    """Identity shape parameters plus per-image nuisance."""

    face_width: float
    face_height: float
    eye_spacing: float
    eye_height: float
    mouth_width: float
    mouth_curve: float
    jitter_x: float = 0.0
    jitter_y: float = 0.0
    brightness: float = 0.0
    noise_std: float = 0.0

    def identity_tuple(self) -> tuple[float, ...]:
        return (
            self.face_width,
            self.face_height,
            self.eye_spacing,
            self.eye_height,
            self.mouth_width,
            self.mouth_curve,
        )


def _check_ranges(params: FaceParams) -> None:
    for name, (lo, hi) in {**IDENTITY_PARAM_RANGES, **NUISANCE_PARAM_RANGES}.items():
        value = getattr(params, name)
        if not lo <= value <= hi:
            raise DataError(f"face parameter {name}={value} outside [{lo}, {hi}]")


def render_face(
    params: FaceParams, side: int, stream: RngStream
) -> tuple[np.ndarray, RngStream]:
    """Rasterize one face, 2x2 supersampled, pixels in [0, 1].

    Pixel noise (if params.noise_std > 0) comes from the caller's stream;
    the stream is consumed only when noise_std is nonzero.
    """
    if side < 16:
        raise DataError(f"side must be >= 16, got {side}")
    _check_ranges(params)

    # Subpixel centers; all feature tests use coordinates relative to the
    # face center so a symmetric parameter set renders exactly symmetric.
    coords = np.arange(2 * side) * 0.5 + 0.25
    cx = side / 2.0 + params.jitter_x
    cy = side / 2.0 + params.jitter_y
    u = coords[np.newaxis, :] - cx
    w = coords[:, np.newaxis] - cy

    rx = params.face_width * side
    ry = params.face_height * side
    head = (u / rx) ** 2 + (w / ry) ** 2 <= 1.0

    eye_dx = params.eye_spacing * side / 2.0
    eye_dy = params.eye_height * side
    ex = _EYE_RX * side
    ey = _EYE_RY * side
    left = ((u + eye_dx) / ex) ** 2 + ((w + eye_dy) / ey) ** 2 <= 1.0
    right = ((u - eye_dx) / ex) ** 2 + ((w + eye_dy) / ey) ** 2 <= 1.0

    halfw = params.mouth_width * side / 2.0
    bend = params.mouth_curve * side * (2.0 * (u / halfw) ** 2 - 1.0)
    mouth_dy = w - (_MOUTH_DROP * side + bend)
    mouth = (np.abs(u) <= halfw) & (np.abs(mouth_dy) <= _MOUTH_THICKNESS * side)

    sub = np.full((2 * side, 2 * side), _BACKGROUND)
    sub[head] = _FACE
    sub[head & mouth] = _MOUTH
    sub[left | right] = _EYE

    img = sub.reshape(side, 2, side, 2).mean(axis=(1, 3))
    img = img + params.brightness
    if params.noise_std > 0.0:
        noise, stream = gaussian_batch(stream, side * side, 0.0, params.noise_std)
        img = img + noise.reshape(side, side)
    return np.clip(img, 0.0, 1.0), stream


@dataclass(frozen=True)
class ManifestRow:
    path: str
    identity_id: int
    split: str  # "train" or "eval"


DatasetManifest = list  # of ManifestRow


def _uniform_in(lo: float, hi: float, u: float) -> float:
    return lo + (u + 0.5) * (hi - lo)


def sample_identity_params(stream: RngStream) -> tuple[FaceParams, RngStream]:
    """Draw one identity; nuisance fields left at their neutral values."""
    names = list(IDENTITY_PARAM_RANGES)
    us, stream = rng_uniform_batch(stream, len(names))
    values = {
        name: _uniform_in(*IDENTITY_PARAM_RANGES[name], us[i])
        for i, name in enumerate(names)
    }
    return FaceParams(**values), stream


def sample_nuisance(params: FaceParams, stream: RngStream) -> tuple[FaceParams, RngStream]:
    """Resample the nuisance fields of an identity's parameters."""
    names = list(NUISANCE_PARAM_RANGES)
    us, stream = rng_uniform_batch(stream, len(names))
    values = {
        name: _uniform_in(*NUISANCE_PARAM_RANGES[name], us[i])
        for i, name in enumerate(names)
    }
    return replace(params, **values), stream


def identity_distance(a: FaceParams, b: FaceParams) -> float:
    """Euclidean distance between identities, each parameter range-normalized."""
    total = 0.0
    for name, (lo, hi) in IDENTITY_PARAM_RANGES.items():
        d = (getattr(a, name) - getattr(b, name)) / (hi - lo)
        total += d * d
    return total**0.5


def generate_corpus(
    n_identities: int,
    samples_per_identity: int,
    side: int,
    seed: int,
    eval_fraction: float = 0.2,
    min_identity_distance: float = 0.6,
) -> tuple[list[np.ndarray], list[ManifestRow]]:
    """Deterministic synthetic corpus with ground-truth identity labels.

    Identity parameters are drawn once per identity; nuisance is resampled
    per image. Identities are rejection-sampled to keep every pair at least
    ``min_identity_distance`` apart in normalized parameter space, so no two
    ground-truth identities are near-duplicates. The last
    floor(samples * eval_fraction) samples of each identity form the eval
    split.
    """
    if n_identities < 2:
        raise DataError("need at least 2 identities")
    if samples_per_identity < 1:
        raise DataError("need at least 1 sample per identity")
    images: list[np.ndarray] = []
    manifest: list[ManifestRow] = []
    accepted: list[FaceParams] = []
    n_eval = 0
    if samples_per_identity >= 2:
        # keep at least two eval samples per identity once there is room, so
        # the eval split always offers genuine (same-identity) pairs
        wanted = max(2, math.ceil(samples_per_identity * eval_fraction))
        n_eval = min(samples_per_identity - 1, wanted)
    for ident in range(n_identities):
        stream = derive_stream(seed, 0, ident)
        for _ in range(1000):
            params, stream = sample_identity_params(stream)
            if all(identity_distance(params, p) >= min_identity_distance for p in accepted):
                break
        else:
            raise DataError(
                f"could not place identity {ident} at separation "
                f"{min_identity_distance}; lower it or reduce n_identities"
            )
        accepted.append(params)
        for k in range(samples_per_identity):
            stream = derive_stream(seed, 1, ident * samples_per_identity + k)
            sample, stream = sample_nuisance(params, stream)
            img, stream = render_face(sample, side, stream)
            images.append(img)
            split = "eval" if k >= samples_per_identity - n_eval else "train"
            manifest.append(
                ManifestRow(
                    path=f"face_{ident:03d}_{k:02d}.pgm",
                    identity_id=ident,
                    split=split,
                )
            )
    return images, manifest


def save_manifest(manifest: list[ManifestRow], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["path", "identity_id", "split"])
        for row in manifest:
            writer.writerow([row.path, row.identity_id, row.split])


def load_manifest(path) -> list[ManifestRow]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for rec in reader:
            if rec["split"] not in ("train", "eval"):
                raise DataError(f"unknown split {rec['split']!r} in manifest")
            rows.append(
                ManifestRow(
                    path=rec["path"],
                    identity_id=int(rec["identity_id"]),
                    split=rec["split"],
                )
            )
    ids = sorted({r.identity_id for r in rows})
    if ids != list(range(len(ids))):
        raise DataError("manifest identity_ids are not dense from 0")
    return rows


def write_pgm(img: np.ndarray, path) -> None:
    """Write a [0,1] grayscale image as binary PGM (P5, maxval 255)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise DataError(f"expected a 2-D image, got shape {img.shape}")
    if not np.all((img >= 0.0) & (img <= 1.0)):  # NaN fails both
        raise DataError("pixel values must lie in [0, 1]")
    h, w = img.shape
    data = np.rint(img * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes(order="C"))


def _pgm_tokens(blob: bytes):
    """Yield header tokens, skipping whitespace and # comments."""
    i = 0
    n = len(blob)
    while i < n:
        c = blob[i : i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            j = blob.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        j = i
        while j < n and blob[j : j + 1] not in b" \t\r\n":
            j += 1
        yield blob[i:j], j
        i = j


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) into a [0,1] float image."""
    blob = Path(path).read_bytes()
    tokens = _pgm_tokens(blob)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise BadMagicError("empty file, expected PGM magic 'P5'") from None
    if magic != b"P5":
        raise BadMagicError(f"bad magic {magic!r}, expected b'P5'")
    header = []
    end = 0
    for _ in range(3):
        try:
            tok, end = next(tokens)
        except StopIteration:
            raise TruncatedError("PGM header ended early") from None
        try:
            header.append(int(tok))
        except ValueError:
            raise TruncatedError(f"non-numeric PGM header token {tok!r}") from None
    width, height, maxval = header
    if maxval != 255:
        raise BadMaxvalError(f"unsupported maxval {maxval}, expected 255")
    if width < 1 or height < 1:
        raise TruncatedError(f"bad dimensions {width}x{height}")
    data = blob[end + 1 : end + 1 + width * height]
    if len(data) < width * height:
        raise TruncatedError(
            f"expected {width * height} pixel bytes, found {len(data)}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(height, width)
