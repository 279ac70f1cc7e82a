"""Corpus management: synthetic toy faces, dataset manifests, PGM I/O, and
the one writer of output files (write_file, and write_csv for reports).

The toy-face generator replaces any downloaded face dataset. Each identity
is a point in a six-parameter shape space (head ellipse, eye placement,
mouth geometry); repeated samples of one identity share those parameters
and differ only in nuisance (center jitter, brightness, pixel noise), which
gives ground-truth identity labels for privacy evaluation. A face is one
row of a parameter matrix, its columns in FACE_PARAMS order, and
render_faces rasterizes a whole matrix, one identity's samples, in one call.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import BadMagicError, BadMaxvalError, DataError, TruncatedError, decode_utf8
from .numerics import derive_states, gaussian_from_uniform, rng_uniform_rows

# A face's parameter row: N_SHAPE identity parameters (fractions of the
# image side), then nuisance in the units noted. Ranges are inclusive.
FACE_PARAMS = {
    "face_width": (0.24, 0.44),  # head semi-axis, horizontal
    "face_height": (0.28, 0.48),  # head semi-axis, vertical
    "eye_spacing": (0.14, 0.34),  # distance between eye centers
    "eye_height": (0.06, 0.24),  # eyes sit this far above center
    "mouth_width": (0.12, 0.42),  # full mouth width
    "mouth_curve": (-0.06, 0.10),  # vertical bend, + smiles
    "jitter_x": (-2.0, 2.0),  # pixels
    "jitter_y": (-2.0, 2.0),  # pixels
    "brightness": (-0.05, 0.05),
    "noise_std": (0.0, 0.02),
}
N_SHAPE = 6
_LO, _HI = np.array(list(FACE_PARAMS.values())).T

_BACKGROUND = 0.92
_FACE = 0.55
_EYE = 0.08
_MOUTH = 0.15
_EYE_RX = 0.055
_EYE_RY = 0.042
_MOUTH_DROP = 0.24  # mouth center sits this far below face center
_MOUTH_THICKNESS = 0.022

EVAL_FRACTION = 0.2  # share of each identity's samples held out for eval
MIN_IDENTITY_DISTANCE = 0.6  # in range-normalized identity parameter space
MANIFEST_COLUMNS = ("path", "identity_id", "split")
PGM_BLOCK = 64  # images pgm_blobs checks and quantizes at a time


def render_faces(params, side: int, uniforms) -> np.ndarray:
    """Rasterize a stack of faces, one per row of params, 2x2 supersampled,
    pixels in [0, 1]; shape (faces, side, side).

    Each row holds the FACE_PARAMS columns in order. Row k's pixel noise of
    std noise_std is Box-Muller over the 2 * side**2 uniforms of row k of
    uniforms, whose values a noise-free face ignores.
    """
    if side < 16:
        raise DataError(f"side must be >= 16, got {side}")
    params = np.asarray(params, dtype=np.float64)
    bad = ~((_LO <= params) & (params <= _HI))  # NaN fails both
    if bad.any():
        k, j = np.argwhere(bad)[0]
        name = list(FACE_PARAMS)[j]
        raise DataError(f"face {k}: parameter {name}={params[k, j]} outside [{_LO[j]}, {_HI[j]}]")
    # one (faces, 1, 1) column per parameter, broadcast over the subpixels
    p = SimpleNamespace(**dict(zip(FACE_PARAMS, params.T[:, :, np.newaxis, np.newaxis])))

    # Subpixel centers; all feature tests use coordinates relative to the
    # face center so a symmetric parameter set renders exactly symmetric.
    coords = np.arange(2 * side) * 0.5 + 0.25
    u = coords[np.newaxis, np.newaxis, :] - (side / 2.0 + p.jitter_x)
    w = coords[np.newaxis, :, np.newaxis] - (side / 2.0 + p.jitter_y)

    rx = p.face_width * side
    ry = p.face_height * side
    head = (u / rx) ** 2 + (w / ry) ** 2 <= 1.0

    eye_dx = p.eye_spacing * side / 2.0
    eye_dy = p.eye_height * side
    ex = _EYE_RX * side
    ey = _EYE_RY * side
    left = ((u + eye_dx) / ex) ** 2 + ((w + eye_dy) / ey) ** 2 <= 1.0
    right = ((u - eye_dx) / ex) ** 2 + ((w + eye_dy) / ey) ** 2 <= 1.0

    halfw = p.mouth_width * side / 2.0
    bend = p.mouth_curve * side * (2.0 * (u / halfw) ** 2 - 1.0)
    mouth_dy = w - (_MOUTH_DROP * side + bend)
    mouth = (np.abs(u) <= halfw) & (np.abs(mouth_dy) <= _MOUTH_THICKNESS * side)

    sub = np.full(head.shape, _BACKGROUND)
    sub[head] = _FACE
    sub[head & mouth] = _MOUTH
    sub[left | right] = _EYE

    img = sub.reshape(-1, side, 2, side, 2).mean(axis=(2, 4))
    img += p.brightness
    # a zero std adds exactly 0.0, so a noise-free face keeps its pixels
    img += gaussian_from_uniform(uniforms, 0.0, p.noise_std[:, :, 0]).reshape(img.shape)
    return np.clip(img, 0.0, 1.0, out=img)


@dataclass(frozen=True)
class ManifestRow:
    path: str
    identity_id: int
    split: str  # "train" or "eval"


def generate_corpus(
    n_identities: int, samples_per_identity: int, side: int, seed: int
) -> tuple[np.ndarray, list[ManifestRow]]:
    """Deterministic synthetic corpus with ground-truth identity labels: one
    float64 (images, side, side) stack, identity by identity, and its manifest.

    Identity parameters are drawn once per identity; nuisance is resampled
    per image. Identities are rejection-sampled to keep every pair at least
    MIN_IDENTITY_DISTANCE apart in normalized parameter space, so no two
    ground-truth identities are near-duplicates. The last
    min(samples - 1, max(2, ceil(samples * EVAL_FRACTION))) samples of each
    identity form the eval split (none for a single sample).
    """
    if n_identities < 2:
        raise DataError("need at least 2 identities")
    if samples_per_identity < 1:
        raise DataError("need at least 1 sample per identity")
    # keep at least two eval samples per identity once there is room, so
    # the eval split always offers genuine (same-identity) pairs
    wanted = max(2, math.ceil(samples_per_identity * EVAL_FRACTION))
    n_train = samples_per_identity - min(samples_per_identity - 1, wanted)
    n_nuisance = len(FACE_PARAMS) - N_SHAPE
    span = _HI - _LO
    # a parameter is _LO + (u + 0.5) * span for a uniform u on (-0.5, 0.5]
    accepted = np.empty((n_identities, N_SHAPE))
    images = np.empty((n_identities * samples_per_identity, side, side))
    for ident in range(n_identities):
        # candidate t is draws N_SHAPE*t+1 ... N_SHAPE*(t+1) of the identity's stream
        state = derive_states(seed, 0, ident)
        for t in range(1000):
            u = rng_uniform_rows(state, N_SHAPE, N_SHAPE * t)[0]
            accepted[ident] = _LO[:N_SHAPE] + (u + 0.5) * span[:N_SHAPE]
            d = (accepted[ident] - accepted[:ident]) / span[:N_SHAPE]
            if (np.sqrt((d * d).sum(axis=1)) >= MIN_IDENTITY_DISTANCE).all():
                break
        else:
            raise DataError(
                f"could not place identity {ident} at separation "
                f"{MIN_IDENTITY_DISTANCE}; reduce n_identities"
            )
        # row k: image k's nuisance uniforms, then its pixel-noise uniforms
        image_ids = ident * samples_per_identity + np.arange(samples_per_identity)
        u = rng_uniform_rows(derive_states(seed, 1, image_ids), n_nuisance + 2 * side * side)
        nuisance = _LO[N_SHAPE:] + (u[:, :n_nuisance] + 0.5) * span[N_SHAPE:]
        rows = np.column_stack([np.tile(accepted[ident], (len(u), 1)), nuisance])
        images[image_ids] = render_faces(rows, side, u[:, n_nuisance:])
    manifest = [
        ManifestRow(f"face_{ident:03d}_{k:02d}.pgm", ident, "train" if k < n_train else "eval")
        for ident in range(n_identities)
        for k in range(samples_per_identity)
    ]
    return images, manifest


def save_manifest(manifest: list[ManifestRow], path) -> None:
    write_csv(path, MANIFEST_COLUMNS, [(r.path, r.identity_id, r.split) for r in manifest])


def load_manifest(path) -> list[ManifestRow]:
    """Read a manifest written by save_manifest; a bad one raises DataError naming the file."""
    rows = []
    with io.StringIO(decode_utf8(path, Path(path).read_bytes(), DataError), newline="") as f:
        reader = csv.DictReader(f)
        try:  # the reader raises csv.Error on what it cannot split, such as a huge field
            missing = [c for c in MANIFEST_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise DataError(f"{path}: manifest lacks column(s) {missing}")
            for rec in reader:
                where = f"{path}, line {reader.line_num}"
                if rec["split"] not in ("train", "eval"):
                    raise DataError(f"{where}: unknown split {rec['split']!r}")
                if not (rec["identity_id"] or "").isdecimal():  # None: a short row
                    raise DataError(
                        f"{where}: identity_id {rec['identity_id']!r} is not an integer"
                    )
                rows.append(ManifestRow(rec["path"], int(rec["identity_id"]), rec["split"]))
        except csv.Error as exc:  # DictReader.line_num still counts the last good row
            raise DataError(f"{path}, line {reader.reader.line_num}: {exc}") from None
    ids = sorted({r.identity_id for r in rows})
    if ids != list(range(len(ids))):
        raise DataError(f"{path}: identity_ids are not dense from 0")
    return rows


def write_pgms(stack, paths) -> None:
    """Write pgm_blobs(stack, paths), each to its path: a bad image writes nothing."""
    for path, blob in pgm_blobs(stack, paths):
        write_file(path, blob)


def pgm_blobs(stack, paths) -> list[tuple]:
    """(path, bytes) of a [0,1] grayscale stack of shape (n, h, w) as binary
    PGMs (P5, maxval 255), one per path. Every image is checked and quantized,
    up to PGM_BLOCK at a time; the error names the first bad image's path."""
    paths = list(paths)
    stack = np.asarray(stack, dtype=np.float64)
    if len(stack) != len(paths):
        raise ValueError(f"{len(stack)} images for {len(paths)} paths")
    if stack.ndim != 3:
        raise DataError(f"expected an (n, h, w) image stack, got shape {stack.shape}")
    header = f"P5\n{stack.shape[2]} {stack.shape[1]}\n255\n".encode()
    blobs = []
    for lo in range(0, len(paths), PGM_BLOCK):
        x, names = stack[lo : lo + PGM_BLOCK], paths[lo : lo + PGM_BLOCK]
        valid = (x.min(axis=(1, 2)) >= 0.0) & (x.max(axis=(1, 2)) <= 1.0)  # NaN fails both
        if not valid.all():
            raise DataError(f"{names[np.argmin(valid)]}: pixel values must lie in [0, 1]")
        q = x * 255.0
        data = np.rint(q, out=q).astype(np.uint8)
        blobs += [(path, header + img.tobytes()) for path, img in zip(names, data)]
    return blobs


def write_file(path, *blobs) -> None:
    """Write the buffers blobs, in turn, as the whole content of path, in place;
    a missing directory is made.

    The bytes equal those of open(path, "wb"), with the same permissions for
    a new file. Truncating to zero on open makes ext4 flush the old blocks on
    close; truncating after the write does not. Neither way is atomic.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:  # the success path makes no extra system call
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        views = [memoryview(blob).cast("B") for blob in blobs]
        for view in views:
            while view:
                view = view[os.write(fd, view) :]
        os.ftruncate(fd, sum(map(len, views)))
    finally:
        os.close(fd)


def write_csv(path, header, rows) -> None:
    """UTF-8 CSV through write_file: LF line ends, minimal quoting, each float
    (np.float64 too) as its repr. Rows of Python values format fastest."""
    blob = bytearray()

    def append(line: str) -> None:
        # the writer's default CRLF terminator makes it quote a field holding
        # \r, which an LF terminator would not; the CRLF is cut to LF here
        blob.extend(line.encode("utf-8"))
        blob[-2:] = b"\n"

    writer = csv.writer(SimpleNamespace(write=append))
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, blob)


# one header token after any whitespace and # comments: a token starts at a
# byte that is neither whitespace nor #, and may hold # further on; a comment
# runs to the end of its line. Comments end only at \n or the end, so the
# pattern never backtracks into one.
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\n]*(?:\n|\Z))*([^ \t\r\n#][^ \t\r\n]*)")


def _pgm_tokens(blob: bytes):
    """Yield (token, end offset) of header tokens, skipping whitespace and # comments."""
    end = 0
    while match := _PGM_TOKEN.match(blob, end):
        end = match.end()
        yield match[1], end


def _pgm_header(path, blob: bytes) -> tuple[int, int, int]:
    """Height, width and pixel offset of a binary PGM (P5, maxval 255) that
    holds all its pixels; each error names path."""
    head = list(itertools.islice(_pgm_tokens(blob), 4))
    if not head or head[0][0] != b"P5":
        found = f"bad magic {head[0][0]!r}" if head else "empty file"
        raise BadMagicError(f"{path}: {found}, expected PGM magic b'P5'")
    if len(head) < 4:
        raise TruncatedError(f"{path}: PGM header ended early")
    try:
        width, height, maxval = (int(tok) for tok, _ in head[1:])
    except ValueError:
        raise TruncatedError(f"{path}: non-numeric PGM header {[t for t, _ in head]}") from None
    if maxval != 255:
        raise BadMaxvalError(f"{path}: unsupported maxval {maxval}, expected 255")
    if width < 1 or height < 1:
        raise TruncatedError(f"{path}: bad dimensions {width}x{height}")
    start = head[-1][1] + 1  # one whitespace byte ends the header
    if len(blob) - start < width * height:
        found = max(len(blob) - start, 0)
        raise TruncatedError(f"{path}: expected {width * height} pixel bytes, found {found}")
    return height, width, start


def read_pgms(paths) -> np.ndarray:
    """Read binary PGMs (P5, maxval 255) of one size into a [0,1] float stack
    of shape (n, h, w). A file that fails, or differs in size from the first,
    raises one error naming it."""
    paths = list(paths)
    stack = np.empty((0, 0, 0))
    for i, path in enumerate(paths):
        with open(path, "rb", buffering=0) as f:
            blob = f.readall()
        height, width, start = _pgm_header(path, blob)
        if i == 0:
            stack = np.empty((len(paths), height, width))
        elif (height, width) != stack.shape[1:]:
            size = f"{stack.shape[2]}x{stack.shape[1]}"
            raise DataError(f"{path}: image is {width}x{height}, {paths[0]} is {size}")
        pixels = np.frombuffer(blob, np.uint8, height * width, start)
        # each pixel converted and scaled once, straight into the stack
        np.divide(pixels.reshape(height, width), 255.0, out=stack[i])
    return stack


def read_pgm(path) -> np.ndarray:
    """Read one binary PGM (P5, maxval 255) into a [0,1] float image (see read_pgms)."""
    return read_pgms([path])[0]
