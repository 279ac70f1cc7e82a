"""Privacy and utility metrics plus classical obfuscation baselines.

Privacy side: identity similarity score (ISS) from the cosine of the
identity-block embeddings, and the de-identification success rate (FPPSR)
against a threshold at a percentile of the impostor ISS. Utility side: l2
distance, relative l_inf distortion, windowed SSIM, and a Frechet distance
between Gaussian fits of embedding sets (FED). Originals prepares a stack of
original images once (its latents and its SSIM statistics) and scores any
number of released stacks against it, row by row; its report aggregates in
the order of the rows it is given. For the sweep it also scores a stream of
noisy latents a pass of PASS_ROWS rows at a time on up to SWEEP_THREADS
threads, each decoding through one pass of buffers and scoring one at a
time; no byte depends on their number. Public functions run on the calling
thread only.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .codec import (
    PASS_ROWS,
    AutoencoderModel,
    PassWorkspace,
    _available_cpus,
    _decode_encode_pass,
    encode,
    encode_batch,
)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 1.0) ** 2  # dynamic range L = 1 for [0,1] pixels
SSIM_C2 = (0.03 * 1.0) ** 2
# images per SSIM filtering step; bounds the scorer's temporaries
SSIM_BLOCK = 16
SWEEP_SSIM_BLOCK = 32  # images per SSIM block of the buffer set the sweep's workers share
# most threads that score a sweep level; measured on 2 CPUs only
SWEEP_THREADS = 2


def _check_same_shape(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {y.shape}")
    return x, y


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each image of a stack; squares d in place."""
    d = d.reshape(len(d), -1)
    return np.sqrt(np.sum(np.multiply(d, d, out=d), axis=1))


def l2_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean pixel distance of each pair in two equal-shaped image stacks."""
    x, y = _check_same_shape(x, y)
    return _row_norms(y - x)


def ald_inf(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Relative l_inf distortion max|y - x| / max|x| of each pair in two image stacks."""
    x, y = _check_same_shape(x, y)
    denom = np.max(np.abs(x.reshape(len(x), -1)), axis=1)
    if np.any(denom == 0.0):
        raise ValueError("ALD undefined for an all-zero reference image")
    return np.max(np.abs((y - x).reshape(len(x), -1)), axis=1) / denom


def _gaussian_band(n: int, window: int, sigma: float) -> np.ndarray:
    """(n - window + 1) x n matrix; row i holds the normalized 1-D Gaussian
    taps in columns i .. i + window - 1."""
    half = (window - 1) / 2.0
    g = np.exp(-((np.arange(window) - half) ** 2) / (2.0 * sigma * sigma))
    start = np.arange(n - window + 1)[:, None]
    band = np.zeros((n - window + 1, n))
    band[start, start + np.arange(window)] = g / g.sum()
    return band


def _blur_band(n: int, sigma: float, radius: int) -> np.ndarray:
    """n x n matrix of normalized 1-D Gaussian taps, clamped to the edges:
    row i holds tap k at column clamp(i + k - radius), so a tap past an edge
    adds to the edge column. band @ a blurs a's columns, a @ band.T its rows."""
    taps = np.exp(-(np.arange(-radius, radius + 1) ** 2) / (2.0 * sigma * sigma))
    rows = np.arange(n)[:, None]
    band = np.zeros((n, n))
    np.add.at(band, (rows, np.clip(rows + np.arange(-radius, radius + 1), 0, n - 1)), taps)
    return band / taps.sum()


def ssim_reference(x: np.ndarray, window: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA):
    """Filter a reference stack x of shape (..., h, w) once; return its SSIM scorer.

    The scorer maps a stack y shaped like x to the mean SSIM of each pair:
    Gaussian window (default 11x11, sigma 1.5) over all fully interior
    windows, constants for unit dynamic range. The window is separable, so
    every local statistic of a stack a is rows @ a @ cols.T with banded
    matrices of 1-D taps (Wang et al. 2004). x's local mean and variance are
    held; each call filters y, y * y and x * y a block of images at a time,
    and a stacked matmul runs one product per image, so the grouping moves no
    bit. score(y, start, buffers) pairs y's rows with x's rows from start on,
    in blocks of a buffer set from score.buffers(images), one call at a time
    per set; without one a call allocates a set of SSIM_BLOCK images.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < window or x.shape[-1] < window:
        raise ValueError(f"image {x.shape} smaller than the {window}x{window} window")
    h, w = x.shape[-2:]
    rows = _gaussian_band(h, window, sigma)
    cols = _gaussian_band(w, window, sigma)
    x_all = x.reshape(-1, h, w)

    def filtered(a, stat, half):
        np.matmul(np.matmul(rows, a, out=half[: len(a)]), cols.T, out=stat)

    def block_buffers(images: int):  # product, half-filtered block, four statistics
        stats = np.empty((4, images, len(rows), len(cols)))
        return np.empty((images, h, w)), np.empty((images, len(rows), w)), stats

    mu_x = np.empty((len(x_all), len(rows), len(cols)))
    var_x = np.empty_like(mu_x)
    product, half, (sq, *_) = block_buffers(min(SSIM_BLOCK, len(x_all)))
    for lo in range(0, len(x_all), SSIM_BLOCK):
        a, mx, vx = (v[lo : lo + SSIM_BLOCK] for v in (x_all, mu_x, var_x))
        filtered(a, mx, half)
        filtered(np.multiply(a, a, out=product[: len(a)]), vx, half)
        vx -= np.multiply(mx, mx, out=sq[: len(a)])

    def score(y: np.ndarray, start: int = 0, buffers=None) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        stack = y.reshape(-1, h, w) if y.shape[-2:] == (h, w) else y
        if stack.ndim != 3 or not 0 <= start <= len(x_all) - len(stack):
            raise ValueError(f"image shapes differ: {x.shape} vs {y.shape} from row {start}")
        product, half, stats = buffers or block_buffers(min(SSIM_BLOCK, len(stack)))
        out = np.empty(len(stack))
        for lo in range(0, len(stack), len(product)):
            b = stack[lo : lo + len(product)]
            n, xs = len(b), slice(start + lo, start + lo + len(b))
            mx, vx = mu_x[xs], var_x[xs]
            my, vy, cv, m = stats[:, :n]
            filtered(b, my, half)
            filtered(np.multiply(b, b, out=product[:n]), vy, half)
            filtered(np.multiply(x_all[xs], b, out=product[:n]), cv, half)
            # the formula's operations in its order, each into a block buffer:
            # num = (2 mu_x mu_y + C1) (2 cov + C2) in m, and
            # den = (mu_x^2 + mu_y^2 + C1) (var_x + var_y + C2) in cv
            vy -= np.multiply(my, my, out=m)  # var_y
            cv -= np.multiply(mx, my, out=m)  # cov
            np.add(np.multiply(np.multiply(mx, 2.0, out=m), my, out=m), SSIM_C1, out=m)
            m *= np.add(np.multiply(cv, 2.0, out=cv), SSIM_C2, out=cv)
            np.multiply(my, my, out=my)  # mu_y^2 again, the bits var_y took
            np.add(np.add(np.multiply(mx, mx, out=cv), my, out=cv), SSIM_C1, out=cv)
            cv *= np.add(np.add(vx, vy, out=vy), SSIM_C2, out=vy)
            m /= cv
            out[lo : lo + n] = np.mean(m.reshape(n, -1), axis=1)
        return out.reshape(y.shape[:-2])

    score.buffers = block_buffers
    return score


def iss_scores(e_x: np.ndarray, e_y: np.ndarray) -> np.ndarray:
    """Cosine similarity mapped to [0, 1] along the last axis; zero embeddings score 0.5.

    Takes two embeddings or two matrices of them, one per row. The
    denominator is sqrt(sum(x^2) * sum(y^2)) so that identical embeddings
    score exactly 1.0 and exact negatives exactly 0.0.
    """
    return _iss_scores(e_x, e_y)


def _iss_scores(e_x, e_y) -> np.ndarray:
    """iss_scores under a name no tracer wraps, for the sweep's threads."""
    e_x = np.asarray(e_x, dtype=np.float64)
    e_y = np.asarray(e_y, dtype=np.float64)
    sx = np.sum(e_x * e_x, axis=-1)
    sy = np.sum(e_y * e_y, axis=-1)
    zero = (sx == 0.0) | (sy == 0.0)
    cos = np.sum(e_x * e_y, axis=-1) / np.sqrt(np.where(zero, 1.0, sx * sy))
    return np.where(zero, 0.5, (np.clip(cos, -1.0, 1.0) + 1.0) / 2.0)


def iss_from_embeddings(e_x: np.ndarray, e_y: np.ndarray) -> float:
    """ISS of two identity embeddings (see iss_scores)."""
    return float(iss_scores(e_x, e_y))


def identity_embedding(model: AutoencoderModel, image: np.ndarray) -> np.ndarray:
    return encode(model, image)[: model.identity_len]


def nearest_rank_percentile(values, percentile: float) -> float:
    """Nearest-rank order statistic: smallest v with cdf(v) >= percentile."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        raise ValueError("need at least one value")
    rank = max(1, math.ceil(percentile / 100.0 * vals.size))
    return float(vals[min(rank, vals.size) - 1])


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    sym = (m + m.T) / 2.0  # guard against BLAS rounding asymmetry
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    return v @ np.diag(np.sqrt(w)) @ v.T


def _gaussian_fit(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] < 2:
        raise ValueError("need at least 2 embedding vectors per side")
    mean = e.mean(axis=0)
    cov = np.atleast_2d(np.cov(e, rowvar=False))
    return mean, cov


def fed(embeddings_a, embeddings_b) -> float:
    """Frechet distance between Gaussian fits of two embedding sets.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2), with
    unbiased covariances and negative eigenvalues clamped to zero inside the
    matrix square roots.
    """
    mu_a, cov_a = _gaussian_fit(embeddings_a)
    mu_b, cov_b = _gaussian_fit(embeddings_b)
    if mu_a.shape != mu_b.shape:
        raise ValueError("embedding dimensions differ between sides")
    root_a = _psd_sqrt(cov_a)
    cross = _psd_sqrt(root_a @ cov_b @ root_a)
    value = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a + cov_b - 2.0 * cross))
    return value


def blur_baseline(x: np.ndarray, kernel_sigma: float, kernel_radius: int) -> np.ndarray:
    """Gaussian blur with clamp-to-edge padding; radius 0 is the identity.

    Takes one image or a stack of shape (..., h, w); each image of a stack
    equals its own one-image call bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if kernel_radius < 0:
        raise ValueError(f"kernel_radius must be >= 0, got {kernel_radius}")
    if kernel_radius == 0 or kernel_sigma <= 0.0:
        return x.copy()
    rows, cols = (_blur_band(n, kernel_sigma, kernel_radius) for n in x.shape[-2:])
    return np.matmul(np.matmul(rows, x), cols.T)  # a stacked matmul: one product per image


def mosaic_baseline(x: np.ndarray, block: int) -> np.ndarray:
    """Replace each block x block tile by its mean; edge tiles use their own.

    Takes one image or a stack of shape (..., h, w); each image of a stack
    equals its own one-image call bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    out = np.empty_like(x)
    h, w = x.shape[-2:]
    for i in range(0, h, block):
        for j in range(0, w, block):
            tile = x[..., i : i + block, j : j + block]
            out[..., i : i + block, j : j + block] = tile.mean(axis=(-2, -1), keepdims=True)
    return out


@dataclass(frozen=True)
class MetricsReport:
    """Per-image metrics as arrays in image_id order, and their aggregates."""

    image_ids: tuple[str, ...]
    l2: np.ndarray
    ald_inf: np.ndarray
    ssim: np.ndarray
    iss: np.ndarray
    mean_l2: float
    mean_ald_inf: float
    mean_ssim: float
    mean_iss: float
    fed: float
    fppsr: float
    threshold: float


class Originals:
    """A stack of original images prepared once for scoring released stacks.

    Holds the images x, their latents (the rows a sweep perturbs) and
    identity embeddings, and the SSIM scorer with x's statistics filtered.
    Every score of a released stack y pairs y's row i with x's row i.
    """

    def __init__(self, model: AutoencoderModel, x, window=SSIM_WINDOW, sigma=SSIM_SIGMA):
        self.model = model
        self.x = np.asarray(x, dtype=np.float64)
        if not len(self.x):
            raise ValueError("need at least one original image")
        self.latents = encode_batch(model, self.x)
        self.embeddings = self.latents[:, : model.identity_len]
        self.ssim = ssim_reference(self.x, window, sigma)

    def score_latents(self, latents) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ISS, l2 and SSIM of the release of each noisy latent row.

        Row r is decoded and scored against original r mod n; its scores
        equal those of its own decode_batch, iss, l2_distances and ssim,
        whatever the number of workers. Passes are dealt round-robin to
        min(SWEEP_THREADS, available CPUs, passes) workers: the calling
        thread and a threading.Thread for each other. Each worker decodes
        and encodes through a decoder-then-encoder workspace of its own; its
        scoring, small numpy calls that hold the GIL, runs under one lock
        through one SSIM buffer set that the workers share. Buffers are
        built before any thread starts. Workers write disjoint slices through
        private helpers and the SSIM scorer only, since a tracer that wraps
        public functions keeps one span stack. Once all have joined, the
        calling thread raises the first worker error, if any.
        """
        model = self.model
        z = np.asarray(latents, dtype=np.float64).reshape(-1, model.latent_dim)
        n, k = len(self.x), model.identity_len
        passes = range(0, len(z), PASS_ROWS)
        workers = max(1, min(SWEEP_THREADS, _available_cpus(), len(passes)))
        workspaces = [PassWorkspace(model, True, True, len(z)) for _ in range(workers)]
        scoring, ssim_buffers = threading.Lock(), self.ssim.buffers(min(SWEEP_SSIM_BLOCK, len(z)))
        iss, l2, ssim = np.empty((3, len(z)))
        errors = []

        def work(worker: int) -> None:
            ws = workspaces[worker]
            try:
                for start in passes[worker::workers]:
                    if errors:
                        return
                    y, latent = _decode_encode_pass(model, z[start : start + PASS_ROWS], ws)
                    # the pass in pieces that meet consecutive originals: cut where rows wrap
                    cuts = [start, *range(start - start % n + n, start + len(y), n), start + len(y)]
                    with scoring:
                        for lo, hi in zip(cuts, cuts[1:]):
                            rows, part = slice(lo, hi), slice(lo - start, hi - start)
                            orig = slice(lo % n, hi % n or n)
                            iss[rows] = _iss_scores(self.embeddings[orig], latent[part, :k])
                            ssim[rows] = self.ssim(y[part], lo % n, ssim_buffers)
                            # the scored images' difference overwrites them
                            l2[rows] = _row_norms(np.subtract(y[part], self.x[orig], out=y[part]))
            except BaseException as exc:  # raised on the calling thread once all have joined
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(1, workers)]
        for thread in threads:
            thread.start()
        work(0)
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return iss, l2, ssim

    def iss(self, y) -> np.ndarray:
        """ISS of each released image against its original."""
        emb_y = encode_batch(self.model, y)[:, : self.model.identity_len]
        return iss_scores(self.embeddings, emb_y)

    def report(self, y, threshold: float, image_ids) -> MetricsReport:
        """Every metric of the released stack y; image_ids name its rows."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        x, y = _check_same_shape(self.x, y)
        emb_y = encode_batch(self.model, y)[:, : self.model.identity_len]
        l2_vals = l2_distances(x, y)
        ald_vals = ald_inf(x, y)
        ssim_vals = self.ssim(y)
        iss_vals = iss_scores(self.embeddings, emb_y)
        return MetricsReport(
            image_ids=tuple(image_ids),
            l2=l2_vals,
            ald_inf=ald_vals,
            ssim=ssim_vals,
            iss=iss_vals,
            mean_l2=float(np.mean(l2_vals)),
            mean_ald_inf=float(np.mean(ald_vals)),
            mean_ssim=float(np.mean(ssim_vals)),
            mean_iss=float(np.mean(iss_vals)),
            fed=fed(self.embeddings, emb_y) if len(x) >= 2 else float("nan"),
            fppsr=float(np.mean(iss_vals < threshold)),
            threshold=threshold,
        )

