"""Privacy and utility metrics plus classical obfuscation baselines.

Privacy side: identity similarity score (ISS) from the cosine of the
identity-block embeddings, and the de-identification success rate (FPPSR)
against a threshold calibrated from impostor statistics. Utility side:
l2 distance, relative l_p distortion, windowed SSIM, and a Frechet distance
between Gaussian fits of embedding sets (FED). All metrics are pure
functions; batch evaluation aggregates in image_id order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codec import BLOCK_ROWS, AutoencoderModel, encode, encode_batch
from .numerics import StatsSummary, descriptive_stats

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 1.0) ** 2  # dynamic range L = 1 for [0,1] pixels
SSIM_C2 = (0.03 * 1.0) ** 2


def _check_same_shape(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {y.shape}")
    return x, y


def l2_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean pixel distance of each pair in two equal-shaped image stacks."""
    x, y = _check_same_shape(x, y)
    d = (y - x).reshape(len(x), -1)
    return np.sqrt(np.sum(d * d, axis=1))


def ald(x: np.ndarray, y: np.ndarray, p=math.inf) -> float:
    """Relative l_p distortion ||y - x||_p / ||x||_p over flattened pixels."""
    x, y = _check_same_shape(x, y)
    if p != math.inf and (not isinstance(p, (int, np.integer)) or p < 1):
        raise ValueError(f"p must be a positive integer or inf, got {p}")
    denom = np.linalg.norm(x.ravel(), ord=p)
    if denom == 0.0:
        raise ValueError("ALD undefined for an all-zero reference image")
    return float(np.linalg.norm((y - x).ravel(), ord=p) / denom)


def _gaussian_band(n: int, window: int, sigma: float) -> np.ndarray:
    """(n - window + 1) x n matrix; row i holds the normalized 1-D Gaussian
    taps in columns i .. i + window - 1."""
    half = (window - 1) / 2.0
    g = np.exp(-((np.arange(window) - half) ** 2) / (2.0 * sigma * sigma))
    start = np.arange(n - window + 1)[:, None]
    band = np.zeros((n - window + 1, n))
    band[start, start + np.arange(window)] = g / g.sum()
    return band


def ssim_scores(
    x: np.ndarray, y: np.ndarray, window: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA
) -> np.ndarray:
    """Mean SSIM of each image pair in two stacks of shape (..., h, w).

    Gaussian window (default 11x11, sigma 1.5) over all fully interior
    windows, weighted means and covariances per window, constants for unit
    dynamic range. The window is separable, so every local statistic of a
    stack a is rows @ a @ cols.T with banded matrices of 1-D taps
    (Wang et al. 2004). Pairs are filtered BLOCK_ROWS at a time, which
    bounds the temporaries.
    """
    x, y = _check_same_shape(x, y)
    if x.ndim < 2 or x.shape[-2] < window or x.shape[-1] < window:
        raise ValueError(f"image {x.shape} smaller than the {window}x{window} window")
    h, w = x.shape[-2:]
    rows = _gaussian_band(h, window, sigma)
    cols = _gaussian_band(w, window, sigma)
    x_all = x.reshape(-1, h, w)
    y_all = y.reshape(-1, h, w)
    out = np.empty(len(x_all))
    for start in range(0, len(x_all), BLOCK_ROWS):
        a = x_all[start : start + BLOCK_ROWS]
        b = y_all[start : start + BLOCK_ROWS]
        mu_x, mu_y, xx, yy, xy = rows @ np.stack([a, b, a * a, b * b, a * b]) @ cols.T
        var_x = xx - mu_x * mu_x
        var_y = yy - mu_y * mu_y
        cov = xy - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov + SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
        out[start : start + len(a)] = np.mean((num / den).reshape(len(a), -1), axis=1)
    return out.reshape(x.shape[:-2])


def ssim(
    x: np.ndarray, y: np.ndarray, window: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA
) -> float:
    """Mean structural similarity of two images (see ssim_scores)."""
    return float(ssim_scores(x, y, window, sigma))


def iss_scores(e_x: np.ndarray, e_y: np.ndarray) -> np.ndarray:
    """Cosine similarity mapped to [0, 1] along the last axis; zero embeddings score 0.5.

    Takes two embeddings or two matrices of them, one per row. The
    denominator is sqrt(sum(x^2) * sum(y^2)) so that identical embeddings
    score exactly 1.0 and exact negatives exactly 0.0.
    """
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


def _pair_iss(model: AutoencoderModel, pairs) -> np.ndarray:
    """ISS of each (x, y) pair, encoding each distinct image object once.

    A row's encoding does not depend on its batch mates, so sharing rows
    between pairs that hold the same array saves work and changes no score.
    """
    slot: dict[int, int] = {}
    unique = []
    index = []
    for pair in pairs:
        for image in pair:
            if id(image) not in slot:
                slot[id(image)] = len(unique)
                unique.append(image)
            index.append(slot[id(image)])
    emb = encode_batch(model, unique)[:, : model.identity_len]
    index = np.array(index, dtype=np.intp).reshape(-1, 2)
    return iss_scores(emb[index[:, 0]], emb[index[:, 1]])


@dataclass(frozen=True)
class ThresholdReport:
    """Calibrated decision threshold plus the score evidence behind it."""

    tau: float
    percentile: float
    genuine_scores: np.ndarray
    impostor_scores: np.ndarray
    genuine_stats: StatsSummary
    impostor_stats: StatsSummary


def nearest_rank_percentile(values, percentile: float) -> float:
    """Nearest-rank order statistic: smallest v with cdf(v) >= percentile."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        raise ValueError("need at least one value")
    rank = max(1, math.ceil(percentile / 100.0 * vals.size))
    return float(vals[min(rank, vals.size) - 1])


def calibrate_threshold(
    model: AutoencoderModel, genuine_pairs, impostor_pairs, percentile: float = 95.0
) -> ThresholdReport:
    """Set tau at a percentile of the impostor ISS distribution.

    Genuine pairs share an identity; impostor pairs do not. The impostor
    upper tail says how similar two different people ever look to the
    embedding, which anchors the de-identification decision boundary.
    """
    if len(genuine_pairs) == 0 or len(impostor_pairs) == 0:
        raise ValueError("genuine and impostor pair lists must be nonempty")
    scores = _pair_iss(model, list(genuine_pairs) + list(impostor_pairs))
    genuine = scores[: len(genuine_pairs)]
    impostor = scores[len(genuine_pairs) :]
    tau = nearest_rank_percentile(impostor, percentile)
    edges = np.linspace(0.0, 1.0, 21)
    return ThresholdReport(
        tau=tau,
        percentile=percentile,
        genuine_scores=genuine,
        impostor_scores=impostor,
        genuine_stats=descriptive_stats(genuine, edges),
        impostor_stats=descriptive_stats(impostor, edges),
    )


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
    taps = np.exp(
        -(np.arange(-kernel_radius, kernel_radius + 1) ** 2)
        / (2.0 * kernel_sigma * kernel_sigma)
    )
    taps /= taps.sum()

    def pass_axis(a, axis):
        pad = [(0, 0)] * a.ndim
        pad[axis] = (kernel_radius, kernel_radius)
        padded = np.pad(a, pad, mode="edge")
        return sliding_window_view(padded, taps.size, axis=axis) @ taps

    return pass_axis(pass_axis(x, x.ndim - 2), x.ndim - 1)


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
class MetricsRow:
    image_id: str
    l2: float
    ald_inf: float
    ssim: float
    iss: float


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[MetricsRow, ...]
    mean_l2: float
    mean_ald_inf: float
    mean_ssim: float
    mean_iss: float
    fed: float
    fppsr: float
    threshold: float


def evaluate_pairs(
    model: AutoencoderModel,
    pairs,
    threshold: float,
    ssim_window: int = SSIM_WINDOW,
    ssim_sigma: float = SSIM_SIGMA,
) -> MetricsReport:
    """Per-image and aggregate metrics over (image_id, original, perturbed).

    Rows are ordered by image_id ascending so aggregation is deterministic
    regardless of input or scheduling order.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one pair")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    ordered = sorted(pairs, key=lambda rec: rec[0])
    x, y = _check_same_shape([rec[1] for rec in ordered], [rec[2] for rec in ordered])
    emb_x = encode_batch(model, x)[:, : model.identity_len]
    emb_y = encode_batch(model, y)[:, : model.identity_len]
    l2_vals = l2_distances(x, y)
    ssim_vals = ssim_scores(x, y, ssim_window, ssim_sigma)
    iss_vals = iss_scores(emb_x, emb_y)
    rows = tuple(
        MetricsRow(
            image_id=str(rec[0]),
            l2=float(l2_vals[i]),
            ald_inf=ald(x[i], y[i], math.inf),
            ssim=float(ssim_vals[i]),
            iss=float(iss_vals[i]),
        )
        for i, rec in enumerate(ordered)
    )
    return MetricsReport(
        rows=rows,
        mean_l2=float(np.mean(l2_vals)),
        mean_ald_inf=float(np.mean([r.ald_inf for r in rows])),
        mean_ssim=float(np.mean(ssim_vals)),
        mean_iss=float(np.mean(iss_vals)),
        fed=fed(emb_x, emb_y) if len(rows) >= 2 else float("nan"),
        fppsr=float(np.mean(iss_vals < threshold)),
        threshold=threshold,
    )


def write_per_image_csv(report: MetricsReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["image_id", "l2", "ald_inf", "ssim", "iss"])
        for r in report.rows:
            writer.writerow([r.image_id, repr(r.l2), repr(r.ald_inf), repr(r.ssim), repr(r.iss)])


def write_aggregate_csv(report: MetricsReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "value"])
        for name in ("mean_l2", "mean_ald_inf", "mean_ssim", "mean_iss", "fed", "fppsr", "threshold"):
            writer.writerow([name, repr(getattr(report, name))])
