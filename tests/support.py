"""One-image and pair-list helpers for the tests, built from what the CLI ships.

The library has one release path, perturb_latents/dp_images, and one
threshold, the CLI's. These helpers call them on one row or one pair list,
so every test that uses them exercises the shipped code; comparing a one-row
call with a stack checks that a row's bits do not depend on its batch mates.
l2_distances alone is written apart from the library, as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpimage.codec import AutoencoderModel, encode_batch
from dpimage.metrics import SSIM_SIGMA, SSIM_WINDOW, iss_scores, nearest_rank_percentile, ssim_reference
from dpimage.numerics import gaussian_from_uniform, make_stream, rng_uniform_rows
from dpimage.privacy import PrivacyParams, dp_images, laplace_from_uniform, perturb_latents

# Each sampler below reads the draws start+1 ... start+m of one stream (a
# one-element state array, from make_stream or derive_states) and returns
# them mapped, with start + m, the position the next call continues from.


def laplace_batch(state, n: int, scale: float, start: int = 0) -> tuple[np.ndarray, int]:
    """n Laplace(0, scale) draws; consumes n uniforms even when scale is 0."""
    return laplace_from_uniform(rng_uniform_rows(state, n, start)[0], scale), start + n


def gaussian_batch(
    state, n: int, mean: float = 0.0, std: float = 1.0, start: int = 0
) -> tuple[np.ndarray, int]:
    """n Gaussian draws via Box-Muller; consumes 2n uniforms whatever the std."""
    return gaussian_from_uniform(rng_uniform_rows(state, 2 * n, start)[0], mean, std), start + 2 * n


def perturb_latent(
    latent: np.ndarray, params: PrivacyParams, state, start: int = 0
) -> tuple[np.ndarray, int]:
    """perturb_latents on one latent, its uniforms the stream's next n_noisy."""
    u = rng_uniform_rows(state, params.n_noisy, start)[0]
    return perturb_latents(latent, params, u), start + params.n_noisy


def dp_image(
    model: AutoencoderModel, image: np.ndarray, params: PrivacyParams, state, start: int = 0
) -> tuple[np.ndarray, int]:
    """dp_images on a one-image stack, its uniforms the stream's next n_noisy."""
    u = rng_uniform_rows(state, params.n_noisy, start)
    return dp_images(model, [image], params, u)[0], start + params.n_noisy


def l2_distances(x, y) -> np.ndarray:
    """Euclidean pixel distance of each pair in two image stacks, computed
    apart from the library's row scorer as the reference its tests compare to."""
    d = np.asarray(y, dtype=np.float64) - np.asarray(x, dtype=np.float64)
    return np.sqrt(np.sum((d * d).reshape(len(d), -1), axis=1))


def ssim(x: np.ndarray, y: np.ndarray, window: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> float:
    """Mean structural similarity of two images (see ssim_reference)."""
    return float(ssim_reference(x, window, sigma)(y))


@dataclass(frozen=True)
class ThresholdReport:
    """Calibrated decision threshold plus the score evidence behind it."""

    tau: float
    genuine_scores: np.ndarray
    impostor_scores: np.ndarray


def calibrate_threshold(
    model: AutoencoderModel, genuine_pairs, impostor_pairs, percentile: float = 95.0
) -> ThresholdReport:
    """tau at a percentile of the impostor ISS, over lists of (image, image) pairs.

    Genuine pairs share an identity; impostor pairs do not.
    """
    if len(genuine_pairs) == 0 or len(impostor_pairs) == 0:
        raise ValueError("genuine and impostor pair lists must be nonempty")
    genuine, impostor = (
        iss_scores(*(encode_batch(model, side)[:, : model.identity_len] for side in zip(*pairs)))
        for pairs in (genuine_pairs, impostor_pairs)
    )
    return ThresholdReport(nearest_rank_percentile(impostor, percentile), genuine, impostor)


def verify_dp_empirical(
    scale: float,
    delta_f: float,
    n_samples: int = 10**6,
    bins: int = 64,
    state=None,
) -> tuple[float, bool]:
    """Empirical 1-D check of the Laplace privacy-loss ratio bound.

    Draws n_samples from Laplace(0, scale) and from delta_f +
    Laplace(0, scale), from the first and the next n_samples uniforms of
    the stream (make_stream(0) by default), clamps both into
    [-8*scale, delta_f + 8*scale], and compares add-one-smoothed cell
    frequencies. Cells hold equal pooled mass (empirical quantiles of the
    combined sample) so every cell's frequency estimate carries roughly the
    same sampling error; with equal-width cells the near-empty tail cells
    would swamp the ratio statistic with noise far beyond any fixed slack.

    Returns (max over cells of |ln(p/q)|, pass) where pass means the
    maximum stays within 10% slack of the analytic bound delta_f / scale.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if n_samples < 10**5:
        raise ValueError(f"need at least 1e5 samples, got {n_samples}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if state is None:
        state = make_stream(0)
    p, position = laplace_batch(state, n_samples, scale)
    q, _ = laplace_batch(state, n_samples, scale, position)
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
