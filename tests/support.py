"""One-image and pair-list helpers for the tests, built from what the CLI ships.

The library has one release path, perturb_latents/dp_images, and one
threshold, the CLI's. These helpers call them on one row or one pair list,
so every test that uses them exercises the shipped code; comparing a one-row
call with a stack checks that a row's bits do not depend on its batch mates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpimage.codec import AutoencoderModel, encode_batch
from dpimage.metrics import SSIM_SIGMA, SSIM_WINDOW, iss_scores, nearest_rank_percentile, ssim_reference
from dpimage.numerics import RngStream, make_stream, rng_uniform_batch
from dpimage.privacy import PrivacyParams, dp_images, laplace_from_uniform, perturb_latents


def laplace_batch(stream: RngStream, n: int, scale: float) -> tuple[np.ndarray, RngStream]:
    """n Laplace(0, scale) draws; consumes n uniforms even when scale is 0."""
    u, stream = rng_uniform_batch(stream, n)
    return laplace_from_uniform(u, scale), stream


def perturb_latent(
    latent: np.ndarray, params: PrivacyParams, stream: RngStream
) -> tuple[np.ndarray, RngStream]:
    """perturb_latents on one latent, its uniforms the next n_noisy of stream."""
    u, stream = rng_uniform_batch(stream, params.n_noisy)
    return perturb_latents(latent, params, u), stream


def dp_image(
    model: AutoencoderModel, image: np.ndarray, params: PrivacyParams, stream: RngStream
) -> tuple[np.ndarray, RngStream]:
    """dp_images on a one-image stack, its uniforms the next n_noisy of stream."""
    u, stream = rng_uniform_batch(stream, params.n_noisy)
    return dp_images(model, [image], params, u[None])[0], stream


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
