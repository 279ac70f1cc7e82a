"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The pipeline criteria (5, 7, 10) drive the real CLI against
the default configuration in a shared session directory.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from dpimage.cli import main
from dpimage.codec import decode, encode, init_model, load_model, loss_and_gradients
from dpimage.data import load_manifest, read_pgm
from dpimage.metrics import blur_baseline, fed, iss_from_embeddings, mosaic_baseline
from dpimage.numerics import make_stream
from dpimage.privacy import PrivacyBudgetLedger, PrivacyParams, estimate_sensitivity, full_mask
from support import (
    calibrate_threshold, dp_image, gaussian_batch, laplace_batch, perturb_latent, ssim, verify_dp_empirical,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Default-config corpus and trained model, built through the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    out = root / "out"
    cfg = root / "default.cfg"
    cfg.write_text(f"output_dir={out}\nsweep_repetitions=20\n")
    assert run_cli("generate", "--config", cfg) == 0
    t0 = time.time()
    assert run_cli("train", "--config", cfg) == 0
    train_seconds = time.time() - t0
    assert run_cli("sensitivity", "--config", cfg) == 0
    manifest = load_manifest(out / "corpus" / "manifest.csv")
    assert len(manifest) == 500  # default corpus: 50 identities x 10 samples
    eval_dir = root / "eval_originals"
    eval_dir.mkdir()
    for row in manifest:
        if row.split == "eval":
            (eval_dir / row.path).write_bytes((out / "corpus" / row.path).read_bytes())
    return {
        "root": root,
        "cfg": cfg,
        "out": out,
        "manifest": manifest,
        "eval_dir": eval_dir,
        "train_seconds": train_seconds,
    }


def test_criterion_1_laplace_sampler():
    with criterion(1, "laplace-sampler"):
        t0 = time.time()
        n = 10**6
        x, _ = laplace_batch(make_stream(2), n, 1.0)
        xs = np.sort(x)
        cdf = np.where(xs < 0, 0.5 * np.exp(xs), 1.0 - 0.5 * np.exp(-xs))
        i = np.arange(1, n + 1)
        ks = max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf))
        assert ks < 0.002, f"KS statistic {ks}"
        for b in (0.5, 1.0, 2.0):
            samples, _ = laplace_batch(make_stream(1), n, b)
            target = 2.0 * b * b
            assert abs(samples.var() - target) < 0.02 * target
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_empirical_dp_ratio():
    with criterion(2, "empirical-dp-ratio"):
        t0 = time.time()
        for eps in (0.5, 1.0, 2.0):
            scale = 1.0 / eps
            max_lr, ok = verify_dp_empirical(scale, 1.0, 10**6, 64, make_stream(0))
            assert ok, f"eps={eps}: max_log_ratio {max_lr} > {1.1 * eps}"
            assert max_lr <= 1.1 * eps
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_sensitivity_vs_brute_force():
    with criterion(3, "sensitivity-brute-force"):
        t0 = time.time()
        vals, _ = gaussian_batch(make_stream(3), 200 * 32)
        latents = vals.reshape(200, 32)
        report = estimate_sensitivity(latents)
        best = 0.0
        for i in range(200):
            for j in range(200):
                d = np.sum(np.abs(latents[i] - latents[j]))
                if d > best:
                    best = d
        assert report.delta_f == best, "estimator deviates from brute force"
        elapsed = time.time() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_4_gradients_every_parameter():
    with criterion(4, "gradient-check"):
        model = init_model((64, 16, 8), 4, seed=11)
        h = 1e-5
        worst = 0.0
        for batch_index in range(5):
            vals, _ = gaussian_batch(make_stream(100 + batch_index), 3 * 64)
            batch = (0.5 + 0.15 * vals.reshape(3, 8, 8)).clip(0.0, 1.0)
            _, gw, gb = loss_and_gradients(model, batch)
            for layer in range(len(model.weights)):
                for arr, grads in (
                    (model.weights[layer], gw[layer]),
                    (model.biases[layer], gb[layer]),
                ):
                    flat = arr.reshape(-1)
                    gflat = grads.reshape(-1)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + h
                        lp, _, _ = loss_and_gradients(model, batch)
                        flat[i] = orig - h
                        lm, _, _ = loss_and_gradients(model, batch)
                        flat[i] = orig
                        numeric = (lp - lm) / (2.0 * h)
                        analytic = gflat[i]
                        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
                        worst = max(worst, rel)
        assert worst < 1e-4, f"worst relative error {worst}"


def test_criterion_5_training_quality_and_determinism(pipeline):
    with criterion(5, "training"):
        assert pipeline["train_seconds"] < 300.0, f"training took {pipeline['train_seconds']:.0f}s"
        trace = (pipeline["out"] / "loss_trace.csv").read_text().strip().splitlines()
        final_loss = float(trace[-1].split(",")[1])
        assert final_loss < 0.01, f"final loss {final_loss}"
        first_bytes = (pipeline["out"] / "model.dpim").read_bytes()
        assert run_cli("train", "--config", pipeline["cfg"]) == 0
        assert (pipeline["out"] / "model.dpim").read_bytes() == first_bytes, (
            "retraining produced different model bytes"
        )
        # reconstruction generalizes: held-out error within 2x the train error
        model = load_model(pipeline["out"] / "model.dpim")
        corpus_dir = pipeline["out"] / "corpus"

        def recon_mse(rows):
            errs = []
            for row in rows:
                x = read_pgm(corpus_dir / row.path)
                errs.append(float(np.mean((decode(model, encode(model, x)) - x) ** 2)))
            return float(np.mean(errs))

        train_rows = [r for r in pipeline["manifest"] if r.split == "train"]
        eval_rows = [r for r in pipeline["manifest"] if r.split == "eval"]
        train_err = recon_mse(train_rows[:100])
        eval_err = recon_mse(eval_rows)
        assert eval_err <= 2.0 * train_err, f"held-out MSE {eval_err} vs train {train_err}"
        # latent range report on the trained model (all values finite)
        latents = np.stack(
            [encode(model, read_pgm(corpus_dir / r.path)) for r in train_rows[:100]]
        )
        assert np.all(np.isfinite(latents))
        print(
            f"\n  train MSE {train_err:.5f}, eval MSE {eval_err:.5f}; "
            f"latent range [{latents.min():.2f}, {latents.max():.2f}]"
        )


def test_criterion_6_post_processing_invariance(pipeline):
    with criterion(6, "post-processing-invariance"):
        model = load_model(pipeline["out"] / "model.dpim")
        manifest = pipeline["manifest"]
        corpus_dir = pipeline["out"] / "corpus"
        images = [read_pgm(corpus_dir / r.path) for r in manifest[:10]]
        for run_index, image in enumerate(images):
            eps = 0.1 + 0.37 * run_index
            params = PrivacyParams(
                epsilon=eps, sensitivity=1.0, mask=full_mask(model.latent_dim)
            )
            latent_ledger = PrivacyBudgetLedger()
            image_ledger = PrivacyBudgetLedger()
            z = encode(model, image)
            perturb_latent(z, params, make_stream(run_index))
            latent_ledger.record(f"latent_{run_index}", params.epsilon)
            dp_image(model, image, params, make_stream(run_index))
            image_ledger.record(f"image_{run_index}", params.epsilon)
            assert latent_ledger.total() == image_ledger.total()


def test_criterion_7_trend_reproduction(pipeline):
    with criterion(7, "trend-reproduction"):
        assert run_cli("sweep", "--config", pipeline["cfg"]) == 0
        rows = (pipeline["out"] / "sweep.csv").read_text().strip().splitlines()[1:]
        levels, mean_iss, mean_fppsr = [], [], []
        for row in rows:
            parts = row.split(",")
            levels.append(float(parts[0]))
            mean_iss.append(float(parts[1]))
            mean_fppsr.append(float(parts[2]))
        assert levels == [0.0, 0.25, 0.5, 1.0]
        print(f"\n  sweep mean ISS: {[round(v, 4) for v in mean_iss]}")
        print(f"  sweep FPPSR:    {[round(v, 4) for v in mean_fppsr]}")
        for a, b in zip(mean_iss, mean_iss[1:]):
            assert b < a, f"mean ISS not strictly decreasing: {mean_iss}"
        for a, b in zip(mean_fppsr, mean_fppsr[1:]):
            assert b >= a, f"FPPSR not nondecreasing: {mean_fppsr}"
        assert mean_fppsr[3] - mean_fppsr[1] >= 0.2, (
            f"FPPSR at level 1.0 ({mean_fppsr[3]}) must exceed level 0.25 "
            f"({mean_fppsr[1]}) by at least 0.2"
        )
        # the calibrated threshold separates: genuine pairs score above tau
        model = load_model(pipeline["out"] / "model.dpim")
        corpus_dir = pipeline["out"] / "corpus"
        eval_rows = [r for r in pipeline["manifest"] if r.split == "eval"]
        genuine, impostor = [], []
        for i, a in enumerate(eval_rows):
            for b in eval_rows[i + 1 :]:
                pair = (read_pgm(corpus_dir / a.path), read_pgm(corpus_dir / b.path))
                (genuine if a.identity_id == b.identity_id else impostor).append(pair)
        cal = calibrate_threshold(model, genuine, impostor, 95.0)
        genuine_mean = float(np.mean(cal.genuine_scores))
        print(f"  genuine mean ISS {genuine_mean:.4f} vs tau {cal.tau:.4f}")
        assert genuine_mean > cal.tau


def test_criterion_8_metric_identities():
    with criterion(8, "metric-identities"):
        vals, _ = gaussian_batch(make_stream(8), 32 * 32)
        x = (0.5 + 0.2 * vals.reshape(32, 32)).clip(0.0, 1.0)
        assert abs(ssim(x, x) - 1.0) < 1e-12
        emb, _ = gaussian_batch(make_stream(9), 20 * 4)
        a = emb.reshape(20, 4)
        assert fed(a, a) < 1e-8
        base, _ = gaussian_batch(make_stream(10), 300)
        one_d = base.reshape(300, 1)
        d = 1.75
        assert abs(fed(one_d, one_d + d) - d * d) < 1e-9
        assert np.array_equal(mosaic_baseline(x, 1), x)
        assert np.array_equal(blur_baseline(x, 1.5, 0), x)


def test_criterion_9_composition_arithmetic():
    with criterion(9, "composition-arithmetic"):
        sequential = PrivacyBudgetLedger()
        sequential.record("q1", 0.5, group="same_data")
        sequential.record("q2", 0.5, group="same_data")
        assert sequential.total() == 1.0
        parallel = PrivacyBudgetLedger()
        parallel.record("q1", 1.0, group="disjoint_a")
        parallel.record("q2", 1.0, group="disjoint_b")
        assert parallel.total() == 1.0
        assert PrivacyBudgetLedger().total() == 0.0
        mixed = PrivacyBudgetLedger()
        for eps in (0.25, 0.25, 0.5):
            mixed.record("r", eps, group="g1")
        mixed.record("s", 0.8, group="g2")
        assert mixed.total() == 1.0


def test_criterion_10_utility_table(pipeline):
    with criterion(10, "utility-table"):
        out = pipeline["out"]
        model = load_model(out / "model.dpim")
        delta_f = float((out / "delta_f.txt").read_text())
        eval_rows = [r for r in pipeline["manifest"] if r.split == "eval"]
        corpus_dir = out / "corpus"
        eval_images = [read_pgm(corpus_dir / r.path) for r in eval_rows]

        # pick the dp noise scale whose mean ISS best matches a mosaic level,
        # mirroring the "similar ISS" operating-point choice
        def emb(img):
            return encode(model, img)[: model.identity_len]

        mosaic_iss = {}
        for block in range(2, 17):
            scores = [
                iss_from_embeddings(emb(x), emb(mosaic_baseline(x, block)))
                for x in eval_images[:40]
            ]
            mosaic_iss[block] = float(np.mean(scores))
        best = None
        for b in (0.75, 1.0, 1.5, 2.0, 3.0):
            params = PrivacyParams(epsilon=1.0, sensitivity=b, mask=full_mask(model.latent_dim))
            scores = []
            for i, x in enumerate(eval_images[:40]):
                y, _ = dp_image(model, x, params, make_stream(7000 + i))
                scores.append(iss_from_embeddings(emb(x), emb(y)))
            dp_score = float(np.mean(scores))
            gap = min(abs(dp_score - v) for v in mosaic_iss.values())
            if best is None or gap < best[1]:
                best = (b, gap, dp_score)
        scale, _, _ = best
        epsilon = delta_f / scale

        assert run_cli(
            "perturb", "--config", pipeline["cfg"],
            "--input", pipeline["eval_dir"], "--epsilon", repr(epsilon),
        ) == 0
        assert run_cli(
            "evaluate", "--config", pipeline["cfg"],
            "--originals", pipeline["eval_dir"],
            "--perturbed", out / "perturbed",
            "--baselines",
        ) == 0
        lines = (out / "table.csv").read_text().strip().splitlines()
        assert lines[0] == "method,l2,ald_inf,ssim,iss,fed,fppsr"
        rows = {parts[0]: [float(v) for v in parts[1:]] for parts in
                (line.split(",") for line in lines[1:])}
        assert set(rows) == {"blur", "mosaic", "dp_image"}
        dp_iss = rows["dp_image"][3]
        for method in ("blur", "mosaic"):
            assert abs(rows[method][3] - dp_iss) <= 0.05, (
                f"{method} ISS {rows[method][3]} not within 0.05 of dp {dp_iss}"
            )
        feds = {m: rows[m][4] for m in rows}
        ranking = sorted(feds, key=feds.get)
        # soft expectation, logged not asserted
        print(f"\n  FED by method: { {m: round(v, 3) for m, v in feds.items()} }")
        print(f"  dp_image lowest FED: {ranking[0] == 'dp_image'}")
