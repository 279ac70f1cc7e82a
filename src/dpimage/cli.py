"""Command-line pipeline: generate, train, sensitivity, perturb, evaluate, sweep.

Every command is replayable: outputs are a pure function of (config, seed),
and each output directory carries one provenance_<command>.json per stage,
sufficient to reproduce the run. Reports are CSV; images are binary PGM.

The harness never selects or filters outputs by similarity to the original
image; doing so would condition the release on the input and void the
privacy accounting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .codec import (
    BLOCK_ROWS,
    align_identity_basis,
    decode_batch,
    encode_batch,
    load_model,
    save_model,
    train,
)
from .config import RunConfig, build_config, config_dict, parse_levels
from .data import generate_corpus, load_manifest, read_pgm, save_manifest, write_pgm
from .errors import ConfigError, DataError, DpImageError
from .metrics import (
    blur_baseline,
    calibrate_threshold,
    evaluate_pairs,
    iss_scores,
    l2_distances,
    mosaic_baseline,
    ssim_scores,
    write_aggregate_csv,
    write_per_image_csv,
)
from .numerics import derive_states
from .privacy import (
    PrivacyBudgetLedger,
    PrivacyParams,
    dp_images,
    estimate_sensitivity,
    full_mask,
    identity_mask,
    latents_to_csv,
    perturb_latents,
    save_latents,
)

# stream_id namespaces so every pipeline stage draws independent randomness
_STREAM_PERTURB = 2
_STREAM_SWEEP = 3


def _write_provenance(out_dir: Path, command: str, config: RunConfig, extra: dict | None = None) -> None:
    # one file per command, so a directory shared by several pipeline stages
    # keeps every stage's reproduction record
    record = {
        "command": command,
        "config": config_dict(config),
        "extra": extra or {},
        "toolkit_version": __version__,
    }
    path = out_dir / f"provenance_{command}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _load_corpus(corpus_dir: Path, split: str | None = None):
    """Manifest rows of one split (every row for None) and their images by path."""
    rows = [r for r in load_manifest(corpus_dir / "manifest.csv") if split in (None, r.split)]
    return rows, {r.path: read_pgm(corpus_dir / r.path) for r in rows}


def _privacy_params(config: RunConfig, epsilon: float, sensitivity: float) -> PrivacyParams:
    """The configured mechanism; perturb and sweep both release through it."""
    if config.mask_mode == "identity_only":
        mask = identity_mask(config.latent_dim, config.identity_len)
    else:
        mask = full_mask(config.latent_dim)
    clip_radius = config.clip_radius if config.sensitivity_mode == "clip" else None
    return PrivacyParams(epsilon, sensitivity, mask, clip_radius)


def _resolve_delta_f(config: RunConfig, out_dir: Path) -> float:
    if config.sensitivity_mode == "clip":
        return 2.0 * config.clip_radius
    if config.sensitivity > 0:
        return config.sensitivity
    stored = out_dir / "delta_f.txt"
    if stored.exists():
        return float(stored.read_text().strip())
    raise ConfigError(
        "missing sensitivity: run the sensitivity command first, pass "
        "--sensitivity, or use sensitivity_mode=clip with a clip_radius"
    )


def _calibrate_from_corpus(config: RunConfig, model, eval_rows, images):
    if len(eval_rows) < 4:
        raise DataError("need at least 4 eval images to calibrate a threshold")
    genuine, impostor = [], []
    for i, a in enumerate(eval_rows):
        for b in eval_rows[i + 1 :]:
            pair = (images[a.path], images[b.path])
            (genuine if a.identity_id == b.identity_id else impostor).append(pair)
    if not genuine or not impostor:
        raise DataError("eval split lacks genuine or impostor pairs")
    return calibrate_threshold(model, genuine, impostor, config.fppsr_percentile)


def cmd_generate(config: RunConfig) -> None:
    out_dir = Path(config.output_dir)
    corpus_dir = out_dir / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    images, manifest = generate_corpus(
        config.n_identities, config.samples_per_identity, config.image_side, config.seed
    )
    for img, row in zip(images, manifest):
        write_pgm(img, corpus_dir / row.path)
    save_manifest(manifest, corpus_dir / "manifest.csv")
    _write_provenance(out_dir, "generate", config, {"n_images": len(images)})
    print(f"wrote {len(images)} images to {corpus_dir}")


def cmd_train(config: RunConfig, corpus_dir: Path) -> None:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_rows, images = _load_corpus(corpus_dir, "train")
    if not train_rows:
        raise DataError("manifest has no train split")
    corpus = [images[r.path] for r in train_rows]
    labels = [r.identity_id for r in train_rows]
    model, trace = train(corpus, config)
    model = align_identity_basis(model, corpus, labels)
    save_model(model, out_dir / "model.dpim")
    with open(out_dir / "loss_trace.csv", "w", newline="") as f:
        f.write("epoch,loss\n")
        for epoch, loss in enumerate(trace):
            f.write(f"{epoch},{loss!r}\n")
    _write_provenance(out_dir, "train", config, {"final_loss": trace[-1]})
    print(f"trained {config.epochs} epochs, final loss {trace[-1]:.6f}")


def cmd_sensitivity(config: RunConfig, model_path: Path, corpus_dir: Path) -> None:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_model(model_path)
    manifest, images = _load_corpus(corpus_dir)
    latents = encode_batch(model, [images[r.path] for r in manifest])
    report = estimate_sensitivity(latents)
    save_latents(latents, out_dir / "latents.dplz")
    latents_to_csv(latents, out_dir / "latents.csv")
    with open(out_dir / "sensitivity_histogram.csv", "w", newline="") as f:
        f.write("bin_low,bin_high,count\n")
        edges = report.stats.bin_edges
        for i, count in enumerate(report.stats.counts):
            f.write(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(count)}\n")
    eval_index = [i for i, r in enumerate(manifest) if r.split == "eval"][:20]
    heat = estimate_sensitivity(latents[eval_index]).distances if len(eval_index) >= 2 else None
    with open(out_dir / "sensitivity_heatmap.csv", "w", newline="") as f:
        f.write("i,j,distance\n")
        if heat is not None:
            for i in range(heat.shape[0]):
                for j in range(heat.shape[1]):
                    f.write(f"{i},{j},{float(heat[i, j])!r}\n")
    (out_dir / "delta_f.txt").write_text(f"{report.delta_f!r}\n")
    _write_provenance(
        out_dir,
        "sensitivity",
        config,
        {"delta_f": report.delta_f, "n_latents": int(latents.shape[0])},
    )
    print(f"delta_f {report.delta_f!r} over {latents.shape[0]} latents")


def _input_images(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.glob("*.pgm")))
        else:
            files.append(p)
    if not files:
        raise DataError("no input images found")
    return files


def cmd_perturb(config: RunConfig, model_path: Path, inputs: list[Path]) -> None:
    out_dir = Path(config.output_dir)
    perturbed_dir = out_dir / "perturbed"
    perturbed_dir.mkdir(parents=True, exist_ok=True)
    model = load_model(model_path)
    delta_f = _resolve_delta_f(config, out_dir)
    params = _privacy_params(config, config.epsilon, delta_f)
    ledger_path = out_dir / "ledger.csv"
    ledger = (
        PrivacyBudgetLedger.load_csv(ledger_path)
        if ledger_path.exists()
        else PrivacyBudgetLedger()
    )
    loaded = len(ledger.entries)
    files = _input_images(inputs)
    for start in range(0, len(files), BLOCK_ROWS):
        block = files[start : start + BLOCK_ROWS]
        # each image's stream is addressed by its position in the request
        states = derive_states(config.seed, _STREAM_PERTURB, np.arange(start, start + len(block)))
        released = dp_images(model, [read_pgm(path) for path in block], params, states)
        for path, image in zip(block, released):
            write_pgm(image, perturbed_dir / path.name)
            # group tracks data disjointness only (same corpus: budgets add);
            # masked releases are annotated on the release id, since the
            # epsilon guarantee then covers only the masked coordinate subspace
            release = path.name
            if config.mask_mode == "identity_only":
                release += "#partial-coordinate"
            ledger.record(release, config.epsilon, group="corpus")
    ledger.save_csv(ledger_path, start=loaded)  # appends this request's rows
    total = ledger.total()
    _write_provenance(
        out_dir,
        "perturb",
        config,
        {
            "delta_f": delta_f,
            "scale": params.scale,
            "n_images": len(files),
            "ledger_total": total,
            "partial_coordinate_dp": config.mask_mode == "identity_only",
        },
    )
    print(
        f"perturbed {len(files)} images at scale {params.scale!r}; "
        f"ledger total {total!r}"
    )


def cmd_evaluate(
    config: RunConfig,
    model_path: Path,
    originals: Path,
    perturbed: Path,
    corpus_dir: Path | None,
    threshold: float | None,
    baselines: bool,
) -> None:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_model(model_path)
    orig_files = {p.name: p for p in sorted(originals.glob("*.pgm"))}
    pert_files = {p.name: p for p in sorted(perturbed.glob("*.pgm"))}
    if not orig_files:
        raise DataError(f"no PGM images under {originals}")
    missing = sorted(set(orig_files) ^ set(pert_files))
    if missing:
        raise DataError(f"originals and perturbed are misaligned on: {missing[:5]}")
    if threshold is None:
        if corpus_dir is None:
            raise ConfigError("need --corpus-dir to calibrate a threshold, or pass --threshold")
        eval_rows, images = _load_corpus(corpus_dir, "eval")
        threshold = _calibrate_from_corpus(config, model, eval_rows, images).tau
    pairs = [
        (name, read_pgm(orig_files[name]), read_pgm(pert_files[name]))
        for name in sorted(orig_files)
    ]
    report = evaluate_pairs(model, pairs, threshold, config.ssim_window, config.ssim_sigma)
    write_per_image_csv(report, out_dir / "per_image.csv")
    write_aggregate_csv(report, out_dir / "aggregate.csv")
    extra = {"threshold": threshold, "mean_iss": report.mean_iss}
    if baselines:
        table, notes = _baseline_table(
            model, pairs, report, threshold, config.ssim_window, config.ssim_sigma
        )
        with open(out_dir / "table.csv", "w", newline="") as f:
            f.write("method,l2,ald_inf,ssim,iss,fed,fppsr\n")
            for row in table:
                f.write(",".join([row[0]] + [repr(v) for v in row[1:]]) + "\n")
        extra["baseline_notes"] = notes
        print(notes["fed_ranking"])
    _write_provenance(out_dir, "evaluate", config, extra)
    print(f"evaluated {len(pairs)} pairs; mean ISS {report.mean_iss:.4f}")


def _baseline_table(model, pairs, dp_report, threshold, ssim_window, ssim_sigma):
    """Blur and mosaic rows tuned to match the dp-image mean ISS.

    The search scores each candidate by mean ISS alone; the full metrics are
    computed for the chosen blur and mosaic only, with the SSIM window of the
    dp-image row. Candidates transform and encode BLOCK_ROWS images at a
    time, which bounds the temporaries of wide blur kernels.
    """
    target = dp_report.mean_iss
    x = np.stack([orig for _, orig, _ in pairs])
    n_id = model.identity_len
    emb_x = encode_batch(model, x)[:, :n_id]
    starts = range(0, len(x), BLOCK_ROWS)

    def mean_iss(transform):
        scores = [
            iss_scores(
                emb_x[s : s + BLOCK_ROWS],
                encode_batch(model, transform(x[s : s + BLOCK_ROWS]))[:, :n_id],
            )
            for s in starts
        ]
        return float(np.mean(np.concatenate(scores)))

    def report(transform):
        y = np.concatenate([transform(x[s : s + BLOCK_ROWS]) for s in starts])
        method_pairs = [(name, x[i], y[i]) for i, (name, _, _) in enumerate(pairs)]
        return evaluate_pairs(model, method_pairs, threshold, ssim_window, ssim_sigma)

    def blur(sigma):
        radius = max(1, int(math.ceil(3.0 * sigma)))
        return lambda a: blur_baseline(a, sigma, radius)

    def mosaic(block):
        return lambda a: mosaic_baseline(a, block)

    lo, hi = 0.05, 16.0
    best_blur = None
    for _ in range(24):  # bisect on sigma; ISS decreases as blur grows
        mid = 0.5 * (lo + hi)
        value = mean_iss(blur(mid))
        if best_blur is None or abs(value - target) < abs(best_blur[1] - target):
            best_blur = (mid, value)
        if value > target:
            lo = mid
        else:
            hi = mid
    best_mosaic = None
    for block in range(1, x.shape[-2] + 1):
        value = mean_iss(mosaic(block))
        if best_mosaic is None or abs(value - target) < abs(best_mosaic[1] - target):
            best_mosaic = (block, value)

    rows = []
    for name, rep in (
        ("blur", report(blur(best_blur[0]))),
        ("mosaic", report(mosaic(best_mosaic[0]))),
        ("dp_image", dp_report),
    ):
        rows.append(
            (name, rep.mean_l2, rep.mean_ald_inf, rep.mean_ssim, rep.mean_iss, rep.fed, rep.fppsr)
        )
    feds = {name: row[5] for name, row in zip(("blur", "mosaic", "dp_image"), rows)}
    ranking = sorted(feds, key=feds.get)
    notes = {
        "blur_sigma": best_blur[0],
        "mosaic_block": best_mosaic[0],
        "iss_match_error": max(abs(r[4] - target) for r in rows),
        "fed_ranking": (
            f"FED ranking (lower is better): {ranking}; "
            f"dp_image lowest: {ranking[0] == 'dp_image'}"
        ),
    }
    return rows, notes


def cmd_sweep(config: RunConfig, model_path: Path, corpus_dir: Path) -> None:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_model(model_path)
    eval_rows, images = _load_corpus(corpus_dir, "eval")
    cal = _calibrate_from_corpus(config, model, eval_rows, images)
    levels = parse_levels(config.sweep_levels)
    x_eval = np.stack([images[r.path] for r in eval_rows])
    z_eval = encode_batch(model, x_eval)
    n_id = model.identity_len
    # tasks in (repetition, image) order; they run one block of rows at a
    # time, so at most one block of decoded images is alive
    rep, image = np.divmod(np.arange(config.sweep_repetitions * len(x_eval)), len(x_eval))
    results = []
    for level_index, level in enumerate(levels):
        # the level is the noise scale b = delta_f / epsilon itself
        params = _privacy_params(config, 1.0, level)
        states = derive_states(config.seed, _STREAM_SWEEP, level_index, rep, image)
        iss_vals, l2_vals, ssim_vals = [], [], []
        for start in range(0, len(image), BLOCK_ROWS):
            img = image[start : start + BLOCK_ROWS]
            noisy = perturb_latents(z_eval[img], params, states[start : start + BLOCK_ROWS])
            y = decode_batch(model, noisy)
            iss_vals.append(iss_scores(z_eval[img, :n_id], encode_batch(model, y)[:, :n_id]))
            l2_vals.append(l2_distances(x_eval[img], y))
            ssim_vals.append(ssim_scores(x_eval[img], y, config.ssim_window, config.ssim_sigma))
        iss_vals = np.concatenate(iss_vals)
        results.append(
            (
                level,
                float(iss_vals.mean()),
                float(np.mean(iss_vals < cal.tau)),
                float(np.mean(np.concatenate(l2_vals))),
                float(np.mean(np.concatenate(ssim_vals))),
            )
        )
    with open(out_dir / "sweep.csv", "w", newline="") as f:
        f.write("level,mean_iss,mean_fppsr,mean_l2,mean_ssim\n")
        for row in results:
            f.write(",".join(repr(v) for v in row) + "\n")
    _write_provenance(
        out_dir,
        "sweep",
        config,
        {"threshold": cal.tau, "levels": list(levels), "repetitions": config.sweep_repetitions},
    )
    for level, mean_iss, mean_fppsr, _, _ in results:
        print(f"level {level}: mean ISS {mean_iss:.4f}, FPPSR {mean_fppsr:.4f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpimage",
        description="Latent-space image privacy toolkit (PGM in, CSV out).",
    )
    parser.add_argument("--version", action="version", version=f"dpimage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        for f in fields(RunConfig):
            p.add_argument(f"--{f.name}", type=str, default=None, help=f"override {f.name}")

    p_gen = sub.add_parser("generate", help="write a synthetic labeled corpus")
    add_common(p_gen)

    p_train = sub.add_parser("train", help="train the autoencoder on the train split")
    add_common(p_train)
    p_train.add_argument("--corpus-dir", type=Path, default=None)

    p_sens = sub.add_parser("sensitivity", help="estimate feature-space sensitivity")
    add_common(p_sens)
    p_sens.add_argument("--model", type=Path, default=None)
    p_sens.add_argument("--corpus-dir", type=Path, default=None)

    p_pert = sub.add_parser("perturb", help="apply the privacy mechanism to images")
    add_common(p_pert)
    p_pert.add_argument("--model", type=Path, default=None)
    p_pert.add_argument("--input", type=Path, nargs="+", required=True)

    p_eval = sub.add_parser("evaluate", help="privacy/utility metrics over image pairs")
    add_common(p_eval)
    p_eval.add_argument("--model", type=Path, default=None)
    p_eval.add_argument("--originals", type=Path, required=True)
    p_eval.add_argument("--perturbed", type=Path, required=True)
    p_eval.add_argument("--corpus-dir", type=Path, default=None)
    p_eval.add_argument("--threshold", type=float, default=None)
    p_eval.add_argument("--baselines", action="store_true")

    p_sweep = sub.add_parser("sweep", help="noise sweep reproducing the trend curves")
    add_common(p_sweep)
    p_sweep.add_argument("--model", type=Path, default=None)
    p_sweep.add_argument("--corpus-dir", type=Path, default=None)

    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for f in fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = raw
    return build_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        out_dir = Path(config.output_dir)
        model_path = getattr(args, "model", None) or out_dir / "model.dpim"
        corpus_dir = getattr(args, "corpus_dir", None) or out_dir / "corpus"
        if args.command == "generate":
            cmd_generate(config)
        elif args.command == "train":
            cmd_train(config, corpus_dir)
        elif args.command == "sensitivity":
            cmd_sensitivity(config, model_path, corpus_dir)
        elif args.command == "perturb":
            cmd_perturb(config, model_path, args.input)
        elif args.command == "evaluate":
            cmd_evaluate(
                config,
                model_path,
                args.originals,
                args.perturbed,
                corpus_dir if args.threshold is None else None,
                args.threshold,
                args.baselines,
            )
        elif args.command == "sweep":
            cmd_sweep(config, model_path, corpus_dir)
        return 0
    except DpImageError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error:validation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
