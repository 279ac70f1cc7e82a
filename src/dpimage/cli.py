"""Command-line pipeline: generate, train, sensitivity, perturb, evaluate, sweep.

Every command is replayable: outputs are a pure function of (config, seed),
and of the ledger's earlier rows for perturb. Each output directory carries
one provenance_<command>.json per stage, sufficient to reproduce the run.
Reports are CSV; images are binary PGM.

One parser table binds each command to its handler and declares its flags.
main resolves the output directory and loads any --model, then calls the
handler with (config, args, out_dir); main alone writes the record from its
extra, then prints its lines. A directory appears with its first file.

The harness never selects or filters outputs by similarity to the original
image; doing so would condition the release on the input and void the
privacy accounting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .codec import TRAIN_DTYPE, align_identity_basis, encode_batch, load_model, save_model, train
from .config import RunConfig, build_config, parse_levels
from .data import (
    generate_corpus,
    load_manifest,
    read_pgms,
    save_manifest,
    write_csv,
    write_file,
    write_pgms,
)
from .errors import ConfigError, DataError, DpImageError
from .metrics import (
    Originals,
    blur_baseline,
    iss_scores,
    mosaic_baseline,
    nearest_rank_percentile,
)
from .numerics import derive_states, rng_uniform_rows
from .privacy import (
    PrivacyBudgetLedger,
    PrivacyParams,
    dp_images,
    estimate_sensitivity,
    full_mask,
    identity_mask,
    perturb_latents,
)

# stream_id namespaces so every pipeline stage draws independent randomness
_STREAM_PERTURB = 2
_STREAM_SWEEP = 3


def _write_provenance(out_dir: Path, command: str, config: RunConfig, extra: dict) -> None:
    # one file per command, so a directory shared by several pipeline stages
    # keeps every stage's reproduction record
    record = {
        "command": command,
        "config": asdict(config),
        "extra": extra,
        "toolkit_version": __version__,
    }
    blob = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
    write_file(out_dir / f"provenance_{command}.json", blob)


def _load_corpus(corpus_dir: Path, split: str | None = None):
    """Manifest rows of one split (every row for None) and the stack of their images."""
    rows = [r for r in load_manifest(corpus_dir / "manifest.csv") if split in (None, r.split)]
    return rows, read_pgms(corpus_dir / r.path for r in rows)


def _privacy_params(config: RunConfig, model, epsilon: float, sensitivity: float) -> PrivacyParams:
    """The configured mechanism; perturb and sweep both release through it."""
    # the mask covers the model's latents; identity_only's is the model's
    # identity block, which ISS and FPPSR read
    identity_only = config.mask_mode == "identity_only"
    names = "latent_dim, identity_len" if identity_only else "latent_dim"
    configured = (config.latent_dim, config.identity_len) if identity_only else config.latent_dim
    expected = (model.latent_dim, model.identity_len) if identity_only else model.latent_dim
    if configured != expected:
        raise ConfigError(
            f"mask_mode {config.mask_mode}: config {names} {configured} "
            f"does not match the model's {expected}"
        )
    mask = identity_mask(*expected) if identity_only else full_mask(expected)
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


def _eval_split(corpus_dir: Path):
    """Identity ids and image stack of the eval split, which calibrates tau."""
    rows, images = _load_corpus(corpus_dir, "eval")
    if len(rows) < 4:
        raise DataError("need at least 4 eval images to calibrate a threshold")
    return np.array([r.identity_id for r in rows]), images


def _calibrated_tau(identity_ids: np.ndarray, embeddings: np.ndarray) -> float:
    """The program's one threshold, for evaluate and sweep: tau at the nearest-rank
    95th percentile of the ISS over every impostor pair i < j of eval images."""
    i, j = np.triu_indices(len(identity_ids), k=1)
    impostor = identity_ids[i] != identity_ids[j]
    if impostor.all() or not impostor.any():
        raise DataError("eval split lacks genuine or impostor pairs")
    i, j = i[impostor], j[impostor]
    return nearest_rank_percentile(iss_scores(embeddings[i], embeddings[j]), 95.0)


def cmd_generate(config: RunConfig, args, out_dir: Path) -> tuple[dict, list[str]]:
    corpus_dir = out_dir / "corpus"
    images, manifest = generate_corpus(
        config.n_identities, config.samples_per_identity, config.image_side, config.seed
    )
    write_pgms(images, [corpus_dir / row.path for row in manifest])
    save_manifest(manifest, corpus_dir / "manifest.csv")
    return {"n_images": len(images)}, [f"wrote {len(images)} images to {corpus_dir}"]


def cmd_train(config: RunConfig, args, out_dir: Path) -> tuple[dict, list[str]]:
    train_rows, corpus = _load_corpus(args.corpus_dir, "train")
    if not train_rows:
        raise DataError("manifest has no train split")
    labels = [r.identity_id for r in train_rows]
    model, trace = train(corpus, config)
    model = align_identity_basis(model, corpus, labels)
    save_model(model, out_dir / "model.dpim")
    write_csv(out_dir / "loss_trace.csv", ("epoch", "loss"), enumerate(trace))
    summary = f"trained {config.epochs} epochs, final loss {trace[-1]:.6f}"
    return {"final_loss": trace[-1], "train_dtype": TRAIN_DTYPE.name}, [summary]


def cmd_sensitivity(config: RunConfig, args, out_dir: Path) -> tuple[dict, list[str]]:
    manifest, images = _load_corpus(args.corpus_dir)
    latents = encode_batch(args.model, images)
    report = estimate_sensitivity(latents)
    # one row at a time, so the file's bytes are the one copy held besides the array
    rows = (z.tolist() for z in latents)
    write_csv(out_dir / "latents.csv", [f"z{i}" for i in range(latents.shape[1])], rows)
    edges = report.bin_edges.tolist()
    write_csv(
        out_dir / "sensitivity_histogram.csv",
        ("bin_low", "bin_high", "count"),
        zip(edges, edges[1:], report.counts.tolist()),
    )
    # the first 20 eval latents, sliced from the full matrix: each entry sums
    # the same values in the same order as their own pairwise matrix would
    eval_index = [i for i, r in enumerate(manifest) if r.split == "eval"][:20]
    heat = report.distances[np.ix_(eval_index, eval_index)].tolist() if len(eval_index) > 1 else []
    cells = [(i, j, d) for i, row in enumerate(heat) for j, d in enumerate(row)]
    write_csv(out_dir / "sensitivity_heatmap.csv", ("i", "j", "distance"), cells)
    write_file(out_dir / "delta_f.txt", f"{report.delta_f!r}\n".encode())
    extra = {"delta_f": report.delta_f, "n_latents": int(latents.shape[0])}
    return extra, [f"delta_f {report.delta_f!r} over {latents.shape[0]} latents"]


def _input_images(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.glob("*.pgm")))
        else:
            files.append(p)
    if not files:
        raise DataError("no input images found")
    # releases go to perturbed/<name>: a shared name would lose one but charge both
    shared = sorted(name for name, k in Counter(p.name for p in files).items() if k > 1)
    if shared:
        raise DataError(f"input images share file names: {shared[:5]}")
    return files


def _ledger_checkpoint(out_dir: Path):
    """The extra of the last perturb's provenance, or None when unreadable.

    load_csv verifies it against the ledger's bytes before using it.
    """
    try:
        return json.loads((out_dir / "provenance_perturb.json").read_bytes())["extra"]
    except (OSError, ValueError, LookupError, TypeError):
        return None


def cmd_perturb(config: RunConfig, args, out_dir: Path) -> tuple[dict, list[str]]:
    delta_f = _resolve_delta_f(config, out_dir)
    params = _privacy_params(config, args.model, config.epsilon, delta_f)
    ledger_path = out_dir / "ledger.csv"
    ledger = (
        PrivacyBudgetLedger.load_csv(ledger_path, _ledger_checkpoint(out_dir))
        if ledger_path.exists()
        else PrivacyBudgetLedger()
    )
    loaded = len(ledger)
    files = _input_images(args.input)
    # each image's stream is addressed by its ledger row, so every release,
    # in this request or any other, gets fresh noise
    states = derive_states(config.seed, _STREAM_PERTURB, loaded + np.arange(len(files)))
    uniforms = rng_uniform_rows(states, params.n_noisy)
    # every input is read before the first release, so a bad one releases
    # nothing; the input stack is freed once the releases are computed
    released = dp_images(args.model, read_pgms(files), params, uniforms)
    out_dir.mkdir(parents=True, exist_ok=True)  # for save_csv, whose open() makes none
    # group tracks data disjointness only (same corpus: budgets add); masked
    # releases are annotated on the release id, since the epsilon guarantee
    # then covers only the masked coordinate subspace
    tag = "#partial-coordinate" if config.mask_mode == "identity_only" else ""
    for path in files:
        ledger.record(path.name + tag, config.epsilon, group="corpus")
    # the request is charged before its first image is written: a write that
    # fails partway leaves unwritten images charged, never written ones free
    ledger.save_csv(ledger_path)  # appends this request's rows
    write_pgms(released, [out_dir / "perturbed" / path.name for path in files])
    total = ledger.total()
    extra = {
        "delta_f": delta_f,
        "scale": params.scale,
        "n_images": len(files),
        "first_ledger_row": loaded,
        "ledger_total": total,
        # ledger_rows, ledger_sums and ledger_digest: the next request
        # parses no row while the ledger still holds these bytes
        **ledger.checkpoint(),
        # the loss per unit of l1 latent distance, epsilon / delta_f
        "epsilon_per_l1": config.epsilon / delta_f if delta_f > 0 else None,
        "partial_coordinate_dp": config.mask_mode == "identity_only",
    }
    summary = f"perturbed {len(files)} images at scale {params.scale!r}; ledger total {total!r}"
    return extra, [summary]


def cmd_evaluate(config: RunConfig, args, out_dir: Path) -> tuple[dict, list[str]]:
    model = args.model
    orig_files = {p.name: p for p in sorted(args.originals.glob("*.pgm"))}
    pert_files = {p.name: p for p in sorted(args.perturbed.glob("*.pgm"))}
    if not orig_files:
        raise DataError(f"no PGM images under {args.originals}")
    missing = sorted(set(orig_files) ^ set(pert_files))
    if missing:
        raise DataError(f"originals and perturbed are misaligned on: {missing[:5]}")
    threshold = args.threshold
    if threshold is None:
        ids, x_eval = _eval_split(args.corpus_dir)
        threshold = _calibrated_tau(ids, encode_batch(model, x_eval)[:, : model.identity_len])
    names = sorted(orig_files)
    originals = Originals(model, read_pgms(orig_files[name] for name in names))
    report = originals.report(read_pgms(pert_files[name] for name in names), threshold, names)
    header = ("image_id", "l2", "ald_inf", "ssim", "iss")
    columns = [getattr(report, name).tolist() for name in header[1:]]
    write_csv(out_dir / "per_image.csv", header, zip(report.image_ids, *columns))
    aggregates = ("mean_l2", "mean_ald_inf", "mean_ssim", "mean_iss", "fed", "fppsr", "threshold")
    rows = [(name, getattr(report, name)) for name in aggregates]
    write_csv(out_dir / "aggregate.csv", ("metric", "value"), rows)
    extra = {"threshold": threshold, "mean_iss": report.mean_iss}
    lines = []
    if args.baselines:
        table, notes = _baseline_table(originals, report)
        header = ("method", "l2", "ald_inf", "ssim", "iss", "fed", "fppsr")
        write_csv(out_dir / "table.csv", header, table)
        extra["baseline_notes"] = notes
        lines.append(notes["fed_ranking"])
    lines.append(f"evaluated {len(names)} pairs; mean ISS {report.mean_iss:.4f}")
    return extra, lines


def _baseline_table(originals: Originals, dp_report):
    """Blur and mosaic rows tuned to match the dp-image mean ISS.

    The search scores each candidate stack by mean ISS alone; the full
    metrics are computed for the chosen blur and mosaic only.
    """
    target = dp_report.mean_iss
    x = originals.x

    def blur(sigma):
        return blur_baseline(x, sigma, max(1, int(math.ceil(3.0 * sigma))))

    lo, hi = 0.05, 16.0
    best_blur = None
    for _ in range(24):  # bisect on sigma; ISS decreases as blur grows
        mid = 0.5 * (lo + hi)
        value = float(np.mean(originals.iss(blur(mid))))
        if best_blur is None or abs(value - target) < abs(best_blur[1] - target):
            best_blur = (mid, value)
        if value > target:
            lo = mid
        else:
            hi = mid
    # mosaic block 1 returns x bit for bit, so its ISS needs no second encode
    emb = originals.embeddings
    best_mosaic = (1, float(np.mean(iss_scores(emb, emb))))
    for block in range(2, x.shape[-2] + 1):
        value = float(np.mean(originals.iss(mosaic_baseline(x, block))))
        if abs(value - target) < abs(best_mosaic[1] - target):
            best_mosaic = (block, value)

    threshold, image_ids = dp_report.threshold, dp_report.image_ids
    reports = {
        "blur": originals.report(blur(best_blur[0]), threshold, image_ids),
        "mosaic": originals.report(mosaic_baseline(x, best_mosaic[0]), threshold, image_ids),
        "dp_image": dp_report,
    }
    rows = [
        (name, rep.mean_l2, rep.mean_ald_inf, rep.mean_ssim, rep.mean_iss, rep.fed, rep.fppsr)
        for name, rep in reports.items()
    ]
    if len(image_ids) < 2:  # FED fits a covariance per side, so every row's is nan
        fed_ranking = "FED undefined with fewer than 2 pairs; no ranking"
    else:
        ranking = sorted(reports, key=lambda name: reports[name].fed)
        fed_ranking = (
            f"FED ranking (lower is better): {ranking}; "
            f"dp_image lowest: {ranking[0] == 'dp_image'}"
        )
    notes = {
        "blur_sigma": best_blur[0],
        "mosaic_block": best_mosaic[0],
        "iss_match_error": max(abs(r[4] - target) for r in rows),
        "fed_ranking": fed_ranking,
    }
    return rows, notes


def cmd_sweep(config: RunConfig, args, out_dir: Path) -> tuple[dict, list[str]]:
    identity_ids, x_eval = _eval_split(args.corpus_dir)
    originals = Originals(args.model, x_eval)
    tau = _calibrated_tau(identity_ids, originals.embeddings)
    levels = parse_levels(config.sweep_levels)
    # the level is the noise scale b = delta_f / epsilon itself
    params = [_privacy_params(config, args.model, 1.0, level) for level in levels]
    # without noise every repetition releases the same images, so a
    # noise-free level is released once and its scores repeated
    draws = [config.sweep_repetitions if p.scale > 0 else 1 for p in params]
    n, image = len(x_eval), np.arange(len(x_eval))
    # each level's rows of one stream of releases, in (level, repetition, image) order
    spans = [slice(end - d * n, end) for d, end in zip(draws, np.cumsum(draws) * n)]
    stream = np.empty((spans[-1].stop, args.model.latent_dim))
    for level_index, (p, d, rows) in enumerate(zip(params, draws, spans)):
        # every repetition's release of the split as rows of one 2-D stack, in
        # (repetition, image) order, which fixes the bits of the means (numpy
        # sums a 3-D stack's clip norms in another order)
        rep = np.arange(d)[:, None]
        states = derive_states(config.seed, _STREAM_SWEEP, level_index, rep, image)
        u = rng_uniform_rows(states, p.n_noisy)
        stream[rows] = perturb_latents(np.tile(originals.latents, (d, 1)), p, u)
    scores = originals.score_latents(stream)  # every level's passes in one deal
    results = []
    for level, d, rows in zip(levels, draws, spans):
        iss, l2, ssim = (np.tile(v[rows], config.sweep_repetitions // d) for v in scores)
        means = (iss.mean(), np.mean(iss < tau), l2.mean(), ssim.mean())
        results.append((level, *map(float, means)))
    header = ("level", "mean_iss", "mean_fppsr", "mean_l2", "mean_ssim")
    write_csv(out_dir / "sweep.csv", header, results)
    extra = {"threshold": tau, "levels": list(levels), "repetitions": config.sweep_repetitions}
    extra["releases_scored"] = len(stream)  # eval-split releases decoded and scored
    return extra, [
        f"level {level}: mean ISS {mean_iss:.4f}, FPPSR {mean_fppsr:.4f}"
        for level, mean_iss, mean_fppsr, _, _ in results
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpimage",
        description="Latent-space image privacy toolkit (PGM in, CSV out).",
    )
    parser.add_argument("--version", action="version", version=f"dpimage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # --config and one flag per RunConfig field, shared by every command
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="key=value config file")
    for f in fields(RunConfig):
        common.add_argument(f"--{f.name}", type=str, default=None, help=f"override {f.name}")

    def command(name: str, text: str, run, *paths: str) -> argparse.ArgumentParser:
        # paths: the command's --model / --corpus-dir, which main defaults
        # to model.dpim and corpus/ under the output directory
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(run=run)
        for flag in paths:
            p.add_argument(f"--{flag}", type=Path, default=None)
        return p

    command("generate", "write a synthetic labeled corpus", cmd_generate)
    command("train", "train the autoencoder on the train split", cmd_train, "corpus-dir")
    command("sensitivity", "estimate feature-space sensitivity", cmd_sensitivity,
            "model", "corpus-dir")
    p = command("perturb", "apply the privacy mechanism to images", cmd_perturb, "model")
    p.add_argument("--input", type=Path, nargs="+", required=True)
    p = command("evaluate", "privacy/utility metrics over image pairs", cmd_evaluate,
                "model", "corpus-dir")
    p.add_argument("--originals", type=Path, required=True)
    p.add_argument("--perturbed", type=Path, required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--baselines", action="store_true")
    command("sweep", "noise sweep reproducing the trend curves", cmd_sweep, "model", "corpus-dir")
    return parser


# built once per process: building costs far more than one parse
_PARSER = build_parser()


def _config_from_args(args) -> RunConfig:
    raw = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return build_config(args.config, {name: v for name, v in raw.items() if v is not None})


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = _config_from_args(args)
        out_dir = Path(config.output_dir)
        for name, default in (("model", "model.dpim"), ("corpus_dir", "corpus")):
            if name in args and getattr(args, name) is None:
                setattr(args, name, out_dir / default)
        if "model" in args:
            args.model = load_model(args.model)
        extra, lines = args.run(config, args, out_dir)
        # the record is written only once the handler has succeeded, and
        # before any summary: a failed request prints nothing on stdout
        _write_provenance(out_dir, args.command, config, extra)
        for line in lines:
            print(line)
        return 0
    except DpImageError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error:validation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
