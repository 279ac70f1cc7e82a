#!/usr/bin/env python3
"""End-to-end experiment: corpus, training, sensitivity, mechanism, reports.

Writes everything under --output-dir (default runs/demo):
  corpus/           synthetic labeled faces (PGM + manifest)
  model.dpim        trained autoencoder
  delta_f.txt       empirical feature-space sensitivity
  perturbed/        privacy-mechanism outputs for the eval split
  per_image.csv, aggregate.csv, table.csv   utility/privacy reports
  sweep.csv         noise-level trend curves

`--quick` shrinks the corpus and training so a smoke run finishes in
seconds. It keeps 16 identities, enough (16 - 1 >= identity_len 12) for the
labels to fix the identity block, and sweeps noise levels 0, 2, 4 and 8, so
the sweep's mean ISS still falls as the noise grows.
"""

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dpimage.cli import main as dpimage_main
from dpimage.data import load_manifest


def run(*argv):
    code = dpimage_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", type=Path, default=Path("runs/demo"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=None,
                        help="privacy budget per image (default: delta_f / 1.0)")
    parser.add_argument("--quick", action="store_true", help="small corpus, short training")
    args = parser.parse_args()

    out = args.output_dir
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "run.cfg"
    lines = [f"output_dir={out}", f"seed={args.seed}"]
    if args.quick:
        lines += ["n_identities=16", "samples_per_identity=6", "epochs=150",
                  "sweep_repetitions=5", "sweep_levels=0,2,4,8"]
    else:
        lines += ["sweep_repetitions=20"]
    cfg.write_text("\n".join(lines) + "\n")

    run("generate", "--config", cfg)
    run("train", "--config", cfg)
    run("sensitivity", "--config", cfg)

    manifest = load_manifest(out / "corpus" / "manifest.csv")
    eval_dir = out / "eval_originals"
    if eval_dir.exists():
        shutil.rmtree(eval_dir)
    eval_dir.mkdir()
    for row in manifest:
        if row.split == "eval":
            shutil.copyfile(out / "corpus" / row.path, eval_dir / row.path)

    delta_f = float((out / "delta_f.txt").read_text())
    epsilon = args.epsilon if args.epsilon is not None else delta_f  # scale b = 1
    run("perturb", "--config", cfg, "--input", eval_dir, "--epsilon", repr(epsilon))
    run("evaluate", "--config", cfg, "--originals", eval_dir,
        "--perturbed", out / "perturbed", "--baselines")
    run("sweep", "--config", cfg)
    print(f"\nall reports under {out}")


if __name__ == "__main__":
    main()
