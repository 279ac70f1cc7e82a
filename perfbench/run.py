"""dpimage benchmark: one workload per run, every metric printed as JSON.

    python3 perfbench/run.py --workload {train,sweep,release} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 the run sets the workload up several times, each in a fresh
process, and reports the median set-up time; then one fresh worker process
runs the workload's operation in a closed loop for S seconds. With --trace 1
a single worker sets up and runs traced and the per-layer metrics are
reported instead. Every run works in a fresh directory under
perfbench/work/ and deletes it afterwards. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; a run that cannot measure
exits nonzero without it. perfbench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("train", "sweep", "release")
BUDGET_S = 170.0  # a run must end within 180 s
# each set-up is a fresh process; setup_s is the median of at least three,
# and of as many more as fit in SETUP_MIN_S, which steadies short set-ups
SETUP_REPS = 3
SETUP_MIN_S = 5.0
# one BLAS thread in every run: timings stay comparable and, as the README
# notes, byte-exact outputs assume one threading configuration
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The run cannot produce a measurement."""


def rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile q among n sorted samples."""
    return min(n, max(1, math.ceil(q * n / 100.0 - 1e-9)))


def nearest_rank(values, q: float) -> float:
    """Smallest value with at least q percent of the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    return ordered[rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    return n - rank(n, q)


def tail_percentile(n: int, candidates=(99.9, 99.0, 90.0)) -> float | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    for q in candidates:
        if samples_beyond(n, q) >= 10:
            return q
    return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child(args: list, deadline: float) -> tuple[float, str]:
    """Run the worker in a fresh process; returns (wall seconds, stdout)."""
    env = {**os.environ, **BLAS_ENV, "PYTHONHASHSEED": "0"}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *map(str, args)],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}")
    return wall, out


def end_to_end(result: dict, setup_walls: list[float]) -> dict:
    walls = result["op_walls_s"]
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "images_per_s": (result["images"] / sum(walls + result["other_walls_s"]), "1/s"),
        "recon_mse": (result["recon_mse"], "mse"),
    }


def measure(args, work: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    """Set up and run one workload; returns (metrics, worker result, problems)."""
    common = ["--workload", args.workload, "--seed", args.seed, "--size", args.size]
    home = work / "setup-0"
    problems: list[str] = []
    if args.trace:
        spans = HERE / "out" / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        _, out = child(["run", *common, "--dir", home, "--seconds", args.seconds,
                        "--trace-out", spans], deadline)
        result = json.loads(out.strip().splitlines()[-1])
        result["spans_file"] = str(spans.relative_to(ROOT))
        return result["layers"], result, problems
    setup_walls, models = [], set()
    while len(setup_walls) < SETUP_REPS or sum(setup_walls) < SETUP_MIN_S:
        d = work / f"setup-{len(setup_walls)}"
        wall, _ = child(["setup", *common, "--dir", d], deadline)
        model = d / "model.dpim"
        models.add(model.read_bytes() if model.exists() else b"")
        if setup_walls:
            shutil.rmtree(d)
        setup_walls.append(wall)
    if len(models) != 1:
        problems.append("set-ups of one seed trained different models")
    _, out = child(["run", *common, "--dir", home, "--seconds", args.seconds], deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_walls_s"] = setup_walls
    return end_to_end(result, setup_walls), result, problems


def report(args, metrics: dict, result: dict, problems: list[str]) -> dict:
    """Print the human-readable record; return the result line."""
    problems = problems + result["problems"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "platform": {
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), **result["platform"],
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"], "git": git_sha(),
        },
        "digests": result["digests"], "quality": result["quality"], "problems": problems,
    }
    for key in ("setup_walls_s", "op_walls_s", "other_walls_s", "spans", "spans_file"):
        if key in result:
            record[key] = result[key]
    print(f"platform: {json.dumps(record['platform'])}")
    walls = result["op_walls_s"]
    print(f"operations: {len(walls)} latency samples in the timed loop")
    for wall in result["other_walls_s"]:
        print(f"  evaluate --baselines: {wall:.3f} s")
    q = tail_percentile(len(walls))
    if not args.trace:
        print(f"  op p50: {nearest_rank(walls, 50) * 1e3:.3f} ms")
    if q is not None and not args.trace:
        print(f"  op p{q:g}: {nearest_rank(walls, q) * 1e3:.3f} ms "
              f"({samples_beyond(len(walls), q)} of {len(walls)} samples beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(f"error_rate: {result['failed']}/{result['attempted']} CLI stages failed")
    print(f"quality: {json.dumps(result['quality'])}")
    print(f"digests: {json.dumps(result['digests'])}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out.write_text(json.dumps(record, indent=2) + "\n")
    return {
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (child() kills it on the way out)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "dpimage" / "cli.py").is_file():
        print(f"error: no dpimage sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, result, problems = measure(args, work, deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    print(json.dumps(report(args, metrics, result, problems)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
