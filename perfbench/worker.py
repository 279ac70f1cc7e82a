"""Workload process of the dpimage benchmark.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py run --workload W --seed N --dir D --seconds S [--trace-out F]

`setup` builds the workload's inputs in D through the CLI and exits; run.py
times the whole process, interpreter start included. `run` drives a closed
loop, one client, of the workload's operation against the inputs in D for S
seconds, checks every output, and prints one JSON object as its last line.
With --trace-out it first sets up D itself, traced, then repeats the same
operations traced and writes the spans to F.

The program is driven only through `dpimage.cli.main(argv)`. Quality checks
read outputs with the program's public readers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dpimage  # noqa: E402
from dpimage import cli, codec, data, metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

LAYERS = ("numerics", "data", "codec", "privacy", "metrics")
# methods traced besides the layers' public functions: the ledger's file I/O
METHODS = {"privacy.PrivacyBudgetLedger": ("load_csv", "save_csv")}
COMMANDS = ("generate", "train", "sensitivity", "perturb", "evaluate", "sweep")
LEVELS = (0.0, 0.25, 0.5, 1.0)  # the CLI's default sweep levels
IMAGE_SIDE = 32  # the CLI's default image_side
TABLE_ROWS = ("blur", "mosaic", "dp_image")
# the release noise scale is tuned until the released ISS is this close to a
# mosaic level; the table check allows 0.05, as acceptance criterion 10 does
ISS_MATCH = 0.005


@dataclass(frozen=True)
class Size:
    n_identities: int
    samples_per_identity: int
    model_epochs: int  # epochs of the model that sweep and release set up
    train_epochs: int  # epochs per `train` operation
    sweep_repetitions: int
    request_images: int  # images per `perturb` request
    cycle_requests: int  # requests per output directory (ledger)


SIZES = {
    # The sweep trend and the table's ISS match need the 60-epoch model: at 40
    # epochs FPPSR fell across levels, and at 30 the mosaic rows missed by 0.05.
    "default": Size(50, 10, 60, 20, 5, 20, 200),
    "tiny": Size(8, 6, 10, 5, 2, 4, 8),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def is_pgm(path: Path, side: int) -> bool:
    """True when the file is a binary P5 PGM of side x side, maxval 255."""
    blob = path.read_bytes()
    fields, pos = [], 0
    for _ in range(4):
        while blob[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    # one whitespace byte ends the header, then one byte per pixel
    expected = [b"P5", b"%d" % side, b"%d" % side, b"255"]
    return fields == expected and len(blob) - (pos + 1) == side * side


class Harness:
    """One workload run: CLI calls, checks, digests and the optional tracer."""

    def __init__(self, workload: str, size: Size, seed: int, home: Path):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.home = home
        self.corpus = home / "corpus"
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.quality: dict = {}
        self.epsilon: float | None = None  # release epsilon, once chosen

    def common(self, out: Path) -> list:
        return ["--output_dir", out, "--seed", self.seed,
                "--n_identities", self.size.n_identities,
                "--samples_per_identity", self.size.samples_per_identity]

    def cli(self, command: str, out: Path, *extra) -> bool:
        """Run one CLI stage in-process with its stdout discarded."""
        argv = [str(a) for a in (command, *self.common(out), *extra)]
        self.attempted += 1
        span = self.tracer.span(f"cli.{command}") if self.tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        if code != 0:
            self.failed += 1
            self.check(False, f"{command} exited {code}")
        return code == 0

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)

    def digest(self, name: str, path: Path) -> None:
        """Record a file's sha256; every later file under the name must match."""
        value = sha256(path)
        first = self.digests.setdefault(name, value)
        self.check(value == first, f"{name} differs between identical operations")

    def manifest(self):
        return data.load_manifest(self.corpus / "manifest.csv")

    def eval_rows(self):
        return [r for r in self.manifest() if r.split == "eval"]

    def delta_f(self) -> float:
        return float((self.home / "delta_f.txt").read_text())


def setup(s: Harness) -> None:
    """The workload's inputs: corpus, then model and delta_f."""
    s.cli("generate", s.home)
    if s.workload != "train":
        s.cli("train", s.home, "--epochs", s.size.model_epochs)
        s.cli("sensitivity", s.home)
    if s.workload == "release":
        originals = s.home / "eval_originals"
        originals.mkdir()
        for row in s.eval_rows():
            shutil.copyfile(s.corpus / row.path, originals / row.path)


def recon_mse(s: Harness, model_path: Path) -> float:
    """Eval-split reconstruction MSE; checks it is within 2x the train MSE."""
    model = codec.load_model(model_path)

    def mse(rows):
        errs = []
        for row in rows:
            x = data.read_pgm(s.corpus / row.path)
            errs.append(float(np.mean((codec.decode(model, codec.encode(model, x)) - x) ** 2)))
        return float(np.mean(errs))

    manifest = s.manifest()
    train_err = mse([r for r in manifest if r.split == "train"][:100])
    eval_err = mse([r for r in manifest if r.split == "eval"])
    s.check(eval_err <= 2.0 * train_err, f"eval MSE {eval_err} above 2x train MSE {train_err}")
    s.quality["train_mse"] = train_err
    return eval_err


def operating_scale(s: Harness, last_pass: list, delta_f: float) -> float:
    """Noise scale b at which the released images' mean ISS meets a mosaic level.

    The table compares blur, mosaic and dp_image at similar mean ISS, and
    mosaic blocks give only discrete ISS levels (the CLI searches blocks 1 to
    the image side). A cycle's evaluation sees the images of its last pass,
    and the CLI draws a request's noise from streams indexed by position in
    the request, so those images carry only request_images distinct noise
    draws and their mean ISS can sit 0.05 from an estimate made with fresh
    noise. The ISS is therefore measured on exactly those requests, perturbed
    through the CLI into a scratch directory at epsilon = delta_f / b. b is
    bisected in log space until that ISS is within ISS_MATCH of the mosaic
    level nearest the ISS at b = 1.
    """
    model = codec.load_model(s.home / "model.dpim")
    paths = [p for request in last_pass for p in request]
    originals = {p.name: data.read_pgm(p) for p in paths}
    emb = {name: metrics.identity_embedding(model, x) for name, x in originals.items()}
    side = next(iter(originals.values())).shape[0]
    levels = [float(np.mean([metrics.iss_from_embeddings(
        emb[n], metrics.identity_embedding(model, metrics.mosaic_baseline(x, block)))
        for n, x in originals.items()])) for block in range(1, side + 1)]
    scratch = s.home / "operating-point"

    def released_iss(b: float) -> float:
        shutil.rmtree(scratch, ignore_errors=True)
        for request in last_pass:
            s.cli("perturb", scratch, "--model", s.home / "model.dpim",
                  "--sensitivity", repr(delta_f), "--epsilon", repr(delta_f / b),
                  "--input", *request)
        return float(np.mean([metrics.iss_from_embeddings(
            emb[n], metrics.identity_embedding(model, data.read_pgm(scratch / "perturbed" / n)))
            for n in originals]))

    first = released_iss(1.0)
    target = min(levels, key=lambda v: abs(v - first))
    # ISS falls as the noise grows: search above b = 1 if ISS must fall
    lo, hi = (0.0, 4.0) if first > target else (-4.0, 0.0)  # log2 b
    best = (abs(first - target), 1.0)
    for _ in range(12):
        if best[0] <= ISS_MATCH:
            break
        mid = 0.5 * (lo + hi)
        value = released_iss(2.0 ** mid)
        best = min(best, (abs(value - target), 2.0 ** mid))
        if value > target:
            lo = mid
        else:
            hi = mid
    shutil.rmtree(scratch, ignore_errors=True)
    s.quality["release_noise_scale"] = best[1]
    s.quality["release_iss_target"] = target
    return best[1]


class Train:
    """`train` then `sensitivity` into a fresh directory: time to a usable model."""

    group = 1

    def __init__(self, s: Harness):
        self.s = s
        self.n_train = sum(r.split == "train" for r in s.manifest())
        self.recon = None

    def op(self, i: int) -> tuple[int, bool]:
        s, out = self.s, self.s.home / f"train-{i}"
        s.cli("train", out, "--corpus-dir", s.corpus, "--epochs", s.size.train_epochs)
        s.cli("sensitivity", out, "--corpus-dir", s.corpus)
        return s.size.train_epochs * self.n_train, True

    def after(self, i: int) -> None:
        s, out = self.s, self.s.home / f"train-{i}"
        if (out / "model.dpim").exists() and (out / "delta_f.txt").exists():
            with open(out / "loss_trace.csv") as f:
                losses = [float(row["loss"]) for row in csv.DictReader(f)]
            s.check(all(math.isfinite(v) for v in losses), "loss trace not finite")
            s.check(losses[-1] < losses[0], f"final loss {losses[-1]} not below first {losses[0]}")
            s.digest("model.dpim", out / "model.dpim")
            s.quality["final_loss"] = losses[-1]
            s.quality["delta_f"] = float((out / "delta_f.txt").read_text())
            if self.recon is None and s.tracer is None:
                self.recon = recon_mse(s, out / "model.dpim")
        shutil.rmtree(out, ignore_errors=True)


class Sweep:
    """One `sweep` at the default levels: the paper's trend curves."""

    group = 1

    def __init__(self, s: Harness):
        self.s = s
        self.n_eval = len(s.eval_rows())

    def op(self, i: int) -> tuple[int, bool]:
        s = self.s
        s.cli("sweep", s.home / f"sweep-{i}", "--model", s.home / "model.dpim",
              "--corpus-dir", s.corpus, "--sweep_repetitions", s.size.sweep_repetitions)
        return len(LEVELS) * s.size.sweep_repetitions * self.n_eval, True

    def after(self, i: int) -> None:
        s, out = self.s, self.s.home / f"sweep-{i}"
        path = out / "sweep.csv"
        if path.exists():
            with open(path) as f:
                rows = list(csv.DictReader(f))
            levels = [float(r["level"]) for r in rows]
            iss = [float(r["mean_iss"]) for r in rows]
            fppsr = [float(r["mean_fppsr"]) for r in rows]
            s.check(levels == list(LEVELS), f"sweep levels {levels}")
            s.check(all(b < a for a, b in zip(iss, iss[1:])), f"mean ISS not decreasing: {iss}")
            # FPPSR at level 0 is exact, at the other levels a Monte Carlo
            # estimate over repetitions x eval images; a dip within two
            # binomial standard errors of the noisier level is sampling noise
            n = s.size.sweep_repetitions * self.n_eval
            s.check(all(b >= a - 2.0 * math.sqrt(b * (1.0 - b) / n)
                        for a, b in zip(fppsr, fppsr[1:])), f"FPPSR decreasing: {fppsr}")
            s.digest("sweep.csv", path)
            s.quality["sweep_iss"] = iss
            s.quality["sweep_fppsr"] = fppsr
        shutil.rmtree(out, ignore_errors=True)


class Release:
    """A custodian's cycle: `perturb` requests, then `evaluate --baselines`.

    The requests go one after another into one fresh directory, so its
    ledger grows from empty to cycle_requests x request_images rows. They
    pass over the eval split in seeded random order, so the directory ends
    up holding one release of each eval image, which the cycle's last
    operation evaluates against the originals. Epsilon is delta_f / b, with
    b from `operating_scale`. Each request is a latency
    sample; the evaluation is not.
    """

    def __init__(self, s: Harness):
        self.s = s
        self.delta_f = s.delta_f()
        paths = [s.corpus / r.path for r in s.eval_rows()]
        k = s.size.request_images
        if len(paths) % k or s.size.cycle_requests % (len(paths) // k):
            raise ValueError("a cycle must release every eval image equally often")
        rng = random.Random(s.seed)
        self.requests = []
        while len(self.requests) < s.size.cycle_requests:
            order = rng.sample(paths, len(paths))
            self.requests += [order[j:j + k] for j in range(0, len(order), k)]
        self.group = s.size.cycle_requests + 1
        if s.epsilon is None:  # a traced run builds the workload twice
            last_pass = self.requests[-(len(paths) // k):]
            s.epsilon = self.delta_f / operating_scale(s, last_pass, self.delta_f)
        self.epsilon = s.epsilon

    def cycle_dir(self, i: int) -> Path:
        return self.s.home / f"release-{i // self.group}"

    def op(self, i: int) -> tuple[int, bool]:
        s, out = self.s, self.cycle_dir(i)
        step = i % self.group
        if step < s.size.cycle_requests:
            paths = self.requests[step]
            s.cli("perturb", out, "--model", s.home / "model.dpim",
                  "--sensitivity", repr(self.delta_f), "--epsilon", repr(self.epsilon),
                  "--input", *paths)
            return len(paths), True
        s.cli("evaluate", out, "--model", s.home / "model.dpim",
              "--originals", s.home / "eval_originals", "--perturbed", out / "perturbed",
              "--corpus-dir", s.corpus, "--baselines")
        return 0, False

    def after(self, i: int) -> None:
        if (i + 1) % self.group:
            return
        s, out = self.s, self.cycle_dir(i)
        if not (out / "ledger.csv").exists():  # the failed requests are counted
            return
        images = sum(len(paths) for paths in self.requests)
        with open(out / "ledger.csv") as f:
            rows = list(csv.DictReader(f))
        s.check(len(rows) == images, f"ledger has {len(rows)} rows for {images} images")
        total = json.loads((out / "provenance_perturb.json").read_text())["extra"]["ledger_total"]
        s.check(math.isclose(total, images * self.epsilon, rel_tol=1e-9),
                f"ledger total {total} != {images} x {self.epsilon}")
        outputs = sorted((out / "perturbed").glob("*.pgm"))
        s.check(bool(outputs) and all(is_pgm(p, IMAGE_SIDE) for p in outputs),
                "a released image is not a 32x32 P5 PGM")
        s.digest("ledger.csv", out / "ledger.csv")
        s.quality["ledger_total"] = total
        self.check_table(out / "table.csv")
        shutil.rmtree(out)

    def check_table(self, path: Path) -> None:
        s = self.s
        if not path.exists():
            return
        with open(path) as f:
            rows = {r["method"]: r for r in csv.DictReader(f)}
        s.check(tuple(rows) == TABLE_ROWS, f"table rows {list(rows)}")
        if tuple(rows) == TABLE_ROWS:
            dp = float(rows["dp_image"]["iss"])
            for method in ("blur", "mosaic"):
                gap = abs(float(rows[method]["iss"]) - dp)
                s.check(gap <= 0.05, f"{method} ISS is {gap} from dp_image")
            s.quality["table_fed"] = {m: float(r["fed"]) for m, r in rows.items()}
        s.digest("table.csv", path)
        if s.tracer:
            s.tracer.counters["metrics.evaluate_pairs.useful"] += len(rows)


WORKLOADS = {"train": Train, "sweep": Sweep, "release": Release}


def loop(s: Harness, work, seconds: float | None = None, n_ops: int | None = None):
    """Closed loop: each operation starts when the previous one is checked.

    Runs whole groups of `work.group` operations until `seconds` have passed
    (at least one group), or exactly `n_ops` operations. Returns the wall
    times of the operations that are latency samples and of the others, the
    image work done and the number of operations.
    """
    latencies, others, images = [], [], 0
    start = time.perf_counter()
    i = 0

    def more() -> bool:
        if n_ops is not None:
            return i < n_ops
        return i % work.group or i == 0 or time.perf_counter() - start < seconds

    while more():
        span = s.tracer.span("op") if s.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            done, sampled = work.op(i)
        (latencies if sampled else others).append(time.perf_counter() - t0)
        images += done
        work.after(i)
        i += 1
    return latencies, others, images, i


# --- tracing ---------------------------------------------------------------

def install(tracer: Tracer, encoded: set) -> None:
    """Wrap every public function of each layer module, and METHODS.

    A function is replaced in every dpimage module that binds it, since the
    package imports names with `from .x import y`.
    """
    counters = tracer.counters

    def draws(args, kwargs):
        counters["numerics.rng.draws"] += int(args[1] if len(args) > 1 else kwargs["n"])

    def one_draw(args, kwargs):
        counters["numerics.rng.draws"] += 1

    def encode_input(args, kwargs):
        image = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["image"])
        encoded.add(hashlib.blake2b(image.tobytes(), digest_size=16).digest())

    def pairs(args, kwargs):
        counters["metrics.calibrate_threshold.pairs"] += len(args[1]) + len(args[2])

    def ledger_rows(args, kwargs):
        key = "privacy.ledger.entries"
        counters[key] = max(counters[key], len(args[0].entries))

    observers = {
        "numerics.rng_batch_u64": draws,
        "numerics.rng_next_u64": one_draw,
        "codec.encode": encode_input,
        "metrics.calibrate_threshold": pairs,
        "privacy.PrivacyBudgetLedger.save_csv": ledger_rows,
    }
    modules = [m for name, m in sys.modules.items() if name.startswith("dpimage.")]
    for layer in LAYERS:
        module = getattr(dpimage, layer)
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, observers.get(name))
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is fn:
                        tracer.patch(m, bound, wrapped)
    for owner, methods in METHODS.items():
        layer, cls_name = owner.split(".")
        cls = getattr(getattr(dpimage, layer), cls_name)
        for method in methods:
            name = f"{owner}.{method}"
            raw = vars(cls)[method]
            if isinstance(raw, classmethod):
                tracer.patch(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                tracer.patch(cls, method, tracer.wrap(name, raw, observers.get(name)))


STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "wall_s": "s",
              "us_per_call": "us", "ms_per_step": "ms"}

SPAN_STATS = [  # (span name, statistic) reported as "<span>.<statistic>"
    ("numerics.derive_stream", "calls"), ("numerics.derive_stream", "us_per_call"),
    ("numerics.sym_eigen", "calls"), ("numerics.sym_eigen", "busy_s"),
    ("data.generate_corpus", "busy_s"),
    ("data.read_pgm", "calls"), ("data.read_pgm", "busy_s"),
    ("data.write_pgm", "calls"), ("data.write_pgm", "busy_s"),
    ("codec.train", "busy_s"), ("codec.train", "self_s"),
    ("codec.loss_and_gradients", "calls"), ("codec.loss_and_gradients", "ms_per_step"),
    ("codec.align_identity_basis", "busy_s"),
    ("codec.encode", "calls"), ("codec.encode", "us_per_call"),
    ("codec.decode", "calls"), ("codec.decode", "us_per_call"),
    ("codec.load_model", "calls"), ("codec.load_model", "busy_s"),
    ("privacy.dp_image", "calls"), ("privacy.dp_image", "us_per_call"),
    ("privacy.perturb_latent", "calls"), ("privacy.perturb_latent", "us_per_call"),
    ("privacy.estimate_sensitivity", "busy_s"),
    ("metrics.ssim", "calls"), ("metrics.ssim", "us_per_call"),
    ("metrics.iss", "calls"), ("metrics.iss", "us_per_call"),
    ("metrics.calibrate_threshold", "busy_s"),
    ("metrics.evaluate_pairs", "calls"), ("metrics.evaluate_pairs", "busy_s"),
    ("metrics.blur_baseline", "busy_s"), ("metrics.mosaic_baseline", "busy_s"),
    ("metrics.fed", "busy_s"),
] + [(f"cli.{c}", stat) for c in COMMANDS for stat in ("wall_s", "self_s")]


def layer_metrics(tracer: Tracer, encoded: set, overhead_ratio: float) -> dict:
    """Per-layer metrics from the spans; 0 where a layer did no work.

    trace.attributed_ratio is the share of the traced operations' wall time
    that falls inside CLI spans; the rest is the loop's own code.
    """
    summary = tracer.summary()
    counters = tracer.counters

    def stat(span: str, key: str) -> float:
        rec = summary.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if key == "wall_s":
            return rec["busy_s"]
        if key == "us_per_call":
            return rec["busy_s"] / rec["calls"] * 1e6 if rec["calls"] else 0.0
        if key == "ms_per_step":
            return rec["busy_s"] / rec["calls"] * 1e3 if rec["calls"] else 0.0
        return rec[key]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {f"{span}.{key}": (stat(span, key), STAT_UNITS[key]) for span, key in SPAN_STATS}
    rng_s = stat("numerics.rng_batch_u64", "busy_s") + stat("numerics.rng_next_u64", "busy_s")
    ledger = "privacy.PrivacyBudgetLedger"
    out.update({
        "numerics.rng.draws": (counters["numerics.rng.draws"], "count"),
        "numerics.rng.draws_per_s": (ratio(counters["numerics.rng.draws"], rng_s), "1/s"),
        "codec.encode.calls_per_image": (ratio(stat("codec.encode", "calls"), len(encoded)), "ratio"),
        "privacy.ledger.entries": (counters["privacy.ledger.entries"], "count"),
        "privacy.ledger.load_s": (stat(f"{ledger}.load_csv", "busy_s"), "s"),
        "privacy.ledger.save_s": (stat(f"{ledger}.save_csv", "busy_s"), "s"),
        "metrics.calibrate_threshold.pairs": (counters["metrics.calibrate_threshold.pairs"], "count"),
        "metrics.evaluate_pairs.useful_ratio": (
            ratio(counters["metrics.evaluate_pairs.useful"], stat("metrics.evaluate_pairs", "calls")),
            "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.attributed_ratio": (
            ratio(stat("op", "busy_s") - stat("op", "self_s"), stat("op", "busy_s")), "ratio"),
    })
    return out


def platform_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(s: Harness, seconds: float, trace_out: Path | None) -> dict:
    encoded: set = set()
    if trace_out is not None:
        s.tracer = Tracer()
        install(s.tracer, encoded)
        with s.tracer.span("setup"):
            setup(s)
        s.tracer.uninstall()
        tracer, s.tracer = s.tracer, None
    work = WORKLOADS[s.workload](s)
    walls, others, images, n_ops = loop(s, work, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    model = s.home / "model.dpim"
    if model.exists():
        s.digest("model.dpim", model)
        s.quality["delta_f"] = s.delta_f()
        recon = recon_mse(s, model)
    else:
        recon = work.recon
    result = {
        "op_walls_s": walls, "other_walls_s": others, "images": images,
        "peak_rss_mb": peak_rss_mb,
        "recon_mse": recon, "platform": platform_record(),
    }
    if trace_out is not None:
        # the same operations again, traced, to attribute time to layers
        traced_work = WORKLOADS[s.workload](s)
        s.tracer = tracer
        install(tracer, encoded)
        with tracer.span("ops"):
            traced = loop(s, traced_work, n_ops=n_ops)
        tracer.uninstall()
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_out)
        overhead = sum(traced[0] + traced[1]) / sum(walls + others)
        result["layers"] = layer_metrics(tracer, encoded, overhead)
        result["spans"] = len(tracer.spans)
    result.update(attempted=s.attempted, failed=s.failed, problems=s.problems,
                  digests=s.digests, quality=s.quality)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--size", choices=sorted(SIZES), default="default")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    s = Harness(args.workload, SIZES[args.size], args.seed, args.dir)
    if args.mode == "setup":
        setup(s)
        if s.problems:
            print("; ".join(s.problems), file=sys.stderr)
            return 1
        return 0
    print(json.dumps(run(s, args.seconds, args.trace_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
