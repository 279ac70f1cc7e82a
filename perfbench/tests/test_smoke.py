"""Tiny-size runs of every workload through the benchmark's own command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# At tiny size the models are too weak for the paper's quality claims: the
# sweep trend and the table's ISS match may fail there, and only there.
QUALITY = ("mean ISS not decreasing", "FPPSR decreasing", "blur ISS is", "mosaic ISS is")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_contract_line(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    record = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["digests"]
    problems = record["problems"]
    assert all(p.startswith(QUALITY) for p in problems), problems
    assert result["correct"] == (not problems)
    if workload == "sweep":
        assert len(record["quality"]["sweep_iss"]) == 4
    if workload == "release":
        assert set(record["quality"]["table_fed"]) == {"blur", "mosaic", "dp_image"}
    assert not list((HERE / "work").glob(f"{workload}-seed3-*"))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
