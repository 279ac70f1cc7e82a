import functools
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dpimage
from dpimage import cli, codec, metrics, privacy
from dpimage.cli import _baseline_table, main
from dpimage.config import RunConfig, build_config, load_config_file, parse_levels
from dpimage.codec import decode, encode, encode_batch, load_model
from dpimage.data import load_manifest, read_pgm, write_csv, write_pgms
from dpimage.metrics import (
    Originals,
    blur_baseline,
    iss_scores,
    mosaic_baseline,
    ssim_reference,
)
from dpimage.numerics import derive_states, rng_uniform_rows
from dpimage.privacy import PrivacyBudgetLedger, PrivacyParams, full_mask, identity_mask, perturb_latents
from dpimage.errors import ConfigError
from support import calibrate_threshold, dp_image, l2_distances, perturb_latent


def run(*argv):
    return main([str(a) for a in argv])


def write_cfg(tmp_path, **kv):
    lines = ["# test config"]
    lines += [f"{k}={v}" for k, v in kv.items()]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def tiny_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        n_identities=4,
        samples_per_identity=5,
        epochs=3,
        sweep_repetitions=2,
        output_dir=tmp_path / "out",
    )


# opens a quoted field that runs past the csv module's field limit
OVERSIZED_LINE = '"' + "x" * 200_000 + "\r\n"


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfig:
    def test_defaults_documented(self):
        cfg = RunConfig()
        assert cfg.image_side == 32 and cfg.latent_dim == 32 and cfg.identity_len == 12

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epohcs=5\n")
        with pytest.raises(ConfigError, match="epohcs"):
            load_config_file(path)

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"# test config\nepochs=5\nseed=\xff\n")
        with pytest.raises(ConfigError, match="bad.cfg, line 3: byte 0xff is not UTF-8"):
            load_config_file(path)
        capsys.readouterr()
        assert run("generate", "--config", path) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:config: ") and "line 3" in err[0]

    def test_override_wins(self, tmp_path):
        path = write_cfg(tmp_path, epochs=7)
        cfg = build_config(path, {"epochs": "9"})
        assert cfg.epochs == 9

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(mask_mode="everything")
        with pytest.raises(ConfigError):
            RunConfig(sweep_levels="1.0,0.5")
        for levels in ("0,inf", "0,nan"):
            with pytest.raises(ConfigError, match="finite"):
                RunConfig(sweep_levels=levels)
        with pytest.raises(ConfigError):
            RunConfig(identity_len=64)

    def test_parse_levels(self):
        assert parse_levels("0,0.25,0.5,1.0") == (0.0, 0.25, 0.5, 1.0)

    def test_parser_built_once(self, tiny_cfg, monkeypatch):
        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert run("generate", "--config", tiny_cfg) == 0
        assert run("generate", "--config", tiny_cfg, "--seed", "1") == 0

    OWN_FLAGS = {
        "generate": set(),
        "train": {"--corpus-dir"},
        "sensitivity": {"--model", "--corpus-dir"},
        "perturb": {"--model", "--input"},
        "evaluate": {
            "--model", "--corpus-dir", "--originals", "--perturbed", "--threshold", "--baselines"
        },
        "sweep": {"--model", "--corpus-dir"},
    }

    @pytest.mark.parametrize("command", sorted(OWN_FLAGS))
    def test_subcommand_help_lists_shared_and_own_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z_-]*", capsys.readouterr().out))
        own = self.OWN_FLAGS[command]
        assert {"--config", "--seed", "--epochs"} | own <= listed
        others = set().union(*self.OWN_FLAGS.values()) - own
        assert not others & listed

    def test_sweep_spec_from_config(self, trained):
        cfg, out = trained
        assert run(
            "sweep", "--config", cfg, "--sweep_levels", "0, 1", "--sweep_repetitions", "1"
        ) == 0
        prov = json.loads((out / "provenance_sweep.json").read_text())
        assert prov["extra"]["levels"] == [0.0, 1.0] and prov["extra"]["repetitions"] == 1


class TestGenerate:
    def test_writes_corpus(self, tiny_cfg, tmp_path):
        assert run("generate", "--config", tiny_cfg) == 0
        corpus = tmp_path / "out" / "corpus"
        manifest = load_manifest(corpus / "manifest.csv")
        assert len(manifest) == 20
        assert all((corpus / r.path).exists() for r in manifest)
        prov = json.loads((tmp_path / "out" / "provenance_generate.json").read_text())
        assert prov["command"] == "generate"
        assert prov["config"]["n_identities"] == 4

    def test_unwritable_record_prints_no_summary(self, tiny_cfg, tmp_path, capsys):
        # the provenance record is written before the summary is printed
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "provenance_generate.json").mkdir()
        assert run("generate", "--config", tiny_cfg) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:validation: ")
        assert captured.out == ""

    def test_rerun_identical_bytes(self, tiny_cfg, tmp_path):
        assert run("generate", "--config", tiny_cfg) == 0
        first = tree_bytes(tmp_path / "out")
        assert run("generate", "--config", tiny_cfg) == 0
        assert tree_bytes(tmp_path / "out") == first

    def test_unknown_config_key_fails(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key=1\n")
        assert run("generate", "--config", bad) == 1


class TestTrain:
    def test_train_outputs(self, tiny_cfg, tmp_path):
        assert run("generate", "--config", tiny_cfg) == 0
        assert run("train", "--config", tiny_cfg) == 0
        out = tmp_path / "out"
        assert (out / "model.dpim").exists()
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 4  # header + 3 epochs
        extra = json.loads((out / "provenance_train.json").read_text())["extra"]
        assert extra == {"final_loss": float(trace[-1].split(",")[1]), "train_dtype": "float32"}

    def test_epochs_zero_rejected(self, tiny_cfg):
        assert run("train", "--config", tiny_cfg, "--epochs", "0") == 1

    @pytest.mark.parametrize(
        "flag, value", [("batch_size", "0"), ("momentum", "1"), ("learning_rate", "0")]
    )
    def test_bad_optimizer_setting_is_config_error(self, tiny_cfg, tmp_path, capsys, flag, value):
        assert run("generate", "--config", tiny_cfg) == 0
        capsys.readouterr()
        assert run("train", "--config", tiny_cfg, f"--{flag}", value) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error:config: {flag} ")
        assert not (tmp_path / "out" / "model.dpim").exists()

    def test_deterministic_model_bytes(self, tiny_cfg, tmp_path):
        assert run("generate", "--config", tiny_cfg) == 0
        assert run("train", "--config", tiny_cfg) == 0
        first = (tmp_path / "out" / "model.dpim").read_bytes()
        assert run("train", "--config", tiny_cfg) == 0
        assert (tmp_path / "out" / "model.dpim").read_bytes() == first


@pytest.fixture()
def trained(tiny_cfg, tmp_path):
    assert run("generate", "--config", tiny_cfg) == 0
    assert run("train", "--config", tiny_cfg) == 0
    return tiny_cfg, tmp_path / "out"


class TestSensitivity:
    def test_outputs(self, trained):
        cfg, out = trained
        assert run("sensitivity", "--config", cfg) == 0
        delta_f = float((out / "delta_f.txt").read_text())
        assert delta_f > 0
        hist = (out / "sensitivity_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_low,bin_high,count"
        heat = (out / "sensitivity_heatmap.csv").read_text().splitlines()
        assert heat[0] == "i,j,distance"
        diag = [line for line in heat[1:] if line.split(",")[0] == line.split(",")[1]]
        assert all(float(line.split(",")[2]) == 0.0 for line in diag)

    def test_csv_contents(self, tmp_path):
        # 12 identities x 5 samples: 24 eval images, so the heatmap's cut at
        # the first 20 is exercised
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path, n_identities=12, samples_per_identity=5, epochs=2, output_dir=out
        )
        for command in ("generate", "train", "sensitivity"):
            assert run(command, "--config", cfg) == 0

        def csv_rows(name):
            return [line.split(",") for line in (out / name).read_text().splitlines()[1:]]

        z = np.loadtxt(out / "latents.csv", delimiter=",", skiprows=1)
        dist = np.array([[np.sum(np.abs(b - a)) for b in z] for a in z])
        n = len(z)
        hist = csv_rows("sensitivity_histogram.csv")
        edges = [float(row[0]) for row in hist] + [float(hist[-1][1])]
        counts = [int(row[2]) for row in hist]
        assert sum(counts) == n * (n - 1) // 2
        expected, _ = np.histogram(dist[np.triu_indices(n, k=1)], bins=edges)
        assert counts == expected.tolist()
        assert edges[-1] == float((out / "delta_f.txt").read_text())

        manifest = load_manifest(out / "corpus" / "manifest.csv")
        eval_index = [i for i, r in enumerate(manifest) if r.split == "eval"]
        assert len(eval_index) == 24
        eval_index = eval_index[:20]
        heat = csv_rows("sensitivity_heatmap.csv")
        cells = [(i, j) for i in range(20) for j in range(20)]
        assert [(int(i), int(j)) for i, j, _ in heat] == cells
        got = np.array([float(d) for _, _, d in heat]).reshape(20, 20)
        assert np.array_equal(got, dist[np.ix_(eval_index, eval_index)])

    def test_latent_exports(self, trained):
        cfg, out = trained
        assert run("sensitivity", "--config", cfg) == 0
        manifest = load_manifest(out / "corpus" / "manifest.csv")
        images = [read_pgm(out / "corpus" / r.path) for r in manifest]
        expected = encode_batch(load_model(out / "model.dpim"), images)
        lines = (out / "latents.csv").read_text().splitlines()
        assert lines[0] == ",".join(f"z{i}" for i in range(expected.shape[1]))
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got, expected)
        assert sorted(p.name for p in out.glob("latents.*")) == ["latents.csv"]


class TestPerturb:
    def test_requires_sensitivity(self, trained):
        cfg, out = trained
        assert run("perturb", "--config", cfg, "--input", out / "corpus") == 1

    def test_clip_mode_works_without_estimate(self, trained):
        cfg, out = trained
        code = run(
            "perturb", "--config", cfg, "--input", out / "corpus",
            "--sensitivity_mode", "clip", "--clip_radius", "4.0",
        )
        assert code == 0
        files = sorted((out / "perturbed").glob("*.pgm"))
        assert len(files) == 20

    def test_ledger_accumulates(self, trained):
        cfg, out = trained
        assert run("sensitivity", "--config", cfg) == 0
        assert run(
            "perturb", "--config", cfg, "--input", out / "corpus", "--epsilon", "0.5"
        ) == 0
        ledger = (out / "ledger.csv").read_text().splitlines()
        assert len(ledger) == 21  # header + one release per image
        prov = json.loads((out / "provenance_perturb.json").read_text())
        assert prov["extra"]["ledger_total"] == pytest.approx(0.5 * 20)

    def test_ledger_appends_equal_full_write(self, trained, tmp_path):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        whole = PrivacyBudgetLedger()
        for epsilon, request in ((0.5, corpus[:3]), (0.25, corpus[3:10]), (2.0, corpus[10:12])):
            assert run(
                "perturb", "--config", cfg, "--sensitivity", "5.0", "--epsilon", epsilon,
                "--input", *request,
            ) == 0
            for p in request:
                whole.record(p.name, epsilon, group="corpus")
        whole.save_csv(tmp_path / "whole.csv")
        assert (out / "ledger.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        prov = json.loads((out / "provenance_perturb.json").read_text())
        assert prov["extra"]["ledger_total"] == whole.total()

    def test_deterministic(self, trained, tmp_path):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))[:4]
        releases = []
        for dst in ("first", "second"):
            pair = []
            for _ in range(2):
                assert run(
                    "perturb", "--config", cfg, "--model", out / "model.dpim",
                    "--sensitivity", "5.0", "--output_dir", tmp_path / dst, "--input", *corpus,
                ) == 0
                pair.append(tree_bytes(tmp_path / dst / "perturbed"))
            releases.append(pair)
        assert releases[0] == releases[1]
        # a repeated request is a new release: fresh noise for every image
        first, second = releases[0]
        assert len(first) == 4 and all(second[name] != blob for name, blob in first.items())

    def test_bytes_independent_of_batch_mates(self, trained, tmp_path):
        cfg, out = trained
        request = tmp_path / "request"
        larger = tmp_path / "larger"
        request.mkdir()
        larger.mkdir()
        corpus = sorted((out / "corpus").glob("*.pgm"))
        assert len(corpus) == 20
        for p in corpus:
            (request / p.name).write_bytes(p.read_bytes())
            (larger / p.name).write_bytes(p.read_bytes())
        for k, p in enumerate(corpus[:5]):  # names sort after the request's
            (larger / f"zz_extra_{k}.pgm").write_bytes(p.read_bytes())
        for src, dst in ((request, "out_request"), (larger, "out_larger")):
            (tmp_path / dst).mkdir()
            earlier = PrivacyBudgetLedger()  # three releases made before this request
            for k in range(3):
                earlier.record(f"earlier_{k}.pgm", 1.0, group="corpus")
            earlier.save_csv(tmp_path / dst / "ledger.csv")
            assert run(
                "perturb", "--config", cfg, "--model", out / "model.dpim", "--input", src,
                "--sensitivity", "5.0", "--output_dir", tmp_path / dst,
            ) == 0
        alone = tree_bytes(tmp_path / "out_request" / "perturbed")
        with_extra = tree_bytes(tmp_path / "out_larger" / "perturbed")
        assert len(alone) == 20 and len(with_extra) == 25
        assert all(with_extra[name] == blob for name, blob in alone.items())
        # the stream address is (seed, 2, ledger row of the release)
        model = load_model(out / "model.dpim")
        params = PrivacyParams(epsilon=1.0, sensitivity=5.0, mask=full_mask(model.latent_dim))
        for k in (0, 17):
            y, _ = dp_image(model, read_pgm(corpus[k]), params, derive_states(0, 2, 3 + k))
            write_pgms([y], [tmp_path / "expected.pgm"])
            assert alone[corpus[k].name] == (tmp_path / "expected.pgm").read_bytes()

    def test_split_request_equals_one_request(self, trained, tmp_path):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        for dst, requests in (("whole", [corpus]), ("split", [corpus[:10], corpus[10:]])):
            for request in requests:
                assert run(
                    "perturb", "--config", cfg, "--model", out / "model.dpim", "--input", *request,
                    "--sensitivity", "5.0", "--epsilon", "0.5", "--output_dir", tmp_path / dst,
                ) == 0
        whole, split = tmp_path / "whole", tmp_path / "split"
        assert len(tree_bytes(whole / "perturbed")) == 20
        assert tree_bytes(split / "perturbed") == tree_bytes(whole / "perturbed")
        assert (split / "ledger.csv").read_bytes() == (whole / "ledger.csv").read_bytes()
        extra = json.loads((split / "provenance_perturb.json").read_text())["extra"]
        assert extra["first_ledger_row"] == 10 and extra["ledger_rows"] == 20
        assert extra["epsilon_per_l1"] == 0.5 / 5.0

    def test_checkpointed_requests_equal_full_parses(self, trained, tmp_path, monkeypatch):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        requests = [
            (corpus[:3], ("--epsilon", "0.1")),
            (corpus[3:10], ("--epsilon", "0.25", "--mask_mode", "identity_only")),
            (corpus[10:12], ("--epsilon", "0.3")),
            (corpus[:5], ("--epsilon", "0.1")),
        ]
        calls = []
        parse = privacy._parse_rows
        monkeypatch.setattr(privacy, "_parse_rows", lambda *a: calls.append(a) or parse(*a))
        results = {}
        for dst in ("checkpoint", "parsed"):
            calls.clear()
            records = []
            for request, flags in requests:
                if dst == "parsed":
                    (tmp_path / dst / "provenance_perturb.json").unlink(missing_ok=True)
                assert run(
                    "perturb", "--config", cfg, "--model", out / "model.dpim", "--sensitivity",
                    "5.0", "--output_dir", tmp_path / dst, *flags, "--input", *request,
                ) == 0
                prov = json.loads((tmp_path / dst / "provenance_perturb.json").read_text())
                records.append(prov["extra"])
            ledger = (tmp_path / dst / "ledger.csv").read_bytes()
            results[dst] = records, ledger, tree_bytes(tmp_path / dst / "perturbed"), len(calls)
        assert results["checkpoint"][:3] == results["parsed"][:3]
        assert [r["first_ledger_row"] for r in results["parsed"][0]] == [0, 3, 10, 12]
        # with a matching checkpoint no request parses a row; without one, each does
        assert results["checkpoint"][3] == 0 and results["parsed"][3] == len(requests) - 1

    @pytest.mark.parametrize(
        "damage", ["truncated", "no_keys", "wrong_types", "older_sums", "older_record"]
    )
    def test_unverified_provenance_falls_back_to_full_parse(self, trained, tmp_path, damage):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        requests = [(corpus[:3], "0.5"), (corpus[3:10], "0.25"), (corpus[10:12], "2.0")]
        results = {}
        for dst in ("damaged", "parsed"):
            prov = tmp_path / dst / "provenance_perturb.json"
            for k, (request, epsilon) in enumerate(requests):
                if k == 1:
                    older = json.loads(prov.read_text())["extra"]
                if k == 2 and dst == "parsed":
                    prov.unlink()
                elif k == 2:
                    record = json.loads(prov.read_text())
                    extra = record["extra"]
                    if damage == "no_keys":
                        for key in ("ledger_rows", "ledger_sums", "ledger_digest"):
                            del extra[key]
                    elif damage == "wrong_types":
                        extra["ledger_rows"] = str(extra["ledger_rows"])
                        extra["ledger_sums"] = list(extra["ledger_sums"].values())
                    elif damage == "older_sums":  # the current digest, an older request's sums
                        extra["ledger_sums"] = older["ledger_sums"]
                    elif damage == "older_record":
                        record["extra"] = older
                    blob = json.dumps(record, indent=2, sort_keys=True).encode()
                    if damage == "truncated":
                        blob = prov.read_bytes()[: len(blob) // 2]
                    prov.write_bytes(blob)
                assert run(
                    "perturb", "--config", cfg, "--model", out / "model.dpim", "--sensitivity",
                    "5.0", "--epsilon", epsilon, "--output_dir", tmp_path / dst,
                    "--input", *request,
                ) == 0
            ledger = (tmp_path / dst / "ledger.csv").read_bytes()
            results[dst] = json.loads(prov.read_text())["extra"], ledger, tree_bytes(
                tmp_path / dst / "perturbed"
            )
        assert results["damaged"] == results["parsed"]
        extra = results["parsed"][0]
        assert extra["first_ledger_row"] == 10 and extra["ledger_rows"] == 12
        assert extra["ledger_total"] == 3 * 0.5 + 7 * 0.25 + 2 * 2.0

    def test_identity_only_mask(self, trained):
        cfg, out = trained
        assert run("sensitivity", "--config", cfg) == 0
        code = run(
            "perturb", "--config", cfg, "--input", out / "corpus",
            "--mask_mode", "identity_only",
        )
        assert code == 0
        ledger = (out / "ledger.csv").read_text()
        assert "partial-coordinate" in ledger

class TestEvaluateAndSweep:
    def test_evaluate_identity_pairs(self, trained):
        cfg, out = trained
        code = run(
            "evaluate", "--config", cfg,
            "--originals", out / "corpus", "--perturbed", out / "corpus",
        )
        assert code == 0
        per_image = (out / "per_image.csv").read_text().splitlines()
        assert len(per_image) == 21
        agg = dict(
            line.split(",") for line in (out / "aggregate.csv").read_text().splitlines()[1:]
        )
        assert float(agg["mean_l2"]) == 0.0
        assert float(agg["mean_iss"]) == 1.0
        assert float(agg["fppsr"]) == 0.0

    def test_evaluate_misaligned_rejected(self, trained, tmp_path):
        cfg, out = trained
        other = tmp_path / "half"
        other.mkdir()
        src = sorted((out / "corpus").glob("*.pgm"))[:3]
        for p in src:
            (other / p.name).write_bytes(p.read_bytes())
        assert run(
            "evaluate", "--config", cfg, "--originals", out / "corpus", "--perturbed", other
        ) == 1

    def test_evaluate_baselines_table(self, trained):
        cfg, out = trained
        assert run("sensitivity", "--config", cfg) == 0
        assert run("perturb", "--config", cfg, "--input", out / "corpus") == 0
        code = run(
            "evaluate", "--config", cfg,
            "--originals", out / "corpus", "--perturbed", out / "perturbed", "--baselines",
        )
        assert code == 0
        table = (out / "table.csv").read_text().splitlines()
        assert table[0] == "method,l2,ald_inf,ssim,iss,fed,fppsr"
        methods = [line.split(",")[0] for line in table[1:]]
        assert methods == ["blur", "mosaic", "dp_image"]

    def test_baseline_search_matches_full_metric_search(self, trained):
        cfg, out = trained
        assert run(
            "perturb", "--config", cfg, "--sensitivity", "5.0", "--input", out / "corpus"
        ) == 0
        model = load_model(out / "model.dpim")
        pairs = [
            (p.name, read_pgm(p), read_pgm(out / "perturbed" / p.name))
            for p in sorted((out / "corpus").glob("*.pgm"))
        ]
        names, x, y = zip(*pairs)  # sorted by name, as cmd_evaluate orders them
        originals = Originals(model, x)
        dp_report = originals.report(y, 0.9, names)
        rows, notes = _baseline_table(originals, dp_report)
        sigma, block, expected = full_metric_search(model, pairs, dp_report, 0.9)
        assert (notes["blur_sigma"], notes["mosaic_block"]) == (sigma, block)
        assert rows == expected

    def test_sweep_outputs(self, trained):
        cfg, out = trained
        assert run("sweep", "--config", cfg, "--sweep_levels", "0,0.5") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "level,mean_iss,mean_fppsr,mean_l2,mean_ssim"
        assert len(lines) == 3
        levels = [float(line.split(",")[0]) for line in lines[1:]]
        assert levels == [0.0, 0.5]

    def test_sweep_values_equal_one_task_at_a_time(self, tiny_cfg):
        out = tiny_cfg.parent / "out"
        assert run("generate", "--config", tiny_cfg) == 0
        assert run("train", "--config", tiny_cfg, "--epochs", "20") == 0
        assert run(
            "sweep", "--config", tiny_cfg, "--sweep_levels", "0,0.5", "--sweep_repetitions", "3"
        ) == 0
        model = load_model(out / "model.dpim")
        n_id = model.identity_len
        rows = load_manifest(out / "corpus" / "manifest.csv")
        x_eval = [read_pgm(out / "corpus" / r.path) for r in rows if r.split == "eval"]
        tau = json.loads((out / "provenance_sweep.json").read_text())["extra"]["threshold"]
        expected = []
        for level_index, level in enumerate((0.0, 0.5)):
            params = PrivacyParams(1.0, level, full_mask(32))
            scores = []  # in (repetition, image) order
            for rep in range(3):
                for image, x in enumerate(x_eval):
                    z = encode(model, x)
                    stream = derive_states(0, 3, level_index, rep, image)  # sweep's streams
                    y = decode(model, perturb_latent(z, params, stream)[0])
                    iss = iss_scores(z[:n_id], encode(model, y)[:n_id])
                    scores.append((iss, l2_distances(x[None], y[None])[0], ssim_reference(x)(y)))
            iss, l2, ssim = (np.array(column) for column in zip(*scores))
            means = (level, iss.mean(), np.mean(iss < tau), l2.mean(), ssim.mean())
            expected.append(",".join(repr(float(v)) for v in means))
        assert (out / "sweep.csv").read_text().splitlines()[1:] == expected

    def test_noise_free_levels_equal_one_task_at_a_time(self, trained):
        # levels at scale 0 are scored once and counted per repetition; clip
        # mode and the identity mask must not make the repetitions differ
        cfg, out = trained
        assert run(
            "sweep", "--config", cfg, "--sensitivity_mode", "clip", "--clip_radius", "2",
            "--mask_mode", "identity_only", "--sweep_levels", "0,0,0.5", "--sweep_repetitions", "3",
        ) == 0
        model = load_model(out / "model.dpim")
        n_id = model.identity_len
        mask = identity_mask(model.latent_dim, n_id)
        rows = load_manifest(out / "corpus" / "manifest.csv")
        x_eval = [read_pgm(out / "corpus" / r.path) for r in rows if r.split == "eval"]
        tau = json.loads((out / "provenance_sweep.json").read_text())["extra"]["threshold"]
        expected = []
        for level_index, level in enumerate((0.0, 0.0, 0.5)):
            params = PrivacyParams(1.0, level, mask, clip_radius=2.0)
            scores = []  # in (repetition, image) order
            for rep in range(3):
                for image, x in enumerate(x_eval):
                    z = encode(model, x)
                    stream = derive_states(0, 3, level_index, rep, image)  # sweep's streams
                    y = decode(model, perturb_latent(z, params, stream)[0])
                    iss = iss_scores(z[:n_id], encode(model, y)[:n_id])
                    scores.append((iss, l2_distances(x[None], y[None])[0], ssim_reference(x)(y)))
            iss, l2, ssim = (np.array(column) for column in zip(*scores))
            means = (level, iss.mean(), np.mean(iss < tau), l2.mean(), ssim.mean())
            expected.append(",".join(repr(float(v)) for v in means))
        assert (out / "sweep.csv").read_text().splitlines()[1:] == expected

    def test_sweep_counts_releases_scored(self, tmp_path):
        # the quick pipeline's corpus and levels: 32 eval images, one draw at
        # level 0 and five at each noisy level
        cfg = write_cfg(
            tmp_path, n_identities=16, samples_per_identity=6, epochs=1,
            sweep_repetitions=5, sweep_levels="0,2,4,8", output_dir=tmp_path / "out",
        )
        assert run("generate", "--config", cfg) == 0
        assert run("train", "--config", cfg) == 0
        assert run("sweep", "--config", cfg) == 0
        extra = json.loads((tmp_path / "out" / "provenance_sweep.json").read_text())["extra"]
        assert extra["releases_scored"] == (1 + 3 * 5) * 32 == 512

    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize(
        "mode",
        [(), ("--sensitivity_mode", "clip", "--clip_radius", "2", "--mask_mode", "identity_only")],
        ids=["default", "clip_identity_only"],
    )
    @pytest.mark.parametrize("levels", ["0,0.25,0.5,1,2", "0.25,0.5,4"])
    def test_one_stream_equals_a_score_call_per_level(self, trained, reps, mode, levels):
        # every level's releases are scored as one stream; the file must keep
        # the bytes of one score_latents call per level and count the same
        # releases. 8 eval images: at 3 repetitions either stream takes two
        # passes, which levels share
        cfg, out = trained
        argv = ("--config", cfg, "--sweep_levels", levels, "--sweep_repetitions", reps, *mode)
        assert run("sweep", *argv) == 0
        config = build_config(cfg, {k.lstrip("-"): str(v) for k, v in zip(argv[2::2], argv[3::2])})
        model = load_model(out / "model.dpim")
        identity_ids, x_eval = cli._eval_split(out / "corpus")
        originals = Originals(model, x_eval)
        tau = cli._calibrated_tau(identity_ids, originals.embeddings)
        image, results, releases = np.arange(len(x_eval)), [], 0
        for level_index, level in enumerate(parse_levels(levels)):
            params = cli._privacy_params(config, model, 1.0, level)
            draws = reps if params.scale > 0 else 1
            rep = np.arange(draws)[:, None]
            states = derive_states(config.seed, cli._STREAM_SWEEP, level_index, rep, image)
            u = rng_uniform_rows(states, params.n_noisy)
            noisy = perturb_latents(np.tile(originals.latents, (draws, 1)), params, u)
            releases += len(noisy)
            iss, l2, ssim = (np.tile(v, reps // draws) for v in originals.score_latents(noisy))
            means = (iss.mean(), np.mean(iss < tau), l2.mean(), ssim.mean())
            results.append((level, *map(float, means)))
        header = ("level", "mean_iss", "mean_fppsr", "mean_l2", "mean_ssim")
        write_csv(out / "per_level.csv", header, results)
        assert (out / "sweep.csv").read_bytes() == (out / "per_level.csv").read_bytes()
        extra = json.loads((out / "provenance_sweep.json").read_text())["extra"]
        assert extra["releases_scored"] == releases

    def test_sweep_measures_clip_mode(self, trained):
        cfg, out = trained
        assert run("sweep", "--config", cfg, "--sweep_levels", "0") == 0
        unclipped = (out / "sweep.csv").read_text()
        assert run(
            "sweep", "--config", cfg, "--sweep_levels", "0",
            "--sensitivity_mode", "clip", "--clip_radius", "0.5",
        ) == 0
        # level 0 adds no noise, so only the clipping can move the row
        assert (out / "sweep.csv").read_text() != unclipped

    def test_sweep_consumes_no_budget(self, trained):
        cfg, out = trained
        assert run("sweep", "--config", cfg, "--sweep_levels", "0", "--sweep_repetitions", "1") == 0
        assert not (out / "ledger.csv").exists()

    def test_threshold_outside_unit_interval_rejected(self, trained, capsys):
        cfg, out = trained
        capsys.readouterr()
        code = run(
            "evaluate", "--config", cfg,
            "--originals", out / "corpus", "--perturbed", out / "corpus", "--threshold", "5",
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "threshold" in err[0]
        assert not (out / "aggregate.csv").exists()

    def test_threshold_override(self, trained):
        cfg, out = trained
        code = run(
            "evaluate", "--config", cfg,
            "--originals", out / "corpus", "--perturbed", out / "corpus",
            "--threshold", "0.5",
        )
        assert code == 0
        agg = dict(
            line.split(",") for line in (out / "aggregate.csv").read_text().splitlines()[1:]
        )
        assert float(agg["threshold"]) == 0.5


    def test_originals_encoded_once(self, trained, monkeypatch):
        cfg, out = trained
        assert run(
            "perturb", "--config", cfg, "--sensitivity", "5.0", "--input", out / "corpus"
        ) == 0
        corpus = np.stack([read_pgm(p) for p in sorted((out / "corpus").glob("*.pgm"))])
        rows = load_manifest(out / "corpus" / "manifest.csv")
        x_eval = np.stack([read_pgm(out / "corpus" / r.path) for r in rows if r.split == "eval"])
        passes = Counter()  # encoder passes by the bytes of the stack they encode
        forward = codec._forward

        def counted(model, x, encoder):
            if encoder:
                passes[x.tobytes()] += 1
            return forward(model, x, encoder)

        monkeypatch.setattr(codec, "_forward", counted)
        assert run(
            "evaluate", "--config", cfg,
            "--originals", out / "corpus", "--perturbed", out / "perturbed", "--baselines",
        ) == 0
        # mosaic block 1 leaves every image as it is; the table search scores
        # it from the originals' own embeddings
        assert passes[corpus.tobytes()] == 1
        passes.clear()
        assert run("sweep", "--config", cfg, "--sweep_levels", "0,0.5") == 0
        assert passes[x_eval.tobytes()] == 1

    def test_cli_tau_equals_calibrate_threshold(self, trained):
        cfg, out = trained
        corpus_dir = out / "corpus"
        eval_rows = [r for r in load_manifest(corpus_dir / "manifest.csv") if r.split == "eval"]
        genuine, impostor = [], []
        for i, a in enumerate(eval_rows):
            for b in eval_rows[i + 1 :]:
                pair = (read_pgm(corpus_dir / a.path), read_pgm(corpus_dir / b.path))
                (genuine if a.identity_id == b.identity_id else impostor).append(pair)
        tau = calibrate_threshold(load_model(out / "model.dpim"), genuine, impostor, 95.0).tau
        assert run("sweep", "--config", cfg, "--sweep_levels", "0", "--sweep_repetitions", "1") == 0
        assert run(
            "evaluate", "--config", cfg, "--originals", corpus_dir, "--perturbed", corpus_dir
        ) == 0
        for command in ("sweep", "evaluate"):
            extra = json.loads((out / f"provenance_{command}.json").read_text())["extra"]
            assert extra["threshold"] == tau

    def test_report_csv_rows(self, trained):
        cfg, out = trained
        assert run(
            "perturb", "--config", cfg, "--sensitivity", "5.0", "--input", out / "corpus"
        ) == 0
        assert run(
            "evaluate", "--config", cfg,
            "--originals", out / "corpus", "--perturbed", out / "perturbed",
        ) == 0
        names = sorted(p.name for p in (out / "corpus").glob("*.pgm"))
        per_image = (out / "per_image.csv").read_text().splitlines()
        assert per_image[0] == "image_id,l2,ald_inf,ssim,iss"
        assert [line.split(",")[0] for line in per_image[1:]] == names  # one row each, sorted
        aggregate = [line.split(",") for line in (out / "aggregate.csv").read_text().splitlines()]
        assert aggregate[0] == ["metric", "value"]
        assert [name for name, _ in aggregate[1:]] == [
            "mean_l2", "mean_ald_inf", "mean_ssim", "mean_iss", "fed", "fppsr", "threshold"
        ]

    def test_fed_ranking_needs_two_pairs(self, trained, tmp_path, capsys):
        cfg, out = trained
        one = tmp_path / "one"
        one.mkdir()
        image = sorted((out / "corpus").glob("*.pgm"))[0]
        (one / image.name).write_bytes(image.read_bytes())
        assert run(
            "perturb", "--config", cfg, "--sensitivity", "5.0", "--input", one / image.name
        ) == 0
        capsys.readouterr()
        assert run(
            "evaluate", "--config", cfg, "--threshold", "0.5",
            "--originals", one, "--perturbed", out / "perturbed", "--baselines",
        ) == 0
        table = (out / "table.csv").read_text().splitlines()[1:]
        assert all(math.isnan(float(line.split(",")[5])) for line in table)
        notes = json.loads((out / "provenance_evaluate.json").read_text())["extra"]
        ranking = notes["baseline_notes"]["fed_ranking"]
        assert ranking == "FED undefined with fewer than 2 pairs; no ranking"
        assert ranking in capsys.readouterr().out


class TestSweepWorkers:
    """The sweep scores on up to two threads (two CPUs here); public
    functions, which a tracer may wrap, run on the calling thread only."""

    REPS = 40  # 8 eval images: 8 + 3 x 320 rows, 16 passes in one stream

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_public_functions_run_on_the_calling_thread(self, trained, monkeypatch, watch_passes):
        cfg, out = trained
        callers = Counter()  # calls of public functions by thread id

        def recorded(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                callers[threading.get_ident()] += 1
                return fn(*args, **kwargs)

            return wrapper

        # every public function of each layer module, in every dpimage module
        # that binds it, as perfbench's tracer wraps them
        modules = [m for name, m in sys.modules.items() if name.startswith("dpimage.")]
        for layer in ("numerics", "data", "codec", "privacy", "metrics"):
            module = getattr(dpimage, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = recorded(fn)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            monkeypatch.setattr(m, bound, wrapped)
        workers = watch_passes()
        assert run("sweep", "--config", cfg, "--sweep_repetitions", self.REPS) == 0
        # the calling thread and the one other worker scored passes
        assert threading.current_thread().name in workers and len(set(workers)) > 1
        assert set(callers) == {threading.get_ident()}

    def test_worker_error_exits_1_with_one_error_line(self, trained, watch_passes, capsys):
        cfg, out = trained
        calls = watch_passes(fail_on=2, error=ValueError("second pass failed"))
        capsys.readouterr()
        assert run("sweep", "--config", cfg, "--sweep_repetitions", self.REPS) == 1
        assert capsys.readouterr().err.splitlines() == ["error:validation: second pass failed"]
        assert len(set(calls)) == 2
        assert not (out / "sweep.csv").exists()

    def test_cli_import_loads_no_executor_or_logging(self):
        # threads come from threading, which numpy loads anyway; an executor
        # would pull logging, queue and traceback into every command
        src = Path(dpimage.__file__).resolve().parents[1]
        code = "import sys, dpimage.cli; print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


class TestOutputFiles:
    def test_csv_outputs_end_lines_in_lf_and_match_the_readme(self, trained):
        cfg, out = trained
        assert run("sensitivity", "--config", cfg) == 0
        assert run("perturb", "--config", cfg, "--input", out / "corpus") == 0
        assert run(
            "evaluate", "--config", cfg,
            "--originals", out / "corpus", "--perturbed", out / "perturbed", "--baselines",
        ) == 0
        assert run("sweep", "--config", cfg, "--sweep_levels", "0,0.5") == 0
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        # the File formats section names each report as `name.csv` (`header`)
        documented = dict(re.findall(r"`(\w+\.csv)`\s+\(`([^`]+)`", readme))
        m = RunConfig().latent_dim
        written = {p.name: p.read_bytes() for p in out.rglob("*.csv") if p.name != "ledger.csv"}
        assert sorted(written) == sorted(set(documented) - {"ledger.csv"})
        for name, blob in written.items():
            assert b"\r" not in blob, name
            header = documented[name].replace("z0,...,z{m-1}", ",".join(f"z{i}" for i in range(m)))
            assert blob.decode().split("\n")[0] == header, name


def full_metric_search(model, pairs, dp_report, threshold):
    """The table search that scored every metric of every candidate, one image at a time."""
    names, x, _ = zip(*pairs)

    def report(transform):
        return Originals(model, x).report([transform(xi) for xi in x], threshold, names)

    def closer(best, rep):
        return best is None or abs(rep.mean_iss - target) < abs(best[1].mean_iss - target)

    target = dp_report.mean_iss
    lo, hi = 0.05, 16.0
    best_blur = None
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        radius = max(1, int(math.ceil(3.0 * mid)))
        rep = report(lambda x: blur_baseline(x, mid, radius))
        if closer(best_blur, rep):
            best_blur = (mid, rep)
        if rep.mean_iss > target:
            lo = mid
        else:
            hi = mid
    best_mosaic = None
    for block in range(1, pairs[0][1].shape[0] + 1):
        rep = report(lambda x: mosaic_baseline(x, block))
        if closer(best_mosaic, rep):
            best_mosaic = (block, rep)
    rows = [
        (name, r.mean_l2, r.mean_ald_inf, r.mean_ssim, r.mean_iss, r.fed, r.fppsr)
        for name, r in (("blur", best_blur[1]), ("mosaic", best_mosaic[1]), ("dp_image", dp_report))
    ]
    return best_blur[0], best_mosaic[0], rows


class TestErrorReporting:
    @pytest.mark.parametrize("command", ["perturb", "sweep"])
    @pytest.mark.parametrize("flag, value", [("--identity_len", "4"), ("--latent_dim", "16")])
    def test_identity_only_mask_of_another_model_is_config_error(
        self, trained, capsys, command, flag, value
    ):
        # the model's identity block is 12 of 32 coordinates: ISS and FPPSR read
        # that block, so a mask of any other shape would noise the wrong one
        cfg, out = trained
        inputs = ("--sensitivity", "5.0", "--input", out / "corpus") if command == "perturb" else ()
        capsys.readouterr()
        code = run(command, "--config", cfg, "--mask_mode", "identity_only", flag, value, *inputs)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error:config: ")
        configured = (16, 12) if flag == "--latent_dim" else (32, 4)
        assert str(configured) in err[0] and "(32, 12)" in err[0]
        assert not any((out / name).exists() for name in ("ledger.csv", "perturbed", "sweep.csv"))

    @pytest.mark.parametrize("command", ["perturb", "sweep"])
    def test_full_mask_of_another_latent_dim_is_config_error(self, trained, capsys, command):
        # the full mask noises every model coordinate: a config latent_dim
        # other than the model's fails before anything is released or charged
        cfg, out = trained
        inputs = ("--sensitivity", "5.0", "--input", out / "corpus")
        assert run("perturb", "--config", cfg, *inputs) == 0
        ledger = (out / "ledger.csv").read_bytes()
        released = {p.name: p.read_bytes() for p in (out / "perturbed").iterdir()}
        capsys.readouterr()
        code = run(command, "--config", cfg, "--latent_dim", "16",
                   *(inputs if command == "perturb" else ()))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error:config: ")
        assert "latent_dim 16 " in err[0] and "model's 32" in err[0]
        assert (out / "ledger.csv").read_bytes() == ledger
        assert {p.name: p.read_bytes() for p in (out / "perturbed").iterdir()} == released
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("identity_len", [0, 99])
    def test_model_identity_len_outside_latent_is_format_error(self, trained, capsys, identity_len):
        cfg, out = trained
        blob = bytearray((out / "model.dpim").read_bytes())
        n_dims = int.from_bytes(blob[8:12], "little")  # after the magic and the version
        at = 12 + 4 * n_dims
        blob[at : at + 4] = identity_len.to_bytes(4, "little")
        (out / "model.dpim").write_bytes(bytes(blob))
        capsys.readouterr()
        code = run(
            "evaluate", "--config", cfg, "--originals", out / "corpus", "--perturbed", out / "corpus"
        )
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1
        assert err[0] == f"error:format: identity_len {identity_len} outside [1, 32]"

    def test_missing_model_is_one_line_error(self, tiny_cfg, tmp_path, capsys):
        assert run("generate", "--config", tiny_cfg) == 0
        code = run("sensitivity", "--config", tiny_cfg)
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("release_id,epsilon,group\r\na.pgm,0.5,corpus\r\nb.pgm,0.5\r\n", "line 3"),
            ("image,epsilon,group\r\na.pgm,0.5,corpus\r\n", "line 1"),
            pytest.param(
                "release_id,epsilon,group\r\n" + OVERSIZED_LINE, "line 2", id="oversized_field"
            ),
            pytest.param(
                "release_id,epsilon,group\r\na.pgm,0.5,corpus\r\nb\udcff.pgm,0.5,corpus\r\n",
                "line 3",
                id="not_utf8",
            ),
            pytest.param(
                "release_id,epsilon,group\r\na.pgm,0.5,corpus\r\nb.pgm,inf,corpus\r\n",
                "line 3",
                id="inf_epsilon",
            ),
            pytest.param(
                "release_id,epsilon,group\r\na.pgm,1e999,corpus\r\n", "line 2", id="huge_epsilon"
            ),
        ],
    )
    def test_malformed_ledger_is_one_line_error(self, trained, capsys, text, where):
        cfg, out = trained
        ledger = out / "ledger.csv"
        ledger.write_bytes(text.encode("utf-8", "surrogateescape"))
        capsys.readouterr()
        code = run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", out / "corpus")
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:format: ") and f"ledger.csv, {where}:" in err[0]
        assert ledger.read_bytes() == text.encode("utf-8", "surrogateescape")
        assert not (out / "perturbed").exists() or not any((out / "perturbed").iterdir())

    def test_damaged_checkpointed_ledger_is_one_line_error(self, trained, capsys):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        for request in (corpus[:10], corpus[10:]):
            assert run(
                "perturb", "--config", cfg, "--sensitivity", "5.0", "--epsilon", "0.5",
                "--input", *request,
            ) == 0
        ledger = out / "ledger.csv"
        lines = ledger.read_bytes().split(b"\r\n")
        assert len(lines) == 22 and lines[10].endswith(b",0.5,corpus")
        lines[10] = lines[10].replace(b",0.5,", b",0.x,")  # line 11, same length
        damaged = b"\r\n".join(lines)
        ledger.write_bytes(damaged)
        released = tree_bytes(out / "perturbed")
        capsys.readouterr()
        code = run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", *corpus[:2])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:format: ") and "ledger.csv, line 11: epsilon '0.x'" in err[0]
        assert ledger.read_bytes() == damaged
        assert tree_bytes(out / "perturbed") == released

    @pytest.mark.parametrize(
        "flags",
        [
            ("--epsilon", "inf"),
            ("--sensitivity", "inf"),
            ("--sensitivity_mode", "clip", "--clip_radius", "inf"),
        ],
    )
    def test_non_finite_privacy_parameter_rejected(self, trained, capsys, flags):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        assert run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", *corpus[:3]) == 0
        ledger = (out / "ledger.csv").read_bytes()
        released = tree_bytes(out / "perturbed")
        capsys.readouterr()
        code = run("perturb", "--config", cfg, "--sensitivity", "5.0", *flags, "--input", *corpus)
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:config: ") and "finite" in err[0]
        assert (out / "ledger.csv").read_bytes() == ledger
        assert tree_bytes(out / "perturbed") == released

    def test_overflowing_noise_scale_charges_nothing(self, trained, capsys):
        # sensitivity / epsilon = 1 / 1e-310 overflows to inf: the sampler
        # rejects it before the ledger records the request
        cfg, out = trained
        capsys.readouterr()
        code = run(
            "perturb", "--config", cfg, "--sensitivity", "1", "--epsilon", "1e-310",
            "--input", out / "corpus",
        )
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error:validation: ")
        assert not (out / "ledger.csv").exists() and not (out / "perturbed").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("generate", ("--n_identities", "1")),
            ("train", ("--corpus-dir", "{missing}")),
            ("sensitivity", ("--model", "{missing}", "--corpus-dir", "{out}/corpus")),
            ("evaluate", ("--model", "{out}/model.dpim", "--corpus-dir", "{out}/corpus",
                          "--originals", "{missing}", "--perturbed", "{out}/corpus")),
            ("sweep", ("--model", "{out}/model.dpim", "--corpus-dir", "{out}/corpus",
                       "--sweep_levels", "0,1e307")),
            ("perturb", ("--model", "{out}/model.dpim", "--sensitivity", "1",
                         "--input", "{missing}")),
        ],
        ids=["generate", "train", "sensitivity", "evaluate", "sweep", "perturb"],
    )
    def test_rejected_request_leaves_no_directory(self, trained, tmp_path, capsys, command, flags):
        # a directory appears only with its first file, so a command that
        # fails before it writes one leaves no directory behind
        cfg, out = trained
        fresh = tmp_path / "fresh" / "out"
        argv = [f.format(out=out, missing=tmp_path / "missing") for f in flags]
        capsys.readouterr()
        assert run(command, "--config", cfg, "--output_dir", fresh, *argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize(
        "command, flags, written",
        [
            ("sweep", ("--corpus-dir", "{out}/corpus", "--sweep_levels", "0"), ["sweep.csv"]),
            ("perturb", ("--sensitivity", "1", "--input", "{out}/corpus/{image}"),
             ["ledger.csv", "perturbed"]),
        ],
        ids=["sweep", "perturb"],
    )
    def test_first_file_makes_a_new_nested_directory(self, trained, tmp_path, command, flags,
                                                     written):
        cfg, out = trained
        fresh = tmp_path / "fresh" / "out"
        image = load_manifest(out / "corpus" / "manifest.csv")[0].path
        argv = [f.format(out=out, image=image) for f in flags]
        assert run(command, "--config", cfg, "--output_dir", fresh,
                   "--model", out / "model.dpim", *argv) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted([f"provenance_{command}.json", *written])

    def test_image_of_another_shape_releases_nothing(self, trained, tmp_path, capsys):
        # 16 wide and 64 tall holds a 32x32 model's 1024 values, but it is
        # not a 32x32 image: it is rejected before the ledger is charged
        cfg, out = trained
        wide = tmp_path / "wide.pgm"
        wide.write_bytes(b"P5\n16 64\n255\n" + bytes([128]) * 1024)
        capsys.readouterr()
        code = run("perturb", "--config", cfg, "--sensitivity", "1", "--input", wide)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and err == ["error:validation: image is 16x64, model expects 32x32"]
        assert not (out / "ledger.csv").exists() and not (out / "perturbed").exists()

    @pytest.mark.parametrize(
        "command, text, where",
        [
            (
                "sweep",
                "path,identity_id\na.pgm,0\n",
                "manifest.csv: manifest lacks column(s) ['split']",
            ),
            (
                "sweep",
                "path,identity_id,split\na.pgm,0,train\nb.pgm,one,eval\n",
                "manifest.csv, line 3: ",
            ),
            (
                "train",
                "path,identity_id,split\n" + OVERSIZED_LINE,
                "manifest.csv, line 2: field larger than field limit",
            ),
            (
                "sweep",
                "path,identity_id,split\na.pgm,0,train\nb\udcff.pgm,0,eval\n",
                "manifest.csv, line 3: byte 0xff is not UTF-8",
            ),
        ],
        ids=["missing_column", "bad_identity_id", "oversized_field", "not_utf8"],
    )
    def test_malformed_manifest_is_one_line_error(self, trained, capsys, command, text, where):
        cfg, out = trained
        (out / "corpus" / "manifest.csv").write_bytes(text.encode("utf-8", "surrogateescape"))
        capsys.readouterr()
        assert run(command, "--config", cfg) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:data: ") and where in err[0]

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize(
        "eval_ids, message",
        [
            ([0, 0, 1], "need at least 4 eval images to calibrate a threshold"),
            ([0, 1, 2, 3], "eval split lacks genuine or impostor pairs"),
            ([2, 2, 2, 2], "eval split lacks genuine or impostor pairs"),
        ],
        ids=["three_images", "no_genuine_pair", "no_impostor_pair"],
    )
    def test_eval_split_that_cannot_calibrate_is_one_line_error(
        self, trained, capsys, command, eval_ids, message
    ):
        cfg, out = trained
        manifest = out / "corpus" / "manifest.csv"
        rows = load_manifest(manifest)
        lines = ["path,identity_id,split"] + [f"{r.path},{r.identity_id},train" for r in rows]
        lines += [f"{r.path},{i},eval" for r, i in zip(rows, eval_ids)]
        manifest.write_text("\n".join(lines) + "\n")
        flags = {
            "evaluate": ("--originals", out / "corpus", "--perturbed", out / "corpus"),
            "sweep": ("--sweep_levels", "0"),
        }[command]
        capsys.readouterr()
        assert run(command, "--config", cfg, *flags) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error:data: {message}"]

    def test_unreadable_input_releases_nothing(self, trained, capsys):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        inputs = [*corpus[:16], out / "missing.pgm"]
        capsys.readouterr()
        assert run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", *inputs) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "missing.pgm" in err[0]
        assert not (out / "ledger.csv").exists()
        assert not (out / "perturbed").exists() or not any((out / "perturbed").iterdir())

    def test_failed_write_leaves_the_request_charged(self, trained, capsys):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))[:3]
        assert run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", corpus[0]) == 0
        (out / "perturbed" / corpus[2].name).mkdir()
        capsys.readouterr()
        assert run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", *corpus[1:]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert captured.out == ""
        ledger = PrivacyBudgetLedger.load_csv(out / "ledger.csv")
        assert [e[0] for e in ledger.entries] == [p.name for p in corpus]
        # the provenance record still describes the one-row ledger: it must not be trusted
        (out / "perturbed" / corpus[2].name).rmdir()
        assert run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", corpus[2]) == 0
        extra = json.loads((out / "provenance_perturb.json").read_text())["extra"]
        assert extra["first_ledger_row"] == 3 and extra["ledger_rows"] == 4

    @pytest.mark.parametrize("bad", ["magic", "size"])
    def test_bad_image_among_good_ones_releases_nothing(self, trained, tmp_path, capsys, bad):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        assert run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", *corpus[:3]) == 0
        ledger = (out / "ledger.csv").read_bytes()
        released = tree_bytes(out / "perturbed")
        request = tmp_path / "request"
        request.mkdir()
        for path in corpus[3:8]:
            (request / path.name).write_bytes(path.read_bytes())
        damaged = request / corpus[5].name
        if bad == "magic":
            damaged.write_bytes(b"P6" + corpus[5].read_bytes()[2:])
        else:
            write_pgms([np.full((16, 16), 0.5)], [damaged])
        capsys.readouterr()
        code = run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", request)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1 and str(damaged) in err[0]
        category = "error:format.bad_magic: " if bad == "magic" else "error:data: "
        assert err[0].startswith(category)
        assert (out / "ledger.csv").read_bytes() == ledger
        assert tree_bytes(out / "perturbed") == released

    @pytest.mark.parametrize("twice", ["directory", "file"])
    def test_inputs_sharing_a_name_release_nothing(self, trained, tmp_path, capsys, twice):
        cfg, out = trained
        corpus = sorted((out / "corpus").glob("*.pgm"))
        assert run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", *corpus[:3]) == 0
        ledger = (out / "ledger.csv").read_bytes()
        released = tree_bytes(out / "perturbed")
        shared = corpus[5] if twice == "directory" else corpus[4]
        if twice == "directory":
            other = tmp_path / "other"
            other.mkdir()
            (other / shared.name).write_bytes(corpus[6].read_bytes())
            inputs = [out / "corpus", other]
        else:
            inputs = [shared, corpus[5], shared]
        capsys.readouterr()
        code = run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", *inputs)
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:data: ") and shared.name in err[0]
        assert (out / "ledger.csv").read_bytes() == ledger
        assert tree_bytes(out / "perturbed") == released
