import json
import math
from pathlib import Path

import numpy as np
import pytest

from dpimage.cli import _baseline_table, main
from dpimage.config import RunConfig, build_config, load_config_file, parse_levels
from dpimage.codec import load_model
from dpimage.data import load_manifest, read_pgm, write_pgm
from dpimage.metrics import blur_baseline, evaluate_pairs, mosaic_baseline, ssim_scores
from dpimage.numerics import derive_stream
from dpimage.privacy import PrivacyBudgetLedger, PrivacyParams, dp_image, full_mask
from dpimage.errors import ConfigError


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

    def test_latent_exports(self, trained):
        cfg, out = trained
        assert run("sensitivity", "--config", cfg) == 0
        assert (out / "latents.dplz").exists()
        assert (out / "latents.csv").read_text().startswith("z0,")


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

    def test_deterministic(self, trained):
        cfg, out = trained
        assert run("sensitivity", "--config", cfg) == 0
        assert run("perturb", "--config", cfg, "--input", out / "corpus") == 0
        first = tree_bytes(out / "perturbed")
        assert run("perturb", "--config", cfg, "--input", out / "corpus") == 0
        assert tree_bytes(out / "perturbed") == first

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
            assert run(
                "perturb", "--config", cfg, "--model", out / "model.dpim", "--input", src,
                "--sensitivity", "5.0", "--output_dir", tmp_path / dst,
            ) == 0
        alone = tree_bytes(tmp_path / "out_request" / "perturbed")
        with_extra = tree_bytes(tmp_path / "out_larger" / "perturbed")
        assert len(alone) == 20 and len(with_extra) == 25
        assert all(with_extra[name] == blob for name, blob in alone.items())
        # the stream address is (seed, 2, position in the request)
        model = load_model(out / "model.dpim")
        params = PrivacyParams(epsilon=1.0, sensitivity=5.0, mask=full_mask(model.latent_dim))
        y, _ = dp_image(model, read_pgm(corpus[17]), params, derive_stream(0, 2, 17))
        write_pgm(y, tmp_path / "expected.pgm")
        assert alone[corpus[17].name] == (tmp_path / "expected.pgm").read_bytes()

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

    def test_baselines_use_configured_ssim_window(self, trained):
        cfg, out = trained
        assert run(
            "perturb", "--config", cfg, "--sensitivity", "5.0", "--input", out / "corpus"
        ) == 0
        assert run(
            "evaluate", "--config", cfg, "--originals", out / "corpus",
            "--perturbed", out / "perturbed", "--baselines", "--ssim_window", "7",
        ) == 0
        notes = json.loads((out / "provenance_evaluate.json").read_text())["extra"]["baseline_notes"]
        sigma = notes["blur_sigma"]
        x = np.stack([read_pgm(p) for p in sorted((out / "corpus").glob("*.pgm"))])
        y = blur_baseline(x, sigma, max(1, math.ceil(3.0 * sigma)))
        rows = [line.split(",") for line in (out / "table.csv").read_text().splitlines()]
        blur_ssim = float(next(row for row in rows if row[0] == "blur")[3])
        assert blur_ssim == float(np.mean(ssim_scores(x, y, 7, 1.5)))
        assert blur_ssim != float(np.mean(ssim_scores(x, y, 11, 1.5)))

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
        dp_report = evaluate_pairs(model, pairs, 0.9)
        rows, notes = _baseline_table(model, pairs, dp_report, 0.9, 11, 1.5)
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


def full_metric_search(model, pairs, dp_report, threshold):
    """The table search that ran evaluate_pairs on every candidate, one image at a time."""

    def report(transform):
        return evaluate_pairs(model, [(name, x, transform(x)) for name, x, _ in pairs], threshold)

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
        ],
    )
    def test_malformed_ledger_is_one_line_error(self, trained, capsys, text, where):
        cfg, out = trained
        ledger = out / "ledger.csv"
        ledger.write_bytes(text.encode())
        capsys.readouterr()
        code = run("perturb", "--config", cfg, "--sensitivity", "5.0", "--input", out / "corpus")
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:format: ") and f"ledger.csv, {where}:" in err[0]
        assert ledger.read_bytes() == text.encode()
        assert not (out / "perturbed").exists() or not any((out / "perturbed").iterdir())

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
