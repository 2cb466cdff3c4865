"""CLI surface: run / augment / validate, seed precedence, exit codes."""

import csv
import json

import pytest

from augbench import cli, harness
from augbench.cli import main
from conftest import FIXTURE_CSV, SCHEMA

FAST = {
    "dataset": str(FIXTURE_CSV),
    "schema": dict(SCHEMA),
    "augmenters": ["none", "gmm"],
    "classifiers": ["tree", "knn"],
    "n_synthetic": 40,
    "hyperparams": {"gmm": {"n_components": 2}},
}


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(FAST))
    return p


def test_validate_happy_path(config_path, capsys):
    assert main(["validate", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "400 rows" in out and "4 features" in out


def test_validate_missing_dataset_names_the_path(tmp_path, capsys):
    cfg = dict(FAST, dataset="does_not_exist.csv")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "does_not_exist.csv" in err


def test_validate_bad_config_key(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, classifires=["tree"])))
    assert main(["validate", "--config", str(p)]) == 1
    assert "classifires" in capsys.readouterr().err


def test_run_writes_report_files(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "report.md").exists()
    assert (out / "results.csv").exists()
    assert (out / "run_meta.json").exists()
    rows = list(csv.DictReader((out / "results.csv").open()))
    assert len(rows) == 4


def test_run_multi_seed_aggregates(config_path, tmp_path):
    out = tmp_path / "multi"
    code = main(["run", "--config", str(config_path), "--out", str(out),
                 "--seeds", "2"])
    assert code == 0
    assert (out / "seed_0" / "results.csv").exists()
    assert (out / "seed_1" / "results.csv").exists()
    agg = list(csv.DictReader((out / "aggregate.csv").open()))
    assert len(agg) == 4
    assert {"mean_test_acc", "mean_test_f1", "mean_test_auc"} <= set(agg[0])


def test_augment_writes_requested_count(config_path, tmp_path):
    out = tmp_path / "aug"
    code = main(["augment", "--config", str(config_path),
                 "--generator", "gmm", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader((out / "synthetic_gmm.csv").open()))
    assert len(rows) == 40


def test_run_exports_the_synthetic_rows_the_grid_trained_on(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, export_synthetic=True)))
    bundles, aug_sets = [], []
    real_run, real_build = cli.run_experiment, harness.build_augmented_sets

    def run_spy(config):
        bundles.append(real_run(config))
        return bundles[-1]

    def build_spy(*args, **kwargs):
        aug_sets.append(real_build(*args, **kwargs))
        return aug_sets[-1]

    monkeypatch.setattr(cli, "run_experiment", run_spy)
    monkeypatch.setattr(harness, "build_augmented_sets", build_spy)
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0

    (bundle,), (sets,) = bundles, aug_sets
    X_aug, y_aug, prov = sets["gmm"]
    mask = prov.synthetic_mask
    expected = harness.export_synthetic_csv(X_aug[mask], y_aug[mask], bundle.plan)
    assert (out / "synthetic_gmm.csv").read_text() == expected
    assert int(mask.sum()) == 40
    assert not (out / "synthetic_none.csv").exists()


def test_augment_writes_the_rows_run_exports(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, export_synthetic=True)))
    run_out, aug_out = tmp_path / "run", tmp_path / "aug"
    assert main(["run", "--config", str(p), "--out", str(run_out), "--seed", "3"]) == 0
    assert main(["augment", "--config", str(p), "--generator", "gmm",
                 "--out", str(aug_out), "--seed", "3"]) == 0
    exported = (run_out / "synthetic_gmm.csv").read_bytes()
    assert (aug_out / "synthetic_gmm.csv").read_bytes() == exported


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_run_rejects_fewer_than_one_seed(config_path, tmp_path, capsys, seeds):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--seeds", seeds]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seeds" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_string_for_numeric_hyperparameter_fails_before_training(
        tmp_path, capsys, command):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, hyperparams={"tree": {"max_depth": "5"}})))
    out = tmp_path / "out"
    argv = [command, "--config", str(p)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_depth" in err and err.count("\n") == 1
    assert not out.exists()


def test_augment_rejects_bad_generator(config_path, capsys):
    assert main(["augment", "--config", str(config_path),
                 "--generator", "none"]) == 1
    assert "generator" in capsys.readouterr().err


def test_seed_precedence_flag_over_env_over_file(config_path, tmp_path, monkeypatch):
    out_env = tmp_path / "env"
    monkeypatch.setenv("AUGBENCH_SEED", "11")
    main(["run", "--config", str(config_path), "--out", str(out_env)])
    assert json.loads((out_env / "run_meta.json").read_text())["seed"] == 11

    out_flag = tmp_path / "flag"
    main(["run", "--config", str(config_path), "--out", str(out_flag),
          "--seed", "22"])
    assert json.loads((out_flag / "run_meta.json").read_text())["seed"] == 22


def test_unknown_flag_exits_with_usage(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--frobnicate"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err
