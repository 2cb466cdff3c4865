"""CLI surface: run / augment / validate, seed precedence, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from augbench import dataio, harness
from augbench.cli import main
from augbench.config import _SECTIONS, AUGMENTER_IDS, CLASSIFIER_IDS, ExperimentConfig
from augbench.report import export_synthetic_csv
from augbench.rng import SEED_MAX
from conftest import FIXTURE_CSV, REPO, SCHEMA

FAST = {
    "dataset": str(FIXTURE_CSV),
    "schema": dict(SCHEMA),
    "augmenters": ["none", "gmm"],
    "classifiers": ["tree", "knn"],
    "n_synthetic": 40,
    "hyperparams": {"gmm": {"n_components": 2}},
}


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


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
    rows = _csv_rows(out / "results.csv")
    assert len(rows) == 4


def test_run_multi_seed_aggregates(config_path, tmp_path):
    out = tmp_path / "multi"
    code = main(["run", "--config", str(config_path), "--out", str(out),
                 "--seeds", "2"])
    assert code == 0
    assert (out / "seed_0" / "results.csv").exists()
    assert (out / "seed_1" / "results.csv").exists()
    agg = _csv_rows(out / "aggregate.csv")
    assert len(agg) == 4
    assert {"mean_test_acc", "mean_test_f1", "mean_test_auc"} <= set(agg[0])


def test_augment_writes_requested_count(config_path, tmp_path):
    out = tmp_path / "aug"
    code = main(["augment", "--config", str(config_path),
                 "--generator", "gmm", "--out", str(out)])
    assert code == 0
    rows = _csv_rows(out / "synthetic_gmm.csv")
    assert len(rows) == 40


def test_run_exports_the_synthetic_rows_the_grid_trained_on(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, export_synthetic=True)))
    bundles, aug_sets = [], []
    real_run, real_build = harness.run_experiment, harness.build_augmented_sets

    def run_spy(*args):
        bundles.extend(real_run(*args))
        return bundles

    def build_spy(*args, **kwargs):
        aug_sets.append(real_build(*args, **kwargs))
        return aug_sets[-1]

    monkeypatch.setattr(harness, "run_experiment", run_spy)
    monkeypatch.setattr(harness, "build_augmented_sets", build_spy)
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0

    (bundle,), (sets,) = bundles, aug_sets
    X_aug, y_aug, prov = sets["gmm"]
    mask = prov.synthetic_mask
    expected = export_synthetic_csv(X_aug[mask], y_aug[mask], bundle.plan)
    assert (out / "synthetic_gmm.csv").read_text() == expected
    assert int(mask.sum()) == 40
    assert not (out / "synthetic_none.csv").exists()


@pytest.mark.parametrize("generator", ["gmm", "vae", "gan"])
def test_augment_writes_the_rows_run_exports(tmp_path, generator):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(
        FAST, augmenters=["none", generator], classifiers=["tree"], export_synthetic=True,
        hyperparams={"gmm": {"n_components": 2}, "vae": {"epochs": 10},
                     "gan": {"pretrain_epochs": 5, "epochs": 10}},
    )))
    run_out, aug_out = tmp_path / "run", tmp_path / "aug"
    assert main(["run", "--config", str(p), "--out", str(run_out), "--seed", "3"]) == 0
    assert main(["augment", "--config", str(p), "--generator", generator,
                 "--out", str(aug_out), "--seed", "3"]) == 0
    exported = (run_out / f"synthetic_{generator}.csv").read_bytes()
    assert exported.count(b"\n") == 41  # the header and 40 rows
    assert (aug_out / f"synthetic_{generator}.csv").read_bytes() == exported


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


@pytest.mark.parametrize("section, key, value, message", [
    ("tree", "max_depth", [1], 'TreeConfig.max_depth must be an integer or "auto", got [1]'),
    ("tree", "max_depth", {"d": 1},
     "TreeConfig.max_depth must be an integer or \"auto\", got {'d': 1}"),
    ("svm_rbf", "gamma", [0.5], "RbfSvmConfig.gamma must be a number, got [0.5]"),
    ("gmm", "n_components", None, "GmmConfig.n_components must be an integer, got None"),
    ("vae", "epochs", 10.0, "VaeConfig.epochs must be an integer, got 10.0"),
    ("gan", "epochs", 5.0, "GanConfig.epochs must be an integer, got 5.0"),
    ("knn", "k", 3.0, 'KnnConfig.k must be an integer or "auto", got 3.0'),
    ("dense", "hidden", 5, "DenseNetConfig.hidden must be a list of 2, got 5"),
    ("tree", "depth_grid", "abc", "TreeConfig.depth_grid must be a list, got 'abc'"),
    ("gmm", "select_k_bic", "yes", "GmmConfig.select_k_bic must be true or false, got 'yes'"),
    ("dense", "hidden", [8], "DenseNetConfig.hidden must be a list of 2, got [8]"),
    ("dense", "hidden", [1.5, 2], "DenseNetConfig.hidden[0] must be an integer, got 1.5"),
    ("gan", "disc_hidden", [4], "GanConfig.disc_hidden must be a list of 2, got [4]"),
    ("knn", "weighting", 3, 'KnnConfig.weighting must be "uniform" or "inverse", got 3'),
    ("knn", "weighting", "cosine",
     'KnnConfig.weighting must be "uniform" or "inverse", got \'cosine\''),
    ("tree", "depth_grid", ["a"], "TreeConfig.depth_grid[0] must be an integer, got 'a'"),
    ("logistic", "lambda_grid", ["x"], "LogisticConfig.lambda_grid[0] must be a number, got 'x'"),
    ("svm_rbf", "C", -1.0, "RbfSvmConfig.C must be > 0, got -1.0"),
    ("svm_rbf", "gamma", -1.0, "RbfSvmConfig.gamma must be > 0, got -1.0"),
    ("knn", "k", -3, "KnnConfig.k must be >= 1, got -3"),
    ("svm_rbf", "c_grid", [], "RbfSvmConfig.c_grid must be a non-empty list, got []"),
    ("svm_rbf", "c_grid", [1.0, -1.0], "RbfSvmConfig.c_grid[1] must be > 0, got -1.0"),
    ("svm_rbf", "kkt_tol", 0.0, "RbfSvmConfig.kkt_tol must be > 0, got 0.0"),
    ("svm_rbf", "kkt_tol", -1e-3, "RbfSvmConfig.kkt_tol must be > 0, got -0.001"),
    ("gmm", "n_components", 0, "GmmConfig.n_components must be >= 1, got 0"),
    ("tree", "depth_grid", [None, -1], "TreeConfig.depth_grid[1] must be >= 0, got -1"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_list_or_object_for_numeric_hyperparameter_fails_before_training(
        tmp_path, capsys, command, section, key, value, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, hyperparams={section: {key: value}})))
    out = tmp_path / "out"
    argv = [command, "--config", str(p)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("svm_rbf", "gamma", float("inf"), "RbfSvmConfig.gamma must be a finite number, got inf"),
    ("svm_rbf", "kkt_tol", float("inf"),
     "RbfSvmConfig.kkt_tol must be a finite number, got inf"),
    ("svm_rbf", "c_grid", [1.0, float("inf")],
     "RbfSvmConfig.c_grid[1] must be a finite number, got inf"),
    ("logistic", "reg_lambda", float("inf"),
     "LogisticConfig.reg_lambda must be a finite number, got inf"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_infinity_for_a_number_fails_before_training(
        tmp_path, capsys, command, section, key, value, message):
    # Python's json reads and writes Infinity, and inf passes every > and
    # >= bound.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, hyperparams={section: {key: value}})))
    assert "Infinity" in p.read_text()
    out = tmp_path / "out"
    argv = [command, "--config", str(p)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("schema", dict(SCHEMA, age=1), "schema.age must be a string, got 1"),
    ("augmenters", ["none", 1],
     'augmenters[1] must be "none", "gmm", "vae" or "gan", got 1'),
    ("classifiers", ["tree", "forest"],
     'classifiers[1] must be "tree", "knn", "logistic", "svm_rbf", "svm_linear" or "dense", '
     "got 'forest'"),
    ("augmenters", [], "augmenters must be a non-empty list, got []"),
    ("classifiers", [], "classifiers must be a non-empty list, got []"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_wrong_element_names_the_element(tmp_path, capsys, command, key, value, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, **{key: value})))
    out = tmp_path / "out"
    argv = [command, "--config", str(p)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_grid_hyperparameter_still_takes_a_list(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, hyperparams={"tree": {"depth_grid": [1, 2]}})))
    assert main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr().out.startswith("ok")


@pytest.mark.parametrize("section, key, value", [
    ("logistic", "reg_lambda", 0.0), ("tree", "max_depth", 0), ("gan", "epochs", 0),
    ("knn", "k", "auto"), ("svm_rbf", "c_grid", [0.5]),
])
def test_value_on_its_bound_validates(tmp_path, capsys, section, key, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, hyperparams={section: {key: value}})))
    assert main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr().out.startswith("ok")


@pytest.mark.parametrize("section, key", [
    ("svm_rbf", "gamma"), ("gan", "disc_learning_rate"), ("tree", "max_depth"),
])
def test_null_validates_where_the_field_takes_none(tmp_path, capsys, section, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, hyperparams={section: {key: None}})))
    assert main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr().out.startswith("ok")


@pytest.mark.parametrize("field, ids, repeated", [
    ("augmenters", ["none", "gmm", "none"], "none"),
    ("classifiers", ["tree", "knn", "knn"], "knn"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_repeated_augmenter_or_classifier_is_rejected(
        tmp_path, capsys, command, field, ids, repeated):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, **{field: ids})))
    out = tmp_path / "out"
    argv = [command, "--config", str(p)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {field} lists {repeated!r} more than once\n"
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


@pytest.mark.parametrize("command", ["validate", "run"])
def test_bad_seed_env_var_is_a_one_line_error(config_path, tmp_path, capsys, monkeypatch,
                                              command):
    monkeypatch.setenv("AUGBENCH_SEED", "abc")
    out = tmp_path / "out"
    argv = [command, "--config", str(config_path)]
    assert main(argv + (["--out", str(out)] if command == "run" else [])) == 1
    assert capsys.readouterr().err == "error: AUGBENCH_SEED must be an integer, got 'abc'\n"
    assert not out.exists()


DIVERGING_VAE = dict(
    FAST, augmenters=["none", "vae"], classifiers=["tree"],
    hyperparams={"vae": {"learning_rate": 1e300, "epochs": 20}},
)


def test_failing_generator_fails_only_its_row(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(DIVERGING_VAE))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    rows = {(r["augmenter"], r["classifier"]): r
            for r in _csv_rows(out / "results.csv")}
    assert rows["vae", "tree"]["error"].startswith("FloatingPointError: ")
    assert rows["vae", "tree"]["error"].endswith(" (VAE step, epoch 1)")
    assert "## Failed cells" in (out / "report.md").read_text()
    assert json.loads((out / "run_meta.json").read_text())["contamination"] is False

    p.write_text(json.dumps(dict(DIVERGING_VAE, augmenters=["none"])))
    alone = tmp_path / "alone"
    assert main(["run", "--config", str(p), "--out", str(alone)]) == 0
    alone_rows = _csv_rows(alone / "results.csv")
    assert alone_rows == [rows["none", "tree"]]


DIVERGING_GAN = dict(
    FAST, augmenters=["none", "gan"], classifiers=["tree"],
    hyperparams={"gan": {"learning_rate": 1e300, "pretrain_epochs": 2, "epochs": 20}},
)


def test_failing_gan_fails_only_its_row(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(DIVERGING_GAN))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    rows = {(r["augmenter"], r["classifier"]): r
            for r in _csv_rows(out / "results.csv")}
    error = rows["gan", "tree"]["error"]
    # The learning rate of 1e300 overflows on the first pass after Adam's first step.
    assert error.startswith("FloatingPointError: ")
    assert error.endswith(" (GAN discriminator step, epoch 1)")
    assert rows["none", "tree"]["error"] == ""
    assert "## Failed cells" in (out / "report.md").read_text()
    assert json.loads((out / "run_meta.json").read_text())["contamination"] is False


def test_rerun_removes_the_files_of_a_cell_that_now_fails(tmp_path):
    working = dict(DIVERGING_GAN, export_synthetic=True,
                   hyperparams={"gan": {"pretrain_epochs": 2, "epochs": 20}})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(working))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "roc_gan_tree.csv").exists() and (out / "synthetic_gan.csv").exists()
    p.write_text(json.dumps(dict(DIVERGING_GAN, export_synthetic=True)))
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    rows = {r["augmenter"]: r for r in _csv_rows(out / "results.csv")}
    assert rows["gan"]["error"].startswith("FloatingPointError: ")
    assert not (out / "roc_gan_tree.csv").exists()
    assert not (out / "synthetic_gan.csv").exists()
    assert (out / "roc_none_tree.csv").exists()


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("first, second", [(2, 1), (1, 2), (3, 2)],
                         ids=["seeds_then_one", "one_then_seeds", "fewer_seeds"])
def test_rerun_with_other_seeds_leaves_only_its_own_files(config_path, tmp_path, first, second):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    run = ["run", "--config", str(config_path)]
    assert main(run + ["--out", str(out), "--seeds", str(first)]) == 0
    assert main(run + ["--out", str(out), "--seeds", str(second)]) == 0
    assert main(run + ["--out", str(fresh), "--seeds", str(second)]) == 0
    assert _files(out) == _files(fresh)


def test_rerun_keeps_a_users_files_and_their_seed_directory(config_path, tmp_path):
    out = tmp_path / "out"
    run = ["run", "--config", str(config_path), "--out", str(out)]
    assert main(run + ["--seeds", "2"]) == 0
    for name in ("notes.txt", "seed_1/notes.txt", "seed_1/old/results.csv"):
        (out / name).parent.mkdir(exist_ok=True)
        (out / name).write_text("kept\n")
    assert main(run) == 0
    assert not (out / "seed_0").exists() and not (out / "aggregate.csv").exists()
    assert _files(out / "seed_1") == ["notes.txt", "old", "old/results.csv"]
    assert (out / "notes.txt").read_text() == "kept\n"
    assert (out / "report.md").exists()


_USER_FILES = st.sets(st.sampled_from(["notes.txt", *(f"seed_{n}/notes.txt" for n in range(5))]))


@settings(max_examples=6, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)), min_size=2, max_size=3),
       users=st.lists(_USER_FILES, min_size=2, max_size=2))
def test_reruns_leave_the_last_runs_tree_and_the_users_files(runs, users):
    # `runs` holds (--seeds, --seed) pairs; users[i] is written after run i.
    with tempfile.TemporaryDirectory() as tmp:
        config, out, fresh = Path(tmp) / "cfg.json", Path(tmp) / "out", Path(tmp) / "fresh"
        config.write_text(json.dumps(FAST))
        kept = set()
        for (seeds, seed), names in zip(runs, [*users, set()]):
            argv = ["run", "--config", str(config), "--seeds", str(seeds), "--seed", str(seed)]
            assert main(argv + ["--out", str(out)]) == 0
            for name in names:
                (out / name).parent.mkdir(exist_ok=True)
                (out / name).write_text("kept\n")
            kept |= names
        assert main(argv + ["--out", str(fresh)]) == 0
        holders = {str(Path(name).parent) for name in kept} - {"."}
        assert _files(out) == sorted({*_files(fresh), *kept, *holders})
        for name in kept:
            assert (out / name).read_text() == "kept\n"
        for name in _files(fresh):
            if (fresh / name).is_file() and Path(name).name != "run_meta.json":
                assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_aggregate_keeps_a_cell_that_failed_in_every_seed(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(DIVERGING_VAE))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out), "--seeds", "2"]) == 0
    agg = _csv_rows(out / "aggregate.csv")
    assert [(r["augmenter"], r["classifier"], r["n_seeds"]) for r in agg] == [
        ("none", "tree", "2"), ("vae", "tree", "0"),
    ]
    assert float(agg[0]["mean_test_auc"]) > 0.5
    assert (agg[1]["mean_test_acc"], agg[1]["mean_test_f1"], agg[1]["mean_test_auc"]) == ("", "", "")


def test_augment_with_failing_generator_is_a_one_line_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(DIVERGING_VAE))
    out = tmp_path / "out"
    assert main(["augment", "--config", str(p), "--generator", "vae", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and err.startswith("error: FloatingPointError: ")
    assert not out.exists()


def test_unknown_flag_exits_with_usage(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--frobnicate"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err


def _one_line_error(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "run"])
def test_jobs_config_key_is_rejected(tmp_path, capsys, command):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, jobs=2)))
    out = tmp_path / "out"
    argv = [command, "--config", str(p)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown config keys: ['jobs']\n"
    assert not out.exists()


@pytest.mark.parametrize("dataset", [".", "x" * 300])
def test_validate_dataset_that_is_not_a_file(tmp_path, capsys, dataset):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, dataset=dataset)))
    assert main(["validate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and "dataset file not found" in err


def test_unreadable_config_is_a_one_line_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and err.startswith(f"error: cannot read config {tmp_path}: ")


def test_unreadable_dataset_is_a_one_line_error(config_path, capsys, monkeypatch):
    path_open = Path.open

    def denied(self, *args, **kwargs):
        if self.name == FIXTURE_CSV.name:
            raise PermissionError(13, "Permission denied", str(self))
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", denied)
    assert main(["validate", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err)
    assert err == f"error: cannot read dataset {FIXTURE_CSV}: Permission denied\n"


def test_jobs_flag_exits_with_usage(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_validate_rejects_what_run_rejects(tmp_path, capsys):
    """31 rows with one positive: the split fails, so validate must too."""
    lines = FIXTURE_CSV.read_text().splitlines()
    negatives = [l for l in lines[1:] if l.endswith(",0")][:30]
    positive = next(l for l in lines[1:] if l.endswith(",1"))
    table = tmp_path / "one_positive.csv"
    table.write_text("\n".join([lines[0], *negatives, positive]) + "\n")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, dataset=str(table))))

    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    run_err = capsys.readouterr().err
    assert run_err == "error: class 1 has fewer than 2 rows\n"
    assert main(["validate", "--config", str(p)]) == 1
    assert capsys.readouterr().err == run_err


@pytest.mark.parametrize("key, value", [
    ("n_synthetic", "200"),
    ("n_synthetic", True),
    ("test_fraction", None),
    ("schema", ["a"]),
    ("hyperparams", []),
    ("augmenters", "gmm"),
    ("seed", "x"),
    ("seed", False),
    ("export_synthetic", "no"),
])
def test_validate_rejects_wrong_top_level_type(tmp_path, capsys, key, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, **{key: value})))
    assert main(["validate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and err.startswith(f"error: {key} must be ")


@pytest.mark.parametrize(
    "config", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name
)
def test_shipped_config_validates(config, capsys):
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


def test_validate_fixture_ok_line(capsys):
    assert main(["validate", "--config", str(REPO / "configs" / "fixture.json")]) == 0
    assert capsys.readouterr().out == (
        "ok: 400 rows (0 dropped), 4 features, class counts {0: 256, 1: 144}\n"
    )


def test_validate_accepts_a_byte_order_mark(tmp_path, capsys):
    # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark.
    csv_path = tmp_path / "bom.csv"
    csv_path.write_bytes(b"\xef\xbb\xbf" + FIXTURE_CSV.read_bytes())
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, dataset=str(csv_path))))
    assert main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr().out == (
        "ok: 400 rows (0 dropped), 4 features, class counts {0: 256, 1: 144}\n"
    )


def test_validate_skips_whitespace_only_lines(tmp_path, capsys):
    csv_path = tmp_path / "padded.csv"
    csv_path.write_bytes(FIXTURE_CSV.read_bytes() + b"   \n\t\n")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, dataset=str(csv_path))))
    assert main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr().out == (
        "ok: 400 rows (0 dropped), 4 features, class counts {0: 256, 1: 144}\n"
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


# One hyperparams section with a few of its fields (or any other key) set
# to any JSON value.
HYPERPARAMS = st.sampled_from(sorted(_SECTIONS)).flatmap(
    lambda name: st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(_SECTIONS[name])])
        | st.text(max_size=8),
        JSON_VALUES, max_size=2,
    ).map(lambda kv: {name: kv})
)


@settings(max_examples=150, deadline=None)
@given(
    overrides=st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]),
        JSON_VALUES, max_size=3,
    ),
    hyperparams=HYPERPARAMS,
)
def test_validate_ends_in_ok_or_one_error_line(overrides, hyperparams):
    fixture = REPO / "configs" / "fixture.json"
    config = json.loads(fixture.read_text())
    config["dataset"] = str((fixture.parent / config["dataset"]).resolve())
    config["hyperparams"] = hyperparams
    config.update(overrides)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "cfg.json"
        p.write_text(json.dumps(config))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["validate", "--config", str(p)])
    if code == 0:
        assert stdout.getvalue().startswith("ok: ") and stderr.getvalue() == ""
    else:
        assert code == 1 and _one_line_error(stderr.getvalue())


def _grid(elements):
    return st.lists(elements, min_size=1, max_size=3)


_POSITIVE = st.floats(1e-3, 10.0)
_FOLDS = st.integers(2, 8)
_AUTO = st.just("auto")
_PAIR = st.lists(st.integers(1, 8), min_size=2, max_size=2)

# Every section, with the fields that set a run's cost drawn from small
# ranges (epochs, layer sizes, iteration caps) and any other field from a
# bounded range or left at its default.
RUN_HYPERPARAMS = st.fixed_dictionaries({
    "gmm": st.fixed_dictionaries({"max_iter": st.integers(1, 20)}, optional={
        "n_components": st.integers(1, 4), "tol": st.floats(0.0, 1e-2),
        "cov_floor": st.floats(1e-9, 1.0), "select_k_bic": st.booleans(),
        "bic_k_max": st.integers(1, 3)}),
    "vae": st.fixed_dictionaries({
        "epochs": st.integers(0, 5), "hidden_size": st.integers(1, 8),
        "latent_dim": st.integers(1, 4)}, optional={
        "learning_rate": _POSITIVE, "beta": st.floats(0.0, 2.0)}),
    "gan": st.fixed_dictionaries({
        "pretrain_epochs": st.integers(0, 5), "epochs": st.integers(0, 5), "disc_hidden": _PAIR,
        "vae": st.fixed_dictionaries({"hidden_size": st.integers(1, 8),
                                      "latent_dim": st.integers(1, 4)})}, optional={
        "learning_rate": _POSITIVE, "disc_learning_rate": st.none() | _POSITIVE}),
    "tree": st.fixed_dictionaries({}, optional={
        "max_depth": _AUTO | st.none() | st.integers(0, 6),
        "depth_grid": _grid(st.none() | st.integers(0, 6)),
        "min_samples_split": st.integers(2, 10), "cv_folds": _FOLDS}),
    "knn": st.fixed_dictionaries({}, optional={
        "k": _AUTO | st.integers(1, 400), "k_grid": _grid(st.integers(1, 400)),
        "weighting": st.sampled_from(["uniform", "inverse"]), "cv_folds": _FOLDS}),
    "logistic": st.fixed_dictionaries({"epochs": st.integers(0, 10)}, optional={
        "reg_lambda": _AUTO | st.floats(0.0, 10.0), "lambda_grid": _grid(st.floats(0.0, 10.0)),
        "learning_rate": _POSITIVE, "cv_folds": _FOLDS}),
    "svm_linear": st.fixed_dictionaries({"epochs": st.integers(0, 10)}, optional={
        "reg_lambda": _AUTO | _POSITIVE, "lambda_grid": _grid(_POSITIVE), "cv_folds": _FOLDS}),
    "svm_rbf": st.fixed_dictionaries({"max_iter": st.integers(1, 200)}, optional={
        "C": _AUTO | _POSITIVE, "c_grid": _grid(_POSITIVE), "gamma": st.none() | _POSITIVE,
        "kkt_tol": _POSITIVE, "cv_folds": _FOLDS}),
    "dense": st.fixed_dictionaries({"epochs": st.integers(0, 10), "hidden": _PAIR}, optional={
        "learning_rate": _POSITIVE}),
})


@settings(max_examples=40, deadline=None)
@given(
    augmenters=st.lists(st.sampled_from(AUGMENTER_IDS), min_size=1, max_size=4,
                        unique=True),
    classifiers=st.lists(st.sampled_from(CLASSIFIER_IDS), min_size=1, max_size=6,
                         unique=True),
    n_synthetic=st.integers(0, 100),
    test_fraction=st.floats(0.05, 0.95),
    seed=st.integers(0, SEED_MAX - 1),
    seeds=st.integers(1, 2),
    hyperparams=RUN_HYPERPARAMS,
)
def test_run_of_a_validated_config_exits_0_or_1(augmenters, classifiers, n_synthetic,
                                                test_fraction, seed, seeds, hyperparams):
    fixture = REPO / "configs" / "fixture.json"
    config = json.loads(fixture.read_text())
    config.update(
        dataset=str((fixture.parent / config["dataset"]).resolve()), augmenters=augmenters,
        classifiers=classifiers, n_synthetic=n_synthetic, test_fraction=test_fraction,
        seed=seed, hyperparams=hyperparams,
    )
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "cfg.json"
        p.write_text(json.dumps(config))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if main(["validate", "--config", str(p)]) != 0:
                return
            code = main(["run", "--config", str(p), "--out", str(Path(tmp) / "out"),
                         "--seeds", str(seeds)])
    assert code in (0, 1)
    if code == 1:
        assert _one_line_error(stderr.getvalue())


@pytest.mark.parametrize("seeds", [1, 4])
def test_run_loads_the_table_once_per_seed(tmp_path, monkeypatch, seeds):
    # The first seed's checked data is the data its cells train on.
    loads = []
    real = dataio.load_table

    def spy(*args):
        loads.append(args)
        return real(*args)

    monkeypatch.setattr(dataio, "load_table", spy)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, augmenters=["none"], classifiers=["tree"])))
    argv = ["run", "--config", str(p), "--out", str(tmp_path / "out"), "--seeds", str(seeds)]
    assert main(argv) == 0
    assert len(loads) == seeds


def _no_work(*args, **kwargs):
    raise AssertionError("training started")


@pytest.mark.parametrize("target", ["file", "file/sub"])
@pytest.mark.parametrize("command", ["run", "augment"])
def test_unusable_out_is_a_one_line_error_before_any_work(
        config_path, tmp_path, capsys, monkeypatch, command, target):
    (tmp_path / "file").write_text("kept\n")
    monkeypatch.setattr(harness, "run_experiment", _no_work)
    monkeypatch.setattr(harness, "build_augmented_sets", _no_work)
    out = tmp_path / target
    argv = [command, "--config", str(config_path), "--out", str(out)]
    assert main(argv + (["--generator", "gmm"] if command == "augment" else [])) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err)
    assert err.startswith(f"error: cannot create output directory {out}: ")
    assert (tmp_path / "file").read_text() == "kept\n"


def test_unusable_seed_directory_fails_before_the_first_seed(
        config_path, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "seed_1").write_text("kept\n")
    monkeypatch.setattr(harness, "run_experiment", _no_work)
    argv = ["run", "--config", str(config_path), "--out", str(out), "--seeds", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and f"{out / 'seed_1'}: " in err


def _listing(root: Path) -> list:
    return sorted((str(p.relative_to(root)), p.is_dir()) for p in root.rglob("*"))


@pytest.mark.parametrize("command, export_synthetic, blocked", [
    ("run", False, "report.md"),
    ("run --seeds 2", False, "seed_1/results.csv"),
    ("run", False, "roc_gmm_knn.csv"),
    ("run --seeds 2", False, "aggregate.csv"),
    ("run", True, "synthetic_gmm.csv"),
    ("augment --generator gmm", False, "synthetic_gmm.csv"),
])
def test_output_file_that_cannot_be_written_fails_before_any_work(
        tmp_path, capsys, monkeypatch, command, export_synthetic, blocked):
    # A directory where an output file goes fails the run before a seed
    # directory is made or a generator or classifier is fit.
    monkeypatch.setattr(harness, "run_experiment", _no_work)
    monkeypatch.setattr(harness, "build_augmented_sets", _no_work)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, export_synthetic=export_synthetic)))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    before = _listing(tmp_path)
    argv = command.split() + ["--config", str(p), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out / blocked}: it is a directory\n"
    assert _listing(tmp_path) == before


def test_run_paths_name_every_file_a_run_writes(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, export_synthetic=True, output_dir=str(tmp_path / "out"))))
    assert main(["run", "--config", str(p), "--seeds", "2"]) == 0
    written = {f for f in (tmp_path / "out").rglob("*") if f.is_file()}
    paths = harness.run_paths(ExperimentConfig.from_json(p), [0, 1])
    assert len(paths) == len(set(paths))
    assert written <= set(paths)
    assert {f.name for f in written} >= {"aggregate.csv", "synthetic_gmm.csv", "roc_gmm_knn.csv"}


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (2**64, f"seed must be <= {2**64 - 1}, got {2**64}"),
])
def test_seed_outside_64_bits_is_rejected_everywhere(
        config_path, tmp_path, capsys, monkeypatch, seed, message):
    # RngStream takes a seed modulo 2**64: -1 would draw what 2**64 - 1 draws.
    out = tmp_path / "out"
    in_file = tmp_path / "seeded.json"
    in_file.write_text(json.dumps(dict(FAST, seed=seed)))
    flag = ["--seed", str(seed), "--out", str(out)]
    for argv in (
        ["validate", "--config", str(in_file)],
        ["run", "--config", str(config_path), *flag],
        ["augment", "--config", str(config_path), "--generator", "gmm", *flag],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setenv("AUGBENCH_SEED", str(seed))
    assert main(["validate", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("test_fraction", 0, "test_fraction must be > 0, got 0"),
    ("test_fraction", 1.0, "test_fraction must be < 1, got 1.0"),
    ("n_synthetic", -1, "n_synthetic must be >= 0, got -1"),
])
def test_validate_rejects_out_of_range_top_level_value(tmp_path, capsys, key, value, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, **{key: value})))
    assert main(["validate", "--config", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_largest_seed_validates_but_not_past_it_with_seeds(config_path, tmp_path, capsys):
    top = 2**64 - 1
    in_file = tmp_path / "seeded.json"
    in_file.write_text(json.dumps(dict(FAST, seed=top)))
    assert main(["validate", "--config", str(in_file)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["run", "--config", str(config_path), "--seed", str(top), "--seeds", "2",
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: seed + --seeds - 1 must be <= {top}, got {top + 1}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"test_fraction": 0.97},
     "TreeConfig.cv_folds must be <= 4 (training rows of the smaller class), got 5"),
    ({"hyperparams": {"knn": {"k": 500}}},
     "KnnConfig.k must be <= 300 (training rows), got 500"),
    # fit_knn keeps k <= 300 - 300 // 5; an empty grid failed the cell.
    ({"hyperparams": {"knn": {"k_grid": [400]}}},
     "KnnConfig.k_grid must hold an entry <= 240 (training rows less one CV fold), got [400]"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_bound_the_training_rows_cannot_meet_fails_before_training(
        tmp_path, capsys, monkeypatch, command, overrides, message):
    monkeypatch.setattr(harness, "run_experiment", _no_work)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, **overrides)))
    out = tmp_path / "out"
    argv = [command, "--config", str(p)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    # 12 training rows, 4 of the smaller class: 4 folds still hold both classes.
    {"test_fraction": 0.97,
     "hyperparams": {"tree": {"cv_folds": 4}, "knn": {"cv_folds": 4}}},
    # A pinned depth runs no CV.
    {"test_fraction": 0.97, "classifiers": ["tree"], "hyperparams": {"tree": {"max_depth": 3}}},
    {"hyperparams": {"knn": {"k": 300}}},
    {"hyperparams": {"knn": {"k_grid": [240, 400]}}},
])
def test_bound_the_training_rows_meet_validates(tmp_path, capsys, overrides):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, **overrides)))
    assert main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


def test_run_over_seeds_writes_what_each_seed_writes_alone(tmp_path):
    # Every classifier trains all seeds' cells at once; no seed's artifacts
    # may depend on the others.
    config = dict(
        FAST, classifiers=list(CLASSIFIER_IDS), export_synthetic=True,
        hyperparams={"gmm": {"n_components": 2}, "logistic": {"epochs": 30},
                     "svm_linear": {"epochs": 30}, "dense": {"epochs": 20}},
    )
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    together = tmp_path / "together"
    assert main(["run", "--config", str(p), "--out", str(together), "--seeds", "3"]) == 0
    for seed in range(3):
        alone = tmp_path / f"alone_{seed}"
        assert main(["run", "--config", str(p), "--out", str(alone), "--seed", str(seed)]) == 0
        names = sorted(f.name for f in alone.iterdir() if f.name != "run_meta.json")
        assert names == sorted(
            f.name for f in (together / f"seed_{seed}").iterdir() if f.name != "run_meta.json"
        )
        assert "synthetic_gmm.csv" in names and "roc_gmm_dense.csv" in names
        for name in names:
            assert (together / f"seed_{seed}" / name).read_bytes() == (alone / name).read_bytes()


TINY_FULL_GRID = dict(
    FAST, augmenters=list(AUGMENTER_IDS), classifiers=list(CLASSIFIER_IDS),
    hyperparams={
        "gmm": {"n_components": 2}, "vae": {"epochs": 3},
        "gan": {"pretrain_epochs": 2, "epochs": 3}, "dense": {"epochs": 3},
        "logistic": {"epochs": 3}, "svm_linear": {"epochs": 3},
    },
)


# The augbench modules only training needs (`classifiers` with each of its
# modules): `validate` checks a config and its table without any of them.
LEARNER_MODULES = {"harness", "report", "metrics", "nncore", "gmm", "vae", "gan", "classifiers"}


@pytest.mark.parametrize("command, hyperparams, exit_code", [
    pytest.param(["run"], {}, 0, id="run"),
    pytest.param(["augment", "--generator", "gan"], {}, 0, id="augment"),
    pytest.param(["validate"], {}, 0, id="validate"),
    # Fails in check_data_bounds, after the table is loaded and split.
    pytest.param(["validate"], {"knn": {"k": 500}}, 1, id="validate-error"),
])
def test_no_command_imports_numpy_ma(tmp_path, command, hyperparams, exit_code):
    # numpy 2.4's np.unique without return_counts imports numpy.ma, about
    # 1.3 MiB of resident memory that no result needs.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(
        TINY_FULL_GRID, hyperparams={**TINY_FULL_GRID["hyperparams"], **hyperparams},
    )))
    argv = [*command, "--config", str(p)]
    if command[0] != "validate":
        argv += ["--out", str(tmp_path / "out")]
    code = ("import sys, numpy; eager = 'numpy.ma' in sys.modules; "
            "from augbench.cli import main; "
            f"assert main({argv!r}) == {exit_code}; "
            "print(*sorted(sys.modules)); print(eager, 'numpy.ma' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert exit_code == 0 or _one_line_error(proc.stderr)
    modules, flags = proc.stdout.splitlines()[-2:]
    if command[0] == "validate":
        loaded = {m.split(".")[1] for m in modules.split() if m.startswith("augbench.")}
        assert not loaded & LEARNER_MODULES
    # augbench imports logging only to warn, which neither the fixture nor
    # the tiny grid makes it do.
    assert "logging" not in modules.split()
    eager, imported = flags.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself (numpy 1.x)")
    assert imported == "False"
