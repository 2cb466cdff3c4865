"""CLI surface: run / augment / validate, seed precedence, exit codes."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from augbench import cli, harness
from augbench.cli import main
from conftest import FIXTURE_CSV, REPO, SCHEMA

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


@pytest.mark.parametrize("section, key, value, message", [
    ("tree", "max_depth", [1], 'TreeConfig.max_depth must be a number or "auto", got [1]'),
    ("tree", "max_depth", {"d": 1},
     "TreeConfig.max_depth must be a number or \"auto\", got {'d': 1}"),
    ("svm_rbf", "gamma", [0.5], "RbfSvmConfig.gamma must be a number, got [0.5]"),
    ("gmm", "n_components", None, "GmmConfig.n_components must not be null"),
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


def test_grid_hyperparameter_still_takes_a_list(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST, hyperparams={"tree": {"depth_grid": [1, 2]}})))
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(overrides=st.dictionaries(
    st.sampled_from(sorted(harness._CONFIG_KEYS)), JSON_VALUES, max_size=3
))
def test_validate_ends_in_ok_or_one_error_line(overrides):
    fixture = REPO / "configs" / "fixture.json"
    config = json.loads(fixture.read_text())
    config["dataset"] = str((fixture.parent / config["dataset"]).resolve())
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
