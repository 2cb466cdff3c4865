"""Harness: config validation, grid orchestration, determinism, reports."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from augbench.classifiers import fit_decision_tree, predict_labels
from augbench.dataio import apply_preprocess, fit_preprocess, load_table, stratified_split
from augbench import harness
from augbench.gan import GanConfig
from augbench.harness import (
    AUGMENTER_IDS,
    CLASSIFIER_IDS,
    ConfigError,
    ExperimentConfig,
    emit_report,
    export_synthetic_csv,
    module_configs,
    render_report_md,
    render_results_csv,
    run_experiment,
)
from augbench.metrics import accuracy, f1, roc_auc
from augbench.rng import RngStream
from conftest import FIXTURE_CSV, SCHEMA

FAST_GMM = {"gmm": {"n_components": 2}}


def fast_config(**kw):
    base = dict(
        dataset=str(FIXTURE_CSV),
        schema=dict(SCHEMA),
        seed=0,
        augmenters=("none", "gmm"),
        classifiers=("tree", "knn"),
        n_synthetic=40,
        hyperparams=FAST_GMM,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- config


def test_config_rejects_unknown_ids_and_bad_values():
    with pytest.raises(ConfigError):
        fast_config(augmenters=("smote",))
    with pytest.raises(ConfigError):
        fast_config(classifiers=("xgboost",))
    with pytest.raises(ConfigError):
        fast_config(augmenters=())
    with pytest.raises(ConfigError):
        fast_config(test_fraction=1.0)
    with pytest.raises(ConfigError):
        fast_config(n_synthetic=-1)
    with pytest.raises(ConfigError):
        fast_config(hyperparams={"boosting": {}})
    with pytest.raises(ConfigError):
        fast_config(hyperparams={"tree": 5})


def test_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(
            {"dataset": "d.csv", "schema": {}, "sede": 1}
        )
    with pytest.raises(ConfigError, match="missing required"):
        ExperimentConfig.from_dict({"dataset": "d.csv"})


def test_from_json_resolves_dataset_relative_to_config(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"dataset": "data.csv", "schema": dict(SCHEMA)}
    ))
    cfg = ExperimentConfig.from_json(tmp_path / "cfg.json")
    assert cfg.dataset == str(tmp_path / "data.csv")
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_json(tmp_path / "nope.json")
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.from_json(tmp_path / "bad.json")


def test_digest_depends_on_content():
    a = fast_config().digest()
    assert a == fast_config().digest()
    assert a != fast_config(seed=1).digest()


def test_module_configs_overrides_sections_and_nested_vae():
    cfg = fast_config(hyperparams={
        "tree": {"max_depth": 3},
        "gan": {"epochs": 7, "vae": {"latent_dim": 9}},
        "vae": {"hidden_size": 5},
    })
    mc = module_configs(cfg)
    assert mc["tree"].max_depth == 3
    assert mc["gan"].epochs == 7
    assert mc["gan"].vae.latent_dim == 9
    assert mc["gan"].vae.hidden_size == 5  # inherits the vae section
    assert mc["vae"].hidden_size == 5
    assert mc["gan"].pretrain_epochs == GanConfig().pretrain_epochs


def test_module_configs_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown hyperparameter keys"):
        module_configs(fast_config(hyperparams={"tree": {"depth": 3}}))


@pytest.mark.parametrize("section, expected", [
    ({"tree": {"max_depth": "5"}}, 'max_depth must be an integer or "auto", got'),
    ({"tree": {"max_depth": True}}, 'max_depth must be an integer or "auto", got'),
    ({"knn": {"k": "3"}}, 'k must be an integer or "auto", got'),
    ({"logistic": {"epochs": "1000"}}, "epochs must be an integer, got"),
    ({"gmm": {"tol": False}}, "tol must be a number, got"),
    ({"gan": {"vae": {"latent_dim": "4"}}}, "latent_dim must be an integer, got"),
], ids=[f"section{i}" for i in range(6)])
def test_module_configs_rejects_string_or_bool_for_numeric_field(section, expected):
    with pytest.raises(ConfigError, match=expected):
        module_configs(fast_config(hyperparams=section))


def test_module_configs_auto_field_takes_auto_or_number():
    mc = module_configs(fast_config(hyperparams={
        "tree": {"max_depth": "auto"}, "knn": {"k": 5},
        "svm_rbf": {"C": 0.5, "gamma": None}, "logistic": {"reg_lambda": 0},
    }))
    assert (mc["tree"].max_depth, mc["knn"].k) == ("auto", 5)
    assert (mc["svm_rbf"].C, mc["svm_rbf"].gamma, mc["logistic"].reg_lambda) == (0.5, None, 0)


def _json_round_trip(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("section", sorted(harness._SECTIONS))
def test_every_section_default_passes_its_own_check(section):
    """Each field's default, sent through JSON and the builder, gives back
    the default config: no annotation rejects its own default."""
    defaults = harness._SECTIONS[section]()
    overrides = {
        f.name: _json_round_trip(getattr(defaults, f.name))
        for f in dataclasses.fields(defaults)
        if not (section == "gan" and f.name == "vae")  # a nested section
    }
    assert module_configs(fast_config(hyperparams={section: overrides})) == \
        module_configs(fast_config(hyperparams={}))


def test_experiment_config_defaults_pass_their_own_check():
    config = ExperimentConfig(dataset=str(FIXTURE_CSV), schema=dict(SCHEMA))
    again = ExperimentConfig.from_dict(_json_round_trip(dataclasses.asdict(config)))
    assert again == config
    assert again.digest() == config.digest()


# ---------------------------------------------------------------- run


def test_grid_shape_and_metric_ranges():
    bundle = run_experiment(fast_config())
    assert len(bundle.results) == 4  # 2 augmenters x 2 classifiers
    for r in bundle.results:
        assert not r.failed
        for v in (r.test_acc, r.test_f1, r.test_auc, r.train_acc):
            assert 0.0 <= v <= 1.0
    assert not bundle.contamination
    assert bundle.n_train + bundle.n_test == 400
    assert bundle.provenances["none"] is None
    assert bundle.provenances["gmm"].n_synthetic == 40


def test_none_cell_equals_direct_training():
    """The no-boost cell must match running the pipeline by hand."""
    cfg = fast_config(augmenters=("none",), classifiers=("tree",))
    bundle = run_experiment(cfg)
    cell = bundle.cell("none", "tree")

    table = load_table(cfg.dataset, cfg.schema)
    rng = RngStream(cfg.seed)
    split = stratified_split(table.labels, cfg.test_fraction, rng.derive("split"))
    plan = fit_preprocess(table.take(split.train_indices))
    X, y = apply_preprocess(table, plan)
    Xtr, ytr = X[split.train_indices], y[split.train_indices]
    Xte, yte = X[split.test_indices], y[split.test_indices]
    model = fit_decision_tree(Xtr, ytr, module_configs(cfg)["tree"],
                              RngStream(cfg.seed, ("cell", "none", "tree")))
    pred = predict_labels(model, Xte)
    assert cell.test_acc == accuracy(yte, pred)
    assert cell.test_f1 == f1(yte, pred)
    assert cell.test_auc == roc_auc(yte, model.decision_scores(Xte)).auc


def test_run_builds_module_configs_once(monkeypatch):
    calls = []
    real = harness.module_configs

    def spy(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(harness, "module_configs", spy)
    run_experiment(fast_config())
    assert len(calls) == 1


def test_gan_vae_epochs_points_to_pretrain_epochs():
    with pytest.raises(ConfigError, match="gan.pretrain_epochs"):
        module_configs(fast_config(hyperparams={"gan": {"vae": {"epochs": 3}}}))
    with pytest.raises(ConfigError, match="gan.vae must be an object"):
        module_configs(fast_config(hyperparams={"gan": {"vae": 5}}))
    cfg = module_configs(fast_config(hyperparams={"gan": {"vae": {"latent_dim": 3}}}))
    assert cfg["gan"].vae.latent_dim == 3


def test_failed_cell_does_not_abort_grid():
    cfg = fast_config(hyperparams={**FAST_GMM, "knn": {"k": 100000}})
    bundle = run_experiment(cfg)
    failed = [r for r in bundle.results if r.failed]
    assert {(r.augmenter, r.classifier) for r in failed} == {
        ("none", "knn"), ("gmm", "knn")
    }
    assert "ValueError" in failed[0].error
    assert not bundle.cell("none", "tree").failed
    report = render_report_md(bundle)
    assert "## Failed cells" in report
    assert "failed" in report  # failed metrics render as 'failed'


def test_rerun_is_byte_identical():
    a = run_experiment(fast_config())
    b = run_experiment(fast_config())
    assert render_results_csv(a) == render_results_csv(b)
    assert render_report_md(a) == render_report_md(b)


# ---------------------------------------------------------------- reports


def test_report_md_structure():
    bundle = run_experiment(fast_config())
    lines = render_report_md(bundle).splitlines()
    acc_header = next(l for l in lines if l.startswith("| Boost Option") and "Acc" in l)
    assert "Decision Tree Acc | Decision Tree F1" in acc_header
    assert "KNN Acc | KNN F1" in acc_header
    assert sum(l.startswith("| No boost") for l in lines) == 3  # Acc/F1, AUC, train
    assert sum(l.startswith("| GMM") for l in lines) == 3
    assert "## AUC" in "\n".join(lines)
    assert "## Train accuracy" in "\n".join(lines)


def test_results_csv_round_trips():
    bundle = run_experiment(fast_config())
    text = render_results_csv(bundle)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(bundle.results)
    for row in rows:
        cell = bundle.cell(row["augmenter"], row["classifier"])
        assert float(row["test_acc"]) == cell.test_acc  # repr() round-trip
        assert float(row["test_auc"]) == cell.test_auc
        assert json.loads(row["hyperparams"]) == json.loads(
            json.dumps(cell.hyperparams)
        )
        assert row["error"] == ""


def test_emit_report_writes_expected_files(tmp_path):
    bundle = run_experiment(fast_config())
    written = emit_report(bundle, tmp_path)
    names = {p.name for p in written}
    assert {"report.md", "results.csv", "run_meta.json"} <= names
    for aug in ("none", "gmm"):
        for c in ("tree", "knn"):
            assert f"roc_{aug}_{c}.csv" in names
            header = (tmp_path / f"roc_{aug}_{c}.csv").read_text().splitlines()[0]
            assert header == "fpr,tpr"
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["seed"] == 0
    assert meta["contamination"] is False
    assert len(meta["cell_durations_ms"]) == 4


def test_durations_never_reach_deterministic_artifacts(tmp_path):
    bundle = run_experiment(fast_config())
    assert "duration" not in render_results_csv(bundle)
    assert "duration" not in render_report_md(bundle)


def test_export_synthetic_csv_rounds_one_hot_blocks():
    table = load_table(FIXTURE_CSV, SCHEMA)
    plan = fit_preprocess(table)
    n_feat = len(plan.feature_order)
    rows = np.random.default_rng(0).normal(size=(5, n_feat))
    text = export_synthetic_csv(rows, np.ones(5, dtype=int), plan)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 5
    for row in parsed:
        hot = [float(row["gender=Male"]), float(row["gender=Female"])]
        assert sorted(hot) == [0.0, 1.0]  # valid one-hot after rounding
        assert row["label"] == "1"


def test_full_id_sets_are_the_published_grid():
    assert AUGMENTER_IDS == ("none", "gmm", "vae", "gan")
    assert CLASSIFIER_IDS == ("tree", "knn", "logistic", "svm_rbf", "svm_linear", "dense")


def test_fixture_split_sizes_and_default_synthetic_count():
    cfg = fast_config()
    bundle = run_experiment(cfg)
    assert bundle.n_train == 300 and bundle.n_test == 100  # 400 rows at 0.25
    defaults = ExperimentConfig(dataset=str(FIXTURE_CSV), schema=dict(SCHEMA))
    assert defaults.n_synthetic == 200


def test_all_cells_failed_still_writes_report(tmp_path):
    cfg = fast_config(classifiers=("knn",),
                      hyperparams={**FAST_GMM, "knn": {"k": 100000}})
    bundle = run_experiment(cfg)
    assert all(r.failed for r in bundle.results)
    emit_report(bundle, tmp_path)
    report = (tmp_path / "report.md").read_text()
    assert "## Failed cells" in report
    assert "| No boost | failed | failed |" in report
