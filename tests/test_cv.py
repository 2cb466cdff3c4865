"""Stratified k-fold construction, grid search tie-breaking, and the
shared pinned-or-CV fit path of the tuned classifiers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench import harness
from augbench.classifiers import (
    KnnConfig,
    KnnModel,
    LinearSvmConfig,
    LogisticConfig,
    RbfSvmConfig,
    TreeConfig,
    fit_decision_tree,
    fit_knn,
    fit_linear_svm,
    fit_logistic,
    fit_rbf_svm,
)
from augbench.classifiers import cv as cv_module
from augbench.classifiers.svm_rbf import _fit_fixed_c
from augbench.classifiers.tree import fit_tree_fixed_depth
from augbench.classifiers.cv import CvError, cross_validate, per_job, stratified_kfold
from augbench.rng import RngStream
from test_linear import _fit_linear_svm_fixed, _fit_logistic_fixed


def test_folds_partition_and_keep_both_classes():
    y = np.array([0] * 30 + [1] * 10)
    splits = stratified_kfold(y, 5, RngStream(0, ("folds",)))
    assert len(splits) == 5
    all_val = np.concatenate([va for _, va in splits])
    np.testing.assert_array_equal(np.sort(all_val), np.arange(40))
    for tr, va in splits:
        assert len(np.intersect1d(tr, va)) == 0
        assert set(np.unique(y[va])) == {0, 1}
        assert set(np.unique(y[tr])) == {0, 1}
        assert len(va) == 8  # 6 negatives + 2 positives per fold


def test_folds_deterministic():
    y = np.array([0, 1] * 25)
    a = stratified_kfold(y, 5, RngStream(3, ("f",)))
    b = stratified_kfold(y, 5, RngStream(3, ("f",)))
    for (ta, va), (tb, vb) in zip(a, b):
        np.testing.assert_array_equal(va, vb)


def test_folds_errors():
    with pytest.raises(CvError):
        stratified_kfold(np.array([0, 1]), 1, RngStream(0))
    with pytest.raises(CvError):
        # 2 positives cannot cover 5 folds.
        stratified_kfold(np.array([0] * 20 + [1] * 2), 5, RngStream(0))
    with pytest.raises(CvError):
        stratified_kfold(np.array([], dtype=int), 2, RngStream(0))


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    folds=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_folds_exist_exactly_when_every_class_covers_every_fold(counts, folds, seed):
    y = np.repeat(np.arange(len(counts)), counts)
    present = [c for c in counts if c]
    if not present or min(present) < folds:
        with pytest.raises(CvError):
            stratified_kfold(y, folds, RngStream(seed, ("folds",)))
        return
    splits = stratified_kfold(y, folds, RngStream(seed, ("folds",)))
    assert len(splits) == folds
    np.testing.assert_array_equal(np.sort(np.concatenate([va for _, va in splits])),
                                  np.arange(len(y)))
    for tr, va in splits:
        np.testing.assert_array_equal(np.sort(np.concatenate([tr, va])), np.arange(len(y)))
        assert set(y[va]) == set(y)


class ConstantModel:
    """Predicts a constant label; lets the test control fold accuracy."""

    threshold = 0.5

    def __init__(self, label):
        self.label = label

    def decision_scores(self, X):
        return np.full(len(X), float(self.label))


def test_grid_order_and_first_best_tie():
    y = np.array([0] * 20 + [1] * 20)
    X = np.zeros((40, 1))

    def trainer(Xt, yt, param):
        return ConstantModel(param)

    # Both constant predictors score 0.5; the tie must go to the first entry.
    cv = cross_validate(per_job(trainer), X, y, 4, [0, 1], RngStream(1, ("cv",)))
    assert cv.best_param == 0
    assert cv.best_index == 0
    assert [row[0] for row in cv.table] == [0, 1]
    assert all(mean == pytest.approx(0.5) for _, mean, _ in cv.table)


def test_grid_picks_the_better_param():
    y = np.array([0] * 30 + [1] * 10)
    X = np.zeros((40, 1))

    def trainer(Xt, yt, param):
        return ConstantModel(param)

    cv = cross_validate(per_job(trainer), X, y, 5, [1, 0], RngStream(2, ("cv",)))
    assert cv.best_param == 0  # majority class wins at 0.75
    assert cv.table[cv.best_index][1] == pytest.approx(0.75)


def test_empty_grid_rejected():
    with pytest.raises(CvError):
        cross_validate(per_job(lambda *a: None), np.zeros((4, 1)),
                       np.array([0, 0, 1, 1]), 2, [], RngStream(0))


# ------------------------------------------------------------ fit_with_cv

# name -> (fitter, config class, other config fields, tuned field, grid field, value)
TUNED = {
    "tree": (fit_decision_tree, TreeConfig, {}, "max_depth", "depth_grid", 3),
    "knn": (fit_knn, KnnConfig, {}, "k", "k_grid", 3),
    "logistic": (fit_logistic, LogisticConfig, {"epochs": 200}, "reg_lambda",
                 "lambda_grid", 0.1),
    "svm_linear": (fit_linear_svm, LinearSvmConfig, {"epochs": 200}, "reg_lambda",
                   "lambda_grid", 0.1),
    "svm_rbf": (fit_rbf_svm, RbfSvmConfig, {}, "C", "c_grid", 1.0),
}
def _two_blobs():
    rng = RngStream(7, ("blobs",))
    X = np.vstack([rng.derive("a").normal(size=(20, 2)),
                   rng.derive("b").normal(size=(20, 2)) + 1.5])
    return X, np.array([0] * 20 + [1] * 20)


@pytest.mark.parametrize("name", sorted(TUNED))
def test_pinned_param_skips_cv(name, monkeypatch):
    fitter, config_cls, extra, field, _, value = TUNED[name]

    def no_cv(*args, **kwargs):
        raise AssertionError("a pinned hyperparameter must not run CV")

    monkeypatch.setattr(cv_module, "cross_validate_sets", no_cv)
    X, y = _two_blobs()
    model = fitter(X, y, config_cls(**extra, **{field: value}), RngStream(0, (name,)))
    assert model.cv_result is None


@pytest.mark.parametrize("name", sorted(TUNED))
def test_auto_with_one_entry_grid_matches_pinned_fit(name, monkeypatch):
    fitter, config_cls, extra, field, grid_field, value = TUNED[name]
    calls = []
    real = cv_module.cross_validate_sets

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cv_module, "cross_validate_sets", spy)
    X, y = _two_blobs()
    rng = RngStream(0, (name,))
    auto = fitter(X, y, config_cls(**extra, **{field: "auto", grid_field: (value,)}), rng)
    assert len(calls) == 1
    pinned = fitter(X, y, config_cls(**extra, **{field: value}), rng)
    assert len(calls) == 1
    assert auto.cv_result.best_param == value
    assert auto.cv_result.best_index == 0
    assert pinned.cv_result is None
    np.testing.assert_array_equal(auto.decision_scores(X), pinned.decision_scores(X))


@pytest.mark.parametrize("auto", [True, False], ids=["auto", "pinned"])
@pytest.mark.parametrize("name", ["knn", "svm_rbf", "tree"])
def test_each_set_cross_validates_through_cross_validate(name, auto, monkeypatch):
    # A traced run times CV at `cv.cross_validate`, so every set the tree,
    # KNN or RBF SVM tunes goes through it once, and its model keeps the
    # result it returned.
    _, config_cls, extra, field, _, value = TUNED[name]
    returned = []
    real = cv_module.cross_validate

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(cv_module, "cross_validate", spy)
    X, y = _two_blobs()
    sets = [(X, y, RngStream(k, (name,))) for k in range(3)]
    config = config_cls(**extra, **{field: "auto" if auto else value})
    models = harness._fit_cells(name, sets, config)
    assert len(returned) == (3 if auto else 0)
    assert [m.cv_result for m in models] == (returned if auto else [None] * 3)
    assert all(m.cv_result is r for m, r in zip(models, returned))


# name -> per-model fitter `(X, y, param, config) -> model`; for the linear
# learners, the oracle their stacked trainer is checked against.
PER_MODEL = {
    "tree": fit_tree_fixed_depth,
    "knn": lambda X, y, k, config: KnnModel(X, y, min(k, len(y)), config.weighting),
    "logistic": _fit_logistic_fixed,
    "svm_linear": _fit_linear_svm_fixed,
    "svm_rbf": _fit_fixed_c,
}


@pytest.mark.parametrize("name", sorted(TUNED))
def test_stacked_cv_hook_chooses_like_the_per_model_loop(name, monkeypatch):
    fitter, config_cls, extra, field, _, _ = TUNED[name]
    calls = []
    real = cv_module.cross_validate_sets

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cv_module, "cross_validate_sets", spy)
    X, y = _two_blobs()
    config = config_cls(**extra, **{field: "auto"})
    fitter(X, y, config, RngStream(0, (name,)))
    ((fit_sets, ((X_cv, y_cv, rng),), folds, grid),) = calls
    [given] = real(fit_sets, [(X_cv, y_cv, rng)], folds, grid)
    oracle = per_job(lambda Xt, yt, param: PER_MODEL[name](Xt, yt, param, config))
    loop = cross_validate(oracle, X_cv, y_cv, folds, grid, rng)
    assert given.best_index == loop.best_index
    assert given.best_param == loop.best_param
    assert [(p, len(accs)) for p, _, accs in given.table] == [
        (p, len(accs)) for p, _, accs in loop.table
    ]
