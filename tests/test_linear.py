"""Logistic regression and linear SVM: gradients, separable data,
regularization, and the stacked trainers against per-model oracles and,
bit for bit, against the reference stacked epoch."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench.classifiers import predict_labels
from augbench.classifiers.cv import stratified_kfold
from augbench.classifiers.linear import (
    LinearModel,
    LinearSvmConfig,
    LogisticConfig,
    _check_svm_lambda,
    _fit_linear_svm_stack,
    _fit_logistic_stack,
    fit_linear_svm,
    fit_logistic,
    logistic_loss_grad,
)
from augbench.config import ExperimentConfig
from augbench.harness import prepare
from augbench.nncore import AdamState, adam_step
from augbench.rng import RngStream
from conftest import (
    REPO,
    central_difference,
    flat_jobs,
    max_relative_error,
    ref_fit_linear_svm_many,
    ref_fit_logistic_many,
)


# Per-model oracles: one model, one (X, y, lambda), no mask. The stacked
# trainers must reproduce them column by column.
def _fit_logistic_fixed(
    X: np.ndarray, y: np.ndarray, reg_lambda: float, config: LogisticConfig
) -> LinearModel:
    params = np.zeros(X.shape[1] + 1)  # [w, b]
    w = params[:-1]
    grad = np.empty_like(params)
    state = AdamState.for_params(params, alpha=config.learning_rate)
    for _ in range(config.epochs):
        _, dw, db = logistic_loss_grad(w, params[-1], X, y, reg_lambda)
        grad[:-1], grad[-1] = dw, db
        adam_step(params, grad, state)
    return LinearModel(w, float(params[-1]), "logistic", reg_lambda, 0.5)


def _fit_linear_svm_fixed(
    X: np.ndarray, y01: np.ndarray, reg_lambda: float, config: LinearSvmConfig
) -> LinearModel:
    _check_svm_lambda(reg_lambda)
    y = 2.0 * y01 - 1.0
    n = len(y)
    w = np.zeros(X.shape[1])
    b = 0.0
    for t in range(1, config.epochs + 1):
        margin = y * (X @ w + b)
        viol = margin < 1.0
        eta = 1.0 / (reg_lambda * t)
        gw = reg_lambda * w - (X[viol].T @ y[viol]) / n
        gb = -float(y[viol].sum()) / n
        w = w - eta * gw
        b = b - eta * gb
    return LinearModel(w, b, "linear-svm", reg_lambda, 0.0)


# The stacked trainers on one set: its models, group by group.
def _fit_logistic_many(X, y, groups, config):
    return _fit_logistic_stack([(X, y, groups)], config)[0]


def _fit_linear_svm_many(X, y, groups, config):
    return _fit_linear_svm_stack([(X, y, groups)], config)[0]


def _assert_matches_oracle(model, ref):
    assert (model.kind, model.reg_lambda, model.threshold) == (
        ref.kind, ref.reg_lambda, ref.threshold)
    np.testing.assert_allclose(model.weights, ref.weights, rtol=1e-8, atol=0)
    np.testing.assert_allclose(model.bias, ref.bias, rtol=1e-8, atol=0)


def separable(seed=0, n=60):
    rng = RngStream(seed, ("sep",))
    X = rng.derive("x").normal(size=(n, 2))
    y = (X @ np.array([2.0, -1.0]) + 0.3 > 0).astype(int)
    return X, y


def test_logistic_gradient_matches_finite_differences():
    rng = RngStream(1, ("fd",))
    X = rng.derive("x").normal(size=(12, 4))
    y = (rng.derive("y").uniform(0, 1, size=12) > 0.5).astype(int)
    w0 = rng.derive("w").normal(size=4)

    def loss_fn(arrays):
        return logistic_loss_grad(arrays[0], float(arrays[1][0]), X, y, 0.1)[0]

    _, dw, db = logistic_loss_grad(w0, 0.2, X, y, 0.1)
    numeric = central_difference(loss_fn, [w0, np.array([0.2])])
    assert max_relative_error([dw, np.array([db])], numeric) < 1e-6


def test_logistic_loss_at_zero_weights_is_log_two():
    X = np.zeros((8, 3))
    y = np.array([0, 1] * 4)
    loss, dw, db = logistic_loss_grad(np.zeros(3), 0.0, X, y, 0.0)
    assert loss == pytest.approx(np.log(2.0))
    assert db == pytest.approx(0.0)


def test_logistic_fits_separable_data():
    X, y = separable()
    model = fit_logistic(X, y, LogisticConfig(reg_lambda=0.0, epochs=500))
    assert np.mean(predict_labels(model, X) == y) >= 0.95
    assert model.kind == "logistic"
    assert model.threshold == 0.5


def test_logistic_regularization_shrinks_weights():
    X, y = separable(seed=2)
    loose = fit_logistic(X, y, LogisticConfig(reg_lambda=0.0, epochs=400))
    tight = fit_logistic(X, y, LogisticConfig(reg_lambda=1.0, epochs=400))
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_logistic_auto_lambda_from_grid():
    X, y = separable(seed=3)
    model = fit_logistic(X, y, LogisticConfig(epochs=200), RngStream(3, ("cv",)))
    assert model.reg_lambda in LogisticConfig().lambda_grid
    assert model.cv_result is not None
    assert model.hyperparams == {"kind": "logistic", "lambda": model.reg_lambda}


def test_linear_svm_fits_separable_data():
    X, y = separable(seed=4)
    model = fit_linear_svm(X, y, LinearSvmConfig(reg_lambda=0.01))
    assert np.mean(predict_labels(model, X) == y) >= 0.95
    assert model.kind == "linear-svm"
    assert model.threshold == 0.0  # margin scores threshold at zero


def test_linear_svm_margin_scores_are_signed():
    X, y = separable(seed=5)
    model = fit_linear_svm(X, y, LinearSvmConfig(reg_lambda=0.01))
    scores = model.decision_scores(X)
    assert scores.min() < 0.0 < scores.max()


def test_linear_svm_rejects_nonpositive_lambda():
    X, y = separable(seed=6)
    with pytest.raises(ValueError):
        fit_linear_svm(X, y, LinearSvmConfig(reg_lambda=0.0))


def test_both_require_two_classes():
    X = np.zeros((4, 2))
    y = np.zeros(4, dtype=int)
    with pytest.raises(ValueError):
        fit_logistic(X, y)
    with pytest.raises(ValueError):
        fit_linear_svm(X, y)


def test_svm_auto_lambda_from_grid():
    X, y = separable(seed=7)
    model = fit_linear_svm(X, y, LinearSvmConfig(epochs=300), RngStream(7, ("cv",)))
    assert model.reg_lambda in LinearSvmConfig().lambda_grid
    assert model.cv_result is not None


def test_logistic_zero_weights_scores_half():
    model = LinearModel(np.zeros(3), 0.0, "logistic", 0.0, 0.5)
    np.testing.assert_allclose(model.decision_scores(np.ones((4, 3))), 0.5)


# ------------------------------------------------ stacked fold x lambda CV

def _fold_groups(y, grid, folds=4):
    splits = stratified_kfold(y, folds, RngStream(8, ("folds",)))
    return [(tr, list(grid)) for tr, _ in splits]


@pytest.mark.parametrize("learner", ["logistic", "svm_linear"])
def test_stacked_cv_models_match_per_model_fits(learner):
    X, y = separable(seed=8, n=80)
    if learner == "logistic":
        # lambda = 0 is the unregularized column of the default grid
        config, grid = LogisticConfig(epochs=300), (1.0, 0.1, 0.0)
        fixed, many = _fit_logistic_fixed, _fit_logistic_many
    else:
        config, grid = LinearSvmConfig(epochs=300), (1.0, 0.01, 0.001)
        fixed, many = _fit_linear_svm_fixed, _fit_linear_svm_many
    groups = _fold_groups(y, grid)
    models = many(X, y, groups, config)
    assert len(models) == 4 * len(grid)
    for model, (rows, lam) in zip(models, flat_jobs(groups)):
        _assert_matches_oracle(model, fixed(X[rows], y[rows], lam, config))


@pytest.mark.parametrize("learner", ["logistic", "svm_linear"])
def test_pinned_and_refit_models_match_the_all_rows_oracle(learner):
    X, y = separable(seed=10, n=80)
    if learner == "logistic":
        fitter, config_cls, fixed, lam = fit_logistic, LogisticConfig, _fit_logistic_fixed, 0.1
    else:
        fitter, config_cls, fixed, lam = fit_linear_svm, LinearSvmConfig, _fit_linear_svm_fixed, 0.01
    pinned_config = config_cls(epochs=300, reg_lambda=lam)
    pinned = fitter(X, y, pinned_config, RngStream(10, ("cv",)))
    assert pinned.cv_result is None
    _assert_matches_oracle(pinned, fixed(X, y, lam, pinned_config))

    auto_config = config_cls(epochs=300)
    refit = fitter(X, y, auto_config, RngStream(10, ("cv",)))
    assert refit.reg_lambda == refit.cv_result.best_param
    _assert_matches_oracle(refit, fixed(X, y, refit.reg_lambda, auto_config))


@pytest.mark.parametrize("bad", [0.0, -0.1])
def test_stacked_svm_rejects_nonpositive_lambda(bad):
    X, y = separable(seed=9)
    with pytest.raises(ValueError, match="reg_lambda > 0"):
        _fit_linear_svm_many(X, y, _fold_groups(y, (1.0, bad)), LinearSvmConfig(epochs=5))
    with pytest.raises(ValueError, match="reg_lambda > 0"):
        fit_linear_svm(X, y, LinearSvmConfig(epochs=5, lambda_grid=(1.0, bad)))


# ------------------------------------- the epoch against its reference, exactly

STACKED = {
    "logistic": (_fit_logistic_many, ref_fit_logistic_many, LogisticConfig),
    "svm_linear": (_fit_linear_svm_many, ref_fit_linear_svm_many, LinearSvmConfig),
}


@functools.cache
def _fixture_train():
    """The bundled fixture's training rows, as `augbench run` fits them."""
    data = prepare(ExperimentConfig.from_json(REPO / "configs" / "fixture.json"))
    return data.X_train, data.y_train


def _assert_same_bits(models, refs):
    assert len(models) == len(refs)
    for model, ref in zip(models, refs):
        assert (model.kind, model.reg_lambda, model.threshold) == (
            ref.kind, ref.reg_lambda, ref.threshold)
        assert np.array_equal(model.weights, ref.weights)
        assert model.bias == ref.bias


@pytest.mark.parametrize("learner", sorted(STACKED))
def test_cv_stack_equals_the_reference_epoch(learner):
    many, ref, config_cls = STACKED[learner]
    config = config_cls()
    X, y = _fixture_train()
    splits = stratified_kfold(y, config.cv_folds, RngStream(0, ("folds",)))
    groups = [(tr, list(config.lambda_grid)) for tr, _ in splits]
    jobs = flat_jobs(groups)
    assert len(jobs) == 20
    _assert_same_bits(many(X, y, groups, config), ref(X, y, jobs, config))


@pytest.mark.parametrize("learner", sorted(STACKED))
def test_all_rows_fit_equals_the_reference_epoch(learner):
    # J = 1: numpy computes a one-column product as a matrix-vector product.
    many, ref, config_cls = STACKED[learner]
    config = config_cls()
    X, y = _fixture_train()
    for lam in config.lambda_grid:
        groups = [(np.arange(len(y)), [lam])]
        _assert_same_bits(many(X, y, groups, config), ref(X, y, flat_jobs(groups), config))


@settings(max_examples=60, deadline=None)
@given(
    learner=st.sampled_from(sorted(STACKED)),
    seed=st.integers(0, 2**32 - 1),
    keep=st.floats(0.05, 1.0),
    lams=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=1, max_size=6),
    epochs=st.integers(0, 12),
)
def test_stacked_trainers_equal_the_reference_on_any_rows(learner, seed, keep, lams, epochs):
    many, ref, config_cls = STACKED[learner]
    if learner == "svm_linear":
        lams = [lam or 1.0 for lam in lams]  # Pegasos needs lambda > 0
    X, y = _fixture_train()
    rng = np.random.default_rng(seed)
    groups = []
    for lam in lams:
        rows = np.flatnonzero(rng.random(len(y)) < keep)
        groups.append((rows if len(rows) else np.array([0]), [lam]))
    config = config_cls(epochs=epochs)
    _assert_same_bits(many(X, y, groups, config), ref(X, y, flat_jobs(groups), config))
