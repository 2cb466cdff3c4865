"""Logistic regression and linear SVM: gradients, separable data, regularization."""

import numpy as np
import pytest

from augbench.classifiers import predict_labels
from augbench.classifiers.cv import stratified_kfold
from augbench.classifiers.linear import (
    LinearSvmConfig,
    LogisticConfig,
    _fit_linear_svm_fixed,
    _fit_linear_svm_many,
    _fit_logistic_fixed,
    _fit_logistic_many,
    fit_linear_svm,
    fit_logistic,
    logistic_loss_grad,
)
from augbench.rng import RngStream
from conftest import central_difference, max_relative_error


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
    assert model.loss_history[-1] < model.loss_history[0]


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
    from augbench.classifiers.linear import LinearModel

    model = LinearModel(np.zeros(3), 0.0, "logistic", 0.0, 0.5)
    np.testing.assert_allclose(model.decision_scores(np.ones((4, 3))), 0.5)


# ------------------------------------------------ stacked fold x lambda CV

def _fold_jobs(y, grid, folds=4):
    splits = stratified_kfold(y, folds, RngStream(8, ("folds",)))
    return [(tr, lam) for lam in grid for tr, _ in splits]


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
    jobs = _fold_jobs(y, grid)
    models = many(X, y, jobs, config)
    assert len(models) == len(jobs)
    for model, (rows, lam) in zip(models, jobs):
        ref = fixed(X[rows], y[rows], lam, config)
        assert (model.kind, model.reg_lambda, model.threshold) == (
            ref.kind, ref.reg_lambda, ref.threshold)
        np.testing.assert_allclose(model.weights, ref.weights, rtol=1e-8, atol=0)
        np.testing.assert_allclose(model.bias, ref.bias, rtol=1e-8, atol=0)


@pytest.mark.parametrize("bad", [0.0, -0.1])
def test_stacked_svm_rejects_nonpositive_lambda(bad):
    X, y = separable(seed=9)
    with pytest.raises(ValueError, match="reg_lambda > 0"):
        _fit_linear_svm_many(X, y, _fold_jobs(y, (1.0, bad)), LinearSvmConfig(epochs=5))
    with pytest.raises(ValueError, match="reg_lambda > 0"):
        fit_linear_svm(X, y, LinearSvmConfig(epochs=5, lambda_grid=(1.0, bad)))
