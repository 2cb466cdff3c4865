"""Dense network classifier: learning, loss descent, determinism."""

import numpy as np
import pytest

from augbench.classifiers import predict_labels
from augbench.classifiers.dense import PROB_CLAMP, DenseNetConfig, fit_dense_net
from augbench.nncore import AdamState, init_mlp
from augbench.rng import RngStream
from conftest import flat, ref_adam_step, ref_backward, ref_forward


def blobs(seed=0, n=80):
    rng = RngStream(seed, ("blobs",))
    X = np.vstack([rng.derive("a").normal(size=(n // 2, 2)),
                   rng.derive("b").normal(size=(n // 2, 2)) + 3.0])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def test_learns_separable_blobs():
    X, y = blobs()
    model = fit_dense_net(X, y, DenseNetConfig(epochs=400), RngStream(0, ("fit",)))
    assert np.mean(predict_labels(model, X) == y) >= 0.95
    assert model.loss_history.shape == (400,)
    assert model.loss_history[-1] < model.loss_history[0] * 0.5


def test_scores_are_probabilities():
    X, y = blobs(seed=1)
    model = fit_dense_net(X, y, DenseNetConfig(epochs=100), RngStream(1, ("fit",)))
    s = model.decision_scores(X)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert model.threshold == 0.5


def test_architecture_override_and_hyperparams():
    X, y = blobs(seed=2)
    model = fit_dense_net(X, y, DenseNetConfig(hidden=(5, 3), epochs=10),
                          RngStream(2, ("fit",)))
    assert model.hyperparams == {"architecture": "2->5->3->1"}


def test_deterministic():
    X, y = blobs(seed=3)
    cfg = DenseNetConfig(epochs=50)
    a = fit_dense_net(X, y, cfg, RngStream(4, ("fit",)))
    b = fit_dense_net(X, y, cfg, RngStream(4, ("fit",)))
    np.testing.assert_array_equal(a.decision_scores(X), b.decision_scores(X))
    assert a.loss_history.shape == (50,)
    assert np.array_equal(a.loss_history, b.loss_history)


def test_single_class_rejected():
    with pytest.raises(ValueError):
        fit_dense_net(np.zeros((6, 2)), np.zeros(6, dtype=int))


def test_zero_epochs_scores_finite_in_unit_interval():
    X, y = blobs(seed=4)
    model = fit_dense_net(X, y, DenseNetConfig(epochs=0), RngStream(5, ("fit",)))
    s = model.decision_scores(X)
    assert model.loss_history.shape == (0,)
    assert np.all(np.isfinite(s)) and np.all((s > 0.0) & (s < 1.0))


def test_fit_equals_the_plain_formula_loop_bit_for_bit():
    X, y = blobs(seed=5, n=40)
    config = DenseNetConfig(hidden=(6, 4), epochs=60)
    model = fit_dense_net(X, y, config, RngStream(6, ("fit",)))

    # The training loop on np.clip, np.mean and a full backward pass.
    params = init_mlp([2, 6, 4, 1], ["relu", "relu", "sigmoid"],
                      RngStream(6, ("fit",)).derive("init"))
    state = AdamState.for_params(params.flat, alpha=config.learning_rate)
    t = y.astype(float).reshape(-1, 1)
    history = []
    for _ in range(config.epochs):
        acts = ref_forward(params, X)
        p = np.clip(acts[-1], PROB_CLAMP, 1.0 - PROB_CLAMP)
        history.append(float(-np.mean(t * np.log(p) + (1 - t) * np.log(1 - p))))
        grads, _ = ref_backward(params, acts, (p - t) / (len(t) * p * (1.0 - p)))
        ref_adam_step(params.flat, flat(grads), state)
    assert np.array_equal(model.params.flat, params.flat)
    assert model.loss_history.shape == (config.epochs,)
    assert model.loss_history.dtype == np.float64
    assert np.array_equal(model.loss_history, history)
