"""Shared fixtures and numeric-oracle helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from augbench.classifiers.linear import LinearModel, _check_svm_lambda
from augbench.nncore import AdamState, Layer, MlpParams

# GitHub Actions sets CI: a failing property there prints the blob that
# replays it (`@reproduce_failure`), and a slow shared runner cannot fail
# a property on its deadline. Built on the default profile, not on the
# "ci" profile hypothesis loads by itself in CI, which derandomizes.
settings.register_profile(
    "ci", settings.get_profile("default"), print_blob=True, deadline=None
)
if os.environ.get("CI"):
    settings.load_profile("ci")

REPO = Path(__file__).resolve().parent.parent
FIXTURE_CSV = REPO / "data" / "social_ads_400.csv"

SCHEMA = {
    "user_id": "identifier",
    "gender": "categorical",
    "age": "numeric",
    "salary": "numeric",
    "purchased": "label",
}


@pytest.fixture
def fixture_csv() -> Path:
    return FIXTURE_CSV


@pytest.fixture
def schema() -> dict:
    return dict(SCHEMA)


def central_difference(loss_fn, arrays, step=1e-5):
    """Finite-difference gradient of a scalar loss over a list of arrays.

    `loss_fn(arrays)` must be pure. Returns one gradient array per input.
    """
    grads = []
    for ai, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=float)
        flat = g.reshape(-1)
        for i in range(a.size):
            bumped = [x.copy() for x in arrays]
            bumped[ai].reshape(-1)[i] += step
            up = loss_fn(bumped)
            bumped[ai].reshape(-1)[i] -= 2 * step
            down = loss_fn(bumped)
            flat[i] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def with_arrays(params: MlpParams, arrays: list[np.ndarray]) -> MlpParams:
    """A new network with the activations of `params` and a copy of
    `arrays` ([W0, b0, W1, b1, ...]); lets a finite-difference loss
    rebuild the network from perturbed arrays."""
    return MlpParams([
        Layer(arrays[2 * i], arrays[2 * i + 1], layer.activation)
        for i, layer in enumerate(params.layers)
    ])


def max_relative_error(analytic, numeric) -> float:
    """Max elementwise |a - n| / max(|n|, 1) over matched array lists."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1.0)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# The plain formulas of the MLP step, before the hot path dropped unread
# products, numpy wrappers and temporaries. The lean step must give the
# same bits, so these are oracles for `np.array_equal`.


def ref_sigmoid(x):
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _ref_activate(x, kind):
    return {
        "relu": lambda: np.maximum(x, 0.0),
        "sigmoid": lambda: ref_sigmoid(x),
        "tanh": lambda: np.tanh(x),
        "identity": lambda: x,
    }[kind]()


def _ref_backprop_activation(delta, post, kind):
    return {
        "relu": lambda: delta * (post > 0.0),
        "sigmoid": lambda: delta * (post * (1.0 - post)),
        "tanh": lambda: delta * (1.0 - post * post),
        "identity": lambda: delta,
    }[kind]()


def ref_forward(params: MlpParams, x):
    """Per-layer post-activations, entry 0 the input."""
    activations = [x]
    for layer in params.layers:
        x = _ref_activate(x @ layer.weights + layer.bias, layer.activation)
        activations.append(x)
    return activations


def ref_backward(params: MlpParams, activations, output_gradient):
    """(parameter gradient as [W0, b0, W1, b1, ...], input-batch gradient)."""
    grads = [None] * (2 * len(params.layers))
    delta = output_gradient
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        delta = _ref_backprop_activation(delta, activations[i + 1], layer.activation)
        grads[2 * i] = activations[i].T @ delta
        grads[2 * i + 1] = np.add.reduce(delta, axis=0)
        delta = delta @ layer.weights.T
    return grads, delta


def ref_adam_step(params, grad, state):
    """One bias-corrected Adam step of `params`, `state.m` and `state.v` in place."""
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient passed to adam_step")
    state.t += 1
    t, b1, b2 = state.t, state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    params -= state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)


def flat(arrays):
    """[W0, b0, ...] as one vector in `MlpParams.flat` layout."""
    return np.concatenate([a.ravel() for a in arrays])


# The plain stacked epoch of the linear trainers: margins as `X @ W + B`
# and fresh temporaries every step. The trainers fold the bias into one
# product and compute in buffers, with the same bits, so these are
# oracles for `np.array_equal`.


def _ref_stack_jobs(n, jobs):
    mask = np.zeros((n, len(jobs)))
    for j, (rows, _) in enumerate(jobs):
        mask[rows, j] = 1.0
    lam = np.array([float(param) for _, param in jobs])
    return mask, mask.sum(axis=0), lam


def ref_fit_logistic_many(X, y, jobs, config):
    """One logistic model per (rows, lam) job by full-batch Adam."""
    mask, count, lam = _ref_stack_jobs(len(y), jobs)
    y = y[:, None]
    d, J = X.shape[1], len(jobs)
    params = np.zeros(d * J + J)  # [W row-major, B]
    W, B = params[: d * J].reshape(d, J), params[d * J:]
    grad = np.empty_like(params)
    dW, dB = grad[: d * J].reshape(d, J), grad[d * J:]
    state = AdamState.for_params(params, alpha=config.learning_rate)
    for _ in range(config.epochs):
        diff = (ref_sigmoid(X @ W + B) - y) * mask
        np.matmul(X.T, diff, out=dW)
        dW /= count
        dW += lam * W
        np.add.reduce(diff, axis=0, out=dB)
        dB /= count
        ref_adam_step(params, grad, state)
    return [
        LinearModel(W[:, j].copy(), float(B[j]), "logistic", param, 0.5)
        for j, (_, param) in enumerate(jobs)
    ]


def ref_fit_linear_svm_many(X, y01, jobs, config):
    """One linear SVM per (rows, lam) job by Pegasos subgradient steps."""
    mask, count, lam = _ref_stack_jobs(len(y01), jobs)
    _check_svm_lambda(lam)
    y = (2.0 * y01 - 1.0)[:, None]
    y_train = y * mask
    W = np.zeros((X.shape[1], len(jobs)))
    B = np.zeros(len(jobs))
    for t in range(1, config.epochs + 1):
        yv = np.where(y * (X @ W + B) < 1.0, y_train, 0.0)
        eta = 1.0 / (lam * t)
        W = W - eta * (lam * W - X.T @ yv / count)
        B = B - eta * (-yv.sum(axis=0) / count)
    return [
        LinearModel(W[:, j].copy(), float(B[j]), "linear-svm", param, 0.0)
        for j, (_, param) in enumerate(jobs)
    ]
