"""Shared fixtures and numeric-oracle helpers for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from augbench.nncore import Layer, MlpParams

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
