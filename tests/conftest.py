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
