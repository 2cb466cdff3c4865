"""Dense ReLU network classifier trained with Adam on cross-entropy.

`fit_dense_net_sets` trains the networks of many training sets in
lockstep, as `gan.train_gan` trains its classes, one loop per input
width (`base.by_group` gathers the sets of each width and bounds each
loop's rows): the networks of a loop are an `nncore.MlpStack` over the
sets' stacked rows, so every product, bias sum and loss reduction runs
on one set's own rows and weights, and every elementwise step and Adam
update runs once. Each network has the bits of one trained alone. It
raises if any set fails its checks or its fit; `fit_dense_net` is its
one-set call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import DenseNetConfig
from ..nncore import (
    AdamState, GradBuffer, MlpParams, MlpStack, adam_step, block_means, clip, init_mlp,
    mlp_backward, mlp_forward, row_blocks,
)
from ..rng import RngStream
from .base import by_group, check_two_classes

PROB_CLAMP = 1e-12


@dataclass
class DenseNetModel:
    params: MlpParams
    # Row e is epoch e's training loss: an (epochs,) float64 array.
    loss_history: np.ndarray = field(repr=False)
    threshold: float = 0.5

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return mlp_forward(self.params, X)[-1][:, 0]

    @property
    def hyperparams(self) -> dict:
        sizes = [self.params.input_size] + [l.weights.shape[1] for l in self.params.layers]
        return {"architecture": "->".join(map(str, sizes))}


def _checked_float_set(X, y, rng) -> tuple[np.ndarray, np.ndarray, RngStream]:
    """`base.checked_set`, but with the labels as a float column, the
    network's target; an int cast would truncate a non-integer label."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    check_two_classes(y)
    return X, y, rng


def _train_stack(sets, config: DenseNetConfig) -> list[DenseNetModel]:
    """One network per `(X, y, rng)` of `sets`, all of one input width,
    trained in one loop: an `MlpStack` over the stacked rows."""
    stack = MlpStack([
        init_mlp([X.shape[1], *config.hidden, 1], ["relu", "relu", "sigmoid"], rng.derive("init"))
        for X, _, rng in sets
    ], [len(y) for _, y, _ in sets])
    state = AdamState.for_params(stack.flat, alpha=config.learning_rate)
    grad = GradBuffer(stack)
    models = [DenseNetModel(net, np.empty(config.epochs)) for net in stack.nets]
    X = np.concatenate([X for X, _, _ in sets])
    y = np.concatenate([y for _, y, _ in sets])
    blocks, n = row_blocks(stack, X)
    not_y = 1 - y

    for epoch in range(config.epochs):
        acts = mlp_forward(stack, X)
        p = clip(acts[-1], PROB_CLAMP, 1.0 - PROB_CLAMP)
        not_p = 1.0 - p
        log_lik = y * np.log(p) + not_y * np.log(not_p)
        for model, mean in zip(models, block_means(log_lik, blocks)):
            loss = -mean
            if not math.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at epoch {epoch}")
            model.loss_history[epoch] = loss
        d_out = (p - y) / (n * p * not_p)  # dBCE/d(sigmoid output), per block
        mlp_backward(stack, acts, d_out, grad, input_grad=False)
        adam_step(stack.flat, grad.flat, state)
    return models


def fit_dense_net_sets(sets: list, config: DenseNetConfig) -> list[DenseNetModel]:
    """`fit_dense_net` on every `(X, y, rng)` of `sets`: the sets of each
    input width train in one loop. Raises if any set fails its checks or
    its fit."""
    return by_group(
        [_checked_float_set(*s) for s in sets], lambda s: s[0].shape[1],
        lambda group: _train_stack(group, config),
    )


def fit_dense_net(
    X: np.ndarray, y: np.ndarray,
    config: DenseNetConfig | None = None,
    rng: RngStream | None = None,
) -> DenseNetModel:
    rng = rng or RngStream(0, ("dense",))
    [model] = fit_dense_net_sets([(X, y, rng)], config or DenseNetConfig())
    return model
