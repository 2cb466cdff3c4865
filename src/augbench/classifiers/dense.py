"""Dense ReLU network classifier trained with Adam on cross-entropy.

`fit_dense_net_sets` trains the networks of many training sets in
lockstep, as `gan.train_gan` trains its classes: the networks of one
input width are an `nncore.MlpStack` over the sets' stacked rows, so
every product, bias sum and loss reduction runs on one set's own rows
and weights, and every elementwise step and Adam update runs once. Each
network has the bits of one trained alone; `fit_dense_net` is the
one-set call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..nncore import (
    AdamState, GradBuffer, MlpParams, MlpStack, adam_step, init_mlp, mlp_backward,
    mlp_forward, row_blocks,
)
from ..rng import RngStream
from .base import attempt, check_two_classes, fit_jointly, only

PROB_CLAMP = 1e-12


@dataclass
class DenseNetConfig:
    hidden: tuple[int, int] = field(default=(16, 8), metadata={"ge": 1})
    epochs: int = field(default=500, metadata={"ge": 0})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})


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


def _checked_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    check_two_classes(y)
    return X, y


def _train_stack(sets, config: DenseNetConfig) -> list[DenseNetModel]:
    """One network per `((X, y), rng)` of `sets`, all of one input width,
    trained in one loop: an `MlpStack` over the stacked rows."""
    stack = MlpStack([
        init_mlp([X.shape[1], *config.hidden, 1], ["relu", "relu", "sigmoid"], rng.derive("init"))
        for (X, _), rng in sets
    ], [len(y) for (_, y), _ in sets])
    state = AdamState.for_params(stack.flat, alpha=config.learning_rate)
    grad = GradBuffer(stack)
    models = [DenseNetModel(net, np.empty(config.epochs)) for net in stack.nets]
    X = np.concatenate([X for (X, _), _ in sets])
    y = np.concatenate([y for (_, y), _ in sets])
    blocks, n = row_blocks(stack, X)
    not_y = 1 - y

    for epoch in range(config.epochs):
        acts = mlp_forward(stack, X)
        p = np.minimum(np.maximum(acts[-1], PROB_CLAMP), 1.0 - PROB_CLAMP)  # np.clip
        not_p = 1.0 - p
        log_lik = y * np.log(p) + not_y * np.log(not_p)
        for model, (rows, size) in zip(models, blocks):
            # -np.mean(...), as np.add.reduce / size: the same bits without the wrapper.
            loss = float(-(np.add.reduce(log_lik[rows], axis=None) / size))
            if not math.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at epoch {epoch}")
            model.loss_history[epoch] = loss
        d_out = (p - y) / (n * p * not_p)  # dBCE/d(sigmoid output), per block
        mlp_backward(stack, acts, d_out, grad, input_grad=False)
        adam_step(stack.flat, grad.flat, state)
    return models


def fit_dense_net_sets(
    sets: list[tuple[np.ndarray, np.ndarray]],
    config: DenseNetConfig | None = None,
    rngs: list[RngStream] | None = None,
) -> list[DenseNetModel | Exception]:
    """`fit_dense_net` on every `(X, y)` of `sets`, set k with `rngs[k]`:
    the sets of each input width train in one loop (see `fit_jointly`).
    A set that fails its checks or its fit gets its error in place of
    its model."""
    config = config or DenseNetConfig()
    rngs = rngs or [RngStream(0, ("dense",))] * len(sets)
    results = [attempt(_checked_set, X, y) for X, y in sets]
    by_width = {}
    for k, s in enumerate(results):
        if not isinstance(s, Exception):
            by_width.setdefault(s[0].shape[1], []).append(k)
    for ks in by_width.values():
        fitted = fit_jointly(
            lambda group: _train_stack(group, config), [(results[k], rngs[k]) for k in ks]
        )
        for k, model in zip(ks, fitted):
            results[k] = model
    return results


def fit_dense_net(
    X: np.ndarray, y: np.ndarray,
    config: DenseNetConfig | None = None,
    rng: RngStream | None = None,
) -> DenseNetModel:
    return only(fit_dense_net_sets([(X, y)], config, rng and [rng]))
