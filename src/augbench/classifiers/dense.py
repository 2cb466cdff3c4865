"""Dense ReLU network classifier trained with Adam on cross-entropy."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..nncore import (
    AdamState, GradBuffer, MlpParams, MlpStack, adam_step, init_mlp, mlp_backward,
    mlp_forward,
)
from ..rng import RngStream

PROB_CLAMP = 1e-12


@dataclass
class DenseNetConfig:
    hidden: tuple[int, int] = field(default=(16, 8), metadata={"ge": 1})
    epochs: int = field(default=500, metadata={"ge": 0})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})


@dataclass
class DenseNetModel:
    params: MlpParams
    threshold: float = 0.5
    loss_history: list[float] = field(default_factory=list, repr=False)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return mlp_forward(self.params, X)[-1][:, 0]

    @property
    def hyperparams(self) -> dict:
        sizes = [self.params.input_size] + [l.weights.shape[1] for l in self.params.layers]
        return {"architecture": "->".join(map(str, sizes))}


def fit_dense_net(
    X: np.ndarray, y: np.ndarray,
    config: DenseNetConfig | None = None,
    rng: RngStream | None = None,
) -> DenseNetModel:
    config = config or DenseNetConfig()
    rng = rng or RngStream(0, ("dense",))
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")

    n = len(y)
    # One network over all the rows, built once: its buffers serve every epoch.
    stack = MlpStack([init_mlp(
        [X.shape[1], *config.hidden, 1],
        ["relu", "relu", "sigmoid"],
        rng.derive("init"),
    )], [n])
    state = AdamState.for_params(stack.flat, alpha=config.learning_rate)
    grad = GradBuffer(stack)
    model = DenseNetModel(stack.nets[0])
    not_y = 1 - y

    for epoch in range(config.epochs):
        acts = mlp_forward(stack, X)
        p = np.minimum(np.maximum(acts[-1], PROB_CLAMP), 1.0 - PROB_CLAMP)  # np.clip
        not_p = 1.0 - p
        # -np.mean(...), as np.add.reduce / size: the same bits without the wrapper.
        loss = float(-(np.add.reduce(y * np.log(p) + not_y * np.log(not_p), axis=None) / n))
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at epoch {epoch}")
        model.loss_history.append(loss)
        d_out = (p - y) / (n * p * not_p)  # dBCE/d(sigmoid output)
        mlp_backward(stack, acts, d_out, grad, input_grad=False)
        adam_step(stack.flat, grad.flat, state)
    return model
