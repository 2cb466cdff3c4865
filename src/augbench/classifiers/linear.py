"""Regularized logistic regression and linear soft-margin SVM.

Logistic regression minimizes mean cross-entropy plus lambda*||w||^2/2
(bias unregularized) with full-batch Adam; its score is the sigmoid
probability, thresholded at 0.5. The linear SVM minimizes
lambda*||w||^2/2 plus mean hinge loss by subgradient descent with the
1/(lambda*t) step schedule; its score is the signed margin, thresholded
at 0. Regularization strength is chosen by stratified CV with ties to
the stronger regularizer (grids are listed largest-lambda first).

Each learner has one trainer, `_fit_*_many(X, y, groups, config)`, which
trains every lambda of its `(train_rows, [lambda, ...])` groups as one
stacked problem: column j of a d x J weight matrix is the j-th model,
group by group, a 0/1 row mask keeps each column to its group's training
rows, and every epoch is one pass of matrix products over all J columns.
It trains the J = 20 fold x lambda models of CV, and then the refit or a
pinned lambda as a J = 1 problem on all rows. `logistic_loss_grad` is
the per-model loss and gradient that the tests check by finite
differences; the trainers do not call it, so no loss is computed on the
training path.

The bias is the last row of one (d+1) x J array `[W; B]` (for logistic
regression, a view of Adam's parameter vector), so an epoch's margins
are the one product `[X | 1] @ [W; B]`, and its gradient `[dW; dB]` is
scaled by the row counts and regularized by `[lambda; 0]` as one array.
The epoch computes in (n, J) buffers allocated before the loop, against
y broadcast to (n, J) once; the linear SVM multiplies y into the rows
of `[X | 1]`, which is exact for y = +-1. Every value is the one the
plain formulas give (`ref_fit_*_many` in the tests), up to the sign of
an exact zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..nncore import AdamState, adam_step, sigmoid
from ..rng import RngStream
from .cv import CvResult, fit_with_cv

LOGISTIC_LAMBDA_GRID = (1.0, 0.1, 0.01, 0.0)
SVM_LAMBDA_GRID = (1.0, 0.1, 0.01, 0.001)


@dataclass
class LogisticConfig:
    reg_lambda: float | Literal["auto"] = field(default="auto", metadata={"ge": 0})
    lambda_grid: tuple[float, ...] = field(default=LOGISTIC_LAMBDA_GRID, metadata={"ge": 0})
    epochs: int = field(default=1000, metadata={"ge": 0})
    learning_rate: float = field(default=0.05, metadata={"gt": 0})
    cv_folds: int = field(default=5, metadata={"ge": 2})


@dataclass
class LinearSvmConfig:
    # Pegasos steps by 1/(lambda t), so lambda must be positive.
    reg_lambda: float | Literal["auto"] = field(default="auto", metadata={"gt": 0})
    lambda_grid: tuple[float, ...] = field(default=SVM_LAMBDA_GRID, metadata={"gt": 0})
    epochs: int = field(default=2000, metadata={"ge": 0})
    cv_folds: int = field(default=5, metadata={"ge": 2})


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    kind: str  # "logistic" | "linear-svm"
    reg_lambda: float
    threshold: float
    cv_result: CvResult | None = field(default=None, repr=False)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        margin = X @ self.weights + self.bias
        if self.kind == "logistic":
            return sigmoid(margin)
        return margin

    @property
    def hyperparams(self) -> dict:
        return {"kind": self.kind, "lambda": self.reg_lambda}


def _check_two_classes(y: np.ndarray):
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")


def logistic_loss_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, reg_lambda: float
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy + lambda*||w||^2/2; returns (loss, dw, db)."""
    n = len(y)
    p = sigmoid(X @ w + b)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    loss = float(-np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc)))
    loss += 0.5 * reg_lambda * float(w @ w)
    diff = p - y
    dw = X.T @ diff / n + reg_lambda * w
    db = float(diff.mean())
    return loss, dw, db


def _stack_jobs(X: np.ndarray, groups):
    """`[X | 1]`, the n x J 0/1 train-row mask, each column's row count,
    param and lambda, and the (d+1) x J `[lam; 0]` that scales `[W; B]`
    (the bias is not regularized). Column j is the j-th (rows, param) of
    the groups, group by group."""
    jobs = [(rows, lam) for rows, lams in groups for lam in lams]
    (n, d), J = X.shape, len(jobs)
    Xb = np.empty((n, d + 1))
    Xb[:, :d] = X
    Xb[:, d] = 1.0
    mask = np.zeros((n, J))
    for j, (rows, _) in enumerate(jobs):
        mask[rows, j] = 1.0
    lambdas = [lam for _, lam in jobs]
    lam = np.array(lambdas, dtype=float)
    reg = np.zeros((d + 1, J))
    reg[:d] = lam
    return Xb, mask, mask.sum(axis=0), lambdas, lam, reg


def _fit_logistic_many(
    X: np.ndarray, y: np.ndarray, groups, config: LogisticConfig
) -> list[LinearModel]:
    """One logistic model per (rows, lam) of each group, fit on `X[rows]`
    with full-batch Adam, trained together."""
    Xb, mask, count, lambdas, _, reg = _stack_jobs(X, groups)
    (n, d), J = X.shape, len(lambdas)
    Y = np.ascontiguousarray(np.broadcast_to(y[:, None], (n, J)), dtype=float)
    params = np.zeros((d + 1) * J)
    WB = params.reshape(d + 1, J)  # [W; B]
    grad = np.empty_like(params)
    G = grad.reshape(d + 1, J)  # [dW; dB]
    state = AdamState.for_params(params, alpha=config.learning_rate)
    Z, E, D = np.empty((n, J)), np.empty((n, J)), np.empty((n, J))
    nonneg, R = np.empty((n, J), dtype=bool), np.empty((d + 1, J))
    for _ in range(config.epochs):
        np.matmul(Xb, WB, out=Z)
        # diff = (sigmoid(Z) - y) * mask, with nncore.sigmoid's arithmetic
        np.abs(Z, out=E)
        np.negative(E, out=E)
        np.exp(E, out=E)
        np.add(E, 1.0, out=D)
        np.copyto(E, 1.0, where=np.greater_equal(Z, 0.0, out=nonneg))
        np.divide(E, D, out=E)
        np.subtract(E, Y, out=E)
        diff = np.multiply(E, mask, out=E)
        np.matmul(X.T, diff, out=G[:d])
        np.add.reduce(diff, axis=0, out=G[d])
        G /= count
        G += np.multiply(reg, WB, out=R)  # lam * W; the bias row adds 0
        adam_step(params, grad, state)
    return [
        LinearModel(WB[:d, j].copy(), float(WB[d, j]), "logistic", param, 0.5)
        for j, param in enumerate(lambdas)
    ]


def fit_logistic(
    X: np.ndarray, y: np.ndarray,
    config: LogisticConfig | None = None,
    rng: RngStream | None = None,
) -> LinearModel:
    config = config or LogisticConfig()
    rng = rng or RngStream(0, ("logistic",))
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_two_classes(y)
    return fit_with_cv(
        lambda Xt, yt, groups: _fit_logistic_many(Xt, yt, groups, config),
        X, y, config.reg_lambda, config.lambda_grid, config.cv_folds, rng,
    )


def _check_svm_lambda(reg_lambda):
    if np.any(np.asarray(reg_lambda) <= 0):
        raise ValueError("linear SVM requires reg_lambda > 0 (step schedule 1/(lambda*t))")


def _fit_linear_svm_many(
    X: np.ndarray, y01: np.ndarray, groups, config: LinearSvmConfig
) -> list[LinearModel]:
    """One linear SVM per (rows, lam) of each group, fit on `X[rows]` by
    Pegasos subgradient steps, trained together."""
    Xb, mask, count, lambdas, lam, reg = _stack_jobs(X, groups)
    _check_svm_lambda(lam)
    (n, d), J = X.shape, len(lambdas)
    y = 2.0 * y01 - 1.0
    # y * ([X | 1] @ [W; B]) in one product: y is +-1, so the sign moves
    # into the rows exactly.
    yXb = y[:, None] * Xb
    y_train = y[:, None] * mask
    WB = np.zeros((d + 1, J))
    M, yv, G, R = np.empty((n, J)), np.empty((n, J)), np.empty((d + 1, J)), np.empty((d + 1, J))
    violates, eta = np.empty((n, J), dtype=bool), np.empty(J)
    for t in range(1, config.epochs + 1):
        np.divide(1.0, np.multiply(lam, t, out=eta), out=eta)  # 1/(lam t)
        # y on each column's margin-violating training rows, 0 elsewhere
        np.less(np.matmul(yXb, WB, out=M), 1.0, out=violates)
        np.multiply(y_train, violates, out=yv)
        # [W; B] -= eta * ([lam W; 0] - [X.T @ yv; sum(yv)] / count)
        np.matmul(X.T, yv, out=G[:d])
        np.add.reduce(yv, axis=0, out=G[d])
        G /= count
        np.subtract(np.multiply(reg, WB, out=R), G, out=G)
        G *= eta
        WB -= G
    return [
        LinearModel(WB[:d, j].copy(), float(WB[d, j]), "linear-svm", param, 0.0)
        for j, param in enumerate(lambdas)
    ]


def fit_linear_svm(
    X: np.ndarray, y: np.ndarray,
    config: LinearSvmConfig | None = None,
    rng: RngStream | None = None,
) -> LinearModel:
    config = config or LinearSvmConfig()
    rng = rng or RngStream(0, ("linear-svm",))
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_two_classes(y)
    return fit_with_cv(
        lambda Xt, yt, groups: _fit_linear_svm_many(Xt, yt, groups, config),
        X, y, config.reg_lambda, config.lambda_grid, config.cv_folds, rng,
    )
