"""Regularized logistic regression and linear soft-margin SVM.

Logistic regression minimizes mean cross-entropy plus lambda*||w||^2/2
(bias unregularized) with full-batch Adam; its score is the sigmoid
probability, thresholded at 0.5. The linear SVM minimizes
lambda*||w||^2/2 plus mean hinge loss by subgradient descent with the
1/(lambda*t) step schedule; its score is the signed margin, thresholded
at 0. Regularization strength is chosen by stratified CV with ties to
the stronger regularizer (grids are listed largest-lambda first).

Each learner has one trainer, `_fit_*_many(X, y, jobs, config)`, which
trains every `(train_rows, lambda)` job as one stacked problem: column j
of a d x J weight matrix is job j's model, a 0/1 row mask keeps each
column to its job's training rows, and every epoch is one pass of matrix
products over all J columns. It trains the J = 20 fold x lambda models
of CV, and then the refit or a pinned lambda as a J = 1 problem on all
rows. `logistic_loss_grad` is the per-model loss and gradient that the
tests check by finite differences; the trainers do not call it, so no
loss is computed on the training path.
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


def _stack_jobs(n: int, jobs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n x J 0/1 train-row mask, per-column row count, per-column lambda)."""
    mask = np.zeros((n, len(jobs)))
    for j, (rows, _) in enumerate(jobs):
        mask[rows, j] = 1.0
    lam = np.array([float(param) for _, param in jobs])
    return mask, mask.sum(axis=0), lam


def _fit_logistic_many(
    X: np.ndarray, y: np.ndarray, jobs, config: LogisticConfig
) -> list[LinearModel]:
    """One logistic model per (rows, lam) job, fit on `X[rows]` with
    full-batch Adam, trained together."""
    mask, count, lam = _stack_jobs(len(y), jobs)
    y = y[:, None]
    d, J = X.shape[1], len(jobs)
    params = np.zeros(d * J + J)  # [W row-major, B]
    W, B = params[: d * J].reshape(d, J), params[d * J:]
    grad = np.empty_like(params)
    dW, dB = grad[: d * J].reshape(d, J), grad[d * J:]
    state = AdamState.for_params(params, alpha=config.learning_rate)
    for _ in range(config.epochs):
        diff = (sigmoid(X @ W + B) - y) * mask
        np.matmul(X.T, diff, out=dW)
        dW /= count
        dW += lam * W
        np.add.reduce(diff, axis=0, out=dB)
        dB /= count
        adam_step(params, grad, state)
    return [
        LinearModel(W[:, j].copy(), float(B[j]), "logistic", param, 0.5)
        for j, (_, param) in enumerate(jobs)
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
        lambda Xt, yt, jobs: _fit_logistic_many(Xt, yt, jobs, config),
        X, y, config.reg_lambda, config.lambda_grid, config.cv_folds, rng,
    )


def _check_svm_lambda(reg_lambda):
    if np.any(np.asarray(reg_lambda) <= 0):
        raise ValueError("linear SVM requires reg_lambda > 0 (step schedule 1/(lambda*t))")


def _fit_linear_svm_many(
    X: np.ndarray, y01: np.ndarray, jobs, config: LinearSvmConfig
) -> list[LinearModel]:
    """One linear SVM per (rows, lam) job, fit on `X[rows]` by Pegasos
    subgradient steps, trained together."""
    mask, count, lam = _stack_jobs(len(y01), jobs)
    _check_svm_lambda(lam)
    y = (2.0 * y01 - 1.0)[:, None]
    y_train = y * mask
    W = np.zeros((X.shape[1], len(jobs)))
    B = np.zeros(len(jobs))
    for t in range(1, config.epochs + 1):
        # y on each column's margin-violating training rows, 0 elsewhere
        yv = np.where(y * (X @ W + B) < 1.0, y_train, 0.0)
        eta = 1.0 / (lam * t)
        W = W - eta * (lam * W - X.T @ yv / count)
        B = B - eta * (-yv.sum(axis=0) / count)
    return [
        LinearModel(W[:, j].copy(), float(B[j]), "linear-svm", param, 0.0)
        for j, (_, param) in enumerate(jobs)
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
        lambda Xt, yt, jobs: _fit_linear_svm_many(Xt, yt, jobs, config),
        X, y, config.reg_lambda, config.lambda_grid, config.cv_folds, rng,
    )
