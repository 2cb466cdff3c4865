"""Regularized logistic regression and linear soft-margin SVM.

Logistic regression minimizes mean cross-entropy plus lambda*||w||^2/2
(bias unregularized) with full-batch Adam; its score is the sigmoid
probability, thresholded at 0.5. The linear SVM minimizes
lambda*||w||^2/2 plus mean hinge loss by subgradient descent with the
1/(lambda*t) step schedule; its score is the signed margin, thresholded
at 0. Regularization strength is chosen by stratified CV with ties to
the stronger regularizer (grids are listed largest-lambda first).

Each learner has one stacked trainer, `_fit_*_stack(sets, config)`. For
every `(X, y, groups)` of `sets`, it trains every lambda of the set's
`(train_rows, [lambda, ...])` groups as one stacked problem: column j of
the set's d x J weight matrix is its j-th model, group by group, and a
0/1 row mask keeps each column to its group's training rows. Every set
runs in the same epoch loop. The trainer fits the J = 20 fold x lambda
models of every set's CV, and then, in a second call, each set's refit
or pinned lambda as a J = 1 problem on all its rows (see
`cv.fit_sets_with_cv`). `fit_*_sets` wraps it with each set's input
checks, and `fit_logistic`/`fit_linear_svm` are its one-set calls.
`logistic_loss_grad` is the per-model loss and gradient that the tests
check by finite differences; the trainers do not call it, so no loss is
computed on the training path.

The bias is the last row of one (d+1) x J array `[W; B]` per set (for
logistic regression, a view of Adam's parameter vector), so a set's
margins are the one product `[X | 1] @ [W; B]`, and its gradient
`[dW; dB]` is scaled by the row counts and regularized by `[lambda; 0]`.
The epoch computes in flat buffers allocated before the loop, laid out
by `_SetStack`: each product, `[X | 1] @ [W; B]` and `X.T @ diff`, is
one batched `np.matmul` per batch of same-shape sets, each set on its
own blocks, and so are the bias row's column sums. The sigmoid, masks,
scaling, regularization, Pegasos and Adam steps run once over the flat
buffers, elementwise, so each set's models have the bits of its one-set
fit. y is broadcast to (n, J) once; the linear SVM multiplies y into the rows of `[X | 1]`, which is
exact for y = +-1. With J >= 2, every value is the one the plain
formulas give (`ref_fit_*_many` in the tests), up to the sign of an
exact zero. A one-column fit's margins come from numpy's matrix-vector
product, which at some widths differs from `X @ w + b` in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..nncore import AdamState, adam_step, sigmoid
from ..rng import RngStream
from .base import attempt, check_two_classes, only
from .cv import CvResult, fit_sets_with_cv

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


class _SetStack:
    """Every set's stacked problem, laid out for one epoch loop.

    Set k of `sets` (its `(X, y, groups)`) has n_k rows, d_k features and
    J_k columns, column j the j-th (rows, lambda) of its groups, group by
    group. Consecutive sets of one (n, d, J) form a batch of B sets, and
    every product of a batch is one `np.matmul` over (B, ...) views: a
    batched product runs numpy's per-matrix routine on each set's own
    arrays, so it has each set's own bits. A batch's (n, J) arrays fill
    one (B, n, J) block of flat "row" buffers, and its `[W; B]`-shaped
    (d+1, J) arrays one (B, d+1, J) block of flat "parameter" buffers,
    each set's array contiguous as in its one-set fit; a batch's column
    sums are one `np.add.reduce(axis=1)`. Elementwise steps run once over
    every set. `count` and `reg` are parameter buffers, each entry's
    column row count and `[lam; 0]` (the bias is not regularized), `lam`
    each entry's lambda.
    """

    def __init__(self, sets):
        self.sets, jobs_of = [], []
        # [n, d, J, B (its sets), row buffer offset, parameter buffer offset]
        self.batches, rows_used, params_used = [], 0, 0
        for X, y, groups in sets:
            jobs = [(rows, lam) for rows, lams in groups for lam in lams]
            (n, d), J = X.shape, len(jobs)
            self.sets.append((X, y, d))
            jobs_of.append(jobs)
            if self.batches and self.batches[-1][:3] == [n, d, J]:
                self.batches[-1][3] += 1
            else:
                self.batches.append([n, d, J, 1, rows_used, params_used])
            rows_used += n * J
            params_used += (d + 1) * J
        self._sizes = rows_used, params_used
        self.lambdas = [[lam for _, lam in jobs] for jobs in jobs_of]
        self.mask = self.rows()
        self.count, self.lam, self.reg = self.params(), self.params(), self.params()
        for jobs, (*_, d), mask, count, lam, reg in zip(
            jobs_of, self.sets, self.row_views(self.mask), self.param_views(self.count),
            self.param_views(self.lam), self.param_views(self.reg),
        ):
            mask[...] = 0.0
            for j, (rows, _) in enumerate(jobs):
                mask[rows, j] = 1.0
            count[...] = mask.sum(axis=0)
            lam[...] = [param for _, param in jobs]
            reg[:d] = lam[:d]
            reg[d] = 0.0

    def rows(self) -> np.ndarray:
        return np.empty(self._sizes[0])

    def params(self) -> np.ndarray:
        return np.empty(self._sizes[1])

    def batch_rows(self, buffer: np.ndarray) -> list[np.ndarray]:
        """A row buffer as each batch's (B, n, J) view."""
        return [buffer[start:start + B * n * J].reshape(B, n, J)
                for n, d, J, B, start, _ in self.batches]

    def batch_params(self, buffer: np.ndarray) -> list[np.ndarray]:
        """A parameter buffer as each batch's (B, d+1, J) view."""
        return [buffer[start:start + B * (d + 1) * J].reshape(B, d + 1, J)
                for n, d, J, B, _, start in self.batches]

    def row_views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """A row buffer as each set's (n_k, J_k) array."""
        return [set_view for view in self.batch_rows(buffer) for set_view in view]

    def param_views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """A parameter buffer as each set's (d_k+1, J_k) array."""
        return [set_view for view in self.batch_params(buffer) for set_view in view]

    def stacked(self, arrays: list[np.ndarray]) -> list[np.ndarray]:
        """One array per set, stacked per batch into a (B, ...) array."""
        out, k = [], 0
        for *_, B, _, _ in self.batches:
            out.append(np.stack(arrays[k:k + B]))
            k += B
        return out

    def bias_sums(self, diff: np.ndarray, grad: np.ndarray) -> list[tuple]:
        """Each batch's (B, n, J) view of the row buffer `diff` and the
        bias rows of `grad` that its column sums go to."""
        return [(view, grad_view[:, -1])
                for view, grad_view in zip(self.batch_rows(diff), self.batch_params(grad))]

    def models(self, WB: np.ndarray, kind: str, threshold: float) -> list[list[LinearModel]]:
        """Each set's models, column by column, from the parameter buffer `WB`."""
        return [
            [LinearModel(wb[:d, j].copy(), float(wb[d, j]), kind, param, threshold)
             for j, param in enumerate(lambdas)]
            for wb, (*_, d), lambdas in zip(self.param_views(WB), self.sets, self.lambdas)
        ]


def _with_ones(X: np.ndarray) -> np.ndarray:
    """`[X | 1]`."""
    Xb = np.empty((X.shape[0], X.shape[1] + 1))
    Xb[:, :-1] = X
    Xb[:, -1] = 1.0
    return Xb


def _fit_logistic_stack(sets, config: LogisticConfig) -> list[list[LinearModel]]:
    """For each `(X, y, groups)` of `sets`, one logistic model per (rows,
    lam) of each group, fit on `X[rows]` with full-batch Adam; every
    model of every set is trained in one loop."""
    stack = _SetStack(sets)
    Y, params, grad = stack.rows(), np.zeros_like(stack.count), stack.params()
    for y_block, (_, y, _) in zip(stack.row_views(Y), stack.sets):
        y_block[...] = y[:, None]
    state = AdamState.for_params(params, alpha=config.learning_rate)
    Z, E = stack.rows(), stack.rows()
    nonneg, R = np.empty(Z.shape, dtype=bool), stack.params()
    lanes = [
        (Xb, wb, z, X.transpose(0, 2, 1), diff, g[:, :-1])
        for Xb, X, wb, z, diff, g in zip(
            stack.stacked([_with_ones(X) for X, _, _ in stack.sets]),
            stack.stacked([X for X, _, _ in stack.sets]),
            stack.batch_params(params), stack.batch_rows(Z), stack.batch_rows(E),
            stack.batch_params(grad),
        )
    ]
    bias_sums = stack.bias_sums(E, grad)
    for _ in range(config.epochs):
        for Xb, wb, z, _, _, _ in lanes:
            np.matmul(Xb, wb, out=z)
        # diff = (sigmoid(Z) - y) * mask, with nncore.sigmoid's arithmetic
        np.abs(Z, out=E)
        np.negative(E, out=E)
        np.exp(E, out=E)
        np.greater_equal(Z, 0.0, out=nonneg)
        np.add(E, 1.0, out=Z)  # Z is read no more this epoch
        np.copyto(E, 1.0, where=nonneg)
        np.divide(E, Z, out=E)
        np.subtract(E, Y, out=E)
        np.multiply(E, stack.mask, out=E)
        for _, _, _, Xt, diff, dW in lanes:
            np.matmul(Xt, diff, out=dW)
        for diff, dB in bias_sums:
            np.add.reduce(diff, axis=1, out=dB)
        grad /= stack.count
        grad += np.multiply(stack.reg, params, out=R)  # lam * W; the bias row adds 0
        adam_step(params, grad, state)
    return stack.models(params, "logistic", 0.5)


def _checked_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    check_two_classes(y)
    return X, y


def fit_logistic_sets(
    sets: list[tuple[np.ndarray, np.ndarray]],
    config: LogisticConfig | None = None,
    rngs: list[RngStream] | None = None,
) -> list[LinearModel | Exception]:
    """`fit_logistic` on every `(X, y)` of `sets`, set k with `rngs[k]`:
    every set's CV models are trained in one loop, and then every refit
    or pinned model in another. A set that fails its checks or its fit
    gets its error in place of its model."""
    config = config or LogisticConfig()
    return fit_sets_with_cv(
        lambda stacked: _fit_logistic_stack(stacked, config),
        [attempt(_checked_set, X, y) for X, y in sets],
        config.reg_lambda, config.lambda_grid, config.cv_folds,
        rngs or [RngStream(0, ("logistic",))] * len(sets),
    )


def fit_logistic(
    X: np.ndarray, y: np.ndarray,
    config: LogisticConfig | None = None,
    rng: RngStream | None = None,
) -> LinearModel:
    return only(fit_logistic_sets([(X, y)], config, rng and [rng]))


def _check_svm_lambda(reg_lambda):
    if np.any(np.asarray(reg_lambda) <= 0):
        raise ValueError("linear SVM requires reg_lambda > 0 (step schedule 1/(lambda*t))")


def _fit_linear_svm_stack(sets, config: LinearSvmConfig) -> list[list[LinearModel]]:
    """For each `(X, y01, groups)` of `sets`, one linear SVM per (rows,
    lam) of each group, fit on `X[rows]` by Pegasos subgradient steps;
    every model of every set is trained in one loop."""
    stack = _SetStack(sets)
    _check_svm_lambda(stack.lam)
    # y * ([X | 1] @ [W; B]) in one product: y is +-1, so the sign moves
    # into the rows exactly.
    y_train, WB = stack.rows(), np.zeros_like(stack.count)
    M, violates = stack.rows(), np.empty(y_train.shape, dtype=bool)
    grad, R, eta = stack.params(), stack.params(), stack.params()
    ys = [2.0 * y01 - 1.0 for _, y01, _ in stack.sets]
    for y, mask, y_mask in zip(ys, stack.row_views(stack.mask), stack.row_views(y_train)):
        np.multiply(y[:, None], mask, out=y_mask)
    lanes = [
        (yXb, wb, m, X.transpose(0, 2, 1), g[:, :-1])
        for yXb, X, wb, m, g in zip(
            stack.stacked([y[:, None] * _with_ones(X) for y, (X, _, _) in zip(ys, stack.sets)]),
            stack.stacked([X for X, _, _ in stack.sets]),
            stack.batch_params(WB), stack.batch_rows(M), stack.batch_params(grad),
        )
    ]
    bias_sums = stack.bias_sums(M, grad)
    for t in range(1, config.epochs + 1):
        np.divide(1.0, np.multiply(stack.lam, t, out=eta), out=eta)  # 1/(lam t)
        for yXb, wb, m, _, _ in lanes:
            np.matmul(yXb, wb, out=m)
        # yv: y on each column's margin-violating training rows, 0
        # elsewhere, in place of the margins M
        np.multiply(y_train, np.less(M, 1.0, out=violates), out=M)
        # [W; B] -= eta * ([lam W; 0] - [X.T @ yv; sum(yv)] / count)
        for _, _, yv, Xt, dW in lanes:
            np.matmul(Xt, yv, out=dW)
        for yv, dB in bias_sums:
            np.add.reduce(yv, axis=1, out=dB)
        grad /= stack.count
        np.subtract(np.multiply(stack.reg, WB, out=R), grad, out=grad)
        grad *= eta
        WB -= grad
    return stack.models(WB, "linear-svm", 0.0)


def fit_linear_svm_sets(
    sets: list[tuple[np.ndarray, np.ndarray]],
    config: LinearSvmConfig | None = None,
    rngs: list[RngStream] | None = None,
) -> list[LinearModel | Exception]:
    """`fit_linear_svm` on every `(X, y)` of `sets`, as `fit_logistic_sets`
    trains logistic models."""
    config = config or LinearSvmConfig()
    return fit_sets_with_cv(
        lambda stacked: _fit_linear_svm_stack(stacked, config),
        [attempt(_checked_set, X, y) for X, y in sets],
        config.reg_lambda, config.lambda_grid, config.cv_folds,
        rngs or [RngStream(0, ("linear-svm",))] * len(sets),
    )


def fit_linear_svm(
    X: np.ndarray, y: np.ndarray,
    config: LinearSvmConfig | None = None,
    rng: RngStream | None = None,
) -> LinearModel:
    return only(fit_linear_svm_sets([(X, y)], config, rng and [rng]))
