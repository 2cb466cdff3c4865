"""Regularized logistic regression and linear soft-margin SVM.

Logistic regression minimizes mean cross-entropy plus lambda*||w||^2/2
(bias unregularized) with full-batch Adam; its score is the sigmoid
probability, thresholded at 0.5. The linear SVM minimizes
lambda*||w||^2/2 plus mean hinge loss by subgradient descent with the
1/(lambda*t) step schedule; its score is the signed margin, thresholded
at 0. Regularization strength is chosen by stratified CV with ties to
the stronger regularizer (grids are listed largest-lambda first).

One stacked trainer, `_fit_stack(train, sets, config)`, serves both
learners, which differ only in its epoch rule `train` (`_train_logistic`,
`_train_linear_svm`). For every `(X, y, groups)` of `sets`, it trains
every lambda of the set's `(train_rows, [lambda, ...])` groups as one
stacked problem: column j of the set's d x J weight matrix is its j-th
model, group by group, and a 0/1 row mask keeps each column to its
group's training rows. The sets of one shape (n, d, J) run in one epoch
loop (`base.by_group` gathers them, wherever they sit in the call, and
bounds each loop's rows). The trainer fits the J = 20 fold x lambda
models of every set's CV, and then, in a second call, each set's refit or
pinned lambda as a J = 1 problem on all its rows (see
`cv.fit_sets_with_cv`). `fit_*_sets` checks every `(X, y, rng)` set with
`base.checked_set` and raises if any set fails; `fit_logistic` and
`fit_linear_svm` are its one-set calls.
`logistic_loss_grad` is the per-model loss and gradient that the tests
check by finite differences; the trainers do not call it, so no loss is
computed on the training path.

The bias is the last row of one (d+1) x J array `[W; B]` per set (for
logistic regression, a block of Adam's parameter array), so a set's
margins are the one product `[X | 1] @ [W; B]`, and its gradient
`[dW; dB]` is `[X.T @ diff; column sums of diff]`, scaled by the row
counts and regularized by `[lambda; 0]`. The epoch computes in arrays
allocated before the loop, one (B, ...) array per quantity over the B
sets of one shape (`_SetStack`), so each product is one batched
`np.matmul`, every set on its own block, and each bias gradient one
`nncore.column_sums`: einsum's one pass over the rows, or, for a J = 1
refit's contiguous column, which numpy sums pairwise, `np.add.reduce`;
either way the bits of `np.add.reduce`. The sigmoid, masks, scaling,
regularization, Pegasos and Adam steps run once over those arrays,
elementwise, so each set's models have the bits of its one-set fit. y is
broadcast to (n, J) once; the linear SVM multiplies y into the rows of
`[X | 1]`, which is exact for y = +-1. With J >= 2, every value is the one
the plain formulas give (`ref_fit_*_many` in the tests), up to the sign
of an exact zero. A one-column fit's margins come from numpy's
matrix-vector product, which at some widths differs from `X @ w + b` in
the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import LinearSvmConfig, LogisticConfig
from ..nncore import AdamState, adam_step, column_sums, sigmoid
from ..rng import RngStream
from .base import by_group, checked_set
from .cv import CvResult, fit_sets_with_cv


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
    """The stacked problems of B sets of one shape, for one epoch loop.

    Every `(X, y, groups)` of `sets` has n rows, d features and J columns,
    column j the j-th (rows, lambda) of its groups, group by group. The
    sets' (n, J) arrays are one (B, n, J) "row" array, and their
    `[W; B]`-shaped (d+1, J) arrays one (B, d+1, J) "parameter" array, each
    set's block contiguous as in its one-set fit. So each product is one
    `np.matmul` over the B sets, which runs numpy's per-matrix routine on
    each set's own block and gives each set its own bits; a column sum is
    one `column_sums` over the stack, and elementwise steps run once over
    every set. `X` and `y` are the stacked rows and labels, `Xt` the stacked
    `X.T`, `mask` each column's 0/1 training rows; `count`, `lam` and `reg`
    are parameter arrays, each entry's column row count, lambda and
    `[lam; 0]` (the bias is not regularized).
    """

    def __init__(self, sets):
        jobs = [[(rows, lam) for rows, lams in groups for lam in lams] for _, _, groups in sets]
        self.X = np.stack([X for X, _, _ in sets])
        self.y = np.stack([y for _, y, _ in sets])
        self.Xt = self.X.transpose(0, 2, 1)
        self.lambdas = [[lam for _, lam in set_jobs] for set_jobs in jobs]
        (B, n, d), J = self.X.shape, len(jobs[0])
        self.mask = np.zeros((B, n, J))
        for mask, set_jobs in zip(self.mask, jobs):
            for j, (rows, _) in enumerate(set_jobs):
                mask[rows, j] = 1.0
        self.count, self.lam = np.empty((2, B, d + 1, J))
        self.count[...] = self.mask.sum(axis=1)[:, None, :]
        self.lam[...] = np.array(self.lambdas)[:, None, :]
        self.reg = self.lam.copy()
        self.reg[:, d] = 0.0

    def design(self) -> np.ndarray:
        """The stacked `[X | 1]`."""
        B, n, d = self.X.shape
        design = np.empty((B, n, d + 1))
        design[..., :d] = self.X
        design[..., d] = 1.0
        return design

    def models(self, WB: np.ndarray, kind: str, threshold: float) -> list[list[LinearModel]]:
        """Each set's models, column by column, from the parameter array `WB`."""
        d = self.X.shape[2]
        return [
            [LinearModel(wb[:d, j].copy(), float(wb[d, j]), kind, param, threshold)
             for j, param in enumerate(lambdas)]
            for wb, lambdas in zip(WB, self.lambdas)
        ]


def _shape(s) -> tuple[int, int, int]:
    """The (n, d, J) of a stacked problem `(X, y, groups)`."""
    X, _, groups = s
    return (*X.shape, sum(len(lams) for _, lams in groups))


def _fit_stack(train, sets, config) -> list[list[LinearModel]]:
    """For each `(X, y, groups)` of `sets`, one model per (rows, lam) of
    each group, fit on `X[rows]` by the epoch rule `train`; the models of
    every set of one shape are trained in one loop."""
    return by_group(sets, _shape, lambda group: train(_SetStack(group), config))


def _fit_sets(train, sets: list, config) -> list[LinearModel]:
    """One model per `(X, y, rng)` of `sets`, CV'd and refit by the epoch
    rule `train`; raises if any set fails its checks, its folds or its fit."""
    return fit_sets_with_cv(
        lambda stacked: _fit_stack(train, stacked, config),
        [(*checked_set(X, y), rng) for X, y, rng in sets],
        config.reg_lambda, config.lambda_grid, config.cv_folds,
    )


def _train_logistic(stack: _SetStack, config: LogisticConfig) -> list[list[LinearModel]]:
    """Logistic regression's epoch rule: full-batch Adam on every model of `stack`."""
    Y, Z, E = (np.empty_like(stack.mask) for _ in range(3))
    Y[...] = stack.y[:, :, None]
    params = np.zeros_like(stack.count)
    grad, R = np.empty_like(params), np.empty_like(params)
    state = AdamState.for_params(params, alpha=config.learning_rate)
    nonneg = np.empty(Z.shape, dtype=bool)
    design, dW, dB = stack.design(), grad[:, :-1], grad[:, -1]
    for _ in range(config.epochs):
        np.matmul(design, params, out=Z)
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
        np.matmul(stack.Xt, E, out=dW)
        column_sums(E, out=dB)
        grad /= stack.count
        grad += np.multiply(stack.reg, params, out=R)  # lam * W; the bias row adds 0
        adam_step(params, grad, state)
    return stack.models(params, "logistic", 0.5)


def fit_logistic_sets(sets: list, config: LogisticConfig) -> list[LinearModel]:
    """`fit_logistic` on every `(X, y, rng)` of `sets` (see `_fit_sets`)."""
    return _fit_sets(_train_logistic, sets, config)


def fit_logistic(
    X: np.ndarray, y: np.ndarray,
    config: LogisticConfig | None = None,
    rng: RngStream | None = None,
) -> LinearModel:
    rng = rng or RngStream(0, ("logistic",))
    [model] = fit_logistic_sets([(X, y, rng)], config or LogisticConfig())
    return model


def _check_svm_lambda(reg_lambda):
    if np.any(np.asarray(reg_lambda) <= 0):
        raise ValueError("linear SVM requires reg_lambda > 0 (step schedule 1/(lambda*t))")


def _train_linear_svm(stack: _SetStack, config: LinearSvmConfig) -> list[list[LinearModel]]:
    """The linear SVM's epoch rule: Pegasos subgradient steps on every model of `stack`."""
    _check_svm_lambda(stack.lam)
    # y * ([X | 1] @ [W; B]) in one product: y is +-1, so the sign moves
    # into the rows exactly.
    ys = 2.0 * stack.y - 1.0
    y_train = np.multiply(ys[:, :, None], stack.mask)
    design = stack.design()
    design *= ys[:, :, None]
    WB = np.zeros_like(stack.count)
    grad, R, eta = (np.empty_like(WB) for _ in range(3))
    M, violates = np.empty_like(y_train), np.empty(y_train.shape, dtype=bool)
    dW, dB = grad[:, :-1], grad[:, -1]
    for t in range(1, config.epochs + 1):
        np.divide(1.0, np.multiply(stack.lam, t, out=eta), out=eta)  # 1/(lam t)
        np.matmul(design, WB, out=M)
        # yv: y on each column's margin-violating training rows, 0
        # elsewhere, in place of the margins M
        np.multiply(y_train, np.less(M, 1.0, out=violates), out=M)
        # [W; B] -= eta * ([lam W; 0] - [X.T @ yv; sum(yv)] / count)
        np.matmul(stack.Xt, M, out=dW)
        column_sums(M, out=dB)
        grad /= stack.count
        np.subtract(np.multiply(stack.reg, WB, out=R), grad, out=grad)
        grad *= eta
        WB -= grad
    return stack.models(WB, "linear-svm", 0.0)


def fit_linear_svm_sets(sets: list, config: LinearSvmConfig) -> list[LinearModel]:
    """`fit_linear_svm` on every `(X, y, rng)` of `sets` (see `_fit_sets`)."""
    return _fit_sets(_train_linear_svm, sets, config)


def fit_linear_svm(
    X: np.ndarray, y: np.ndarray,
    config: LinearSvmConfig | None = None,
    rng: RngStream | None = None,
) -> LinearModel:
    rng = rng or RngStream(0, ("linear-svm",))
    [model] = fit_linear_svm_sets([(X, y, rng)], config or LinearSvmConfig())
    return model
