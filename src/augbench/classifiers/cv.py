"""Stratified k-fold cross-validation for hyperparameter grids.

Every tuned learner has one trainer, `fit_many(X, y, groups)`: each group
is `(train_rows, [param, ...])` and it returns one model per (group,
param), group by group, in order. `cross_validate` passes one group per
fold, each holding the whole grid; the refit on all rows and a pinned
hyperparameter pass the one group `(all_rows, [param])`. The linear
learners train every (group, param) as one stacked problem; the tree
grows one tree per group and reads it at each depth; KNN gives each
group one neighbour memo, so a fold's validation rows are ranked once
for every k; the RBF SVM wraps a fixed-parameter fitter with `per_job`,
which fits each (rows, param) on `X[rows]` in turn.

The grid is evaluated in order and ties in mean validation accuracy go
to the earliest entry, so callers list grids simplest-setting-first
(smallest depth/k/C, largest regularization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..metrics import accuracy
from ..rng import RngStream
from .base import predict_labels


class CvError(Exception):
    pass


@dataclass
class CvResult:
    best_param: object
    best_index: int
    # one row per grid entry: (param, mean validation accuracy, fold accuracies)
    table: list[tuple[object, float, list[float]]]


# fit_many(X, y, [(train_rows, [param, ...]), ...]) -> one model per
# (group, param), group-major
FitMany = Callable[[np.ndarray, np.ndarray, list[tuple[np.ndarray, list]]], list]


def stratified_kfold(
    labels: np.ndarray, folds: int, rng: RngStream
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-class shuffle, deal round-robin; every fold keeps both classes.

    Dealing puts a class in every fold exactly when it has at least
    `folds` rows, whatever the shuffle, so the rows are dealt once."""
    if folds < 2:
        raise CvError("need at least 2 folds")
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if len(labels) == 0 or counts.min() < folds:
        raise CvError(f"could not build {folds} stratified folds with both classes")
    assignment = np.empty(len(labels), dtype=int)
    for c in classes:
        idx = np.flatnonzero(labels == c)
        # The label keys every fold's stream: renaming it moves every fold.
        order = idx[rng.derive(f"attempt0-class{c}").permutation(len(idx))]
        assignment[order] = np.arange(len(order)) % folds
    return [
        (np.flatnonzero(assignment != f), np.flatnonzero(assignment == f))
        for f in range(folds)
    ]


def per_job(fit_fixed: Callable[[np.ndarray, np.ndarray, object], object]) -> FitMany:
    """A `fit_many` that calls `fit_fixed(X[rows], y[rows], param)` for
    every param of every group."""
    return lambda X, y, groups: [
        fit_fixed(X[rows], y[rows], p) for rows, params in groups for p in params
    ]


def cross_validate(
    fit_many: FitMany,
    features: np.ndarray,
    labels: np.ndarray,
    folds: int,
    grid: Sequence[object],
    rng: RngStream,
) -> CvResult:
    """Mean validation accuracy per grid point; first-best wins ties.

    One `fit_many` call trains every (fold, grid entry) model: one group
    `(train_rows, grid)` per fold.
    """
    if not grid:
        raise CvError("empty hyperparameter grid")
    splits = stratified_kfold(labels, folds, rng.derive("folds"))
    models = fit_many(features, labels, [(tr, grid) for tr, _ in splits])
    table = []
    for gi, param in enumerate(grid):
        fold_accs = [
            accuracy(labels[va], predict_labels(models[fi * len(grid) + gi], features[va]))
            for fi, (_, va) in enumerate(splits)
        ]
        table.append((param, float(np.mean(fold_accs)), fold_accs))
    best_index = int(np.argmax([row[1] for row in table]))  # argmax keeps first tie
    return CvResult(table[best_index][0], best_index, table)


def fit_with_cv(
    fit_many: FitMany,
    X: np.ndarray,
    y: np.ndarray,
    param: object,
    grid: Sequence[object],
    folds: int,
    rng: RngStream,
):
    """The model `fit_many` trains on all rows at `param`, or with
    `param == "auto"` at the `grid` entry stratified CV picks, with
    `cv_result` attached."""
    all_rows = np.arange(len(y))
    if param != "auto":
        return fit_many(X, y, [(all_rows, [param])])[0]
    cv = cross_validate(fit_many, X, y, folds, list(grid), rng)
    model = fit_many(X, y, [(all_rows, [cv.best_param])])[0]
    model.cv_result = cv
    return model
