"""Stratified k-fold cross-validation for hyperparameter grids.

The tree, KNN and RBF SVM each have one trainer, `fit_many(X, y, groups)`:
each group is `(train_rows, [param, ...])` and it returns one model per
(group, param), group by group, in order. `cross_validate` passes one
group per fold, each holding the whole grid; `fit_with_cv` calls it (by
its module name, once per set) and then refits on all rows at the chosen
or pinned param, the one group `(all_rows, [param])`. The tree grows
one tree per group and reads it at each depth; KNN gives each group one
neighbour memo, so a fold's validation rows are ranked once for every k;
the RBF SVM computes one kernel per group and solves every C on it.
`per_job`, which fits each (rows, param) on `X[rows]` in turn, is the
one-model-per-job reference the tests check these trainers against.

The linear learners train many training sets at once through
`fit_sets(sets)`, which takes one `(X, y, groups)` per set and returns
each set's `fit_many` models. `fit_sets_with_cv` takes `(X, y, rng)`
sets, builds each set's folds from its stream, trains every set's CV
models in one `cross_validate_sets` call and every set's refit or pinned
model in one more `fit_sets` call. It raises if any set's folds or fit
fail. `cross_validate` is `cross_validate_sets` on one set.

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
# fit_sets([(X, y, groups), ...]) -> fit_many's models for each set, in order
FitSets = Callable[[list[tuple[np.ndarray, np.ndarray, list]]], list[list]]


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
    [result] = cross_validate_sets(
        lambda sets: [fit_many(*s) for s in sets], [(features, labels, rng)], folds, grid
    )
    return result


def cross_validate_sets(
    fit_sets: FitSets, sets: list, folds: int, grid: Sequence[object]
) -> list[CvResult]:
    """`cross_validate` for every `(features, labels, rng)` of `sets`, each
    with folds from its own stream, in one `fit_sets` call."""
    if not grid:
        raise CvError("empty hyperparameter grid")
    splits = [stratified_kfold(y, folds, rng.derive("folds")) for _, y, rng in sets]
    fitted = fit_sets([
        (X, y, [(tr, grid) for tr, _ in set_splits])
        for (X, y, _), set_splits in zip(sets, splits)
    ])
    return [
        _grid_table(models, set_splits, grid, X, y)
        for models, set_splits, (X, y, _) in zip(fitted, splits, sets)
    ]


def _grid_table(models: list, splits, grid, features, labels) -> CvResult:
    """The CvResult of a set's fold-major `models`."""
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
    `param == "auto"` at the `grid` entry `cross_validate` picks, with
    that `cv_result` attached."""
    cv = cross_validate(fit_many, X, y, folds, list(grid), rng) if param == "auto" else None
    [model] = fit_many(X, y, [(np.arange(len(y)), [cv.best_param if cv else param])])
    model.cv_result = cv
    return model


def fit_sets_with_cv(
    fit_sets: FitSets,
    sets: list,
    param: object,
    grid: Sequence[object],
    folds: int,
) -> list:
    """For every `(X, y, rng)` of `sets`, the model `fit_sets` trains on
    all rows at `param`, or with `param == "auto"` at the `grid` entry
    stratified CV picks (folds from the set's stream), with `cv_result`
    attached: one `cross_validate_sets` call, then one `fit_sets` call
    for every refit or pinned fit."""
    auto = param == "auto"
    cv_results = (
        cross_validate_sets(fit_sets, sets, folds, list(grid)) if auto else [None] * len(sets)
    )
    fitted = fit_sets([
        (X, y, [(np.arange(len(y)), [cv.best_param if auto else param])])
        for (X, y, _), cv in zip(sets, cv_results)
    ])
    for [model], cv in zip(fitted, cv_results):
        model.cv_result = cv
    return [model for [model] in fitted]
