"""Stratified k-fold cross-validation for hyperparameter grids.

Every tuned learner has one trainer, `fit_many(X, y, groups)`: each group
is `(train_rows, [param, ...])` and it returns one model per (group,
param), group by group, in order. `cross_validate` passes one group per
fold, each holding the whole grid; the refit on all rows and a pinned
hyperparameter pass the one group `(all_rows, [param])`. The tree grows
one tree per group and reads it at each depth; KNN gives each group one
neighbour memo, so a fold's validation rows are ranked once for every k;
the RBF SVM computes one kernel per group and solves every C on it.
`per_job`, which fits each (rows, param) on `X[rows]` in turn, is the
one-model-per-job reference the tests check these trainers against.

The linear learners train many training sets at once through
`fit_sets(sets)`, which takes one `(X, y, groups)` per set and returns
each set's `fit_many` models. `fit_sets_with_cv` builds each set's folds
from that set's stream, trains every set's CV models in one
`cross_validate_sets` call, and every set's refit or pinned model in one
more call. `base.fit_jointly` retrains each set alone when a joint call
raises, so a set that fails, at its checks, its folds or its fit, gets
its error in place of its result while every other set keeps its model.
`cross_validate` and `fit_with_cv` are `cross_validate_sets` and
`fit_sets_with_cv` on one set, the tree's, KNN's or RBF SVM's
`fit_many`.

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
from .base import attempt, fit_jointly, only, predict_labels


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
    return only(cross_validate_sets(
        lambda sets: [fit_many(*s) for s in sets], [(features, labels)], folds, grid, [rng]
    ))


def _live(entries: list) -> list[int]:
    """The indices of the entries that are not exceptions."""
    return [k for k, e in enumerate(entries) if not isinstance(e, Exception)]


def cross_validate_sets(
    fit_sets: FitSets,
    sets: list,
    folds: int,
    grid: Sequence[object],
    rngs: list[RngStream],
) -> list:
    """`cross_validate` for every `(features, labels)` of `sets`, each with
    folds from its own stream in `rngs`, in one `fit_sets` call (see
    `fit_jointly`). An entry of `sets` that is an exception (a failed
    input check) stays its result; a set whose folds cannot be built, or
    whose fit raises, gets its error as its result."""
    if not grid:
        raise CvError("empty hyperparameter grid")
    results = [
        s if isinstance(s, Exception) else attempt(stratified_kfold, s[1], folds, rng.derive("folds"))
        for s, rng in zip(sets, rngs)
    ]
    live = _live(results)
    fitted = fit_jointly(fit_sets, [(*sets[k], [(tr, grid) for tr, _ in results[k]]) for k in live])
    for k, models in zip(live, fitted):
        results[k] = models if isinstance(models, Exception) else _grid_table(
            models, results[k], grid, *sets[k]
        )
    return results


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
    `param == "auto"` at the `grid` entry stratified CV picks, with
    `cv_result` attached: `fit_sets_with_cv` on one set."""
    return only(fit_sets_with_cv(
        lambda sets: [fit_many(*s) for s in sets], [(X, y)], param, grid, folds, [rng]
    ))


def fit_sets_with_cv(
    fit_sets: FitSets,
    sets: list,
    param: object,
    grid: Sequence[object],
    folds: int,
    rngs: list[RngStream],
) -> list:
    """For every `(X, y)` of `sets`, the model `fit_sets` trains on all
    rows at `param`, or with `param == "auto"` at the `grid` entry
    stratified CV picks (folds from the set's stream in `rngs`), with
    `cv_result` attached: one `cross_validate_sets` call, then one
    `fit_sets` call for every refit or pinned fit. An entry of `sets`
    that is an exception stays its result, and a set whose CV or fit
    fails gets its error in place of its model."""
    auto = param == "auto"
    results = cross_validate_sets(fit_sets, sets, folds, list(grid), rngs) if auto else list(sets)
    live = _live(results)
    fitted = fit_jointly(fit_sets, [
        (*sets[k], [(np.arange(len(sets[k][1])), [results[k].best_param if auto else param])])
        for k in live
    ])
    for k, models in zip(live, fitted):
        if not isinstance(models, Exception):
            [model] = models
            model.cv_result = results[k] if auto else None
            models = model
        results[k] = models
    return results
