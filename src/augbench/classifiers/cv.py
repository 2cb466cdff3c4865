"""Stratified k-fold cross-validation for hyperparameter grids.

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


# fit_many(X, y, [(train_rows, param), ...]) -> one model per job
FitMany = Callable[[np.ndarray, np.ndarray, list[tuple[np.ndarray, object]]], list]


def stratified_kfold(
    labels: np.ndarray, folds: int, rng: RngStream, max_attempts: int = 5
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-class shuffle, deal round-robin; every fold keeps both classes."""
    if folds < 2:
        raise CvError("need at least 2 folds")
    labels = np.asarray(labels)
    classes = np.unique(labels)

    for attempt in range(max_attempts):
        assignment = np.empty(len(labels), dtype=int)
        for c in classes:
            idx = np.flatnonzero(labels == c)
            order = idx[rng.derive(f"attempt{attempt}-class{c}").permutation(len(idx))]
            assignment[order] = np.arange(len(order)) % folds
        ok = all(
            len(np.unique(labels[assignment == f])) == len(classes)
            for f in range(folds)
        )
        if ok:
            return [
                (np.flatnonzero(assignment != f), np.flatnonzero(assignment == f))
                for f in range(folds)
            ]
    raise CvError(f"could not build {folds} stratified folds with both classes")


def cross_validate(
    trainer: Callable[[np.ndarray, np.ndarray, object], object],
    features: np.ndarray,
    labels: np.ndarray,
    folds: int,
    grid: Sequence[object],
    rng: RngStream,
    fit_many: FitMany | None = None,
) -> CvResult:
    """Mean validation accuracy per grid point; first-best wins ties.

    Each (grid entry, fold) model is `trainer(X[train], y[train], param)`,
    or, when `fit_many` is given, one `fit_many(X, y, jobs)` call trains
    them all: `jobs` lists `(train_rows, param)` grid-major, then fold,
    and the hook returns one model per job in that order.
    """
    if not grid:
        raise CvError("empty hyperparameter grid")
    splits = stratified_kfold(labels, folds, rng.derive("folds"))
    jobs = [(tr, param) for param in grid for tr, _ in splits]
    if fit_many is None:
        models = [trainer(features[tr], labels[tr], param) for tr, param in jobs]
    else:
        models = fit_many(features, labels, jobs)
    table = []
    for gi, param in enumerate(grid):
        fold_accs = [
            accuracy(labels[va], predict_labels(models[gi * len(splits) + fi], features[va]))
            for fi, (_, va) in enumerate(splits)
        ]
        table.append((param, float(np.mean(fold_accs)), fold_accs))
    best_index = int(np.argmax([row[1] for row in table]))  # argmax keeps first tie
    return CvResult(table[best_index][0], best_index, table)


def fit_with_cv(
    fit_fixed: Callable[[np.ndarray, np.ndarray, object], object],
    X: np.ndarray,
    y: np.ndarray,
    param: object,
    grid: Sequence[object],
    folds: int,
    rng: RngStream,
    fit_many: FitMany | None = None,
):
    """`fit_fixed(X, y, param)`, or with `param == "auto"` pick it from
    `grid` by stratified CV (trained by `fit_many` when given), refit on
    all rows and attach `cv_result`."""
    if param != "auto":
        return fit_fixed(X, y, param)
    cv = cross_validate(fit_fixed, X, y, folds, list(grid), rng, fit_many)
    model = fit_fixed(X, y, cv.best_param)
    model.cv_result = cv
    return model
