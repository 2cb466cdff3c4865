"""K-nearest-neighbor classifier with optional inverse-distance weights.

The score is the (weighted) positive vote fraction among the k nearest
training rows; k is picked from an odd grid by stratified CV, ties to
the smallest k.

Neighbours are ranked by a stable argsort of squared distances, so a
model with k neighbours reads the first k columns of any longer ranking.
The ranking is sorted ROW_BLOCK query rows at a time and only its first
`k_max` columns are kept, so the n_query x n_train distances are the only
array of that size a query builds.
The models that share a training set share one `NeighbourMemo`: it keeps
the first `k_max` columns of the ranking of the last query, with their
squared distances, where `k_max` is the largest k among them. The CV
trainer builds one memo per fold, so the fold's validation rows are
ranked once for the whole k grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import KnnConfig
from ..rng import RngStream
from .base import ROW_BLOCK, sq_distances
from .cv import CvResult, fit_with_cv

DIST_EPS = 1e-9


class NeighbourMemo:
    """The `k_max` nearest training rows of the last query, in stable
    order, and their squared distances; shared by the models of one
    training set."""

    def __init__(self, train_features: np.ndarray, k_max: int):
        self.train_features = train_features
        self.k_max = k_max
        self.query = None
        self.nearest = None
        self.sq_dist = None

    def neighbours(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, squared distances) of the `k_max` nearest
        training rows of each row of X."""
        if self.query is None or not np.array_equal(X, self.query):
            # What the memo keeps is allocated before the distances, so no
            # kept array lands in the heap above them: the block they free
            # stays whole for the next query of that size. (Kept arrays
            # made after them cost the fixture grid's peak 1.3 MiB in
            # about half of its runs.)
            k = min(self.k_max, len(self.train_features))
            query = X.copy()
            nearest = np.empty((len(X), k), dtype=np.intp)
            sq_dist = np.empty((len(X), k))
            d2 = sq_distances(X, self.train_features)
            for start in range(0, len(X), ROW_BLOCK):
                rows = slice(start, start + ROW_BLOCK)
                nearest[rows] = np.argsort(d2[rows], axis=1, kind="stable")[:, :k]
                sq_dist[rows] = np.take_along_axis(d2[rows], nearest[rows], axis=1)
            self.query, self.nearest, self.sq_dist = query, nearest, sq_dist
        return self.nearest, self.sq_dist


@dataclass
class KnnModel:
    train_features: np.ndarray
    train_labels: np.ndarray
    k: int
    weighting: str
    threshold: float = 0.5
    cv_result: CvResult | None = field(default=None, repr=False)
    # None: a memo of this model's own k neighbours.
    memo: NeighbourMemo | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.memo is None:
            self.memo = NeighbourMemo(self.train_features, self.k)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        nearest, d2 = self.memo.neighbours(X)
        nearest, d2 = nearest[:, : self.k], d2[:, : self.k]
        labels = self.train_labels[nearest]
        if self.weighting == "uniform":
            return labels.mean(axis=1)
        w = 1.0 / (np.sqrt(d2) + DIST_EPS)
        return np.sum(w * labels, axis=1) / np.sum(w, axis=1)

    @property
    def hyperparams(self) -> dict:
        return {"k": self.k, "weighting": self.weighting}


def _fit_knn_many(
    X: np.ndarray, y: np.ndarray, groups, weighting: str
) -> list[KnnModel]:
    """One model per (rows, k) of each group, scoring as `KnnModel(X[rows],
    y[rows], min(k, len(rows)), weighting)` does; a group's models share
    one memo, sized for their largest k."""
    models = []
    for rows, ks in groups:
        # A CV training fold can hold fewer rows than the grid filter assumes.
        ks = [min(k, len(rows)) for k in ks]
        memo, labels = NeighbourMemo(X[rows], max(ks)), y[rows]
        models += [KnnModel(memo.train_features, labels, k, weighting, memo=memo) for k in ks]
    return models


def fit_knn(
    X: np.ndarray, y: np.ndarray,
    config: KnnConfig | None = None,
    rng: RngStream | None = None,
) -> KnnModel:
    config = config or KnnConfig()
    rng = rng or RngStream(0, ("knn",))
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("empty training set")
    if config.weighting not in ("uniform", "inverse"):
        raise ValueError(f"unknown weighting {config.weighting!r}")

    grid = config.k_grid
    if config.k == "auto":
        grid = [k for k in grid if k <= len(y) - len(y) // config.cv_folds]
    elif not 1 <= config.k <= len(y):
        raise ValueError(f"k={config.k} outside [1, {len(y)}]")
    return fit_with_cv(
        lambda Xt, yt, groups: _fit_knn_many(Xt, yt, groups, config.weighting),
        X, y, config.k, grid, config.cv_folds, rng,
    )


def fit_knn_sets(sets: list, config: KnnConfig) -> list[KnnModel]:
    """`fit_knn` on each `(X, y, rng)` of `sets`, one after another."""
    return [fit_knn(X, y, config, rng) for X, y, rng in sets]
