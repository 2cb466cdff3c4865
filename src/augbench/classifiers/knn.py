"""K-nearest-neighbor classifier with optional inverse-distance weights.

The score is the (weighted) positive vote fraction among the k nearest
training rows; k is picked from an odd grid by stratified CV, ties to
the smallest k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..rng import RngStream
from .base import sq_distances
from .cv import CvResult, fit_with_cv, per_job

DEFAULT_K_GRID = (1, 3, 5, 7, 9, 11)
DIST_EPS = 1e-9


@dataclass
class KnnConfig:
    # "auto" = pick from k_grid by CV
    k: int | Literal["auto"] = field(default="auto", metadata={"ge": 1})
    k_grid: tuple[int, ...] = field(default=DEFAULT_K_GRID, metadata={"ge": 1})
    weighting: Literal["uniform", "inverse"] = "inverse"
    cv_folds: int = field(default=5, metadata={"ge": 2})


@dataclass
class KnnModel:
    train_features: np.ndarray
    train_labels: np.ndarray
    k: int
    weighting: str
    threshold: float = 0.5
    cv_result: CvResult | None = field(default=None, repr=False)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        d2 = sq_distances(X, self.train_features)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        labels = self.train_labels[nearest]
        if self.weighting == "uniform":
            return labels.mean(axis=1)
        dist = np.sqrt(np.take_along_axis(d2, nearest, axis=1))
        w = 1.0 / (dist + DIST_EPS)
        return np.sum(w * labels, axis=1) / np.sum(w, axis=1)

    @property
    def hyperparams(self) -> dict:
        return {"k": self.k, "weighting": self.weighting}


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
    # A CV training fold can hold fewer rows than the grid filter assumes.
    return fit_with_cv(
        per_job(lambda Xt, yt, k: KnnModel(Xt, yt, min(k, len(yt)), config.weighting)),
        X, y, config.k, grid, config.cv_folds, rng,
    )
