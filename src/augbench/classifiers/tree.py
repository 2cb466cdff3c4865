"""CART decision tree with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted
values. An impure node is split as long as any valid threshold exists,
even at zero Gini gain (this is what lets a depth-2 tree shatter XOR);
depth control comes from `max_depth`, chosen by cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..rng import RngStream
from .cv import CvResult, fit_with_cv, per_job

DEFAULT_DEPTH_GRID: tuple = (2, 3, 4, 5, 6, 8, None)


@dataclass
class TreeConfig:
    max_depth: int | None | Literal["auto"] = "auto"  # "auto" = pick from depth_grid by CV
    depth_grid: tuple[int | None, ...] = DEFAULT_DEPTH_GRID
    min_samples_split: int = 2
    cv_folds: int = 5


@dataclass
class TreeNode:
    # Internal node: feature/threshold/left/right set. Leaf: counts set.
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: tuple[int, int] | None = None  # (negatives, positives)

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None

    @property
    def positive_fraction(self) -> float:
        n0, n1 = self.counts
        return n1 / (n0 + n1)

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


def gini(n0: int, n1: int) -> float:
    n = n0 + n1
    if n == 0:
        return 0.0
    p0, p1 = n0 / n, n1 / n
    return 1.0 - p0 * p0 - p1 * p1


def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float, float] | None:
    """(feature, threshold, weighted child Gini) or None if nothing splits."""
    n = len(y)
    n1_total = int(y.sum())
    n0_total = n - n1_total
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        distinct = np.flatnonzero(np.diff(xs) > 0)  # split after position i
        if len(distinct) == 0:
            continue
        cum1 = np.cumsum(ys)
        left_n = distinct + 1
        left1 = cum1[distinct]
        left0 = left_n - left1
        right_n = n - left_n
        right1 = n1_total - left1
        right0 = n0_total - left0
        g_left = 1.0 - (left0 / left_n) ** 2 - (left1 / left_n) ** 2
        g_right = 1.0 - (right0 / right_n) ** 2 - (right1 / right_n) ** 2
        weighted = (left_n * g_left + right_n * g_right) / n
        k = int(np.argmin(weighted))
        if best is None or weighted[k] < best[2] - 1e-15:
            thr = (xs[distinct[k]] + xs[distinct[k] + 1]) / 2.0
            best = (f, float(thr), float(weighted[k]))
    return best


def _grow(X: np.ndarray, y: np.ndarray, depth: int, config: TreeConfig,
          max_depth: int | None) -> TreeNode:
    n1 = int(y.sum())
    n0 = len(y) - n1
    if (
        n0 == 0
        or n1 == 0
        or len(y) < config.min_samples_split
        or (max_depth is not None and depth >= max_depth)
    ):
        return TreeNode(counts=(n0, n1))
    split = _best_split(X, y)
    if split is None:
        return TreeNode(counts=(n0, n1))
    f, thr, _ = split
    mask = X[:, f] <= thr
    return TreeNode(
        feature=f,
        threshold=thr,
        left=_grow(X[mask], y[mask], depth + 1, config, max_depth),
        right=_grow(X[~mask], y[~mask], depth + 1, config, max_depth),
    )


@dataclass
class DecisionTreeModel:
    root: TreeNode
    max_depth: int | None
    threshold: float = 0.5
    cv_result: CvResult | None = field(default=None, repr=False)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.positive_fraction
        return out

    @property
    def hyperparams(self) -> dict:
        return {"max_depth": self.max_depth}


def fit_tree_fixed_depth(
    X: np.ndarray, y: np.ndarray, max_depth: int | None,
    config: TreeConfig | None = None,
) -> DecisionTreeModel:
    config = config or TreeConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("empty training set")
    return DecisionTreeModel(_grow(X, y, 0, config, max_depth), max_depth)


def fit_decision_tree(
    X: np.ndarray, y: np.ndarray,
    config: TreeConfig | None = None,
    rng: RngStream | None = None,
) -> DecisionTreeModel:
    """Fit with `max_depth` picked by stratified CV unless pinned."""
    config = config or TreeConfig()
    rng = rng or RngStream(0, ("tree",))
    return fit_with_cv(
        per_job(lambda Xt, yt, depth: fit_tree_fixed_depth(Xt, yt, depth, config)),
        np.asarray(X, dtype=float), np.asarray(y, dtype=int),
        config.max_depth, config.depth_grid, config.cv_folds, rng,
    )
