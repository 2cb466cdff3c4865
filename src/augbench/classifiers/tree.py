"""CART decision tree with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted
values. An impure node is split as long as any valid threshold exists,
even at zero Gini gain (this is what lets a depth-2 tree shatter XOR);
depth control comes from `max_depth`, chosen by cross-validation.

A greedily grown tree limited to depth d is the depth-d truncation of a
deeper tree on the same rows: the grower's choices above the limit do not
depend on it. So every node keeps its positive fraction, a model reads its
tree down to its own `max_depth` (a node at the limit scores as a leaf),
and the CV trainer grows one tree per fold, to the deepest depth of the
grid, and reads it at each grid depth.

`_fit_tree_many` grows the trees of all its groups together (a CV call's
fold trees, or a refit's one tree), one level at a time. Every open node
of a level is a contiguous segment of the level's samples, and each
feature keeps its own order of them, sorted by value within each segment;
a split keeps these orders by a stable partition into the children's
segments. So a level's split search is a fixed number of array
operations per feature, over every node at once: cumulative class counts
from segment offsets give every candidate threshold's weighted Gini,
`np.minimum.reduceat` each node's minimum, and its first position wins.
The arithmetic is that of a search over one node at a time: the same
integer counts and float Gini expression, the first minimum within a
feature, and a later feature only when better by more than 1e-15. A
level runs in chunks of nodes, and a chunk's features in blocks, of about
CHUNK (feature, row) positions each, so the working set stays small: a
test holds the peak of `fit_decision_tree_sets` on the fixture grid's
sets to that of the node-at-a-time grower.

A tree is flat arrays over its nodes, root first and level by level
(`Tree`), and `decision_scores` walks every row down together, one level
per step, until `max_depth`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import TreeConfig
from ..rng import RngStream
from .cv import CvResult, fit_with_cv

# The depth limit of a group whose grid holds None: no limit.
_UNLIMITED = np.iinfo(np.intp).max


@dataclass
class Tree:
    """A grown tree as arrays over its nodes, root first, level by level."""

    feature: np.ndarray  # the split's feature; -1 at a leaf
    threshold: np.ndarray  # a row goes left iff row[feature] <= threshold
    children: np.ndarray  # (nodes, 2): left and right child; a leaf's are itself
    fraction: np.ndarray  # positive fraction of the training rows reaching the node
    depth: int  # the deepest node's depth


@dataclass
class DecisionTreeModel:
    tree: Tree  # may be grown deeper than `max_depth`
    max_depth: int | None
    threshold: float = 0.5
    cv_result: CvResult | None = field(default=None, repr=False)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        t = self.tree
        steps = t.depth if self.max_depth is None else min(self.max_depth, t.depth)
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(steps):  # a row at a leaf stays there
            node = t.children[node, 1 - (X[rows, t.feature[node]] <= t.threshold[node])]
        return t.fraction[node]

    @property
    def hyperparams(self) -> dict:
        return {"max_depth": self.max_depth}


def _gini_impurity(count, positives):
    """The Gini impurity of `count` rows of which `positives` are positive."""
    return 1.0 - ((count - positives) / count) ** 2 - (positives / count) ** 2


def _weighted_impurity(n, n1, seg, left_n, left1):
    """`(left_n * impurity(left) + right_n * impurity(right)) / n` of each
    split of a segment `seg` of `n[seg]` rows, `n1[seg]` of them positive,
    with `left_n` rows on the left, `left1` of them positive, and the rest
    on the right. The products and the sum are taken in place."""
    weighted = _gini_impurity(left_n, left1)
    weighted *= left_n
    right_n = n[seg] - left_n
    right = _gini_impurity(right_n, n1[seg] - left1)
    right *= right_n
    weighted += right
    weighted /= n[seg]
    return weighted


def _block_splits(X, y, order, features, n, n1):
    """The best split of each node on each feature of a block: row i of
    `order` is feature `features[i]`'s order of the block's rows, node k
    their segment k, of `n[k]` rows of which `n1[k]` positive. Returns
    (features, nodes) arrays of the lowest weighted Gini (inf where no
    threshold exists) and of the threshold at its first position."""
    rows, m = order.shape
    xs = X[order, features[:, None]].ravel()  # feature-major: segment (i, k)
    ends = (np.arange(0, rows * m, m)[:, None] + np.cumsum(n)).ravel()
    n, n1 = np.concatenate([n] * rows), np.concatenate([n1] * rows)
    starts = ends - n
    valid = xs[1:] > xs[:-1]
    valid[ends[:-1] - 1] = False  # no split between two segments
    pos = np.flatnonzero(valid)  # a split after each of these positions
    low, threshold = np.full(len(n), np.inf), np.zeros(len(n))
    if not len(pos):
        return low.reshape(rows, -1), threshold.reshape(rows, -1)
    seg = np.searchsorted(ends, pos, side="right")
    ys = y[order].ravel()
    cum1 = np.cumsum(ys)
    # Positives left of each split: the cumulative count at it, less the
    # count ahead of its segment.
    left1 = cum1[pos] - (cum1[starts] - ys[starts])[seg]
    del ys, cum1  # a block's temporaries are freed as soon as they are read
    weighted = _weighted_impurity(n, n1, seg, pos - starts[seg] + 1, left1)
    del left1
    # Each segment's minimum and the first position attaining it.
    new = np.empty(len(pos), dtype=bool)
    new[0] = True
    np.not_equal(seg[1:], seg[:-1], out=new[1:])
    first = np.flatnonzero(new)
    found = seg[first]
    low[found] = np.minimum.reduceat(weighted, first)
    hits = np.where(weighted == low[seg], np.arange(len(pos)), len(pos))
    at = pos[np.minimum.reduceat(hits, first)]
    threshold[found] = (xs[at] + xs[at + 1]) / 2.0
    return low.reshape(rows, -1), threshold.reshape(rows, -1)


# About the most (feature, row) positions one step of a level's split
# search or partition covers: a level's nodes run in chunks, and a chunk's
# features in blocks, so that a step's temporaries stay small.
CHUNK = 768


def _grow_levels(X, y, row_sets, limits, min_samples_split) -> list[tuple]:
    """The nodes of one tree per `row_sets[g]`, grown to depth `limits[g]`
    (None: no limit), level by level: per level, the (group, depth,
    feature, threshold, children, positive fraction) of its nodes, node ids
    counted across levels and trees."""
    d = X.shape[1]
    limit = np.array([_UNLIMITED if depth is None else depth for depth in limits])

    def is_open(n, n1, group, level):
        return (n1 > 0) & (n1 < n) & (n >= min_samples_split) & (level < limit[group])

    group = np.arange(len(row_sets))
    n = np.array([len(rows) for rows in row_sets])
    n1 = np.array([int(y[rows].sum()) for rows in row_sets])
    opened = is_open(n, n1, group, 0)
    # Row f of `order` is feature f's order of the open nodes' rows: node
    # by node, by value within a node. Each level moves its open children's
    # rows to the front.
    order = np.empty((d, int(n[opened].sum())), dtype=np.int32)
    kept = 0
    for rows in (rows for rows, root_open in zip(row_sets, opened) if root_open):
        order[:, kept:kept + len(rows)] = rows[np.argsort(X[rows], axis=0, kind="stable")].T
        kept += len(rows)
    levels, level, first_id = [], 0, 0  # first_id: the level's first node id
    while True:
        count = len(n)
        # Every node a leaf until the split search below fills in its split.
        feature, threshold = np.full(count, -1), np.zeros(count)
        children = np.repeat(np.arange(first_id, first_id + count), 2).reshape(count, 2)
        levels.append((group, np.full(count, level), feature, threshold, children, n1 / n))
        live = np.flatnonzero(opened)
        if not len(live):
            return levels
        first_id += count
        next_id = first_id
        level += 1
        size, ends = n[live], np.cumsum(n[live])
        # Blocks of `width` features; chunks of nodes, a new one at each node
        # that starts past a multiple of CHUNK // width rows.
        width = min(max(CHUNK // int(ends[-1]), 1), d)
        blocks = [slice(f, f + width) for f in range(0, d, width)]
        cuts = np.flatnonzero(np.diff((ends - size) // (CHUNK // width))) + 1
        kids, kept = [], 0  # per chunk, its children's (n, n1, group, open)
        for nodes in np.split(np.arange(len(live)), cuts):
            chunk = order[:, ends[nodes[0]] - size[nodes[0]]:ends[nodes[-1]]]
            chunk_n = size[nodes]
            found, at = _chunk_splits(X, y, chunk, blocks, chunk_n, n1[live[nodes]])
            split = found >= 0
            parents = live[nodes[split]]
            feature[parents], threshold[parents] = found[split], at[split]
            children[parents] = np.arange(next_id, next_id + 2 * len(parents)).reshape(-1, 2)
            next_id += 2 * len(parents)
            child = _router(X, chunk_n, found, at)
            kid = child(chunk[0])
            bins = 2 * len(parents) + 1
            kid_n = np.bincount(kid, minlength=bins)[:-1]
            kid_n1 = np.bincount(kid, weights=y[chunk[0]], minlength=bins)[:-1].astype(np.intp)
            kid_group = np.repeat(group[parents], 2)
            kid_open = is_open(kid_n, kid_n1, kid_group, level)
            kids.append((kid_n, kid_n1, kid_group, kid_open))
            # A stable partition of each feature's order: the open children's
            # rows, child by child, to the front; the others are dropped.
            rank = np.append(np.where(kid_open, np.cumsum(kid_open) - 1, bins), bins)
            moved = int(kid_n[kid_open].sum())
            for f in blocks:
                stable = np.argsort(rank[child(chunk[f])], axis=1, kind="stable")
                order[f, kept:kept + moved] = np.take_along_axis(chunk[f], stable, 1)[:, :moved]
            kept += moved
            del child, kid, stable  # before the next chunk's search
        order = order[:, :kept]
        n, n1, group, opened = (np.concatenate(a) for a in zip(*kids))


def _chunk_splits(X, y, order, blocks, n, n1):
    """(feature, threshold) of each node's best split, feature -1 where no
    threshold exists: row f of `order` is feature f's order of the chunk's
    rows, node k their segment k, of `n[k]` rows of which `n1[k]` are
    positive. A later feature wins only when better by more than 1e-15."""
    low, at = map(np.vstack, zip(*[
        _block_splits(X, y, order[f], np.arange(len(order))[f], n, n1) for f in blocks
    ]))
    best, feature, threshold = low[0], np.where(low[0] < np.inf, 0, -1), at[0]
    for f in range(1, len(low)):
        better = low[f] < best - 1e-15
        best = np.where(better, low[f], best)
        feature = np.where(better, f, feature)
        threshold = np.where(better, at[f], threshold)
    return feature, threshold


def _router(X, n, feature, threshold):
    """`child(rows)`: for the rows of X at the positions of a chunk whose
    node k is segment k, of `n[k]` positions, each one's child. For the
    chunk's j-th node with a split `feature` (not -1) and `threshold`,
    that is 2j, or 2j + 1 if the row goes right; 2 * splits at a node
    without a split."""
    split = feature >= 0
    node = np.repeat(np.arange(len(n)), n)
    first = np.where(split, 2 * np.cumsum(split) - 2, 2 * np.count_nonzero(split))[node]
    routed, feature, threshold = split[node], feature[node], threshold[node]
    return lambda rows: first + routed * (1 - (X[rows, feature] <= threshold))


def _grow_trees(X, y, row_sets, limits, min_samples_split) -> list[Tree]:
    """One tree per `row_sets[g]`, grown to depth `limits[g]` (None: no
    limit), every tree's level grown at once."""
    group, depth, feature, threshold, children, fraction = map(
        np.concatenate, zip(*_grow_levels(X, y, row_sets, limits, min_samples_split)))
    local = np.zeros(len(group), dtype=np.intp)  # each node's id in its own tree
    trees = []
    for g in range(len(row_sets)):
        ids = np.flatnonzero(group == g)
        local[ids] = np.arange(len(ids))
        trees.append(Tree(feature[ids], threshold[ids], local[children[ids]], fraction[ids],
                          int(depth[ids[-1]])))
    return trees


def fit_tree_fixed_depth(
    X: np.ndarray, y: np.ndarray, max_depth: int | None,
    config: TreeConfig | None = None,
) -> DecisionTreeModel:
    """One tree grown on all of `X` to `max_depth`. No run calls it: it
    stays as the one-model-per-job tree reference that `test_cv` compares
    the batched CV against."""
    y = np.asarray(y, dtype=int)
    [model] = _fit_tree_many(np.asarray(X, dtype=float), y, [(np.arange(len(y)), [max_depth])],
                             config or TreeConfig())
    return model


def _fit_tree_many(
    X: np.ndarray, y: np.ndarray, groups, config: TreeConfig
) -> list[DecisionTreeModel]:
    """One model per (rows, max_depth) of each group, scoring as a tree
    grown on `X[rows]` to `max_depth` does: one tree per group, grown to
    the deepest depth the group asks for."""
    if any(len(rows) == 0 for rows, _ in groups):
        raise ValueError("empty training set")
    trees = _grow_trees(
        X, y, [np.asarray(rows) for rows, _ in groups],
        [None if None in depths else max(depths) for _, depths in groups],
        config.min_samples_split,
    )
    return [DecisionTreeModel(tree, d) for tree, (_, depths) in zip(trees, groups) for d in depths]


def fit_decision_tree(
    X: np.ndarray, y: np.ndarray,
    config: TreeConfig | None = None,
    rng: RngStream | None = None,
) -> DecisionTreeModel:
    """Fit with `max_depth` picked by stratified CV unless pinned."""
    config = config or TreeConfig()
    rng = rng or RngStream(0, ("tree",))
    return fit_with_cv(
        lambda Xt, yt, groups: _fit_tree_many(Xt, yt, groups, config),
        np.asarray(X, dtype=float), np.asarray(y, dtype=int),
        config.max_depth, config.depth_grid, config.cv_folds, rng,
    )


def fit_decision_tree_sets(sets: list, config: TreeConfig) -> list[DecisionTreeModel]:
    """`fit_decision_tree` on each `(X, y, rng)` of `sets`, one after another."""
    return [fit_decision_tree(X, y, config, rng) for X, y, rng in sets]
