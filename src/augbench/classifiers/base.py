"""Shared prediction interface, pairwise distances and lockstep grouping.

Every fitted model exposes `decision_scores(X)` (higher = more
positive-class) and a fixed `threshold`; the predicted label is 1 iff
score >= threshold. Probability-like models threshold at 0.5, margin
models at 0.

A pairwise call holds one n x m float64 array and nothing else of that
size: `sq_distances` computes the whole product `(2.0 * A) @ B.T` into
its result, then forms `(|a_i|^2 + |b_j|^2) - p_ij` and the clip at 0 in
place, ROW_BLOCK rows at a time. The product itself is never blocked or
sliced: BLAS sums a block of rows in another order than the whole matrix
(up to 1.7e-10 relative at 500 rows on OpenBLAS), so a blocked product
would move every KNN ranking and SVM kernel built on it.

Every classifier has one set trainer, `fit_<x>_sets(sets, config)`: it
takes `(X, y, rng)` training sets, returns one model per set and raises
if any set fails. The logistic and both SVM trainers check each set with
`checked_set`; the dense net has its own check, as its labels stay floats.
The lockstep trainers (logistic, linear SVM, dense net) run one epoch
loop per training-set shape and run of at most JOINT_ROWS rows:
`by_group` hands each loop its sets, wherever they sit in the call, and
puts the models back in order.
"""

from __future__ import annotations

import numpy as np


def predict_labels(model, features: np.ndarray) -> np.ndarray:
    scores = model.decision_scores(np.asarray(features, dtype=float))
    return (scores >= model.threshold).astype(int)


# Rows per step of the in-place passes over an n x m pairwise array: each
# step's temporaries are ROW_BLOCK x m.
ROW_BLOCK = 64


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between every row of A and every row of B."""
    sa, sb = np.sum(A**2, axis=1), np.sum(B**2, axis=1)
    d2 = (2.0 * A) @ B.T
    for start in range(0, len(d2), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        np.subtract(sa[rows, None] + sb[None, :], d2[rows], out=d2[rows])
    return np.maximum(d2, 0.0, out=d2)


def check_two_classes(y: np.ndarray) -> None:
    """Raise ValueError unless `y` holds two distinct labels."""
    # With return_counts, numpy 2.4 skips its hash-based unique, which
    # imports numpy.ma: about 1.3 MiB and 15 ms of every fresh process.
    if len(np.unique(y, return_counts=True)[0]) < 2:
        raise ValueError("both classes must be present")


def checked_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    """`(X, y)` as float rows and int labels; raises unless y has two classes."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    check_two_classes(y)
    return X, y


# The most training rows one epoch loop takes. The lockstep trainers'
# arrays hold the rows x 20 CV columns of each of a loop's sets at once
# (about 33 bytes per row and column for the logistic trainer), so the
# sets of one shape with more rows than this train in several loops, each
# of at most about 7 MB.
JOINT_ROWS = 10_000


def by_group(sets: list, key, train) -> list:
    """`train` on the sets of `sets` with an equal `key(set)`, group by
    group in the order the groups first appear, each group in consecutive
    runs of at most JOINT_ROWS rows (a set's second field is its labels;
    a larger set runs alone); one result per set, in the order of `sets`."""
    runs, rows = {}, {}  # per key: its runs of set indices, and its last run's rows
    for k, s in enumerate(sets):
        g = key(s)
        if rows.get(g, np.inf) + len(s[1]) > JOINT_ROWS:  # a group's first set opens a run
            runs.setdefault(g, []).append([])
            rows[g] = 0
        runs[g][-1].append(k)
        rows[g] += len(s[1])
    results = [None] * len(sets)
    for run in (run for group in runs.values() for run in group):
        for k, result in zip(run, train([sets[k] for k in run])):
            results[k] = result
    return results
