"""Shared prediction interface and pairwise distances.

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


def attempt(fn, *args):
    """`fn(*args)`, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return e


def fit_jointly(fit_sets, sets: list) -> list:
    """`fit_sets(sets)`, one entry per set. If it raises, each set is fit
    alone by the same `fit_sets`, so only a faulty set's entry is its
    error (an exception in place of its result)."""
    if not sets:
        return []
    try:
        return fit_sets(sets)
    except Exception as e:
        if len(sets) == 1:
            return [e]
    return [fit_jointly(fit_sets, [s])[0] for s in sets]


def only(results: list):
    """The one entry of a one-set fit, raised if it is an exception."""
    [result] = results
    if isinstance(result, Exception):
        raise result
    return result
