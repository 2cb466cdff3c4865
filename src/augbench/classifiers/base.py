"""Shared prediction interface and pairwise distances.

Every fitted model exposes `decision_scores(X)` (higher = more
positive-class) and a fixed `threshold`; the predicted label is 1 iff
score >= threshold. Probability-like models threshold at 0.5, margin
models at 0.
"""

from __future__ import annotations

import numpy as np


def predict_labels(model, features: np.ndarray) -> np.ndarray:
    scores = model.decision_scores(np.asarray(features, dtype=float))
    return (scores >= model.threshold).astype(int)


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between every row of A and every row of B."""
    d2 = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2.0 * A @ B.T
    return np.maximum(d2, 0.0, out=d2)


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
