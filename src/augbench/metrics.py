"""Accuracy, F1 and ROC/AUC for binary scored predictions.

Conventions pinned for determinism:
* F1 is positive-class F1 and defined as 0 when precision + recall = 0
  (including the all-negative predictor).
* The ROC sweep groups tied scores into a single threshold step; the
  trapezoid-rule AUC then equals the Mann-Whitney statistic with tied
  (positive, negative) pairs credited 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricError(Exception):
    pass


@dataclass
class RocCurve:
    points: list[tuple[float, float]]  # (fpr, tpr) from (0,0) to (1,1)
    auc: float


def _as_arrays(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape:
        raise MetricError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise MetricError("empty inputs")
    return t, p


def accuracy(y_true, y_pred) -> float:
    t, p = _as_arrays(y_true, y_pred)
    return float(np.mean(t == p))


def f1(y_true, y_pred) -> float:
    t, p = _as_arrays(y_true, y_pred)
    tp = int(np.sum((t == 1) & (p == 1)))
    fp = int(np.sum((t == 0) & (p == 1)))
    fn = int(np.sum((t == 1) & (p == 0)))
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2 * tp / denom


def roc_auc(y_true, scores) -> RocCurve:
    """ROC curve by grouped-threshold sweep; AUC by the trapezoid rule."""
    t, s = _as_arrays(y_true, np.asarray(scores, dtype=float))
    n_pos = int(np.sum(t == 1))
    n_neg = int(np.sum(t == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: only one class present in y_true")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    # One step per distinct score value: the last index of each tie group.
    last = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    fpr = np.concatenate([[0.0], np.cumsum(t_sorted == 0)[last] / n_neg])
    tpr = np.concatenate([[0.0], np.cumsum(t_sorted == 1)[last] / n_pos])
    # cumsum adds left to right (np.sum adds pairwise), so the AUC is the
    # running total of the trapezoids in sweep order.
    trapezoids = (fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0
    auc = np.cumsum(trapezoids)[-1]
    return RocCurve(points=list(zip(fpr.tolist(), tpr.tolist())), auc=float(auc))


def roc_to_csv(curve: RocCurve) -> str:
    lines = ["fpr,tpr"]
    lines.extend(f"{fpr:.10g},{tpr:.10g}" for fpr, tpr in curve.points)
    return "\n".join(lines) + "\n"
