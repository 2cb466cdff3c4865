"""Accuracy/F1 hand values; trapezoid AUC against a pair-counting oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from augbench.metrics import (
    MetricError,
    RocCurve,
    accuracy,
    confusion,
    f1,
    roc_auc,
    roc_to_csv,
)


def pair_count_auc(y_true, scores) -> float:
    """Mann-Whitney oracle: P(random positive outscores random negative),
    ties credited 1/2. Quadratic and independent of the sweep code."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for p in pos:
        total += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return total / (len(pos) * len(neg))


def tie_group_loop_roc(y_true, scores) -> RocCurve:
    """Sweep oracle: one step per tie group, with a running trapezoid sum.
    `roc_auc` must reproduce its points and AUC bit for bit."""
    t = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(t == 1))
    n_neg = int(np.sum(t == 0))
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]

    points = [(0.0, 0.0)]
    auc = 0.0
    tp = fp = 0
    i = 0
    n = len(s_sorted)
    while i < n:
        j = i
        while j < n and s_sorted[j] == s_sorted[i]:
            j += 1
        tp += int(np.sum(t_sorted[i:j] == 1))
        fp += int(np.sum(t_sorted[i:j] == 0))
        fpr, tpr = fp / n_neg, tp / n_pos
        prev_fpr, prev_tpr = points[-1]
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        points.append((fpr, tpr))
        i = j
    return RocCurve(points=points, auc=float(auc))


def test_confusion_hand_values():
    c = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert (c.tp, c.fn, c.tn, c.fp) == (2, 1, 1, 1)
    assert c.total == 5


def test_accuracy_and_f1_hand_values():
    y = [1, 1, 0, 0, 1]
    p = [1, 0, 0, 1, 1]
    assert accuracy(y, p) == pytest.approx(3 / 5)
    assert f1(y, p) == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))


def test_f1_zero_convention_all_negative_predictor():
    y = [0] * 64 + [1] * 36
    p = [0] * 100
    assert accuracy(y, p) == pytest.approx(0.64)
    assert f1(y, p) == 0.0


def test_metric_errors():
    with pytest.raises(MetricError):
        accuracy([], [])
    with pytest.raises(MetricError):
        accuracy([1, 0], [1])
    with pytest.raises(MetricError):
        roc_auc([1, 1], [0.2, 0.9])  # single class


def test_auc_perfect_and_reversed():
    y = [0, 0, 1, 1]
    assert roc_auc(y, [0.1, 0.2, 0.8, 0.9]).auc == pytest.approx(1.0)
    assert roc_auc(y, [0.9, 0.8, 0.2, 0.1]).auc == pytest.approx(0.0)


def test_auc_all_tied_is_half():
    assert roc_auc([0, 1, 0, 1], [0.5] * 4).auc == pytest.approx(0.5)


def test_auc_known_tie_value():
    # One tied (pos, neg) pair out of 2x2 -> (1 + 1 + 0.5 + 1) / 4.
    y = [1, 1, 0, 0]
    s = [0.9, 0.5, 0.5, 0.1]
    assert roc_auc(y, s).auc == pytest.approx(pair_count_auc(y, s)) == pytest.approx(0.875)


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=50)
    y[:2] = [0, 1]
    s = rng.normal(size=50).round(1)  # rounding forces ties
    curve = roc_auc(y, s)
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)
    fprs = [p[0] for p in curve.points]
    tprs = [p[1] for p in curve.points]
    assert fprs == sorted(fprs) and tprs == sorted(tprs)


def test_roc_csv_shape():
    text = roc_to_csv(roc_auc([0, 1], [0.1, 0.9]))
    lines = text.strip().split("\n")
    assert lines[0] == "fpr,tpr"
    assert len(lines) == 1 + 3  # (0,0), one step per distinct score


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 5)), min_size=4, max_size=60
    ).filter(lambda rows: len({t for t, _ in rows}) == 2)
)
def test_auc_equals_pair_counting_property(rows):
    y = [t for t, _ in rows]
    s = [v for _, v in rows]  # small integer scores force heavy ties
    curve = roc_auc(y, s)
    assert 0.0 <= curve.auc <= 1.0
    assert curve.auc == pytest.approx(pair_count_auc(y, s), abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3)),
        ),
        min_size=2,
        max_size=120,
    ).filter(lambda rows: len({t for t, _ in rows}) == 2)
)
def test_roc_auc_equals_the_tie_group_loop_exactly(rows):
    y = [t for t, _ in rows]
    s = [float(v) for _, v in rows]
    curve, oracle = roc_auc(y, s), tie_group_loop_roc(y, s)
    assert curve.points == oracle.points
    assert curve.auc == oracle.auc


def test_auc_hand_case_three_of_four_pairs():
    curve = roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
    assert curve.auc == pytest.approx(0.75)  # 3 of 4 (pos, neg) pairs ordered


def test_accuracy_half_correct():
    assert accuracy([0] * 10, [0] * 5 + [1] * 5) == pytest.approx(0.5)
