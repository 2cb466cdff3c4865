"""CART: Gini values, split selection, XOR shattering, depth control."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench.classifiers import predict_labels
from augbench.classifiers.tree import (
    DEFAULT_DEPTH_GRID,
    TreeConfig,
    _fit_tree_many,
    fit_decision_tree,
    fit_tree_fixed_depth,
    gini,
)
from augbench.rng import RngStream
from conftest import flat_jobs

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def test_gini_hand_values():
    assert gini(10, 0) == 0.0
    assert gini(0, 0) == 0.0
    assert gini(5, 5) == pytest.approx(0.5)
    assert gini(3, 1) == pytest.approx(1.0 - 0.75**2 - 0.25**2)


def test_pure_data_gives_single_leaf():
    model = fit_tree_fixed_depth(np.arange(6.0).reshape(-1, 1), np.ones(6, dtype=int), None)
    assert model.root.is_leaf
    assert model.root.positive_fraction == 1.0


def test_obvious_threshold_found():
    X = np.array([[1.0], [2.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_tree_fixed_depth(X, y, None)
    assert model.root.feature == 0
    assert model.root.threshold == pytest.approx(6.0)  # midpoint of 2 and 10
    np.testing.assert_array_equal(predict_labels(model, X), y)


def test_depth_two_shatters_xor():
    # The first XOR split has zero Gini gain; the tree must still split
    # impure nodes so depth 2 reaches perfect accuracy.
    model = fit_tree_fixed_depth(XOR_X, XOR_Y, 2)
    np.testing.assert_array_equal(predict_labels(model, XOR_X), XOR_Y)
    assert model.root.depth() == 2


def test_depth_one_cannot_fit_xor():
    model = fit_tree_fixed_depth(XOR_X, XOR_Y, 1)
    acc = np.mean(predict_labels(model, XOR_X) == XOR_Y)
    assert acc <= 0.75


def test_max_depth_is_respected():
    rng = RngStream(0, ("tree",))
    X = rng.derive("x").normal(size=(100, 3))
    y = (X[:, 0] + 0.2 * rng.derive("n").normal(size=100) > 0).astype(int)
    for depth in (1, 2, 3):
        model = fit_tree_fixed_depth(X, y, depth)
        assert model.root.depth() <= depth


def test_scores_are_leaf_fractions():
    X = np.array([[0.0], [0.0], [0.0], [10.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_tree_fixed_depth(X, y, 1)
    scores = model.decision_scores(np.array([[0.0], [10.0]]))
    assert scores[0] == pytest.approx(1 / 3)
    assert scores[1] == pytest.approx(1.0)


def test_auto_depth_uses_cv_and_records_choice():
    rng = RngStream(1, ("cvdata",))
    X = rng.derive("x").normal(size=(80, 2))
    y = (X[:, 0] > 0).astype(int)
    model = fit_decision_tree(X, y, TreeConfig(cv_folds=4), rng.derive("fit"))
    assert model.cv_result is not None
    assert model.max_depth in TreeConfig().depth_grid
    assert model.hyperparams == {"max_depth": model.max_depth}
    assert np.mean(predict_labels(model, X) == y) > 0.9


def test_fixed_depth_skips_cv():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_decision_tree(X, y, TreeConfig(max_depth=2))
    assert model.cv_result is None
    assert model.max_depth == 2


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        fit_tree_fixed_depth(np.zeros((0, 2)), np.zeros(0, dtype=int), None)


def test_deterministic_under_equal_stream():
    rng = RngStream(2, ("d",))
    X = rng.derive("x").normal(size=(60, 2))
    y = (X.sum(axis=1) > 0).astype(int)
    a = fit_decision_tree(X, y, rng=RngStream(5, ("fit",)))
    b = fit_decision_tree(X, y, rng=RngStream(5, ("fit",)))
    np.testing.assert_array_equal(
        a.decision_scores(X), b.decision_scores(X)
    )
    assert a.max_depth == b.max_depth


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_tree_per_row_set_scores_as_a_tree_grown_at_each_depth(data):
    # Small integer features give ties and repeated values; a subset of
    # rows stands in for a CV training fold beside the all-rows refit.
    n = data.draw(st.integers(1, 40))
    cell = st.integers(0, 4)
    X = np.array(data.draw(st.lists(st.tuples(cell, cell, cell), min_size=n, max_size=n)),
                 dtype=float)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    subset = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    config = TreeConfig(min_samples_split=data.draw(st.integers(2, 5)))
    grid = [*DEFAULT_DEPTH_GRID, 0, 1]
    groups = [(np.arange(n), grid), (subset, grid)]

    models = _fit_tree_many(X, y, groups, config)
    queries = np.vstack([X, np.array(np.meshgrid(*[np.arange(-0.5, 5.0)] * 3)).reshape(3, -1).T])
    for (rows, depth), model in zip(flat_jobs(groups), models):
        expected = fit_tree_fixed_depth(X[rows], y[rows], depth, config)
        assert model.max_depth == depth
        assert np.array_equal(model.decision_scores(queries), expected.decision_scores(queries))
    # One tree per group.
    assert len({id(m.root) for m in models}) == len(groups)
