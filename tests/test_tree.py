"""CART: split selection, XOR shattering, depth control."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench.classifiers import predict_labels, tree
from augbench.classifiers.tree import (
    TreeConfig,
    _fit_tree_many,
    fit_decision_tree,
    fit_decision_tree_sets,
    fit_tree_fixed_depth,
)
from augbench.config import ExperimentConfig
from augbench.dataio import prepare
from augbench.rng import RngStream
from conftest import FIXTURE_CSV, SCHEMA, flat_jobs, ref_grow, ref_tree_scores

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def test_pure_data_gives_single_leaf():
    model = fit_tree_fixed_depth(np.arange(6.0).reshape(-1, 1), np.ones(6, dtype=int), None)
    assert model.tree.feature[0] == -1  # the root is a leaf
    assert model.tree.fraction[0] == 1.0


def test_obvious_threshold_found():
    X = np.array([[1.0], [2.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_tree_fixed_depth(X, y, None)
    assert model.tree.feature[0] == 0
    assert model.tree.threshold[0] == pytest.approx(6.0)  # midpoint of 2 and 10
    np.testing.assert_array_equal(predict_labels(model, X), y)


def test_depth_two_shatters_xor():
    # The first XOR split has zero Gini gain; the tree must still split
    # impure nodes so depth 2 reaches perfect accuracy.
    model = fit_tree_fixed_depth(XOR_X, XOR_Y, 2)
    np.testing.assert_array_equal(predict_labels(model, XOR_X), XOR_Y)
    assert model.tree.depth == 2


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
        assert model.tree.depth <= depth


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


DEPTHS = st.sampled_from([0, 1, 2, 3, 5, 8, None])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_tree_per_row_set_scores_as_a_tree_grown_at_each_depth(data):
    # Small integer features give ties and repeated values, Gaussian ones
    # distinct values; subsets of rows stand in for CV training folds beside
    # the all-rows refit. A small CHUNK splits levels into several chunks
    # and feature blocks.
    n = data.draw(st.integers(1, 40))
    width = data.draw(st.integers(1, 3))
    rng = RngStream(data.draw(st.integers(0, 2**32)), ("tree-property",))
    if data.draw(st.booleans()):
        X = rng.derive("x").integers(0, 5, size=(n, width)).astype(float)
    else:
        X = rng.derive("x").normal(size=(n, width))
    y = rng.derive("y").integers(0, 2, size=n)
    groups = [(np.arange(n), data.draw(st.lists(DEPTHS, min_size=1, max_size=4)))]
    for _ in range(data.draw(st.integers(0, 4))):
        subset = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        groups.append((subset, data.draw(st.lists(DEPTHS, min_size=1, max_size=4))))
    config = TreeConfig(min_samples_split=data.draw(st.integers(2, 5)))

    with mock.patch.object(tree, "CHUNK", data.draw(st.sampled_from([1, 7, 40, tree.CHUNK]))):
        models = _fit_tree_many(X, y, groups, config)
    queries = np.vstack([X, rng.derive("q").normal(size=(30, width)) * 3.0,
                         np.arange(-0.5, 5.0, 0.5)[:, None].repeat(width, axis=1)])
    for (rows, depth), model in zip(flat_jobs(groups), models, strict=True):
        expected = ref_tree_scores(ref_grow(X[rows], y[rows], config.min_samples_split, depth),
                                   queries)
        assert model.max_depth == depth
        assert np.array_equal(model.decision_scores(queries), expected)
    # One tree per group.
    trees = [id(model.tree) for model in models]
    ends = np.cumsum([len(depths) for _, depths in groups])
    assert [len(set(trees[end - len(depths):end])) for (_, depths), end in zip(groups, ends)] \
        == [1] * len(groups)
    assert len(set(trees)) == len(groups)


def _grid_fixture_shaped_sets() -> list:
    """The fixture's 300 training rows, and three sets of those rows and
    200 jittered copies of some: the shapes of grid_fixture's sets."""
    data = prepare(ExperimentConfig(dataset=str(FIXTURE_CSV), schema=dict(SCHEMA)))
    X, y = data.X_train, data.y_train
    rng = RngStream(0, ("tree-sets",))
    sets = [(X, y, rng.derive("fit"))]
    for k in range(3):
        pick = rng.derive(f"pick{k}").integers(0, len(y), size=200)
        noise = 0.1 * rng.derive(f"noise{k}").normal(size=(200, X.shape[1]))
        sets.append((np.vstack([X, X[pick] + noise]), np.concatenate([y, y[pick]]),
                     rng.derive(f"fit{k}")))
    return sets


def test_fixture_sized_folds_grow_the_reference_trees():
    # Five fold-sized row sets of a 500-row set: the top levels run in
    # several chunks at the default CHUNK.
    X, y, rng = _grid_fixture_shaped_sets()[1]
    groups = [(np.flatnonzero(rng.derive(f"fold{k}").uniform(0, 1, len(y)) < 0.8),
               [0, 2, 5, None]) for k in range(5)]
    models = _fit_tree_many(X, y, groups, TreeConfig())
    for (rows, depth), model in zip(flat_jobs(groups), models, strict=True):
        expected = ref_tree_scores(ref_grow(X[rows], y[rows], 2, depth), X)
        assert np.array_equal(model.decision_scores(X), expected)


# tracemalloc's peak over `fit_decision_tree_sets` on these four sets when
# the tree grew one node at a time: 207,469 to 210,301 bytes in six runs
# (numpy 2.4, Python 3.11); the level-by-level grower reads about 172,000.
# Its working set, bounded by CHUNK, must stay below the lowest reading.
NODE_AT_A_TIME_PEAK = 207_469


def test_tree_sets_peak_no_higher_than_growing_one_node_at_a_time():
    sets = _grid_fixture_shaped_sets()
    fit_decision_tree_sets(sets, TreeConfig())  # numpy's first-call allocations
    tracemalloc.start()
    try:
        fit_decision_tree_sets(sets, TreeConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= NODE_AT_A_TIME_PEAK
