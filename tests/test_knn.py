"""KNN against a brute-force neighbor oracle, and the grouped CV trainer
against one model per job."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench.classifiers import predict_labels
from augbench.classifiers.cv import per_job
from augbench.classifiers.knn import DIST_EPS, KnnConfig, KnnModel, _fit_knn_many, fit_knn
from augbench.rng import RngStream
from conftest import flat_jobs


def oracle_scores(train_X, train_y, X, k, weighting):
    """Independent per-point scan: sort by (distance, index), vote."""
    out = []
    for x in X:
        dists = np.sqrt(np.sum((train_X - x) ** 2, axis=1))
        order = sorted(range(len(train_y)), key=lambda i: (dists[i], i))[:k]
        labels = train_y[order]
        if weighting == "uniform":
            out.append(labels.mean())
        else:
            w = 1.0 / (dists[order] + DIST_EPS)
            out.append(np.sum(w * labels) / np.sum(w))
    return np.array(out)


@pytest.mark.parametrize("weighting", ["uniform", "inverse"])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_scores_match_oracle(weighting, k):
    rng = RngStream(0, ("knn", weighting, str(k)))
    train_X = rng.derive("tr").normal(size=(40, 3))
    train_y = (rng.derive("y").uniform(0, 1, size=40) > 0.5).astype(int)
    test_X = rng.derive("te").normal(size=(25, 3))
    model = KnnModel(train_X, train_y, k, weighting)
    np.testing.assert_allclose(
        model.decision_scores(test_X),
        oracle_scores(train_X, train_y, test_X, k, weighting),
        rtol=1e-10,
    )


def test_k1_memorizes_training_points():
    rng = RngStream(1, ("mem",))
    X = rng.normal(size=(30, 2))
    y = np.arange(30) % 2
    model = KnnModel(X, y, 1, "inverse")
    np.testing.assert_array_equal(predict_labels(model, X), y)


def test_fixed_k_skips_cv_and_validates_range():
    X = np.zeros((5, 1)) + np.arange(5)[:, None]
    y = np.array([0, 0, 1, 1, 1])
    model = fit_knn(X, y, KnnConfig(k=3))
    assert model.cv_result is None and model.k == 3
    with pytest.raises(ValueError):
        fit_knn(X, y, KnnConfig(k=6))
    with pytest.raises(ValueError):
        fit_knn(X, y, KnnConfig(k=0))
    with pytest.raises(ValueError):
        fit_knn(X, y, KnnConfig(k=3, weighting="gaussian"))


def test_auto_k_comes_from_grid_and_fits_signal():
    rng = RngStream(2, ("auto",))
    X = rng.derive("x").normal(size=(100, 2))
    y = (X[:, 0] > 0).astype(int)
    model = fit_knn(X, y, rng=rng.derive("fit"))
    assert model.k in KnnConfig().k_grid
    assert model.cv_result is not None
    assert np.mean(predict_labels(model, X) == y) > 0.85


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        fit_knn(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_hand_case_k3_uniform_and_inverse():
    # Train x = [0, 1, 2, 10], y = [0, 0, 1, 1]; query 1.5 has neighbors
    # {1, 2, 0} so the uniform vote is 1/3 -> label 0; inverse-distance
    # weighting also keeps label 0 (weights ~ 2.0 for class 1 vs ~2.67).
    X = np.array([[0.0], [1.0], [2.0], [10.0]])
    y = np.array([0, 0, 1, 1])
    query = np.array([[1.5]])
    uniform = KnnModel(X, y, 3, "uniform")
    assert uniform.decision_scores(query)[0] == pytest.approx(1 / 3)
    assert predict_labels(uniform, query)[0] == 0
    inverse = KnnModel(X, y, 3, "inverse")
    w0 = 1 / (1.5 + DIST_EPS) + 1 / (0.5 + DIST_EPS)
    w1 = 1 / (0.5 + DIST_EPS)
    assert inverse.decision_scores(query)[0] == pytest.approx(w1 / (w0 + w1))
    assert predict_labels(inverse, query)[0] == 0


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 30),
    duplicates=st.integers(0, 10),
    folds=st.integers(2, 4),
    ks=st.lists(st.integers(1, 45), min_size=1, max_size=6),
    weighting=st.sampled_from(["uniform", "inverse"]),
)
def test_grouped_trainer_equals_one_model_per_job(seed, n, duplicates, folds, ks, weighting):
    rng = np.random.default_rng(seed)
    # Integer coordinates and repeated rows: many distance ties, which the
    # stable order breaks by training-row index.
    X = rng.integers(-3, 4, size=(n, 2)).astype(float)
    X = np.vstack([X, X[rng.integers(0, n, size=duplicates)]])
    y = rng.integers(0, 2, size=len(X))
    fold_of = rng.permutation(len(X)) % folds
    splits = [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(folds)]
    # one group per fold, as cross_validate passes them; k may exceed a fold's rows
    groups = [(tr, ks) for tr, _ in splits]
    jobs = flat_jobs(groups)
    validation = [X[va] for _, va in splits for _ in ks]
    fresh = [rng.integers(-4, 5, size=(7, 2)).astype(float)] * len(jobs)
    grouped = _fit_knn_many(X, y, groups, weighting)
    per_model = per_job(lambda Xt, yt, k: KnnModel(Xt, yt, min(k, len(yt)), weighting))
    # Validation rows, then a fresh query, then the validation rows again:
    # each memo is reused, replaced and filled anew. The oracle models are
    # new for every query, so no memo of theirs is ever reused.
    for queries in (validation, fresh, validation):
        for model, ref, Q, (rows, k) in zip(grouped, per_model(X, y, groups), queries, jobs):
            assert model.k == ref.k
            scores = model.decision_scores(Q)
            assert np.array_equal(scores, ref.decision_scores(Q))
            # Integer coordinates make every distance exact, so the
            # (distance, index) scan ranks ties as the stable order does.
            np.testing.assert_allclose(
                scores, oracle_scores(X[rows], y[rows], Q, ref.k, weighting), rtol=1e-12)
    # One memo per training set, holding at most its largest k's columns.
    memos = {id(m.memo): m.memo for m in grouped}
    assert len(memos) == folds
    for memo in memos.values():
        ks_here = [m.k for m in grouped if m.memo is memo]
        assert memo.k_max == max(ks_here)
        assert memo.nearest.shape[1] == memo.sq_dist.shape[1] == memo.k_max
