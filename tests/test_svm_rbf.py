"""RBF SVM: kernel values, scoring, SMO dual feasibility and optimality, XOR, CV over C."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench.classifiers import predict_labels, svm_rbf
from augbench.classifiers.base import ROW_BLOCK
from augbench.classifiers.cv import stratified_kfold
from augbench.classifiers.svm_rbf import (
    RbfSvmConfig,
    RbfSvmModel,
    _fit_rbf_svm_many,
    _smo,
    fit_rbf_svm,
    rbf_kernel,
)
from augbench.rng import RngStream
from conftest import flat_jobs, ref_rbf_kernel, ref_smo

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def _kkt_violations(alpha: np.ndarray, yf: np.ndarray, C: float) -> np.ndarray:
    """Per-sample violation of the KKT conditions (0 when satisfied)."""
    r = yf - 1.0
    # alpha < C requires y*f >= 1; alpha > 0 requires y*f <= 1.
    below = np.where(alpha < C - 1e-12, -r, 0.0)
    above = np.where(alpha > 1e-12, r, 0.0)
    return np.maximum(below, above)


def test_rbf_kernel_hand_values():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    K = rbf_kernel(A, A, gamma=0.5)
    assert K[0, 0] == pytest.approx(1.0)
    assert K[0, 1] == pytest.approx(np.exp(-0.5))
    np.testing.assert_allclose(K, K.T)


def test_xor_is_solved_with_dual_feasibility():
    model = fit_rbf_svm(XOR_X, XOR_Y, RbfSvmConfig(C=10.0, gamma=1.0))
    np.testing.assert_array_equal(predict_labels(model, XOR_X), XOR_Y)
    assert model.converged
    assert np.all(model.alphas >= -1e-12)
    assert np.all(model.alphas <= 10.0 + 1e-12)
    assert abs(np.sum(model.alphas * model.train_labels_pm)) < 1e-6


def test_kkt_conditions_on_separable_data():
    rng = RngStream(0, ("sep",))
    X = np.vstack([rng.derive("a").normal(size=(25, 2)),
                   rng.derive("b").normal(size=(25, 2)) + 4.0])
    y = np.array([0] * 25 + [1] * 25)
    model = fit_rbf_svm(X, y, RbfSvmConfig(C=1.0))
    assert model.converged
    # Margin check at the support vectors: free SVs sit on the margin.
    scores = model.decision_scores(X)
    ypm = model.train_labels_pm
    free = (model.alphas > 1e-8) & (model.alphas < 1.0 - 1e-8)
    np.testing.assert_allclose((ypm * scores)[free], 1.0, atol=5e-3)
    assert np.mean(predict_labels(model, X) == y) == 1.0


def test_gamma_defaults_to_one_over_d():
    rng = RngStream(1, ("g",))
    X = rng.normal(size=(20, 5))
    y = np.array([0, 1] * 10)
    model = fit_rbf_svm(X, y, RbfSvmConfig(C=1.0))
    assert model.gamma == pytest.approx(1.0 / 5.0)


def test_auto_c_from_grid():
    rng = RngStream(2, ("cv",))
    X = rng.derive("x").normal(size=(60, 2))
    y = (X[:, 0] ** 2 + X[:, 1] ** 2 > 1.2).astype(int)
    if len(np.unique(y)) < 2:
        pytest.skip("degenerate draw")
    model = fit_rbf_svm(X, y, rng=rng.derive("fit"))
    assert model.C in RbfSvmConfig().c_grid
    assert model.cv_result is not None
    assert model.hyperparams == {"C": model.C, "gamma": model.gamma}


def test_single_class_rejected():
    with pytest.raises(ValueError):
        fit_rbf_svm(np.zeros((4, 2)), np.zeros(4, dtype=int), RbfSvmConfig(C=1.0))


def test_deterministic():
    rng = RngStream(3, ("d",))
    X = rng.normal(size=(40, 2))
    y = (X.sum(axis=1) > 0).astype(int)
    a = fit_rbf_svm(X, y, rng=RngStream(5, ("fit",)))
    b = fit_rbf_svm(X, y, rng=RngStream(5, ("fit",)))
    np.testing.assert_array_equal(a.decision_scores(X), b.decision_scores(X))
    assert a.C == b.C


def test_two_point_symmetry():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    model = fit_rbf_svm(X, y, RbfSvmConfig(C=10.0, gamma=1.0))
    assert len(model.support_vectors) == 2
    # The kernel midpoint is the equidistant point in input space here.
    assert model.decision_scores(np.array([[0.5]]))[0] == pytest.approx(0.0, abs=1e-6)
    np.testing.assert_array_equal(predict_labels(model, X), y)


def _brute_force_scores(model: RbfSvmModel, X: np.ndarray) -> np.ndarray:
    """sum_i dual_coef_i * exp(-gamma * ||x - sv_i||^2) + bias, one row at a time."""
    out = []
    for x in X:
        total = model.bias
        for coef, sv in zip(model.dual_coef, model.support_vectors):
            total += coef * np.exp(-model.gamma * np.sum((x - sv) ** 2))
        out.append(total)
    return np.array(out)


def test_decision_scores_match_brute_force_sum():
    rng = RngStream(4, ("oracle",))
    X = rng.derive("x").normal(size=(30, 3))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    model = fit_rbf_svm(X, y, RbfSvmConfig(C=1.0, gamma=0.7))
    assert 0 < len(model.support_vectors) <= len(X)
    X_new = rng.derive("new").normal(size=(12, 3)) * 2.0
    for Q in (X, X_new):
        np.testing.assert_allclose(model.decision_scores(Q), _brute_force_scores(model, Q),
                                   rtol=1e-10, atol=1e-12)


def test_decision_scores_without_support_vectors():
    # Identical rows with both labels give eta = 0 for every pair, so SMO
    # cannot move any alpha and the model has no support vectors.
    X = np.ones((4, 2))
    y = np.array([0, 1, 0, 1])
    model = fit_rbf_svm(X, y, RbfSvmConfig(C=1.0))
    assert len(model.support_vectors) == 0
    assert model.dual_coef.shape == (0,)
    Q = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, -2.0]])
    scores = model.decision_scores(Q)
    assert scores.shape == (3,)
    np.testing.assert_array_equal(scores, _brute_force_scores(model, Q))
    np.testing.assert_array_equal(scores, np.full(3, model.bias))


def test_kkt_violations_match_a_per_sample_loop():
    C = 2.0
    rng = RngStream(6, ("kkt",))
    alpha = rng.derive("a").uniform(0.0, C, size=60)
    alpha[::4] = 0.0  # at the lower bound
    alpha[1::4] = C  # at the upper bound
    alpha[2] = 5e-13  # within 1e-12 of a bound counts as at it
    alpha[3] = C - 5e-13
    yf = 1.0 + rng.derive("yf").normal(size=60)
    yf[5:8] = 1.0  # exactly on the margin

    expected = []
    for a, v in zip(alpha, yf):
        worst = 0.0
        if a < C - 1e-12 and v < 1.0:  # not at C: needs y*f >= 1
            worst = max(worst, 1.0 - v)
        if a > 1e-12 and v > 1.0:  # not at 0: needs y*f <= 1
            worst = max(worst, v - 1.0)
        expected.append(worst)
    np.testing.assert_array_equal(_kkt_violations(alpha, yf, C), expected)


def _project(v: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, y'a = 0}: a = clip(v - lam*y)
    with y'a(lam) = 0. y'a(lam) is nonincreasing and piecewise linear in lam
    with kinks at the 2n breakpoints, so interpolate in the bracketing pair."""
    kinks = np.unique(np.concatenate([v * y, (v - C) * y]))
    h = (y * np.clip(v[None, :] - kinks[:, None] * y, 0.0, C)).sum(axis=1)
    k = int(np.searchsorted(-h, 0.0))  # first kink with h <= 0
    if k == 0 or h[k] == 0.0:
        lam = kinks[k]
    else:
        lam = kinks[k - 1] + (kinks[k] - kinks[k - 1]) * h[k - 1] / (h[k - 1] - h[k])
    return np.clip(v - lam * y, 0.0, C)


def _projected_gradient_optimum(Q: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Minimize 0.5 a'Qa - sum(a) by projected gradient until the
    projected-gradient step moves no coordinate by more than 1e-8."""
    step = 1.0 / np.linalg.eigvalsh(Q)[-1]
    a = np.zeros(len(y))
    for _ in range(200_000):
        new = _project(a - step * (Q @ a - 1.0), y, C)
        if np.abs(new - a).max() <= 1e-8 * step:
            return new
        a = new
    raise AssertionError("projected gradient did not converge")


def _dual_objective(alpha: np.ndarray, Q: np.ndarray) -> float:
    return 0.5 * alpha @ Q @ alpha - alpha.sum()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
def test_smo_meets_kkt_and_matches_projected_gradient_optimum(seed, C):
    rng = RngStream(seed, ("smo-oracle",))
    n = 4 + seed % 3 * 4  # 4, 8 or 12 rows
    X = rng.derive("x").normal(size=(n, 2))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    K = rbf_kernel(X, X, 0.5)
    tol = 1e-3
    alpha, b, converged, _, gap = _smo(K, y, C, tol, 20000)
    assert converged and gap <= tol
    assert np.all(alpha >= 0.0) and np.all(alpha <= C)
    assert abs(y @ alpha) < 1e-9
    assert _kkt_violations(alpha, y * (K @ (alpha * y) + b), C).max() <= tol
    Q = np.outer(y, y) * K
    best = _projected_gradient_optimum(Q, y, C)
    assert abs(y @ best) < 1e-9
    assert _dual_objective(alpha, Q) - _dual_objective(best, Q) <= tol * n


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    width=st.integers(1, 4),
    gamma=st.floats(0.05, 5.0),
    C=st.floats(1e-2, 100.0),
    max_iter=st.integers(1, 400),
    duplicate=st.booleans(),
)
def test_lean_smo_equals_the_reference_solve(seed, n, width, gamma, C, max_iter, duplicate):
    rng = RngStream(seed, ("smo-ref",))
    X = rng.derive("x").normal(size=(n, width))
    if duplicate:  # repeated rows give zero-curvature pairs
        X[n // 2:] = X[: n - n // 2]
    y = np.where(rng.derive("y").uniform(0.0, 1.0, size=n) < 0.5, 1.0, -1.0)
    y[0], y[-1] = 1.0, -1.0  # both classes
    K = rbf_kernel(X, X, gamma)
    alpha, bias, converged, iterations, gap = _smo(K, y, C, 1e-3, max_iter)
    ref_alpha, ref_bias, ref_converged, ref_iterations, ref_gap = ref_smo(K, y, C, 1e-3, max_iter)
    assert np.array_equal(alpha, ref_alpha)
    assert (bias, converged, iterations, gap) == (ref_bias, ref_converged, ref_iterations, ref_gap)


def test_smo_allocates_no_array_the_size_of_the_kernel():
    # The solve keeps O(n) work vectors; an n x n temporary beside K
    # would add 22 MiB to a 1700-row refit's peak.
    rng = RngStream(3, ("smo-memory",))
    n = 300
    X = rng.derive("x").normal(size=(n, 3))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    K = rbf_kernel(X, X, 0.5)
    tracemalloc.start()
    try:
        _smo(K, y, 1.0, 1e-3, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < K.nbytes / 4


@pytest.mark.parametrize("gamma", [None, 0.7])
def test_grouped_trainer_shares_a_kernel_and_equals_one_fit_per_job(gamma, monkeypatch):
    # A fold's kernel is computed once for the whole C grid, on the fold's
    # own rows, so each model is the one fit alone at its C.
    rng = RngStream(5, ("rbf-groups",))
    X = np.vstack([rng.derive("a").normal(size=(30, 3)),
                   rng.derive("b").normal(size=(30, 3)) + 1.5])
    y = np.array([0] * 30 + [1] * 30)
    config = RbfSvmConfig(gamma=gamma)
    groups = [(tr, list(config.c_grid)) for tr, _ in stratified_kfold(y, 4, rng.derive("f"))]
    kernels = []
    real = svm_rbf.rbf_kernel

    def spy(*args):
        kernels.append(args)
        return real(*args)

    monkeypatch.setattr(svm_rbf, "rbf_kernel", spy)
    grouped = _fit_rbf_svm_many(X, y, groups, config)
    assert len(kernels) == len(groups)
    jobs = flat_jobs(groups)
    assert len(grouped) == len(jobs)
    g = 1.0 / 3.0 if gamma is None else gamma
    for model, (rows, C) in zip(grouped, jobs):
        y_pm = 2.0 * y[rows] - 1.0
        K = ref_rbf_kernel(X[rows], X[rows], g)
        alpha, bias, _, iterations, _ = ref_smo(K, y_pm, C, config.kkt_tol, config.max_iter)
        assert (model.C, model.gamma, model.bias, model.iterations) == (C, g, bias, iterations)
        assert np.array_equal(model.alphas, alpha)
        assert np.array_equal(model.support_vectors, X[rows][alpha > 1e-12])


def test_grouped_trainer_holds_one_kernel_at_a_time():
    # Each group's kernel is freed before the next group's is computed.
    rng = RngStream(6, ("rbf-groups-memory",))
    n = 300
    X = rng.derive("x").normal(size=(n, 3))
    y = np.arange(n) % 2
    rows = np.arange(n)
    groups = [(rows[:250], [1.0]), (rows[50:], [1.0]), (rows[25:275], [1.0])]
    tracemalloc.start()
    try:
        _fit_rbf_svm_many(X, y, groups, RbfSvmConfig(gamma=0.5, max_iter=20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One 250-row kernel and the row-block temporaries of computing it.
    assert peak < 250 * 250 * 8 + 3 * ROW_BLOCK * 250 * 8
