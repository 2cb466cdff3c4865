"""RBF-kernel SVM trained by sequential minimal optimization (SMO).

The solver keeps the dual gradient G = Q alpha - e (Q = yy'K), starting
from -e. Each step takes i, the maximal violator of I_up (largest -y_t G_t),
and j from I_low by second-order working-set selection (WSS 2, Fan, Chen
& Lin, JMLR 2005): the largest gain b_it^2 / a_it over b_it > 0, where
b_it = -y_i G_i + y_t G_t and a_it = K_ii + K_tt - 2 K_it. A pair with
a_it <= 1e-12 is never chosen. The pair moves by the clipped Newton step
b_ij / a_ij, and G is updated from the two kernel rows. The solve stops
when the gap m(alpha) - M(alpha) between the largest -y_t G_t over I_up
and the smallest over I_low is at most `kkt_tol` (Keerthi et al., Neural
Computation 2001); at the returned bias no sample then violates its KKT
condition by more than `kkt_tol`. The bias is the mean of -y_t G_t over
free alphas, or the midpoint of [M, m] when none is free. C is chosen by
stratified CV (ties to the smallest C), gamma defaults to 1/d.

A step computes in work vectors allocated once per solve (no n x n
array beside K), and calls the ufunc methods (`.argmax()`,
`np.maximum.reduce`) without numpy's Python wrappers. I_up and I_low
are kept as penalty vectors, 0 on the set and inf off it, which a step
updates at i and j, so a masked score is one subtraction. Each step has
the bits of the plain `np.where` formulas (`ref_smo` in the tests).

The kernel is one n x m array, scaled and exponentiated in place on the
result of `sq_distances`. The trainer computes each CV fold's training
kernel once and solves every C of the grid on it; a fold's kernel is
never sliced from the whole set's, whose product BLAS sums in another
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import warn
from ..config import RbfSvmConfig
from ..rng import RngStream
from .base import checked_set, sq_distances
from .cv import CvResult, fit_with_cv


@dataclass
class RbfSvmModel:
    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i over support vectors
    bias: float
    gamma: float
    C: float
    alphas: np.ndarray = field(repr=False, default=None)  # full, incl. zeros
    train_labels_pm: np.ndarray = field(repr=False, default=None)
    threshold: float = 0.0
    converged: bool = True
    iterations: int = 0  # SMO pair updates
    cv_result: CvResult | None = field(default=None, repr=False)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return rbf_kernel(X, self.support_vectors, self.gamma) @ self.dual_coef + self.bias

    @property
    def hyperparams(self) -> dict:
        return {"C": self.C, "gamma": self.gamma}


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    K = sq_distances(A, B)
    K *= -gamma
    return np.exp(K, out=K)


def _smo(
    K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int
) -> tuple[np.ndarray, float, bool, int, float]:
    """Minimize 0.5 a'Qa - sum(a), Q = yy'K, over 0 <= a <= C, y'a = 0.

    Returns (alpha, bias, converged, pair updates made, final gap m - M).
    """
    n = len(y)
    alpha = np.zeros(n)
    # The gradient G = Q alpha - e, kept as -y*G (exact, as y is +-1); it
    # starts at -y*(-e) = y.
    score = y.copy()
    diag = np.diag(K).copy()
    pos = y > 0
    # I_up: y_t alpha_t can grow; I_low: it can shrink. Within 1e-12 of a
    # bound counts as at it. Each set is a penalty vector, 0 on the set
    # and inf off it: `v - penalty` is `np.where(in_set, v, -inf)`, bit for
    # bit (v - 0.0 is v, even for v = -0.0).
    up_pen, low_pen = np.where(pos, 0.0, np.inf), np.where(pos, np.inf, 0.0)
    w, b, a, gain = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    ok, curved = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    for iterations in range(max_iter + 1):
        i = int(np.subtract(score, up_pen, out=w).argmax())
        np.subtract(score[i], score, out=b)
        b -= low_pen  # b_it; -inf off I_low
        gap = np.maximum.reduce(b)  # m - M
        if gap <= tol or iterations == max_iter:
            break
        np.add(diag, diag[i], out=a)
        a -= np.multiply(K[i], 2.0, out=w)  # a_it = K_ii + K_tt - 2 K_it
        np.logical_and(np.greater(b, 0.0, out=ok), np.greater(a, 1e-12, out=curved), out=ok)
        gain.fill(-np.inf)
        np.divide(np.multiply(b, b, out=w), a, out=gain, where=ok)
        j = int(gain.argmax())
        if not ok[j]:
            break  # only zero-curvature pairs violate; no pair makes progress

        # Move alpha_i by y_i t and alpha_j by -y_j t: y'alpha is unchanged,
        # and G changes by y * t * (K_i - K_j).
        t = min(b[j] / a[j],
                C - alpha[i] if pos[i] else alpha[i],
                alpha[j] if pos[j] else C - alpha[j])
        alpha[i] = min(max(alpha[i] + y[i] * t, 0.0), C)
        alpha[j] = min(max(alpha[j] - y[j] * t, 0.0), C)
        np.subtract(K[i], K[j], out=w)
        w *= t
        score -= w
        for k in (i, j):
            below_c, above_0 = alpha[k] < C - 1e-12, alpha[k] > 1e-12
            up, low = (below_c, above_0) if pos[k] else (above_0, below_c)
            up_pen[k], low_pen[k] = (0.0 if up else np.inf), (0.0 if low else np.inf)

    free = (alpha > 1e-12) & (alpha < C - 1e-12)
    # Every free score lies in [M, m], so the bias does too.
    bias = float(np.mean(score[free])) if free.any() else float(score[i] - gap / 2.0)
    return alpha, bias, bool(gap <= tol), iterations, float(gap)


def _fit_rbf_svm_many(
    X: np.ndarray, y01: np.ndarray, groups, config: RbfSvmConfig
) -> list[RbfSvmModel]:
    """One model per (rows, C) of each group, as `_fit_fixed_c(X[rows],
    y01[rows], C, config)` fits it; a group's models share one kernel."""
    return [
        model for rows, Cs in groups for model in _fit_on_kernel(X[rows], y01[rows], Cs, config)
    ]


def _fit_fixed_c(
    X: np.ndarray, y01: np.ndarray, C: float, config: RbfSvmConfig
) -> RbfSvmModel:
    [model] = _fit_on_kernel(X, y01, [C], config)
    return model


def _fit_on_kernel(
    X: np.ndarray, y01: np.ndarray, Cs: list, config: RbfSvmConfig
) -> list[RbfSvmModel]:
    """One model per C, each solved by SMO on the one kernel of X's rows;
    the kernel is freed on return, before the next group's is computed."""
    y = 2.0 * np.asarray(y01, dtype=float) - 1.0
    gamma = config.gamma if config.gamma is not None else 1.0 / X.shape[1]
    K = rbf_kernel(X, X, gamma)
    models = []
    for C in Cs:
        alpha, b, converged, iterations, gap = _smo(K, y, C, config.kkt_tol, config.max_iter)
        if not converged:
            warn(__name__, "SMO did not reach tolerance %g at C=%g, n=%d: gap %.3g after %d "
                 "iterations; returning the last iterate",
                 config.kkt_tol, C, len(y), gap, iterations)
        sv = alpha > 1e-12
        models.append(RbfSvmModel(
            support_vectors=X[sv].copy(),
            dual_coef=(alpha * y)[sv],
            bias=b,
            gamma=gamma,
            C=C,
            alphas=alpha,
            train_labels_pm=y,
            converged=converged,
            iterations=iterations,
        ))
    return models


def fit_rbf_svm(
    X: np.ndarray, y: np.ndarray,
    config: RbfSvmConfig | None = None,
    rng: RngStream | None = None,
) -> RbfSvmModel:
    config = config or RbfSvmConfig()
    rng = rng or RngStream(0, ("rbf-svm",))
    X, y = checked_set(X, y)
    return fit_with_cv(
        lambda Xt, yt, groups: _fit_rbf_svm_many(Xt, yt, groups, config),
        X, y, config.C, config.c_grid, config.cv_folds, rng,
    )


def fit_rbf_svm_sets(sets: list, config: RbfSvmConfig) -> list[RbfSvmModel]:
    """`fit_rbf_svm` on each `(X, y, rng)` of `sets`, one after another."""
    return [fit_rbf_svm(X, y, config, rng) for X, y, rng in sets]
