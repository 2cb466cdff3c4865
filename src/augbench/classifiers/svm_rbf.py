"""RBF-kernel SVM trained by sequential minimal optimization (SMO).

Working-set selection: the first index is the worst KKT violator, the
second maximizes |E_i - E_j|. Pair updates are the analytic clipped
solution of the two-variable subproblem; the bias follows the standard
b1/b2 rule. Convergence is declared when no KKT violation exceeds the
tolerance. C is chosen by stratified CV (ties to the smallest C),
gamma defaults to 1/d.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..rng import RngStream
from .base import sq_distances
from .cv import CvResult, fit_with_cv, per_job

log = logging.getLogger(__name__)

DEFAULT_C_GRID = (0.1, 1.0, 10.0)


@dataclass
class RbfSvmConfig:
    C: float | str = "auto"
    c_grid: tuple = DEFAULT_C_GRID
    gamma: float | None = None  # None = 1/d
    kkt_tol: float = 1e-3
    max_iter: int = 20000
    cv_folds: int = 5


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
    cv_result: CvResult | None = field(default=None, repr=False)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return rbf_kernel(X, self.support_vectors, self.gamma) @ self.dual_coef + self.bias

    @property
    def hyperparams(self) -> dict:
        return {"C": self.C, "gamma": self.gamma}


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * sq_distances(A, B))


def _kkt_violations(alpha: np.ndarray, yf: np.ndarray, C: float) -> np.ndarray:
    """Per-sample violation of the KKT conditions (0 when satisfied)."""
    r = yf - 1.0
    # alpha < C requires y*f >= 1; alpha > 0 requires y*f <= 1.
    below = np.where(alpha < C - 1e-12, -r, 0.0)
    above = np.where(alpha > 1e-12, r, 0.0)
    return np.maximum(below, above)


def _smo(
    K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int
) -> tuple[np.ndarray, float, bool]:
    """Solve the dual; returns (alpha, bias, converged)."""
    n = len(y)
    alpha = np.zeros(n)
    b = 0.0
    f = np.full(n, b)  # decision value cache

    diag = np.diag(K).copy()
    for _ in range(max_iter):
        E = f - y
        viol = _kkt_violations(alpha, y * f, C)
        if viol.max() <= tol:
            return alpha, b, True
        i = int(np.argmax(viol))
        Ki = K[i]
        ai, yi, Ei = float(alpha[i]), float(y[i]), float(E[i])

        # Vectorized second-index choice: among all j whose clipped
        # analytic update actually moves alpha, take max |E_i - E_j|.
        same = y == yi
        lo = np.maximum(0.0, np.where(same, ai + alpha - C, alpha - ai))
        hi = np.minimum(C, np.where(same, ai + alpha, (C + alpha) - ai))
        eta = diag[i] + diag - 2.0 * Ki
        safe_eta = np.where(eta > 1e-12, eta, 1.0)
        aj_all = np.clip(alpha + y * (Ei - E) / safe_eta, lo, hi)
        movable = (
            (hi - lo > 1e-12)
            & (eta > 1e-12)
            & (np.abs(aj_all - alpha) > 1e-12)
        )
        movable[i] = False
        if not movable.any():
            break  # no pair makes progress; treat as stalled
        gap = np.where(movable, np.abs(E - Ei), -np.inf)
        j = int(np.argmax(gap))

        aj, yj, Ej = float(alpha[j]), float(y[j]), float(E[j])
        Kii, Kij, Kjj = float(Ki[i]), float(Ki[j]), float(K[j, j])
        aj_new = float(aj_all[j])
        ai_new = ai + yi * yj * (aj - aj_new)
        d_ai, d_aj = ai_new - ai, aj_new - aj

        b1 = b - Ei - yi * d_ai * Kii - yj * d_aj * Kij
        b2 = b - Ej - yi * d_ai * Kij - yj * d_aj * Kjj
        if 1e-12 < ai_new < C - 1e-12:
            b_new = b1
        elif 1e-12 < aj_new < C - 1e-12:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0

        f += yi * d_ai * Ki
        f += yj * d_aj * K[j]
        f += b_new - b
        alpha[i], alpha[j] = ai_new, aj_new
        b = b_new

    converged = _kkt_violations(alpha, y * f, C).max() <= tol
    return alpha, b, converged


def _fit_fixed_c(
    X: np.ndarray, y01: np.ndarray, C: float, config: RbfSvmConfig
) -> RbfSvmModel:
    y = 2.0 * np.asarray(y01, dtype=float) - 1.0
    gamma = config.gamma if config.gamma is not None else 1.0 / X.shape[1]
    K = rbf_kernel(X, X, gamma)
    alpha, b, converged = _smo(K, y, C, config.kkt_tol, config.max_iter)
    if not converged:
        log.warning("SMO did not reach tolerance %g; returning best iterate", config.kkt_tol)
    sv = alpha > 1e-12
    return RbfSvmModel(
        support_vectors=X[sv].copy(),
        dual_coef=(alpha * y)[sv],
        bias=b,
        gamma=gamma,
        C=C,
        alphas=alpha,
        train_labels_pm=y,
        converged=converged,
    )


def fit_rbf_svm(
    X: np.ndarray, y: np.ndarray,
    config: RbfSvmConfig | None = None,
    rng: RngStream | None = None,
) -> RbfSvmModel:
    config = config or RbfSvmConfig()
    rng = rng or RngStream(0, ("rbf-svm",))
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    return fit_with_cv(
        per_job(lambda Xt, yt, c: _fit_fixed_c(Xt, yt, c, config)),
        X, y, config.C, config.c_grid, config.cv_folds, rng,
    )
