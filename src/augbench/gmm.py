"""Gaussian mixture models fit by EM, with per-class synthetic sampling.

Responsibilities are computed in log-space; every M-step adds a small
floor to the covariance diagonals so tiny classes cannot produce a
singular component. A floored update that would reduce the likelihood
is reverted and ends the fit, so the recorded log-likelihood sequence
is monotone non-decreasing, which the tests assert.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .augment import SyntheticBatch, augment_per_class
from .rng import RngStream

log = logging.getLogger(__name__)


@dataclass
class GmmConfig:
    n_components: int = field(default=3, metadata={"ge": 1})
    tol: float = field(default=1e-6, metadata={"ge": 0})  # relative log-likelihood change
    max_iter: int = field(default=200, metadata={"ge": 1})
    cov_floor: float = field(default=1e-6, metadata={"gt": 0})
    select_k_bic: bool = False  # pick K in 1..bic_k_max by BIC; n_components unused
    bic_k_max: int = field(default=5, metadata={"ge": 1})


@dataclass
class GmmModel:
    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    covariances: np.ndarray  # (K, d, d)
    log_likelihood_history: list[float]

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihood_history[-1]


def _log_gaussian(data: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(mean, cov) at each row of `data`."""
    d = data.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = data - mean
    solved = np.linalg.solve(chol, diff.T)
    maha = np.sum(solved**2, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * np.log(2.0 * np.pi) + log_det + maha)


def _e_step(
    data: np.ndarray, model: GmmModel
) -> tuple[np.ndarray, float]:
    """Responsibilities and total data log-likelihood."""
    log_prob = np.column_stack(
        [
            np.log(model.weights[k]) + _log_gaussian(data, model.means[k], model.covariances[k])
            for k in range(model.n_components)
        ]
    )
    norm = np.logaddexp.reduce(log_prob, axis=1)
    resp = np.exp(log_prob - norm[:, None])
    return resp, float(norm.sum())


def _m_step(data: np.ndarray, resp: np.ndarray, cov_floor: float) -> tuple:
    nk = resp.sum(axis=0)
    weights = nk / len(data)
    means = (resp.T @ data) / nk[:, None]
    d = data.shape[1]
    covs = np.empty((resp.shape[1], d, d))
    for k in range(resp.shape[1]):
        diff = data - means[k]
        covs[k] = (resp[:, k, None] * diff).T @ diff / nk[k]
        covs[k][np.diag_indices(d)] += cov_floor
    return weights, means, covs


def fit_gmm(
    data: np.ndarray,
    n_components: int,
    config: GmmConfig | None = None,
    rng: RngStream | None = None,
) -> GmmModel:
    """Fit a K-component mixture by EM with random-responsibility init."""
    config = config or GmmConfig()
    rng = rng or RngStream(0, ("gmm",))
    data = np.asarray(data, dtype=float)
    n, _ = data.shape
    if n_components < 1:
        raise ValueError("n_components must be >= 1")

    # return_counts keeps numpy.ma unimported (see classifiers/base.py).
    n_distinct = len(np.unique(data, axis=0, return_counts=True)[0])
    k = min(n_components, n, n_distinct)
    if k < n_components:
        log.warning(
            "reducing components from %d to %d (%d rows, %d distinct)",
            n_components, k, n, n_distinct,
        )

    resp = rng.derive("init").uniform(0.0, 1.0, size=(n, k)) + 1e-3
    resp /= resp.sum(axis=1, keepdims=True)
    weights, means, covs = _m_step(data, resp, config.cov_floor)
    model = GmmModel(weights, means, covs, [])

    # The covariance floor means each update is not exactly the Q-maximizer,
    # so close to convergence a step can reduce the likelihood by a hair.
    # When that happens we revert to the previous parameters and stop; the
    # recorded history is the monotone ascent path.
    prev_ll = -np.inf
    for _ in range(config.max_iter):
        resp, ll = _e_step(data, model)
        if ll < prev_ll:
            model.weights, model.means, model.covariances = prev_params
            break
        model.log_likelihood_history.append(ll)
        if np.isfinite(prev_ll) and abs(ll - prev_ll) < config.tol * (abs(prev_ll) + 1e-12):
            break
        prev_ll = ll
        prev_params = (model.weights, model.means, model.covariances)
        weights, means, covs = _m_step(data, resp, config.cov_floor)
        model.weights, model.means, model.covariances = weights, means, covs
    else:
        _, ll = _e_step(data, model)
        if ll >= prev_ll:
            model.log_likelihood_history.append(ll)
        else:
            model.weights, model.means, model.covariances = prev_params
    return model


def fit_gmm_bic(
    data: np.ndarray, k_max: int, config: GmmConfig, rng: RngStream
) -> GmmModel:
    """Fit for K in 1..k_max and keep the lowest-BIC model."""
    n, d = data.shape
    best, best_bic = None, np.inf
    for k in range(1, k_max + 1):
        model = fit_gmm(data, k, config, rng.derive(f"k{k}"))
        kk = model.n_components
        n_params = (kk - 1) + kk * d + kk * d * (d + 1) // 2
        bic = -2.0 * model.final_log_likelihood + n_params * np.log(n)
        if bic < best_bic:
            best, best_bic = model, bic
    return best


def sample_gmm(model: GmmModel, n: int, rng: RngStream) -> np.ndarray:
    """Draw rows: component ~ weights, then N(mean, cov) via Cholesky."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    d = model.means.shape[1]
    if n == 0:
        return np.empty((0, d))
    comps = rng.derive("component").choice_weighted(
        model.n_components, model.weights / model.weights.sum(), n
    )
    noise = rng.derive("noise").normal(size=(n, d))
    out = np.empty((n, d))
    for k in range(model.n_components):
        sel = comps == k
        if not np.any(sel):
            continue
        chol = np.linalg.cholesky(model.covariances[k])
        out[sel] = model.means[k] + noise[sel] @ chol.T
    return out


def augment_with_gmm(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    n_synthetic: int,
    config: GmmConfig | None = None,
    rng: RngStream | None = None,
) -> tuple[np.ndarray, np.ndarray, SyntheticBatch]:
    """One GMM per class; append proportional synthetic rows."""
    config = config or GmmConfig()
    rng = rng or RngStream(0, ("augment-gmm",))
    if config.select_k_bic:
        fit_one = lambda data, stream: fit_gmm_bic(data, config.bic_k_max, config, stream)
    else:
        fit_one = lambda data, stream: fit_gmm(data, config.n_components, config, stream)
    # The classes' GMMs are fit one after the other.
    fit = lambda data, streams: {c: fit_one(x, streams[c]) for c, x in data.items()}
    return augment_per_class(
        train_features, train_labels, n_synthetic, fit, sample_gmm, rng, "gmm"
    )
