"""Shared fixtures and numeric-oracle helpers for the test suite."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from augbench.classifiers.linear import LinearModel, _check_svm_lambda
from augbench.gan import PROB_CLAMP
from augbench.nncore import AdamState, Layer, MlpParams, init_mlp
from augbench.rng import RngStream
from augbench.vae import LOGVAR_MAX, LOGVAR_MIN, VaeModel, init_vae

# GitHub Actions sets CI: a failing property there prints the blob that
# replays it (`@reproduce_failure`), and a slow shared runner cannot fail
# a property on its deadline. Built on the default profile, not on the
# "ci" profile hypothesis loads by itself in CI, which derandomizes.
settings.register_profile(
    "ci", settings.get_profile("default"), print_blob=True, deadline=None
)
if os.environ.get("CI"):
    settings.load_profile("ci")

REPO = Path(__file__).resolve().parent.parent
FIXTURE_CSV = REPO / "data" / "social_ads_400.csv"

SCHEMA = {
    "user_id": "identifier",
    "gender": "categorical",
    "age": "numeric",
    "salary": "numeric",
    "purchased": "label",
}


@pytest.fixture
def fixture_csv() -> Path:
    return FIXTURE_CSV


@pytest.fixture
def schema() -> dict:
    return dict(SCHEMA)


def central_difference(loss_fn, arrays, step=1e-5):
    """Finite-difference gradient of a scalar loss over a list of arrays.

    `loss_fn(arrays)` must be pure. Returns one gradient array per input.
    """
    grads = []
    for ai, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=float)
        flat = g.reshape(-1)
        for i in range(a.size):
            bumped = [x.copy() for x in arrays]
            bumped[ai].reshape(-1)[i] += step
            up = loss_fn(bumped)
            bumped[ai].reshape(-1)[i] -= 2 * step
            down = loss_fn(bumped)
            flat[i] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def with_arrays(params: MlpParams, arrays: list[np.ndarray]) -> MlpParams:
    """A new network with the activations of `params` and a copy of
    `arrays` ([W0, b0, W1, b1, ...]); lets a finite-difference loss
    rebuild the network from perturbed arrays."""
    return MlpParams([
        Layer(arrays[2 * i], arrays[2 * i + 1], layer.activation)
        for i, layer in enumerate(params.layers)
    ])


def max_relative_error(analytic, numeric) -> float:
    """Max elementwise |a - n| / max(|n|, 1) over matched array lists."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1.0)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# The plain formulas of the MLP step, before the hot path dropped unread
# products, numpy wrappers and temporaries. The lean step must give the
# same bits, so these are oracles for `np.array_equal`.


def ref_sigmoid(x):
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _ref_activate(x, kind):
    return {
        "relu": lambda: np.maximum(x, 0.0),
        "sigmoid": lambda: ref_sigmoid(x),
        "tanh": lambda: np.tanh(x),
        "identity": lambda: x,
    }[kind]()


def _ref_backprop_activation(delta, post, kind):
    return {
        "relu": lambda: delta * (post > 0.0),
        "sigmoid": lambda: delta * (post * (1.0 - post)),
        "tanh": lambda: delta * (1.0 - post * post),
        "identity": lambda: delta,
    }[kind]()


def ref_forward(params: MlpParams, x):
    """Per-layer post-activations, entry 0 the input."""
    activations = [x]
    for layer in params.layers:
        x = _ref_activate(x @ layer.weights + layer.bias, layer.activation)
        activations.append(x)
    return activations


def ref_backward(params: MlpParams, activations, output_gradient):
    """(parameter gradient as [W0, b0, W1, b1, ...], input-batch gradient)."""
    grads = [None] * (2 * len(params.layers))
    delta = output_gradient
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        delta = _ref_backprop_activation(delta, activations[i + 1], layer.activation)
        grads[2 * i] = activations[i].T @ delta
        grads[2 * i + 1] = np.add.reduce(delta, axis=0)
        delta = delta @ layer.weights.T
    return grads, delta


def ref_adam_step(params, grad, state):
    """One bias-corrected Adam step of `params`, `state.m` and `state.v` in place."""
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient passed to adam_step")
    state.t += 1
    t, b1, b2 = state.t, state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    params -= state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)


def flat(arrays):
    """[W0, b0, ...] as one vector in `MlpParams.flat` layout."""
    return np.concatenate([a.ravel() for a in arrays])


@st.composite
def class_datasets(draw):
    """1-3 classes with distinct labels and unequal sizes (2-40 rows) of one
    random width, and a fit stream per class: a lockstep trainer's input."""
    labels = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    sizes = draw(st.lists(st.integers(2, 40), min_size=len(labels), max_size=len(labels),
                          unique=True))
    width = draw(st.integers(1, 4))
    rng = RngStream(draw(st.integers(0, 2**32)), ("lockstep",))
    data = {c: rng.derive(f"x{c}").normal(size=(n, width)) * 2.0 + c
            for c, n in zip(sorted(labels), sizes)}
    return data, {c: rng.derive(f"fit{c}") for c in data}


# One class's VAE and GAN, trained alone on the plain formulas. The
# trainers run every class in one loop with the same bits, so these are
# per-class oracles for `np.array_equal`.


def ref_train_vae(data, config, rng):
    """One VAE by full-batch Adam on the plain formulas: np.clip, np.mean,
    np.hstack, the reconstruction residual computed twice and a full
    encoder backward. Returns the model, its encoder and decoder views of
    one parameter vector, and its per-epoch losses as a float array."""
    model = init_vae(data.shape[1], config, rng.derive("init"))
    noise = rng.derive("noise")
    n_enc = model.encoder.flat.size
    params = np.concatenate([model.encoder.flat, model.decoder.flat])
    enc = MlpParams(model.encoder.layers, params[:n_enc])
    dec = MlpParams(model.decoder.layers, params[n_enc:])
    state = AdamState.for_params(params, alpha=config.learning_rate)
    n, L, beta = len(data), config.latent_dim, config.beta
    history = []
    for _ in range(max(config.epochs, 1)):
        enc_acts = ref_forward(enc, data)
        mu, logvar_raw = enc_acts[-1][:, :L], enc_acts[-1][:, L:]
        clamp_ok = (logvar_raw > LOGVAR_MIN) & (logvar_raw < LOGVAR_MAX)
        logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
        sigma = np.exp(0.5 * logvar)
        eps = noise.normal(size=(n, L))
        dec_acts = ref_forward(dec, mu + sigma * eps)
        recon = dec_acts[-1]
        recon_loss = float(np.mean(np.sum((recon - data) ** 2, axis=1)))
        kl = 0.5 * np.sum(mu**2 + np.exp(logvar) - 1.0 - logvar, axis=1)
        history.append(recon_loss + beta * float(kl.mean()))
        if config.epochs == 0:  # the initial loss only
            break
        dec_grads, dz = ref_backward(dec, dec_acts, 2.0 * (recon - data) / n)
        d_mu = dz + beta * mu / n
        d_logvar = dz * eps * 0.5 * sigma + beta * 0.5 * (np.exp(logvar) - 1.0) / n
        enc_grads, _ = ref_backward(enc, enc_acts, np.hstack([d_mu, d_logvar * clamp_ok]))
        ref_adam_step(params, flat(enc_grads + dec_grads), state)
    return VaeModel(enc, dec, L, np.array(history))


def ref_train_gan(data, config, rng):
    """One GAN, its VAE pretrained by `ref_train_vae`, and the adversarial
    loop on the plain formulas: np.clip, np.mean, and a full backward pass
    whose unread products are still computed. Returns (decoder vector,
    discriminator vector, loss history as an (epochs, 2) array of
    generator and discriminator losses)."""
    n, d = data.shape
    gen = ref_train_vae(data, replace(config.vae, epochs=config.pretrain_epochs),
                        rng.derive("pretrain"))
    disc = init_mlp([d, *config.disc_hidden, 1], ["relu", "relu", "sigmoid"],
                    rng.derive("disc-init"))
    dec = gen.decoder
    gen_state = AdamState.for_params(dec.flat, alpha=config.learning_rate)
    disc_state = AdamState.for_params(disc.flat, alpha=config.disc_learning_rate)
    noise = rng.derive("noise")
    history = []
    for _ in range(config.epochs):
        fake = ref_forward(dec, noise.normal(size=(n, gen.latent_dim)))[-1]
        acts_r, acts_f = ref_forward(disc, data), ref_forward(disc, fake)
        p_r = np.clip(acts_r[-1], PROB_CLAMP, 1.0 - PROB_CLAMP)
        p_f = np.clip(acts_f[-1], PROB_CLAMP, 1.0 - PROB_CLAMP)
        d_loss = 0.5 * float(np.mean(-np.log(p_r)) + np.mean(-np.log(1.0 - p_f)))
        grad_r, _ = ref_backward(disc, acts_r, -0.5 / (p_r * len(p_r)))
        grad_f, _ = ref_backward(disc, acts_f, 0.5 / ((1.0 - p_f) * len(p_f)))
        ref_adam_step(disc.flat, flat(grad_r) + flat(grad_f), disc_state)

        dec_acts = ref_forward(dec, noise.normal(size=(n, gen.latent_dim)))
        acts = ref_forward(disc, dec_acts[-1])
        p = np.clip(acts[-1], PROB_CLAMP, 1.0 - PROB_CLAMP)
        g_loss = float(np.mean(-np.log(p)))
        _, d_fake = ref_backward(disc, acts, -1.0 / (p * len(p)))
        dec_grad, _ = ref_backward(dec, dec_acts, d_fake)
        ref_adam_step(dec.flat, flat(dec_grad), gen_state)
        history.append((g_loss, d_loss))
    return dec.flat, disc.flat, np.array(history).reshape(-1, 2)


def flat_jobs(groups):
    """The (rows, param) pairs of `fit_many` groups, group by group: the
    order of the models a trainer returns."""
    return [(rows, param) for rows, params in groups for param in params]


# The plain stacked epoch of the linear trainers: margins as `X @ W + B`
# and fresh temporaries every step. The trainers fold the bias into one
# product and compute in buffers, with the same bits, so these are
# oracles for `np.array_equal`.


def _ref_stack_jobs(n, jobs):
    mask = np.zeros((n, len(jobs)))
    for j, (rows, _) in enumerate(jobs):
        mask[rows, j] = 1.0
    lam = np.array([float(param) for _, param in jobs])
    return mask, mask.sum(axis=0), lam


def ref_fit_logistic_many(X, y, jobs, config):
    """One logistic model per (rows, lam) job by full-batch Adam."""
    mask, count, lam = _ref_stack_jobs(len(y), jobs)
    y = y[:, None]
    d, J = X.shape[1], len(jobs)
    params = np.zeros(d * J + J)  # [W row-major, B]
    W, B = params[: d * J].reshape(d, J), params[d * J:]
    grad = np.empty_like(params)
    dW, dB = grad[: d * J].reshape(d, J), grad[d * J:]
    state = AdamState.for_params(params, alpha=config.learning_rate)
    for _ in range(config.epochs):
        diff = (ref_sigmoid(X @ W + B) - y) * mask
        np.matmul(X.T, diff, out=dW)
        dW /= count
        dW += lam * W
        np.add.reduce(diff, axis=0, out=dB)
        dB /= count
        ref_adam_step(params, grad, state)
    return [
        LinearModel(W[:, j].copy(), float(B[j]), "logistic", param, 0.5)
        for j, (_, param) in enumerate(jobs)
    ]


def ref_fit_linear_svm_many(X, y01, jobs, config):
    """One linear SVM per (rows, lam) job by Pegasos subgradient steps."""
    mask, count, lam = _ref_stack_jobs(len(y01), jobs)
    _check_svm_lambda(lam)
    y = (2.0 * y01 - 1.0)[:, None]
    y_train = y * mask
    W = np.zeros((X.shape[1], len(jobs)))
    B = np.zeros(len(jobs))
    for t in range(1, config.epochs + 1):
        yv = np.where(y * (X @ W + B) < 1.0, y_train, 0.0)
        eta = 1.0 / (lam * t)
        W = W - eta * (lam * W - X.T @ yv / count)
        B = B - eta * (-yv.sum(axis=0) / count)
    return [
        LinearModel(W[:, j].copy(), float(B[j]), "linear-svm", param, 0.0)
        for j, (_, param) in enumerate(jobs)
    ]


# The SMO solve before its step worked in preallocated vectors and penalty
# vectors; the lean solve must give the same bits, so this is an oracle for
# `np.array_equal`.


def ref_smo(
    K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int
) -> tuple[np.ndarray, float, bool, int, float]:
    """`svm_rbf._smo` on np.where masks and fresh temporaries every step:
    (alpha, bias, converged, pair updates made, final gap m - M)."""
    n = len(y)
    alpha = np.zeros(n)
    # The gradient G = Q alpha - e, kept as -y*G (exact, as y is +-1); it
    # starts at -y*(-e) = y.
    score = y.copy()
    diag = np.diag(K).copy()
    pos = y > 0
    # I_up: y_t alpha_t can grow; I_low: it can shrink. Within 1e-12 of a
    # bound counts as at it.
    up, low = pos.copy(), ~pos
    for iterations in range(max_iter + 1):
        i = int(np.argmax(np.where(up, score, -np.inf)))
        b = score[i] - np.where(low, score, np.inf)  # b_it; -inf off I_low
        gap = b.max()  # m - M
        if gap <= tol or iterations == max_iter:
            break
        a = diag[i] + diag - 2.0 * K[i]
        ok = (b > 0.0) & (a > 1e-12)
        j = int(np.argmax(np.where(ok, b * b / np.where(ok, a, 1.0), -np.inf)))
        if not ok[j]:
            break  # only zero-curvature pairs violate; no pair makes progress

        # Move alpha_i by y_i t and alpha_j by -y_j t: y'alpha is unchanged,
        # and G changes by y * t * (K_i - K_j).
        t = min(b[j] / a[j],
                C - alpha[i] if pos[i] else alpha[i],
                alpha[j] if pos[j] else C - alpha[j])
        alpha[i] = min(max(alpha[i] + y[i] * t, 0.0), C)
        alpha[j] = min(max(alpha[j] - y[j] * t, 0.0), C)
        score -= t * (K[i] - K[j])
        for k in (i, j):
            below_c, above_0 = alpha[k] < C - 1e-12, alpha[k] > 1e-12
            up[k], low[k] = (below_c, above_0) if pos[k] else (above_0, below_c)

    free = (alpha > 1e-12) & (alpha < C - 1e-12)
    # Every free score lies in [M, m], so the bias does too.
    bias = float(np.mean(score[free])) if free.any() else float(score[i] - gap / 2.0)
    return alpha, bias, bool(gap <= tol), iterations, float(gap)


# The pairwise layer before it worked in place: fresh n x m temporaries and
# a full ranking. The in-place functions must give the same bits, so these
# are oracles for `np.array_equal`.


def ref_sq_distances(A, B):
    """`base.sq_distances` as one expression."""
    d2 = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2.0 * A @ B.T
    return np.maximum(d2, 0.0, out=d2)


def ref_rbf_kernel(A, B, gamma):
    """`svm_rbf.rbf_kernel` as one expression."""
    return np.exp(-gamma * ref_sq_distances(A, B))


def ref_neighbours(train_features, k_max, X):
    """`NeighbourMemo(train_features, k_max).neighbours(X)` from the full
    n_query x n_train stable ranking."""
    d2 = ref_sq_distances(X, train_features)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k_max]
    return nearest, np.take_along_axis(d2, nearest, axis=1)
