"""Variational autoencoder for tabular rows, trained per class.

Encoder: d -> hidden (ReLU) -> 2*latent (identity), split into the
posterior mean and log-variance heads (shared trunk). Decoder:
latent -> hidden (ReLU) -> d (identity). The objective is squared
reconstruction error (summed over features, averaged over the batch)
plus beta times the analytic KL to the standard-normal prior, with the
reparameterization trick.

Log-variances are clamped to [-10, 10] before use so the loss stays
finite; gradients do not flow through a saturated clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import SyntheticBatch, augment_per_class
from .nncore import AdamState, MlpParams, adam_step, init_mlp, mlp_backward, mlp_forward
from .rng import RngStream

LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0


@dataclass
class VaeConfig:
    hidden_size: int = 16
    latent_dim: int = 4
    epochs: int = 500
    learning_rate: float = 1e-3
    beta: float = 1.0


@dataclass
class VaeModel:
    encoder: MlpParams  # output width 2*latent_dim: [mu | logvar]
    decoder: MlpParams
    latent_dim: int
    loss_history: list[tuple[int, float]]

    @property
    def n_features(self) -> int:
        return self.encoder.input_size


def kl_divergence(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Per-row KL(N(mu, sigma^2) || N(0, I)); nonnegative."""
    var = np.exp(logvar)
    return 0.5 * np.sum(mu**2 + var - 1.0 - logvar, axis=1)


def init_vae(n_features: int, config: VaeConfig, rng: RngStream) -> VaeModel:
    enc = init_mlp(
        [n_features, config.hidden_size, 2 * config.latent_dim],
        ["relu", "identity"],
        rng.derive("encoder"),
    )
    dec = init_mlp(
        [config.latent_dim, config.hidden_size, n_features],
        ["relu", "identity"],
        rng.derive("decoder"),
    )
    return VaeModel(enc, dec, config.latent_dim, [])


def vae_loss(
    model: VaeModel,
    batch: np.ndarray,
    rng: RngStream | None = None,
    eps: np.ndarray | None = None,
    beta: float = 1.0,
    out: np.ndarray | None = None,
) -> tuple[float, tuple[list[np.ndarray], list[np.ndarray]]]:
    """ELBO-style loss and gradients (encoder list, decoder list).

    `eps` fixes the reparameterization noise (used by gradient checks);
    otherwise it is drawn from `rng`. The gradients are written into
    `out`, the encoder's vector followed by the decoder's (a new vector
    when None), and returned as views into it.
    """
    batch = np.asarray(batch, dtype=float)
    n, d = batch.shape
    if d != model.n_features:
        raise ValueError(f"batch has {d} columns, model expects {model.n_features}")
    L = model.latent_dim
    n_enc = model.encoder.flat.size
    if out is None:
        out = np.empty(n_enc + model.decoder.flat.size)

    enc_acts = mlp_forward(model.encoder, batch)
    heads = enc_acts[-1]
    mu, logvar_raw = heads[:, :L], heads[:, L:]
    clamp_ok = (logvar_raw > LOGVAR_MIN) & (logvar_raw < LOGVAR_MAX)
    logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
    sigma = np.exp(0.5 * logvar)

    if eps is None:
        if rng is None:
            raise ValueError("need either rng or explicit eps")
        eps = rng.normal(size=(n, L))
    z = mu + sigma * eps

    dec_acts = mlp_forward(model.decoder, z)
    recon = dec_acts[-1]
    # Squared error summed over features (unit-variance Gaussian decoder
    # up to constants), averaged over the batch; KL averaged over the batch.
    recon_loss = float(np.mean(np.sum((recon - batch) ** 2, axis=1)))
    kl = kl_divergence(mu, logvar)
    loss = recon_loss + beta * float(kl.mean())

    # Backward: reconstruction path through the decoder into z.
    d_recon = 2.0 * (recon - batch) / n
    dec_grads, dz = mlp_backward(model.decoder, dec_acts, d_recon, out[n_enc:])

    d_mu = dz + beta * mu / n
    d_logvar = dz * eps * 0.5 * sigma + beta * 0.5 * (np.exp(logvar) - 1.0) / n
    d_heads = np.hstack([d_mu, d_logvar * clamp_ok])
    enc_grads, _ = mlp_backward(model.encoder, enc_acts, d_heads, out[:n_enc])
    return loss, (enc_grads, dec_grads)


def train_vae(
    data: np.ndarray,
    config: VaeConfig | None = None,
    rng: RngStream | None = None,
) -> VaeModel:
    """Full-batch Adam training; loss recorded once per epoch."""
    config = config or VaeConfig()
    rng = rng or RngStream(0, ("vae",))
    data = np.asarray(data, dtype=float)
    if data.shape[1] == 0:
        raise ValueError("data has no features")
    if data.shape[0] < 2:
        raise ValueError("need at least 2 rows to train")

    model = init_vae(data.shape[1], config, rng.derive("init"))
    noise = rng.derive("noise")
    # Encoder and decoder step as one vector: rebuild both as views of it.
    params = np.concatenate([model.encoder.flat, model.decoder.flat])
    n_enc = model.encoder.flat.size
    model.encoder = MlpParams(model.encoder.layers, params[:n_enc])
    model.decoder = MlpParams(model.decoder.layers, params[n_enc:])
    grad = np.empty_like(params)
    state = AdamState.for_params(params, alpha=config.learning_rate)

    if config.epochs == 0:
        loss, _ = vae_loss(model, data, rng=noise, beta=config.beta)
        model.loss_history.append((0, loss))
        return model

    for epoch in range(config.epochs):
        loss, _ = vae_loss(model, data, rng=noise, beta=config.beta, out=grad)
        model.loss_history.append((epoch, loss))
        adam_step(params, grad, state)
    return model


def sample_vae(model: VaeModel, n: int, rng: RngStream) -> np.ndarray:
    """Decode standard-normal latents; never consults the encoder."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    if n == 0:
        return np.empty((0, model.n_features))
    z = rng.normal(size=(n, model.latent_dim))
    return mlp_forward(model.decoder, z)[-1]


def augment_with_vae(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    n_synthetic: int,
    config: VaeConfig | None = None,
    rng: RngStream | None = None,
) -> tuple[np.ndarray, np.ndarray, SyntheticBatch]:
    """One VAE per class; append proportional synthetic rows."""
    config = config or VaeConfig()
    rng = rng or RngStream(0, ("augment-vae",))
    return augment_per_class(
        train_features, train_labels, n_synthetic,
        lambda data, stream: train_vae(data, config, stream), sample_vae, rng, "vae",
    )
