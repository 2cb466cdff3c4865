"""Variational autoencoder for tabular rows, trained per class.

Encoder: d -> hidden (ReLU) -> 2*latent (identity), split into the
posterior mean and log-variance heads (shared trunk). Decoder:
latent -> hidden (ReLU) -> d (identity). The objective is squared
reconstruction error (summed over features, averaged over the batch)
plus beta times the analytic KL to the standard-normal prior, with the
reparameterization trick.

Log-variances are clamped to [-10, 10] before use so the loss stays
finite; gradients do not flow through a saturated clamp.

`train_vae` trains one VAE per class in lockstep: the classes' rows are
stacked, their encoders and decoders are `nncore.MlpStack`s over one
parameter vector, and each class draws its noise from its own stream into
its own rows. Every class's model has the bits of a VAE trained alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .augment import SyntheticBatch, augment_per_class
from .nncore import (
    AdamState, GradBuffer, MlpParams, MlpStack, adam_step, init_mlp, mlp_backward,
    mlp_forward, row_blocks,
)
from .rng import RngStream

LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0


@dataclass
class VaeConfig:
    hidden_size: int = field(default=16, metadata={"ge": 1})
    latent_dim: int = field(default=4, metadata={"ge": 1})
    epochs: int = field(default=500, metadata={"ge": 0})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})
    beta: float = field(default=1.0, metadata={"ge": 0})


@dataclass
class VaeModel:
    # One class's networks, or (inside `train_vae`) every class's, as stacks.
    encoder: MlpParams | MlpStack  # output width 2*latent_dim: [mu | logvar]
    decoder: MlpParams | MlpStack
    latent_dim: int
    loss_history: list[tuple[int, float]]

    @property
    def n_features(self) -> int:
        return self.encoder.input_size


def kl_divergence(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Per-row KL(N(mu, sigma^2) || N(0, I)); nonnegative."""
    var = np.exp(logvar)
    return 0.5 * np.add.reduce(mu**2 + var - 1.0 - logvar, axis=1)


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
    eps: np.ndarray,
    beta: float = 1.0,
    out: tuple[GradBuffer, GradBuffer] | None = None,
) -> tuple[float, tuple[list[np.ndarray], list[np.ndarray]]]:
    """ELBO-style loss and gradients (encoder list, decoder list).

    `eps` is the reparameterization noise, one latent row per batch row.
    The gradients are written into `out`, the encoder's and the decoder's
    buffer (new ones when None), and returned as their views.
    """
    batch = np.asarray(batch, dtype=float)
    losses, grads = _vae_losses(model, batch, eps, beta, out)
    return losses[0], grads


def _vae_losses(
    model: VaeModel,
    batch: np.ndarray,
    eps: np.ndarray,
    beta: float,
    out: tuple[GradBuffer, GradBuffer] | None,
) -> tuple[list[float], tuple[list, list]]:
    """`vae_loss` per row block, for a model of single networks (one block)
    or of stacks (one block per class), with the noise `eps` given."""
    d = batch.shape[1]
    if d != model.n_features:
        raise ValueError(f"batch has {d} columns, model expects {model.n_features}")
    L = model.latent_dim
    enc_out, dec_out = out or (GradBuffer(model.encoder), GradBuffer(model.decoder))
    blocks, n = row_blocks(model.encoder, batch)

    enc_acts = mlp_forward(model.encoder, batch)
    heads = enc_acts[-1]
    mu, logvar_raw = heads[:, :L], heads[:, L:]
    clamp_ok = (logvar_raw > LOGVAR_MIN) & (logvar_raw < LOGVAR_MAX)
    logvar = np.minimum(np.maximum(logvar_raw, LOGVAR_MIN), LOGVAR_MAX)  # np.clip
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps

    dec_acts = mlp_forward(model.decoder, z)
    recon = dec_acts[-1]
    # Squared error summed over features (unit-variance Gaussian decoder
    # up to constants), averaged over the block; KL averaged over the block.
    # np.mean as np.add.reduce / size: the same bits without the wrapper.
    residual = recon - batch
    sq_error = np.add.reduce(residual**2, axis=1)
    kl = kl_divergence(mu, logvar)
    losses = [
        float(np.add.reduce(sq_error[rows]) / size)
        + beta * float(np.add.reduce(kl[rows]) / size)
        for rows, size in blocks
    ]

    # Backward: reconstruction path through the decoder into z.
    d_recon = 2.0 * residual / n
    dec_grads, dz = mlp_backward(model.decoder, dec_acts, d_recon, dec_out)

    d_mu = dz + beta * mu / n
    d_logvar = dz * eps * 0.5 * sigma + beta * 0.5 * (np.exp(logvar) - 1.0) / n
    d_heads = np.concatenate([d_mu, d_logvar * clamp_ok], axis=1)
    enc_grads, _ = mlp_backward(model.encoder, enc_acts, d_heads, enc_out, input_grad=False)
    return losses, (enc_grads, dec_grads)


def train_vae(
    data: dict[int, np.ndarray],
    config: VaeConfig | None,
    rngs: dict[int, RngStream],
) -> dict[int, VaeModel]:
    """One VAE per class of `data`, from the class's stream in `rngs`, by
    full-batch Adam with every class in one loop; each model's loss is
    recorded once per epoch."""
    config = config or VaeConfig()
    classes = list(data)
    if not classes:
        raise ValueError("need at least one class to train")
    data = {c: np.asarray(data[c], dtype=float) for c in classes}
    for c in classes:
        if data[c].shape[1] == 0:
            raise ValueError(f"class {c}: data has no features")
        if data[c].shape[0] < 2:
            raise ValueError(f"class {c}: need at least 2 rows to train")

    models = {c: init_vae(data[c].shape[1], config, rngs[c].derive("init")) for c in classes}
    noise = [rngs[c].derive("noise") for c in classes]
    rows = [len(data[c]) for c in classes]
    # Every class's encoder, then every class's decoder, in one vector that
    # one Adam step updates; each model's networks become views of it.
    n_enc = len(classes) * models[classes[0]].encoder.flat.size
    n_dec = len(classes) * models[classes[0]].decoder.flat.size
    params, grad = np.empty(n_enc + n_dec), np.empty(n_enc + n_dec)
    enc = MlpStack([models[c].encoder for c in classes], rows, params[:n_enc])
    dec = MlpStack([models[c].decoder for c in classes], rows, params[n_enc:])
    for c, enc_net, dec_net in zip(classes, enc.nets, dec.nets):
        models[c].encoder, models[c].decoder = enc_net, dec_net
    grads = (GradBuffer(enc, grad[:n_enc]), GradBuffer(dec, grad[n_enc:]))
    state = AdamState.for_params(params, alpha=config.learning_rate)
    stacked = VaeModel(enc, dec, config.latent_dim, [])
    batch = np.concatenate([data[c] for c in classes])
    eps = np.empty((len(batch), config.latent_dim))
    eps_blocks = [eps[block] for block in enc.blocks]

    # Zero epochs still record the initial loss, as epoch 0, and take no step.
    try:
        for epoch in range(max(config.epochs, 1)):
            for stream, block in zip(noise, eps_blocks):
                stream.normal(out=block)
            losses, _ = _vae_losses(stacked, batch, eps, config.beta, grads)
            for c, loss in zip(classes, losses):
                models[c].loss_history.append((epoch, loss))
            if config.epochs:
                adam_step(params, grad, state)
    except FloatingPointError as e:  # e.g. an overflow that np.errstate raises
        raise FloatingPointError(f"{e} (VAE step, epoch {epoch})") from e
    return models


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
        lambda data, streams: train_vae(data, config, streams), sample_vae, rng, "vae",
    )
