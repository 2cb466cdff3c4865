"""Adversarial training with a VAE-based generator.

Staging: the generator VAE is first reconstruction-pretrained, then only
its decoder participates in the adversarial phase, fed standard-normal
latents (the encoder is frozen and never used for sampling). The
discriminator is a small ReLU net with a single sigmoid output, trained
with binary cross-entropy; the generator minimizes the non-saturating
loss (cross-entropy of fakes against target 1). Updates alternate 1:1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import SyntheticBatch, augment_per_class
from .nncore import (
    AdamState, GradBuffer, MlpParams, adam_step, init_mlp, mlp_backward, mlp_forward,
    mlp_input_grad,
)
from .rng import RngStream
from .vae import VaeConfig, VaeModel, sample_vae, train_vae

PROB_CLAMP = 1e-7


@dataclass
class GanConfig:
    pretrain_epochs: int = field(default=500, metadata={"ge": 0})
    epochs: int = field(default=4000, metadata={"ge": 0})
    learning_rate: float = field(default=3e-4, metadata={"gt": 0})  # generator step size
    # None = same as generator
    disc_learning_rate: float | None = field(default=1e-3, metadata={"gt": 0})
    disc_hidden: tuple[int, int] = field(default=(32, 16), metadata={"ge": 1})
    vae: VaeConfig = field(default_factory=VaeConfig)


@dataclass
class GanModel:
    generator: VaeModel
    discriminator: MlpParams
    loss_history: list[tuple[int, float, float]]  # (epoch, gen loss, disc loss)


def _clamp(p: np.ndarray) -> np.ndarray:
    """`np.clip(p, PROB_CLAMP, 1 - PROB_CLAMP)` without its Python wrapper."""
    return np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


def _neg_mean_log(p: np.ndarray) -> float:
    """`np.mean(-np.log(p))`: negating the sum instead of each term, and
    `np.add.reduce / size` instead of `np.mean`, give the same bits."""
    return float(-np.add.reduce(np.log(p), axis=None) / p.size)


def discriminator_loss(
    disc: MlpParams,
    real: np.ndarray,
    fake: np.ndarray,
    out: GradBuffer | None = None,
    fake_out: GradBuffer | None = None,
) -> tuple[float, list[np.ndarray]]:
    """BCE with real->1, fake->0; returns (loss, gradients w.r.t. disc params).

    The gradient is written into `out` (new when None) and returned as
    its `arrays()`-order views. The fake batch's half goes through
    `fake_out` first; a training loop passes both, built once.
    """
    if len(real) == 0 or len(fake) == 0:
        raise ValueError("real and fake batches must be nonempty")
    acts_r = mlp_forward(disc, real)
    acts_f = mlp_forward(disc, fake)
    p_r = _clamp(acts_r[-1])
    q_f = 1.0 - _clamp(acts_f[-1])
    loss = 0.5 * (_neg_mean_log(p_r) + _neg_mean_log(q_f))

    d_out_r = -0.5 / (p_r * len(p_r))
    d_out_f = 0.5 / (q_f * len(q_f))
    out = out or GradBuffer(disc)
    fake_out = fake_out or GradBuffer(disc)
    mlp_backward(disc, acts_r, d_out_r, out, input_grad=False)
    mlp_backward(disc, acts_f, d_out_f, fake_out, input_grad=False)
    out.flat += fake_out.flat
    return loss, out.arrays


def _generator_loss(
    disc: MlpParams, fake: np.ndarray
) -> tuple[float, np.ndarray]:
    """Non-saturating loss -log D(fake); returns (loss, gradient w.r.t. fake rows)."""
    acts = mlp_forward(disc, fake)
    p = _clamp(acts[-1])
    d_out = -1.0 / (p * len(p))
    return _neg_mean_log(p), mlp_input_grad(disc, acts, d_out)


def train_gan(
    data: np.ndarray,
    config: GanConfig | None = None,
    rng: RngStream | None = None,
) -> GanModel:
    """Pretrain the VAE generator, then alternate disc/gen Adam updates."""
    config = config or GanConfig()
    rng = rng or RngStream(0, ("gan",))
    data = np.asarray(data, dtype=float)
    if data.shape[0] < 2:
        raise ValueError("need at least 2 rows to train")
    n, d = data.shape

    vae_cfg = replace(config.vae, epochs=config.pretrain_epochs)
    gen = train_vae(data, vae_cfg, rng.derive("pretrain"))
    disc = init_mlp(
        [d, *config.disc_hidden, 1],
        ["relu", "relu", "sigmoid"],
        rng.derive("disc-init"),
    )
    model = GanModel(gen, disc, [])

    dec = gen.decoder  # its `flat` is a view into the pretrained VAE's vector
    disc_lr = config.disc_learning_rate or config.learning_rate
    gen_state = AdamState.for_params(dec.flat, alpha=config.learning_rate)
    disc_state = AdamState.for_params(disc.flat, alpha=disc_lr)
    dec_grad = GradBuffer(dec)
    disc_grad, fake_grad = GradBuffer(disc), GradBuffer(disc)
    noise = rng.derive("noise")
    L = gen.latent_dim

    for epoch in range(config.epochs):
        # Discriminator step on real vs a fresh fake batch.
        z = noise.normal(size=(n, L))
        fake = mlp_forward(dec, z)[-1]
        d_loss, _ = discriminator_loss(disc, data, fake, disc_grad, fake_grad)
        adam_step(disc.flat, disc_grad.flat, disc_state)

        # Generator step against the just-updated discriminator.
        z = noise.normal(size=(n, L))
        dec_acts = mlp_forward(dec, z)
        g_loss, d_fake = _generator_loss(disc, dec_acts[-1])
        mlp_backward(dec, dec_acts, d_fake, dec_grad, input_grad=False)
        adam_step(dec.flat, dec_grad.flat, gen_state)

        if not (math.isfinite(d_loss) and math.isfinite(g_loss)):
            raise FloatingPointError(
                f"non-finite GAN losses at epoch {epoch}: gen={g_loss}, disc={d_loss}"
            )
        model.loss_history.append((epoch, g_loss, d_loss))
    return model


def sample_gan(model: GanModel, n: int, rng: RngStream) -> np.ndarray:
    """Prior sampling through the generator's decoder only."""
    return sample_vae(model.generator, n, rng)


def augment_with_gan(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    n_synthetic: int,
    config: GanConfig | None = None,
    rng: RngStream | None = None,
) -> tuple[np.ndarray, np.ndarray, SyntheticBatch]:
    """One GAN per class; append proportional synthetic rows."""
    config = config or GanConfig()
    rng = rng or RngStream(0, ("augment-gan",))
    return augment_per_class(
        train_features, train_labels, n_synthetic,
        lambda data, stream: train_gan(data, config, stream), sample_gan, rng, "gan",
    )
