"""Adversarial training with a VAE-based generator.

Staging: the generator VAE is first reconstruction-pretrained, then only
its decoder participates in the adversarial phase, fed standard-normal
latents (the encoder is frozen and never used for sampling). The
discriminator is a small ReLU net with a single sigmoid output, trained
with binary cross-entropy; the generator minimizes the non-saturating
loss (cross-entropy of fakes against target 1). Updates alternate 1:1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .augment import SyntheticBatch, augment_per_class
from .nncore import AdamState, MlpParams, adam_step, init_mlp, mlp_backward, mlp_forward
from .rng import RngStream
from .vae import VaeConfig, VaeModel, sample_vae, train_vae

PROB_CLAMP = 1e-7


@dataclass
class GanConfig:
    pretrain_epochs: int = 500
    epochs: int = 4000
    learning_rate: float = 3e-4  # generator step size
    disc_learning_rate: float | None = 1e-3  # None = same as generator
    disc_hidden: tuple[int, int] = (32, 16)
    vae: VaeConfig = field(default_factory=VaeConfig)


@dataclass
class GanModel:
    generator: VaeModel
    discriminator: MlpParams
    loss_history: list[tuple[int, float, float]]  # (epoch, gen loss, disc loss)


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def discriminator_loss(
    disc: MlpParams, real: np.ndarray, fake: np.ndarray, out: np.ndarray | None = None
) -> tuple[float, list[np.ndarray]]:
    """BCE with real->1, fake->0; returns (loss, gradients w.r.t. disc params).

    The gradient is written into `out`, laid out like `disc.flat` (a new
    vector when None), and returned as `arrays()`-order views into it.
    """
    if len(real) == 0 or len(fake) == 0:
        raise ValueError("real and fake batches must be nonempty")
    acts_r = mlp_forward(disc, real)
    acts_f = mlp_forward(disc, fake)
    p_r = _clamp(acts_r[-1])
    p_f = _clamp(acts_f[-1])
    loss = 0.5 * float(np.mean(-np.log(p_r)) + np.mean(-np.log(1.0 - p_f)))

    d_out_r = -0.5 / (p_r * len(p_r))
    d_out_f = 0.5 / ((1.0 - p_f) * len(p_f))
    grad = np.empty(disc.flat.size) if out is None else out
    grad_f = np.empty_like(grad)
    grads, _ = mlp_backward(disc, acts_r, d_out_r, grad)
    mlp_backward(disc, acts_f, d_out_f, grad_f)
    grad += grad_f
    return loss, grads


def _generator_loss(
    disc: MlpParams, fake: np.ndarray
) -> tuple[float, np.ndarray]:
    """Non-saturating loss -log D(fake); returns (loss, gradient w.r.t. fake rows)."""
    acts = mlp_forward(disc, fake)
    p = _clamp(acts[-1])
    loss = float(np.mean(-np.log(p)))
    d_out = -1.0 / (p * len(p))
    _, d_fake = mlp_backward(disc, acts, d_out)
    return loss, d_fake


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
    dec_grad = np.empty_like(dec.flat)
    disc_grad = np.empty_like(disc.flat)
    noise = rng.derive("noise")
    L = gen.latent_dim

    for epoch in range(config.epochs):
        # Discriminator step on real vs a fresh fake batch.
        z = noise.normal(size=(n, L))
        fake = mlp_forward(dec, z)[-1]
        d_loss, _ = discriminator_loss(disc, data, fake, disc_grad)
        adam_step(disc.flat, disc_grad, disc_state)

        # Generator step against the just-updated discriminator.
        z = noise.normal(size=(n, L))
        dec_acts = mlp_forward(dec, z)
        g_loss, d_fake = _generator_loss(disc, dec_acts[-1])
        mlp_backward(dec, dec_acts, d_fake, dec_grad)
        adam_step(dec.flat, dec_grad, gen_state)

        if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
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
