"""Adversarial training with a VAE-based generator.

Staging: the generator VAE is first reconstruction-pretrained, then only
its decoder participates in the adversarial phase, fed standard-normal
latents (the encoder is frozen and never used for sampling). The
discriminator is a small ReLU net with a single sigmoid output, trained
with binary cross-entropy; the generator minimizes the non-saturating
loss (cross-entropy of fakes against target 1). Updates alternate 1:1.

`train_gan` trains one GAN per class in lockstep, pretraining included:
the classes' decoders and discriminators are `nncore.MlpStack`s over the
stacked real rows, and each class draws its latents from its own stream
into its own rows. Every class's model has the bits of a GAN trained alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .augment import SyntheticBatch, augment_per_class
from .config import GanConfig
from .nncore import (
    AdamState, GradBuffer, MlpParams, MlpStack, adam_step, block_means, init_mlp,
    mlp_backward, mlp_forward, mlp_input_grad, row_blocks,
)
from .rng import RngStream
from .vae import VaeModel, sample_vae, train_vae

PROB_CLAMP = 1e-7


@dataclass
class GanModel:
    generator: VaeModel
    discriminator: MlpParams
    # Row e holds epoch e's (generator loss, discriminator loss): an
    # (epochs, 2) float64 array, filled in place as training runs.
    loss_history: np.ndarray


def _clamp(p: np.ndarray) -> np.ndarray:
    """`np.clip(p, PROB_CLAMP, 1 - PROB_CLAMP)` without its Python wrapper."""
    return np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


def _discriminator_losses(
    disc: MlpParams | MlpStack,
    real: np.ndarray,
    fake: np.ndarray,
    out: GradBuffer | None = None,
    fake_out: GradBuffer | None = None,
) -> tuple[list[float], list]:
    """`discriminator_loss` per row block: a single net's batches are one
    block each, and a stack's are stacked like its blocks."""
    if len(real) == 0 or len(fake) == 0:
        raise ValueError("real and fake batches must be nonempty")
    out = out or GradBuffer(disc)
    fake_out = fake_out or GradBuffer(disc)
    blocks_r, n_r = row_blocks(disc, real)
    blocks_f, n_f = row_blocks(disc, fake)
    # Each pass is taken back before the next, so a stack's buffers serve both.
    acts = mlp_forward(disc, real)
    p_r = _clamp(acts[-1])
    mlp_backward(disc, acts, -0.5 / (p_r * n_r), out, input_grad=False)
    acts = mlp_forward(disc, fake)
    q_f = 1.0 - _clamp(acts[-1])
    mlp_backward(disc, acts, 0.5 / (q_f * n_f), fake_out, input_grad=False)
    out.flat += fake_out.flat
    # Negating a mean is exact: these are the bits of the mean of -log p.
    mean_r = block_means(np.log(p_r), blocks_r)
    mean_f = block_means(np.log(q_f), blocks_f)
    return [-0.5 * (r + f) for r, f in zip(mean_r, mean_f)], out.arrays


def discriminator_loss(
    disc: MlpParams, real: np.ndarray, fake: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """BCE with real->1, fake->0; returns (loss, gradients w.r.t. disc params)."""
    losses, grads = _discriminator_losses(disc, real, fake)
    return losses[0], grads


def _generator_loss(
    disc: MlpParams | MlpStack, fake: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """Non-saturating loss -log D(fake) per row block; returns (losses,
    gradient w.r.t. fake rows)."""
    blocks, n = row_blocks(disc, fake)
    acts = mlp_forward(disc, fake)
    p = _clamp(acts[-1])
    d_fake = mlp_input_grad(disc, acts, -1.0 / (p * n))
    return [-mean for mean in block_means(np.log(p), blocks)], d_fake


def _check_finite(losses: list[float], classes: list[int]) -> None:
    for c, loss in zip(classes, losses):
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss for class {c}: {loss}")


def train_gan(
    data: dict[int, np.ndarray],
    config: GanConfig | None,
    rngs: dict[int, RngStream],
) -> dict[int, GanModel]:
    """One GAN per class of `data`, from the class's stream in `rngs`:
    pretrain every class's VAE generator, then alternate disc/gen Adam
    updates, every class in one loop."""
    config = config or GanConfig()
    classes = list(data)
    data = {c: np.asarray(data[c], dtype=float) for c in classes}
    vae_cfg = replace(config.vae, epochs=config.pretrain_epochs)
    gens = train_vae(data, vae_cfg, {c: rngs[c].derive("pretrain") for c in classes})
    rows = [len(data[c]) for c in classes]
    # The decoders leave the pretraining vector for one of their own.
    dec = MlpStack([gens[c].decoder for c in classes], rows)
    disc = MlpStack([
        init_mlp(
            [data[c].shape[1], *config.disc_hidden, 1],
            ["relu", "relu", "sigmoid"],
            rngs[c].derive("disc-init"),
        )
        for c in classes
    ], rows)
    models = {}
    for c, dec_net, disc_net in zip(classes, dec.nets, disc.nets):
        gens[c].decoder = dec_net
        models[c] = GanModel(gens[c], disc_net, np.empty((config.epochs, 2)))

    disc_lr = config.disc_learning_rate or config.learning_rate
    gen_state = AdamState.for_params(dec.flat, alpha=config.learning_rate)
    disc_state = AdamState.for_params(disc.flat, alpha=disc_lr)
    dec_grad = GradBuffer(dec)
    disc_grad, fake_grad = GradBuffer(disc), GradBuffer(disc)
    real = np.concatenate([data[c] for c in classes])
    noise = [rngs[c].derive("noise") for c in classes]
    z = np.empty((len(real), config.vae.latent_dim))
    z_blocks = [z[block] for block in dec.blocks]
    histories = [models[c].loss_history for c in classes]

    def latents() -> np.ndarray:
        for stream, block in zip(noise, z_blocks):
            stream.normal(out=block)
        return z

    try:
        for epoch in range(config.epochs):
            step = "discriminator"  # on real vs a fresh fake batch
            fake = mlp_forward(dec, latents())[-1]
            d_losses, _ = _discriminator_losses(disc, real, fake, disc_grad, fake_grad)
            _check_finite(d_losses, classes)
            adam_step(disc.flat, disc_grad.flat, disc_state)

            step = "generator"  # against the just-updated discriminator
            dec_acts = mlp_forward(dec, latents())
            g_losses, d_fake = _generator_loss(disc, dec_acts[-1])
            _check_finite(g_losses, classes)
            mlp_backward(dec, dec_acts, d_fake, dec_grad, input_grad=False)
            adam_step(dec.flat, dec_grad.flat, gen_state)

            for history, g_loss, d_loss in zip(histories, g_losses, d_losses):
                history[epoch] = g_loss, d_loss
    except FloatingPointError as e:  # e.g. an overflow that np.errstate raises
        raise FloatingPointError(f"{e} (GAN {step} step, epoch {epoch})") from e
    return models


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
        lambda data, streams: train_gan(data, config, streams), sample_gan, rng, "gan",
    )
