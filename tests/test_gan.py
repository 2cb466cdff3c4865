"""GAN: discriminator loss values and gradients, staged training, sampling."""

from dataclasses import replace

import numpy as np
import pytest

from augbench.gan import (
    PROB_CLAMP, GanConfig, augment_with_gan, discriminator_loss, sample_gan, train_gan,
)
from augbench.nncore import AdamState, Layer, MlpParams, init_mlp, mlp_forward
from augbench.rng import RngStream
from augbench.vae import VaeConfig, train_vae
from conftest import (
    central_difference, flat, max_relative_error, ref_adam_step, ref_backward, ref_forward,
    with_arrays,
)

TINY = GanConfig(
    pretrain_epochs=10, epochs=15, learning_rate=1e-3, disc_learning_rate=1e-3,
    disc_hidden=(6, 4), vae=VaeConfig(hidden_size=6, latent_dim=2, epochs=10),
)


def fresh_disc(seed=0, d=3):
    return init_mlp([d, 4, 1], ["relu", "sigmoid"], RngStream(seed, ("disc",)))


def test_discriminator_loss_at_uninformative_output():
    # Zero weights/biases -> sigmoid output exactly 0.5 -> BCE = log 2.
    disc = fresh_disc()
    for layer in disc.layers:
        layer.weights[:] = 0.0
    loss, grads = discriminator_loss(disc, np.ones((4, 3)), np.zeros((5, 3)))
    assert loss == pytest.approx(np.log(2.0))
    assert len(grads) == 2 * len(disc.layers)


def test_discriminator_loss_constant_output_hand_value():
    # Zero weights with a final bias beta give constant output sigmoid(beta):
    # loss = -(log p + log(1 - p)) / 2 for any batches.
    disc = fresh_disc(seed=1)
    for layer in disc.layers:
        layer.weights[:] = 0.0
    disc.layers[-1].bias[:] = 2.0
    p = 1.0 / (1.0 + np.exp(-2.0))
    loss, _ = discriminator_loss(disc, np.ones((7, 3)), np.zeros((2, 3)))
    assert loss == pytest.approx(-0.5 * (np.log(p) + np.log(1.0 - p)))


def test_discriminator_gradients_match_finite_differences():
    disc = fresh_disc(seed=2)
    rng = RngStream(2, ("fd",))
    real = rng.derive("r").normal(size=(4, 3))
    fake = rng.derive("f").normal(size=(5, 3))

    def loss_fn(arrays):
        return discriminator_loss(with_arrays(disc, arrays), real, fake)[0]

    _, analytic = discriminator_loss(disc, real, fake)
    numeric = central_difference(loss_fn, disc.arrays())
    assert max_relative_error(analytic, numeric) < 1e-6


def test_discriminator_loss_rejects_empty_batches():
    disc = fresh_disc()
    with pytest.raises(ValueError):
        discriminator_loss(disc, np.zeros((0, 3)), np.zeros((2, 3)))


def test_train_gan_records_losses_and_is_deterministic():
    data = RngStream(3).normal(size=(30, 3)) + 1.0
    a = train_gan(data, TINY, RngStream(9, ("gan",)))
    b = train_gan(data, TINY, RngStream(9, ("gan",)))
    assert len(a.loss_history) == TINY.epochs
    epochs, g_losses, d_losses = zip(*a.loss_history)
    assert list(epochs) == list(range(TINY.epochs))
    assert all(np.isfinite(g_losses)) and all(np.isfinite(d_losses))
    for x, y in zip(a.generator.decoder.arrays(), b.generator.decoder.arrays()):
        np.testing.assert_array_equal(x, y)


def test_train_gan_requires_rows():
    with pytest.raises(ValueError):
        train_gan(np.zeros((1, 2)), TINY, RngStream(0))


def test_sample_gan_uses_decoder_only():
    data = RngStream(4).normal(size=(20, 2))
    model = train_gan(data, TINY, RngStream(4, ("gan",)))
    s = sample_gan(model, 30, RngStream(5, ("s",)))
    assert s.shape == (30, 2)
    # Equals decoding the same latents directly: the encoder is not involved.
    z = RngStream(5, ("s",)).normal(size=(30, model.generator.latent_dim))
    np.testing.assert_array_equal(s, mlp_forward(model.generator.decoder, z)[-1])


def test_adversarial_phase_moves_fakes_toward_data():
    # Data sits far from the origin; pretraining alone (10 epochs) cannot
    # get there, so improvement must come from the adversarial updates.
    rng = RngStream(6, ("shift",))
    data = rng.derive("x").normal(size=(40, 2)) + 4.0
    short = GanConfig(pretrain_epochs=10, epochs=0, disc_hidden=(6, 4),
                      vae=VaeConfig(hidden_size=6, latent_dim=2))
    long = GanConfig(pretrain_epochs=10, epochs=800, learning_rate=3e-3,
                     disc_learning_rate=3e-3, disc_hidden=(6, 4),
                     vae=VaeConfig(hidden_size=6, latent_dim=2))
    before = sample_gan(train_gan(data, short, RngStream(6, ("g",))), 300, RngStream(7))
    after = sample_gan(train_gan(data, long, RngStream(6, ("g",))), 300, RngStream(7))
    target = data.mean(axis=0)
    gap_before = np.linalg.norm(before.mean(axis=0) - target)
    gap_after = np.linalg.norm(after.mean(axis=0) - target)
    assert gap_after < gap_before


def test_augment_with_gan_counts():
    rng = RngStream(7, ("aug",))
    X = rng.derive("x").normal(size=(20, 2))
    y = np.array([0] * 12 + [1] * 8)
    Xa, ya, prov = augment_with_gan(X, y, 10, TINY, rng.derive("run"))
    assert prov.per_class_counts == {0: 6, 1: 4}
    assert len(ya) == 30
    assert prov.generator == "gan"
    assert set(prov.models) == {0, 1}


def test_discriminator_loss_near_zero_for_perfect_separation():
    # A steep 1-D discriminator saturates: p(real) -> 1, p(fake) -> 0, and
    # the clamp keeps the loss finite at ~1e-7 instead of exactly 0.
    disc = MlpParams([Layer(np.array([[50.0]]), np.zeros(1), "sigmoid")])
    loss, _ = discriminator_loss(disc, np.ones((5, 1)), -np.ones((5, 1)))
    assert 0.0 < loss < 1e-6


def test_zero_adversarial_epochs_is_pretraining_only():
    data = RngStream(8).normal(size=(20, 2))
    cfg = GanConfig(pretrain_epochs=10, epochs=0, disc_hidden=(6, 4),
                    vae=VaeConfig(hidden_size=6, latent_dim=2))
    model = train_gan(data, cfg, RngStream(8, ("gan",)))
    assert model.loss_history == []
    vae_cfg = VaeConfig(hidden_size=6, latent_dim=2, epochs=10,
                        learning_rate=cfg.vae.learning_rate, beta=cfg.vae.beta)
    ref_gen = train_vae(data, vae_cfg, RngStream(8, ("gan",)).derive("pretrain"))
    for a, b in zip(model.generator.decoder.arrays(), ref_gen.decoder.arrays()):
        np.testing.assert_array_equal(a, b)
    ref_disc = init_mlp([2, 6, 4, 1], ["relu", "relu", "sigmoid"],
                        RngStream(8, ("gan",)).derive("disc-init"))
    for a, b in zip(model.discriminator.arrays(), ref_disc.arrays()):
        np.testing.assert_array_equal(a, b)


def test_near_equilibrium_discriminator_on_toy_data():
    # After sustained adversarial training on 1-D data at +/-1, the
    # discriminator should hover near chance on fresh real-vs-fake batches
    # (seed-averaged band, not a per-seed guarantee).
    from augbench.nncore import mlp_forward as fwd

    data = np.array([[-1.0], [1.0]] * 20)
    cfg = GanConfig(pretrain_epochs=200, epochs=2000, learning_rate=3e-3,
                    disc_learning_rate=1e-3, disc_hidden=(16, 8),
                    vae=VaeConfig(hidden_size=8, latent_dim=2))
    accs = []
    for seed in range(5):
        model = train_gan(data, cfg, RngStream(40 + seed, ("equil",)))
        fake = sample_gan(model, len(data), RngStream(90 + seed, ("held",)))
        p_real = fwd(model.discriminator, data)[-1][:, 0]
        p_fake = fwd(model.discriminator, fake)[-1][:, 0]
        accs.append(0.5 * (np.mean(p_real >= 0.5) + np.mean(p_fake < 0.5)))
    assert 0.3 <= float(np.mean(accs)) <= 0.7


def _reference_train_gan(data, config, rng):
    """The adversarial loop on the plain formulas: np.clip, np.mean, and a
    full backward pass whose unread products are still computed. Returns
    (decoder vector, discriminator vector, loss history)."""
    n, d = data.shape
    gen = train_vae(data, replace(config.vae, epochs=config.pretrain_epochs),
                    rng.derive("pretrain"))
    disc = init_mlp([d, *config.disc_hidden, 1], ["relu", "relu", "sigmoid"],
                    rng.derive("disc-init"))
    dec = gen.decoder
    gen_state = AdamState.for_params(dec.flat, alpha=config.learning_rate)
    disc_state = AdamState.for_params(disc.flat, alpha=config.disc_learning_rate)
    noise = rng.derive("noise")
    history = []
    for epoch in range(config.epochs):
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
        history.append((epoch, g_loss, d_loss))
    return dec.flat, disc.flat, history


def test_train_gan_equals_the_plain_formula_loop_bit_for_bit():
    data = RngStream(10).normal(size=(30, 3)) + 1.0
    model = train_gan(data, TINY, RngStream(11, ("gan",)))
    dec, disc, history = _reference_train_gan(data, TINY, RngStream(11, ("gan",)))
    assert np.array_equal(model.generator.decoder.flat, dec)
    assert np.array_equal(model.discriminator.flat, disc)
    assert model.loss_history == history
