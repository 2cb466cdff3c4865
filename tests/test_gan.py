"""GAN: discriminator loss values and gradients, staged training, sampling."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench.gan import GanConfig, augment_with_gan, discriminator_loss, sample_gan, train_gan
from augbench.nncore import Layer, MlpParams, init_mlp, mlp_forward
from augbench.rng import RngStream
from augbench.vae import VaeConfig, train_vae
from conftest import (
    central_difference, class_datasets, max_relative_error, ref_train_gan, with_arrays,
)

TINY = GanConfig(
    pretrain_epochs=10, epochs=15, learning_rate=1e-3, disc_learning_rate=1e-3,
    disc_hidden=(6, 4), vae=VaeConfig(hidden_size=6, latent_dim=2, epochs=10),
)


def train_one(data, config, rng):
    """`train_gan` on one class."""
    return train_gan({0: data}, config, {0: rng})[0]


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
    a = train_one(data, TINY, RngStream(9, ("gan",)))
    b = train_one(data, TINY, RngStream(9, ("gan",)))
    assert a.loss_history.shape == (TINY.epochs, 2)
    assert a.loss_history.dtype == np.float64
    assert np.isfinite(a.loss_history).all()
    assert np.array_equal(a.loss_history, b.loss_history)
    for x, y in zip(a.generator.decoder.arrays(), b.generator.decoder.arrays()):
        np.testing.assert_array_equal(x, y)


def test_train_gan_requires_rows():
    with pytest.raises(ValueError):
        train_one(np.zeros((1, 2)), TINY, RngStream(0))


def test_sample_gan_uses_decoder_only():
    data = RngStream(4).normal(size=(20, 2))
    model = train_one(data, TINY, RngStream(4, ("gan",)))
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
    before = sample_gan(train_one(data, short, RngStream(6, ("g",))), 300, RngStream(7))
    after = sample_gan(train_one(data, long, RngStream(6, ("g",))), 300, RngStream(7))
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
    model = train_one(data, cfg, RngStream(8, ("gan",)))
    assert model.loss_history.shape == (0, 2)
    vae_cfg = VaeConfig(hidden_size=6, latent_dim=2, epochs=10,
                        learning_rate=cfg.vae.learning_rate, beta=cfg.vae.beta)
    ref_gen = train_vae({0: data}, vae_cfg, {0: RngStream(8, ("gan",)).derive("pretrain")})[0]
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
        model = train_one(data, cfg, RngStream(40 + seed, ("equil",)))
        fake = sample_gan(model, len(data), RngStream(90 + seed, ("held",)))
        p_real = fwd(model.discriminator, data)[-1][:, 0]
        p_fake = fwd(model.discriminator, fake)[-1][:, 0]
        accs.append(0.5 * (np.mean(p_real >= 0.5) + np.mean(p_fake < 0.5)))
    assert 0.3 <= float(np.mean(accs)) <= 0.7


def test_train_gan_equals_the_plain_formula_loop_bit_for_bit():
    data = RngStream(10).normal(size=(30, 3)) + 1.0
    model = train_one(data, TINY, RngStream(11, ("gan",)))
    dec, disc, history = ref_train_gan(data, TINY, RngStream(11, ("gan",)))
    assert np.array_equal(model.generator.decoder.flat, dec)
    assert np.array_equal(model.discriminator.flat, disc)
    assert model.loss_history.shape == history.shape == (TINY.epochs, 2)
    assert np.array_equal(model.loss_history, history)


@settings(max_examples=40, deadline=None)
@given(
    datasets=class_datasets(),
    pretrain_epochs=st.integers(0, 6),
    epochs=st.integers(0, 6),
    hidden=st.integers(1, 6),
    latent=st.integers(1, 3),
    disc_hidden=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_lockstep_gans_equal_each_class_trained_alone(
    datasets, pretrain_epochs, epochs, hidden, latent, disc_hidden
):
    data, rngs = datasets
    config = GanConfig(
        pretrain_epochs=pretrain_epochs, epochs=epochs, learning_rate=3e-3,
        disc_learning_rate=2e-3, disc_hidden=disc_hidden,
        vae=VaeConfig(hidden_size=hidden, latent_dim=latent, learning_rate=5e-3),
    )
    models = train_gan(data, config, rngs)
    assert list(models) == list(data)
    for c, model in models.items():
        dec, disc, history = ref_train_gan(data[c], config, rngs[c])
        assert np.array_equal(model.generator.decoder.flat, dec)
        assert np.array_equal(model.discriminator.flat, disc)
        assert model.loss_history.shape == history.shape == (epochs, 2)
        assert np.array_equal(model.loss_history, history)


def test_non_finite_loss_names_its_class():
    good = RngStream(14, ("good",)).normal(size=(10, 2))
    bad = RngStream(14, ("bad",)).normal(size=(12, 2))
    bad[3, 1] = np.nan
    config = replace(TINY, pretrain_epochs=0)
    rngs = {2: RngStream(1), 7: RngStream(2)}
    with np.errstate(invalid="ignore"), pytest.raises(
        FloatingPointError,
        match=r"^non-finite loss for class 7: nan \(GAN discriminator step, epoch 0\)$"
    ):
        train_gan({2: good, 7: bad}, config, rngs)
    with pytest.raises(ValueError, match="class 7: need at least 2 rows"):
        train_gan({2: good, 7: bad[:1]}, config, rngs)


def test_history_retains_two_floats_per_epoch_and_class():
    # Each class's history is one (epochs, 2) float64 array: 16 bytes per
    # epoch, where a list of (epoch, loss, loss) tuples held about 140.
    data = {0: RngStream(20).normal(size=(12, 2)), 1: RngStream(21).normal(size=(10, 2)) + 2.0}
    rngs = {0: RngStream(22), 1: RngStream(23)}
    config = replace(TINY, pretrain_epochs=2, epochs=2000)
    train_gan(data, replace(config, epochs=2), rngs)  # lazy imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        models = train_gan(data, config, rngs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Every parameter vector is a view of one of a few owned arrays.
    owners = {
        id(owner): owner.nbytes
        for m in models.values()
        for flat in (m.generator.encoder.flat, m.generator.decoder.flat, m.discriminator.flat)
        for owner in [flat if flat.base is None else flat.base]
    }
    slack = 32 * 1024  # the models' Python objects: about 14 KiB
    assert retained <= 16 * config.epochs * len(data) + sum(owners.values()) + slack
