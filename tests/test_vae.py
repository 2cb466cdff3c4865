"""VAE: analytic KL, reparameterized gradients vs finite differences, training."""

import numpy as np
import pytest

from augbench.nncore import AdamState, MlpParams
from augbench.rng import RngStream
from augbench.vae import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    VaeConfig,
    augment_with_vae,
    init_vae,
    kl_divergence,
    sample_vae,
    train_vae,
    vae_loss,
)
from conftest import (
    central_difference, flat, max_relative_error, ref_adam_step, ref_backward, ref_forward,
    with_arrays,
)


def small_model(seed=0, d=3, hidden=4, latent=2):
    cfg = VaeConfig(hidden_size=hidden, latent_dim=latent)
    return init_vae(d, cfg, RngStream(seed, ("vae-test",)))


def test_kl_zero_at_standard_normal_posterior():
    mu = np.zeros((4, 2))
    logvar = np.zeros((4, 2))
    np.testing.assert_allclose(kl_divergence(mu, logvar), 0.0, atol=1e-15)


def test_kl_known_value_and_nonnegativity():
    # Single dimension, mu=1, var=4: KL = (1 + 4 - 1 - ln 4)/2 = 2 - ln 2.
    val = kl_divergence(np.array([[1.0]]), np.array([[np.log(4.0)]]))
    assert val[0] == pytest.approx(2.0 - np.log(2.0))
    rng = np.random.default_rng(0)
    mu = rng.normal(size=(50, 3))
    logvar = rng.normal(size=(50, 3))
    assert np.all(kl_divergence(mu, logvar) >= 0.0)


def test_vae_loss_gradients_match_finite_differences():
    model = small_model()
    rng = RngStream(1, ("data",))
    batch = rng.derive("x").normal(size=(5, 3))
    eps = rng.derive("eps").normal(size=(5, 2))

    def loss_fn(arrays):
        n_enc = len(model.encoder.arrays())
        m = small_model()
        m.encoder = with_arrays(m.encoder, arrays[:n_enc])
        m.decoder = with_arrays(m.decoder, arrays[n_enc:])
        return vae_loss(m, batch, eps=eps, beta=0.7)[0]

    _, (enc_g, dec_g) = vae_loss(model, batch, eps=eps, beta=0.7)
    arrays = model.encoder.arrays() + model.decoder.arrays()
    numeric = central_difference(loss_fn, arrays)
    assert max_relative_error(enc_g + dec_g, numeric) < 1e-6


def test_vae_loss_includes_weighted_kl():
    model = small_model()
    batch = RngStream(2).normal(size=(6, 3))
    eps = np.zeros((6, 2))
    l0 = vae_loss(model, batch, eps=eps, beta=0.0)[0]
    l1 = vae_loss(model, batch, eps=eps, beta=1.0)[0]
    l2 = vae_loss(model, batch, eps=eps, beta=2.0)[0]
    assert l1 >= l0  # KL is nonnegative
    assert l2 - l1 == pytest.approx(l1 - l0)  # linear in beta


def test_vae_loss_rejects_wrong_width_and_missing_noise():
    model = small_model()
    with pytest.raises(ValueError):
        vae_loss(model, np.zeros((2, 5)), eps=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        vae_loss(model, np.zeros((2, 3)))  # neither rng nor eps


def test_training_reduces_loss():
    rng = RngStream(3, ("train",))
    data = rng.derive("x").normal(size=(60, 3)) + np.array([2.0, -1.0, 0.5])
    cfg = VaeConfig(epochs=300)
    model = train_vae(data, cfg, rng.derive("fit"))
    assert len(model.loss_history) == 300
    first = model.loss_history[0][1]
    last = model.loss_history[-1][1]
    assert last < first * 0.5


def test_training_is_deterministic():
    data = RngStream(4).normal(size=(20, 2))
    cfg = VaeConfig(epochs=20)
    a = train_vae(data, cfg, RngStream(7, ("fit",)))
    b = train_vae(data, cfg, RngStream(7, ("fit",)))
    for x, y in zip(a.decoder.arrays(), b.decoder.arrays()):
        np.testing.assert_array_equal(x, y)


def test_sampling_shapes_and_determinism():
    model = small_model()
    s1 = sample_vae(model, 50, RngStream(8, ("s",)))
    s2 = sample_vae(model, 50, RngStream(8, ("s",)))
    np.testing.assert_array_equal(s1, s2)
    assert s1.shape == (50, 3)
    assert sample_vae(model, 0, RngStream(0)).shape == (0, 3)
    with pytest.raises(ValueError):
        sample_vae(model, -2, RngStream(0))


def test_train_vae_input_validation():
    with pytest.raises(ValueError):
        train_vae(np.zeros((1, 3)), VaeConfig(epochs=1), RngStream(0))
    with pytest.raises(ValueError):
        train_vae(np.zeros((5, 0)), VaeConfig(epochs=1), RngStream(0))


def test_augment_with_vae_counts():
    rng = RngStream(5, ("aug",))
    X = rng.derive("x").normal(size=(24, 2))
    y = np.array([0] * 16 + [1] * 8)
    cfg = VaeConfig(epochs=10)
    Xa, ya, prov = augment_with_vae(X, y, 9, cfg, rng.derive("run"))
    assert prov.per_class_counts == {0: 6, 1: 3}
    assert len(ya) == 33
    assert prov.generator == "vae"


def test_kl_unit_case():
    # mu = 1, sigma = 1 in one dimension: KL = 0.5.
    assert kl_divergence(np.array([[1.0]]), np.array([[0.0]]))[0] == pytest.approx(0.5)


def test_zero_epochs_returns_initialization_with_one_loss_entry():
    data = RngStream(10).normal(size=(10, 3))
    cfg = VaeConfig(epochs=0)
    model = train_vae(data, cfg, RngStream(10, ("fit",)))
    ref = init_vae(3, cfg, RngStream(10, ("fit",)).derive("init"))
    for a, b in zip(model.encoder.arrays() + model.decoder.arrays(),
                    ref.encoder.arrays() + ref.decoder.arrays()):
        np.testing.assert_array_equal(a, b)
    assert len(model.loss_history) == 1


def test_zero_weight_decoder_samples_equal_bias():
    model = small_model()
    for layer in model.decoder.layers:
        layer.weights[:] = 0.0
    model.decoder.layers[-1].bias[:] = [1.0, 2.0, 3.0]
    s = sample_vae(model, 10, RngStream(11))
    np.testing.assert_allclose(s, np.tile([1.0, 2.0, 3.0], (10, 1)))


def test_trained_sampler_tracks_the_data_location():
    rng = RngStream(12, ("loc",))
    data = 0.1 * rng.derive("x").normal(size=(100, 1))  # concentrated near 0
    model = train_vae(data, VaeConfig(epochs=200), rng.derive("fit"))
    samples = sample_vae(model, 1000, rng.derive("sample"))
    assert abs(samples.mean()) < 0.5


def _reference_train_vae(data, config, rng):
    """`train_vae` on the plain formulas: np.clip, np.mean, np.hstack, the
    reconstruction residual computed twice and a full encoder backward.
    Returns (encoder and decoder vector, loss history)."""
    model = init_vae(data.shape[1], config, rng.derive("init"))
    noise = rng.derive("noise")
    n_enc = model.encoder.flat.size
    params = np.concatenate([model.encoder.flat, model.decoder.flat])
    enc = MlpParams(model.encoder.layers, params[:n_enc])
    dec = MlpParams(model.decoder.layers, params[n_enc:])
    state = AdamState.for_params(params, alpha=config.learning_rate)
    n, L, beta = len(data), config.latent_dim, config.beta
    history = []
    for epoch in range(config.epochs):
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
        history.append((epoch, recon_loss + beta * float(kl.mean())))
        dec_grads, dz = ref_backward(dec, dec_acts, 2.0 * (recon - data) / n)
        d_mu = dz + beta * mu / n
        d_logvar = dz * eps * 0.5 * sigma + beta * 0.5 * (np.exp(logvar) - 1.0) / n
        enc_grads, _ = ref_backward(enc, enc_acts, np.hstack([d_mu, d_logvar * clamp_ok]))
        ref_adam_step(params, flat(enc_grads + dec_grads), state)
    return params, history


def test_train_vae_equals_the_plain_formula_loop_bit_for_bit():
    data = RngStream(12).normal(size=(25, 3)) * 2.0 + 1.0
    config = VaeConfig(hidden_size=6, latent_dim=2, epochs=40, beta=0.8)
    model = train_vae(data, config, RngStream(13, ("vae",)))
    params, history = _reference_train_vae(data, config, RngStream(13, ("vae",)))
    assert np.array_equal(np.concatenate([model.encoder.flat, model.decoder.flat]), params)
    assert model.loss_history == history
