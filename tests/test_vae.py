"""VAE: analytic KL, reparameterized gradients vs finite differences, training."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench.nncore import MlpStack
from augbench.rng import RngStream
from augbench.vae import (
    VaeConfig,
    VaeModel,
    _vae_losses,
    augment_with_vae,
    init_vae,
    kl_divergence,
    sample_vae,
    train_vae,
    vae_loss,
)
from conftest import (
    central_difference, class_datasets, max_relative_error, ref_train_vae, with_arrays,
)


def train_one(data, config, rng):
    """`train_vae` on one class."""
    return train_vae({0: data}, config, {0: rng})[0]


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


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32), beta=st.sampled_from([0.0, 0.7, 1.0]))
def test_vae_loss_equals_it_through_one_network_stacks(n, seed, beta):
    """A lone model's loss and gradients are those of its networks
    stacked one apiece, as `train_vae` trains them."""
    model = small_model(seed % 1000)
    rng = RngStream(seed, ("vae-stack",))
    batch = rng.derive("x").normal(size=(n, 3))
    eps = rng.derive("eps").normal(size=(n, 2))
    loss, (enc_g, dec_g) = vae_loss(model, batch, eps=eps, beta=beta)
    stacked = VaeModel(MlpStack([model.encoder], [n]), MlpStack([model.decoder], [n]),
                       model.latent_dim, np.empty(0))
    [stack_loss], ([stack_enc_g], [stack_dec_g]) = _vae_losses(stacked, batch, eps, beta, None)
    assert loss == stack_loss
    for a, b in zip(enc_g + dec_g, stack_enc_g + stack_dec_g, strict=True):
        assert np.array_equal(a, b)


def test_vae_loss_rejects_wrong_width():
    model = small_model()
    with pytest.raises(ValueError):
        vae_loss(model, np.zeros((2, 5)), eps=np.zeros((2, 2)))


def test_training_reduces_loss():
    rng = RngStream(3, ("train",))
    data = rng.derive("x").normal(size=(60, 3)) + np.array([2.0, -1.0, 0.5])
    cfg = VaeConfig(epochs=300)
    model = train_one(data, cfg, rng.derive("fit"))
    assert model.loss_history.shape == (300,)
    first = model.loss_history[0]
    last = model.loss_history[-1]
    assert last < first * 0.5


def test_training_is_deterministic():
    data = RngStream(4).normal(size=(20, 2))
    cfg = VaeConfig(epochs=20)
    a = train_one(data, cfg, RngStream(7, ("fit",)))
    b = train_one(data, cfg, RngStream(7, ("fit",)))
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
        train_one(np.zeros((1, 3)), VaeConfig(epochs=1), RngStream(0))
    with pytest.raises(ValueError):
        train_one(np.zeros((5, 0)), VaeConfig(epochs=1), RngStream(0))
    with pytest.raises(ValueError, match="at least one class"):
        train_vae({}, VaeConfig(epochs=1), {})


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
    model = train_one(data, cfg, RngStream(10, ("fit",)))
    ref = init_vae(3, cfg, RngStream(10, ("fit",)).derive("init"))
    for a, b in zip(model.encoder.arrays() + model.decoder.arrays(),
                    ref.encoder.arrays() + ref.decoder.arrays()):
        np.testing.assert_array_equal(a, b)
    assert model.loss_history.shape == (1,)


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
    model = train_one(data, VaeConfig(epochs=200), rng.derive("fit"))
    samples = sample_vae(model, 1000, rng.derive("sample"))
    assert abs(samples.mean()) < 0.5


def test_train_vae_equals_the_plain_formula_loop_bit_for_bit():
    data = RngStream(12).normal(size=(25, 3)) * 2.0 + 1.0
    config = VaeConfig(hidden_size=6, latent_dim=2, epochs=40, beta=0.8)
    model = train_one(data, config, RngStream(13, ("vae",)))
    ref = ref_train_vae(data, config, RngStream(13, ("vae",)))
    assert np.array_equal(model.encoder.flat, ref.encoder.flat)
    assert np.array_equal(model.decoder.flat, ref.decoder.flat)
    assert model.loss_history.shape == ref.loss_history.shape == (40,)
    assert np.array_equal(model.loss_history, ref.loss_history)


@settings(max_examples=40, deadline=None)
@given(
    datasets=class_datasets(),
    epochs=st.integers(0, 6),
    hidden=st.integers(1, 6),
    latent=st.integers(1, 3),
    beta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_lockstep_vaes_equal_each_class_trained_alone(datasets, epochs, hidden, latent, beta):
    data, rngs = datasets
    config = VaeConfig(hidden_size=hidden, latent_dim=latent, epochs=epochs,
                       learning_rate=5e-3, beta=beta)
    models = train_vae(data, config, rngs)
    assert list(models) == list(data)
    for c, model in models.items():
        ref = ref_train_vae(data[c], config, rngs[c])
        assert np.array_equal(model.encoder.flat, ref.encoder.flat)
        assert np.array_equal(model.decoder.flat, ref.decoder.flat)
        assert model.loss_history.shape == ref.loss_history.shape == (max(epochs, 1),)
        assert np.array_equal(model.loss_history, ref.loss_history)
