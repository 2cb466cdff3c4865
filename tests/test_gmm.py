"""EM behavior: monotone likelihood, valid responsibilities, sane samples."""

import numpy as np
import pytest

from augbench.gmm import (
    GmmConfig,
    _e_step,
    augment_with_gmm,
    fit_gmm,
    fit_gmm_bic,
    sample_gmm,
)
from augbench import gmm as gmm_module
from augbench.rng import RngStream


def two_blob_data(rng, n=120, sep=6.0):
    a = rng.derive("a").normal(size=(n // 2, 2))
    b = rng.derive("b").normal(size=(n - n // 2, 2)) + sep
    return np.vstack([a, b])


def test_log_likelihood_monotone_on_blobs():
    data = two_blob_data(RngStream(0, ("blobs",)))
    model = fit_gmm(data, 2, rng=RngStream(0, ("fit",)))
    ll = np.array(model.log_likelihood_history)
    assert len(ll) >= 2
    assert np.min(np.diff(ll)) >= -1e-8


def test_responsibilities_are_a_distribution():
    data = two_blob_data(RngStream(1, ("blobs",)))
    model = fit_gmm(data, 3, rng=RngStream(1, ("fit",)))
    resp, ll = _e_step(data, model)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(resp >= 0.0)
    assert np.isfinite(ll)


def test_recovers_separated_means():
    data = two_blob_data(RngStream(2, ("blobs",)), n=200, sep=8.0)
    model = fit_gmm(data, 2, rng=RngStream(2, ("fit",)))
    means = model.means[np.argsort(model.means[:, 0])]
    np.testing.assert_allclose(means[0], [0, 0], atol=0.5)
    np.testing.assert_allclose(means[1], [8, 8], atol=0.5)
    np.testing.assert_allclose(model.weights.sum(), 1.0, atol=1e-9)


def test_component_count_reduced_on_degenerate_data():
    data = np.tile([[1.0, 2.0], [3.0, 4.0]], (10, 1))  # 2 distinct rows
    model = fit_gmm(data, 5, rng=RngStream(0))
    assert model.n_components <= 2


def test_single_component_matches_sample_moments():
    rng = RngStream(3, ("gauss",))
    data = rng.normal(size=(500, 2)) * np.array([2.0, 0.5]) + np.array([1.0, -1.0])
    model = fit_gmm(data, 1, rng=RngStream(3, ("fit",)))
    np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-8)
    np.testing.assert_allclose(
        model.covariances[0], np.cov(data.T, bias=True) + 1e-6 * np.eye(2), atol=1e-9
    )


def test_sampling_statistics_and_determinism():
    data = two_blob_data(RngStream(4, ("blobs",)), n=200)
    model = fit_gmm(data, 2, rng=RngStream(4, ("fit",)))
    s1 = sample_gmm(model, 2000, RngStream(9, ("sample",)))
    s2 = sample_gmm(model, 2000, RngStream(9, ("sample",)))
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_allclose(s1.mean(axis=0), data.mean(axis=0), atol=0.3)
    assert sample_gmm(model, 0, RngStream(0)).shape == (0, 2)
    with pytest.raises(ValueError):
        sample_gmm(model, -1, RngStream(0))


def test_bic_prefers_two_components_on_two_blobs():
    data = two_blob_data(RngStream(5, ("blobs",)), n=200, sep=8.0)
    model = fit_gmm_bic(data, 4, GmmConfig(), RngStream(5, ("bic",)))
    assert model.n_components == 2


@pytest.mark.parametrize("n_components, bic_k_max, expected", [(1, 3, 2), (3, 1, 1)])
def test_augment_with_bic_searches_up_to_bic_k_max(n_components, bic_k_max, expected,
                                                   monkeypatch):
    # Class 1 is two blobs. With select_k_bic, each class is fit at every K
    # in 1..bic_k_max, whatever n_components says, and keeps the lowest BIC.
    asked = []
    fit = gmm_module.fit_gmm
    monkeypatch.setattr(gmm_module, "fit_gmm",
                        lambda data, k, *args: asked.append(k) or fit(data, k, *args))
    rng = RngStream(7, ("aug-bic",))
    X = np.vstack([rng.derive("x0").normal(size=(100, 2)),
                   two_blob_data(rng.derive("x1"), n=200, sep=8.0)])
    y = np.array([0] * 100 + [1] * 200)
    config = GmmConfig(n_components=n_components, select_k_bic=True, bic_k_max=bic_k_max)
    _, _, prov = augment_with_gmm(X, y, 12, config, rng.derive("run"))
    assert asked == [*range(1, bic_k_max + 1)] * 2
    assert prov.models[0].n_components == 1
    assert prov.models[1].n_components == expected


def test_augment_with_gmm_counts_and_mask():
    rng = RngStream(6, ("aug",))
    X = np.vstack([rng.derive("x0").normal(size=(30, 2)),
                   rng.derive("x1").normal(size=(10, 2)) + 5])
    y = np.array([0] * 30 + [1] * 10)
    Xa, ya, prov = augment_with_gmm(X, y, 20, rng=rng.derive("run"))
    assert len(ya) == 60
    assert prov.per_class_counts == {0: 15, 1: 5}  # proportional to 30:10
    assert prov.synthetic_mask.sum() == 20
    assert not prov.synthetic_mask[:40].any()
    np.testing.assert_array_equal(Xa[:40], X)
    np.testing.assert_array_equal(ya[prov.synthetic_mask],
                                  [0] * 15 + [1] * 5)


def test_two_point_one_dimensional_recovery():
    # Tight clusters at +/-1. The random-responsibility init starts near the
    # symmetric single-Gaussian saddle, so a loose tolerance would stop
    # before symmetry breaks; 1e-10 lets EM walk off the plateau.
    rng = RngStream(7, ("pm1",))
    data = np.concatenate([
        -1.0 + 0.05 * rng.derive("lo").normal(size=20),
        1.0 + 0.05 * rng.derive("hi").normal(size=20),
    ])[:, None]
    cfg = GmmConfig(n_components=2, tol=1e-10, max_iter=1000)
    model = fit_gmm(data, 2, cfg, rng.derive("fit"))
    means = np.sort(model.means[:, 0])
    np.testing.assert_allclose(means, [-1.0, 1.0], atol=0.05)
    resp, _ = _e_step(data, model)
    assert np.all(resp.max(axis=1) > 0.99)  # effectively one-hot
