"""Per-class apportionment and the shared augmentation scaffolding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from augbench.augment import augment_per_class, largest_remainder_counts
from augbench.rng import RngStream


def test_largest_remainder_exact_cases():
    assert largest_remainder_counts({0: 3, 1: 1}, 200) == {0: 150, 1: 50}
    assert largest_remainder_counts({0: 2, 1: 1}, 10) == {0: 7, 1: 3}
    assert largest_remainder_counts({0: 1, 1: 1, 2: 1}, 2) == {0: 1, 1: 1, 2: 0}
    assert largest_remainder_counts({0: 5, 1: 5}, 0) == {0: 0, 1: 0}
    with pytest.raises(ValueError):
        largest_remainder_counts({0: 1}, -1)


@given(
    counts=st.dictionaries(st.integers(0, 5), st.integers(1, 50), min_size=1, max_size=4),
    total=st.integers(0, 500),
)
def test_largest_remainder_sums_exactly_and_stays_proportional(counts, total):
    out = largest_remainder_counts(counts, total)
    assert sum(out.values()) == total
    n = sum(counts.values())
    for c, k in counts.items():
        assert abs(out[c] - total * k / n) < 1.0  # within one row of the quota


def test_augment_per_class_routes_streams_and_stacks_rows():
    X = np.arange(12, dtype=float).reshape(6, 2)
    y = np.array([0, 0, 0, 0, 1, 1])
    seen = {}

    def fit(data, streams):
        seen.update({streams[c].path: len(x) for c, x in data.items()})
        return {c: x[0, 0] for c, x in data.items()}  # "models" naming each first row

    def sample(model, n, stream):
        return np.full((n, 2), model + 10.0)

    Xa, ya, prov = augment_per_class(X, y, 3, fit, sample, RngStream(0, ("t",)), "gmm")
    assert seen == {("t", "fit-class0"): 4, ("t", "fit-class1"): 2}
    assert prov.per_class_counts == {0: 2, 1: 1}
    np.testing.assert_array_equal(Xa[:6], X)
    np.testing.assert_array_equal(Xa[6:], [[10, 10], [10, 10], [18, 18]])
    np.testing.assert_array_equal(ya, [0, 0, 0, 0, 1, 1, 0, 0, 1])
    assert prov.generator == "gmm"
    assert list(prov.models) == [0, 1]


def test_augment_per_class_zero_synthetic_copies_input():
    X = np.ones((4, 2))
    y = np.array([0, 0, 1, 1])
    Xa, ya, prov = augment_per_class(
        X, y, 0, lambda d, s: dict.fromkeys(d), lambda m, n, s: np.zeros((n, 2)),
        RngStream(0), "vae",
    )
    np.testing.assert_array_equal(Xa, X)
    assert Xa is not X  # a copy, so callers cannot alias the training set
    assert prov.n_synthetic == 0
    assert not prov.synthetic_mask.any()


def test_augment_per_class_requires_both_classes():
    with pytest.raises(ValueError):
        augment_per_class(
            np.ones((3, 1)), np.zeros(3, dtype=int), 5,
            lambda d, s: dict.fromkeys(d), lambda m, n, s: np.zeros((n, 1)),
            RngStream(0), "gmm",
        )
