"""The pairwise layer: squared distances, the RBF kernel and the KNN
ranking equal their one-expression oracles bit for bit, and hold one
n x m float64 array and nothing else of that size."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from augbench.classifiers.base import ROW_BLOCK, sq_distances
from augbench.classifiers.knn import NeighbourMemo
from augbench.classifiers.svm_rbf import rbf_kernel
from augbench.rng import RngStream
from conftest import ref_neighbours, ref_rbf_kernel, ref_sq_distances

# Around the row block: empty, one row, one block less one, one, plus one.
ROWS = [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 300]


@st.composite
def query_and_train(draw):
    """Small-integer rows, scaled by 1 or 1/3, with repeated rows, so many
    distances tie; the query and training sets differ in length."""
    n_query = draw(st.sampled_from(ROWS))
    n_train = draw(st.sampled_from([n for n in ROWS if n not in (0, n_query)]))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 3.0]))
    train = rng.integers(-3, 4, size=(n_train, d)) / scale
    train[rng.integers(0, n_train, size=n_train // 3)] = train[0]
    query = rng.integers(-3, 4, size=(n_query, d)) / scale
    # Some queries repeat training rows: zero distances, tied with each other.
    shared = rng.integers(0, n_query + 1)
    query[:shared] = train[rng.integers(0, n_train, size=shared)]
    return query, train


@settings(max_examples=60, deadline=None)
@given(data=query_and_train(), gamma=st.sampled_from([0.1, 0.5, 1.0 / 3.0]),
       k_max=st.sampled_from([1, 3, 11, 400]))
def test_pairwise_functions_equal_their_oracles(data, gamma, k_max):
    query, train = data
    assert np.array_equal(sq_distances(query, train), ref_sq_distances(query, train))
    assert np.array_equal(rbf_kernel(query, train, gamma), ref_rbf_kernel(query, train, gamma))
    nearest, d2 = NeighbourMemo(train, k_max).neighbours(query)
    ref_nearest, ref_d2 = ref_neighbours(train, k_max, query)
    assert nearest.dtype == ref_nearest.dtype
    assert np.array_equal(nearest, ref_nearest)
    assert np.array_equal(d2, ref_d2)


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


N = 300
# One N x N float64 array, and a few ROW_BLOCK x N and N x d ones beside it.
ONE_ARRAY = N * N * 8
SMALL = 3 * ROW_BLOCK * N * 8


def _rows(name: str, d: int = 3) -> np.ndarray:
    return RngStream(4, ("pairwise-memory", name)).normal(size=(N, d))


def test_sq_distances_and_rbf_kernel_hold_one_n_by_n_array():
    A, B = _rows("a"), _rows("b")
    assert _peak_bytes(sq_distances, A, B) <= ONE_ARRAY + SMALL
    assert _peak_bytes(rbf_kernel, A, B, 0.5) <= ONE_ARRAY + SMALL


def test_neighbours_build_no_full_ranking():
    # The full ranking of 300 queries is an N x N int64 array beside the
    # distances; sorted by row blocks, it is never built.
    memo = NeighbourMemo(_rows("train"), 11)
    assert _peak_bytes(memo.neighbours, _rows("query")) <= ONE_ARRAY + SMALL
