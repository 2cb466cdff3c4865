"""CSV ingestion, preprocessing plans and stratified splitting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from augbench.dataio import (
    DataError,
    apply_preprocess,
    fit_preprocess,
    load_table,
    stratified_split,
)
from augbench.rng import RngStream

HEADER = "user_id,gender,age,salary,purchased\n"


def write(tmp_path, body, name="d.csv"):
    p = tmp_path / name
    p.write_text(HEADER + body)
    return p


def test_load_table_happy_path(tmp_path, schema):
    p = write(tmp_path, "1,Male,30,50000,0\n2,Female,45,90000,1\n")
    t = load_table(p, schema)
    assert len(t.rows) == 2
    assert t.dropped_row_count == 0
    assert t.column("age") == ["30", "45"]
    assert t.label_index == 4


def test_load_table_drops_bad_rows(tmp_path, schema):
    body = (
        "1,Male,30,50000,0\n"
        "2,Female,notanumber,90000,1\n"  # bad numeric
        "3,Male,40,80000,2\n"  # label outside {0,1}
        "4,Male,40,80000\n"  # wrong cell count
        "5,Female,50,70000,1\n"
    )
    t = load_table(write(tmp_path, body), schema)
    assert len(t.rows) == 2
    assert t.dropped_row_count == 3


def test_load_table_errors(tmp_path, schema):
    with pytest.raises(DataError, match="not found"):
        load_table(tmp_path / "missing.csv", schema)
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="header mismatch"):
        load_table(bad_header, schema)
    with pytest.raises(DataError, match="zero usable rows"):
        load_table(write(tmp_path, "1,Male,x,50000,0\n"), schema)
    with pytest.raises(DataError, match="label"):
        load_table(write(tmp_path, ""), {"user_id": "identifier"})
    with pytest.raises(DataError, match="unknown column kind"):
        load_table(write(tmp_path, ""), {"user_id": "uuid", "purchased": "label"})


def test_fit_preprocess_population_stats_and_category_order(tmp_path, schema):
    p = write(tmp_path, "1,Male,20,50000,0\n2,Female,30,50000,1\n3,Male,40,80000,0\n")
    plan = fit_preprocess(load_table(p, schema))
    mean, std = plan.numeric_stats["age"]
    assert mean == pytest.approx(30.0)
    assert std == pytest.approx(np.std([20, 30, 40]))  # divide-by-n
    # Categories indexed by first appearance.
    assert plan.category_maps["gender"] == {"Male": 0, "Female": 1}
    assert plan.feature_order == ["gender=Male", "gender=Female", "age", "salary"]


def test_zero_variance_column_excluded(tmp_path, schema):
    p = write(tmp_path, "1,Male,30,50000,0\n2,Female,30,90000,1\n")
    plan = fit_preprocess(load_table(p, schema))
    assert "age" in plan.excluded_columns
    assert "age" not in plan.feature_order


def test_apply_preprocess_zscores_and_one_hot(tmp_path, schema):
    p = write(tmp_path, "1,Male,20,50000,0\n2,Female,40,90000,1\n")
    t = load_table(p, schema)
    plan = fit_preprocess(t)
    X, y = apply_preprocess(t, plan)
    np.testing.assert_array_equal(y, [0, 1])
    age_col = plan.feature_order.index("age")
    np.testing.assert_allclose(X[:, age_col], [-1.0, 1.0])
    male = plan.feature_order.index("gender=Male")
    female = plan.feature_order.index("gender=Female")
    np.testing.assert_array_equal(X[:, male], [1.0, 0.0])
    np.testing.assert_array_equal(X[:, female], [0.0, 1.0])


def test_apply_preprocess_unseen_category_zero_block(tmp_path, schema):
    train = load_table(write(tmp_path, "1,Male,20,50000,0\n2,Male,40,90000,1\n"), schema)
    plan = fit_preprocess(train)
    other = load_table(
        write(tmp_path, "3,Female,30,60000,0\n4,Male,35,70000,1\n", "o.csv"), schema
    )
    X, _ = apply_preprocess(other, plan)
    male = plan.feature_order.index("gender=Male")
    assert X[0, male] == 0.0  # unseen Female -> all-zero block
    assert X[1, male] == 1.0


def test_fixture_loads_cleanly(fixture_csv, schema):
    t = load_table(fixture_csv, schema)
    assert len(t.rows) == 400
    assert t.dropped_row_count == 0
    labels = [r[t.label_index] for r in t.rows]
    assert labels.count("1") == 144 and labels.count("0") == 256


def test_stratified_split_proportions_and_disjointness():
    y = np.array([0] * 80 + [1] * 20)
    pair = stratified_split(y, 0.25, RngStream(0, ("split",)))
    assert len(pair.test_indices) == 25
    assert np.sum(y[pair.test_indices]) == 5  # 25% of each class
    assert len(np.intersect1d(pair.train_indices, pair.test_indices)) == 0
    union = np.union1d(pair.train_indices, pair.test_indices)
    np.testing.assert_array_equal(union, np.arange(100))


def test_stratified_split_deterministic():
    y = np.array([0, 1] * 20)
    a = stratified_split(y, 0.3, RngStream(5, ("s",)))
    b = stratified_split(y, 0.3, RngStream(5, ("s",)))
    np.testing.assert_array_equal(a.test_indices, b.test_indices)


def test_stratified_split_errors():
    with pytest.raises(DataError):
        stratified_split(np.zeros(10, dtype=int), 0.25, RngStream(0))
    with pytest.raises(DataError):
        stratified_split(np.array([0] * 9 + [1]), 0.25, RngStream(0))  # 1-row class
    with pytest.raises(DataError):
        stratified_split(np.array([0, 1] * 5), 1.5, RngStream(0))


@given(
    n0=st.integers(2, 40),
    n1=st.integers(2, 40),
    frac=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32),
)
def test_split_always_leaves_both_classes_on_both_sides(n0, n1, frac, seed):
    y = np.array([0] * n0 + [1] * n1)
    pair = stratified_split(y, frac, RngStream(seed))
    for idx in (pair.train_indices, pair.test_indices):
        assert set(np.unique(y[idx])) == {0, 1}
