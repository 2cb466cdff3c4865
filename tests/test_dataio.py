"""CSV ingestion, preprocessing plans and stratified splitting."""

import tempfile
from pathlib import Path

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
    assert list(t.columns) == ["gender", "age", "salary"]  # identifier dropped
    assert t.dropped_row_count == 0
    np.testing.assert_array_equal(t.columns["age"], [30.0, 45.0])
    assert t.columns["age"].dtype == np.float64
    assert t.columns["gender"].tolist() == ["Male", "Female"]
    np.testing.assert_array_equal(t.labels, [0, 1])


def test_load_table_drops_bad_rows(tmp_path, schema):
    body = (
        "1,Male,30,50000,0\n"
        "2,Female,notanumber,90000,1\n"  # bad numeric
        "3,Male,40,80000,2\n"  # label outside {0,1}
        "4,Male,40,80000\n"  # wrong cell count
        "5,Female,50,70000,1\n"
    )
    t = load_table(write(tmp_path, body), schema)
    np.testing.assert_array_equal(t.columns["age"], [30.0, 50.0])
    np.testing.assert_array_equal(t.labels, [0, 1])
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


def test_apply_preprocess_unseen_category_zero_block(tmp_path, schema, caplog):
    train = load_table(write(tmp_path, "1,Male,20,50000,0\n2,Male,40,90000,1\n"), schema)
    plan = fit_preprocess(train)
    other = load_table(
        write(tmp_path, "3,Female,30,60000,0\n4,Male,35,70000,1\n5,Female,25,40000,1\n",
              "o.csv"),
        schema,
    )
    X, _ = apply_preprocess(other, plan)
    male = plan.feature_order.index("gender=Male")
    np.testing.assert_array_equal(X[:, male], [0.0, 1.0, 0.0])  # unseen Female -> zeros
    assert [r.getMessage() for r in caplog.records if "unseen" in r.getMessage()] == [
        "unseen category 'Female' in column 'gender' -> zero block"  # once per value
    ]


def test_fixture_loads_cleanly(fixture_csv, schema):
    t = load_table(fixture_csv, schema)
    assert len(t.labels) == 400
    assert t.dropped_row_count == 0
    assert np.sum(t.labels == 1) == 144 and np.sum(t.labels == 0) == 256


def test_byte_order_mark_loads_as_the_fixture(fixture_csv, schema, tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark,
    # which is not part of the first column's name.
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + fixture_csv.read_bytes())
    t, expected = load_table(bom, schema), load_table(fixture_csv, schema)
    assert list(t.columns) == list(expected.columns)
    for name, col in expected.columns.items():
        np.testing.assert_array_equal(t.columns[name], col)
    np.testing.assert_array_equal(t.labels, expected.labels)
    assert t.dropped_row_count == expected.dropped_row_count


def test_blank_lines_are_skipped_not_dropped(fixture_csv, schema, tmp_path):
    # A blank line is no record: it neither counts as dropped nor moves a row.
    lines = fixture_csv.read_text().splitlines(keepends=True)
    blank = tmp_path / "blank.csv"
    blank.write_text("".join(lines[:200]) + "\n" + "".join(lines[200:]) + "\n\n")
    t, expected = load_table(blank, schema), load_table(fixture_csv, schema)
    assert t.dropped_row_count == 0
    assert list(t.columns) == list(expected.columns)
    for name, col in expected.columns.items():
        np.testing.assert_array_equal(t.columns[name], col)
    np.testing.assert_array_equal(t.labels, expected.labels)


def test_whitespace_only_lines_are_skipped_a_line_with_a_separator_is_not(
        fixture_csv, schema, tmp_path):
    padded = tmp_path / "padded.csv"
    padded.write_text(fixture_csv.read_text() + "   \n\t\n")
    t = load_table(padded, schema)
    assert (len(t.labels), t.dropped_row_count) == (400, 0)
    padded.write_text(fixture_csv.read_text() + " , \n")
    t = load_table(padded, schema)
    assert (len(t.labels), t.dropped_row_count) == (400, 1)


def test_a_file_that_is_not_utf8_names_its_path(fixture_csv, schema, tmp_path):
    # The fixture's first "Male", written as Latin-1 "M\xe4le".
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(fixture_csv.read_bytes().replace(b"Male", b"M\xe4le", 1))
    with pytest.raises(DataError) as error:
        load_table(latin1, schema)
    assert str(error.value) == (
        f"dataset {latin1} is not UTF-8 text: byte 0xe4 (invalid continuation byte)"
    )


ID, LABEL = "row_id", "target"
CATEGORIES = ("a", "b", "c", "Male", "x y")
BAD_NUMBERS = ("abc", "nan", "inf", "-inf", "")
BAD_LABELS = ("2", "-1", "", "yes", "1.0")


@st.composite
def csv_with_bad_rows(draw):
    """A shuffled schema with an identifier, categorical and numeric
    columns and a label; CSV lines with some bad rows mixed in; the good
    rows in file order; and a nonempty set of training rows among them."""
    n_cat, n_num = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    cats = [f"c{j}" for j in range(n_cat)]
    nums = [f"x{j}" for j in range(n_num)]
    kinds = {ID: "identifier", LABEL: "label"}
    kinds.update({c: "categorical" for c in cats})
    kinds.update({x: "numeric" for x in nums})
    schema = {name: kinds[name] for name in draw(st.permutations(list(kinds)))}

    def row(k):
        r = {ID: str(k), LABEL: draw(st.sampled_from("01"))}
        r.update({c: draw(st.sampled_from(CATEGORIES)) for c in cats})
        r.update({x: str(draw(st.integers(-4000, 4000)) / 4) for x in nums})
        return r

    lines, good = [], []
    for k in range(draw(st.integers(1, 30))):
        r = row(k)
        fault = draw(st.sampled_from([None, None, None, "number", "label", "count"]))
        if fault == "number":
            r[draw(st.sampled_from(nums))] = draw(st.sampled_from(BAD_NUMBERS))
        elif fault == "label":
            r[LABEL] = draw(st.sampled_from(BAD_LABELS))
        cells = [r[name] for name in schema]
        if fault == "count":
            cells = draw(st.sampled_from([cells[:-1], cells + ["extra"]]))
        if fault is None:
            good.append(r)
        lines.append(",".join(cells))
    if not good:
        good.append(row(len(lines)))
        lines.append(",".join(good[-1][name] for name in schema))
    train = draw(st.sets(st.integers(0, len(good) - 1), min_size=1))
    return schema, lines, good, np.array(sorted(train))


@given(csv_with_bad_rows())
def test_table_drops_bad_rows_and_preprocesses_on_training_rows(case):
    schema, lines, good, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(",".join(schema) + "\n" + "\n".join(lines) + "\n")
        table = load_table(path, schema)

    assert table.dropped_row_count == len(lines) - len(good)
    np.testing.assert_array_equal(table.labels, [int(r[LABEL]) for r in good])
    plan = fit_preprocess(table.take(rows))
    X, y = apply_preprocess(table, plan)
    np.testing.assert_array_equal(y, table.labels)

    numeric = [n for n, k in schema.items() if k == "numeric"]
    assert sorted([*plan.numeric_stats, *plan.excluded_columns]) == sorted(numeric)
    for name in plan.numeric_stats:
        z = X[rows, plan.feature_order.index(name)]
        assert abs(z.mean()) <= 1e-9
        assert abs(z.std() - 1.0) <= 1e-9
    other = np.setdiff1d(np.arange(len(good)), rows)
    for name, cmap in plan.category_maps.items():
        block = X[:, [plan.feature_order.index(f"{name}={cat}") for cat in cmap]]
        np.testing.assert_array_equal(block[rows].sum(axis=1), 1.0)
        assert set(block[other].sum(axis=1).tolist()) <= {0.0, 1.0}
    for feature in plan.feature_order:
        assert feature.partition("=")[0] not in (ID, LABEL)


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
