"""scripts/paired_bench.py: its summaries and verdicts on fixed numbers."""

import importlib.util

import pytest

from conftest import REPO

_spec = importlib.util.spec_from_file_location("paired_bench", REPO / "scripts" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

RUN_S = {"name": "run_s", "better": "lower", "bound": 0.25}


def test_quartiles_interpolate_between_sorted_values():
    assert paired_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert paired_bench.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_summary_of_a_faster_change():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [p - 0.5 for p in parent[:9]] + [2.0]  # wins 9 of 10 pairs
    s = paired_bench.summarize(RUN_S, parent, change)
    assert s.name == "run_s" and s.pairs == 10 and s.wins == 9
    assert s.parent == pytest.approx((1.225, 1.45, 1.675))
    assert s.change == pytest.approx((0.725, 0.95, 1.175))
    assert s.ratio == pytest.approx((0.9 / 1.4 + 1.0 / 1.5) / 2)
    # The medians are 0.5 apart, more than the parent's IQR of 0.45.
    assert s.gain == "gain"
    # Both IQRs (0.45) exceed the bound, and not every change run is faster.
    assert s.regression == "unresolved"


def test_a_gain_needs_nine_of_ten_wins_and_medians_apart_by_more_than_the_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    eight_wins = [p - 0.5 for p in parent[:8]] + [2.0, 2.1]
    assert paired_bench.gain_verdict("lower", parent, eight_wins) == "no gain"
    # Ten wins, but the medians are 0.1 apart and the parent's IQR is 0.45.
    assert paired_bench.gain_verdict("lower", parent, [p - 0.1 for p in parent]) == "no gain"
    # Ties count for neither side.
    assert paired_bench.wins("lower", parent, parent) == 0
    assert paired_bench.gain_verdict("higher", [0.5] * 10, [0.7] * 10) == "gain"
    assert paired_bench.gain_verdict("lower", [0.5] * 10, [0.7] * 10) == "no gain"


def test_a_regression_is_a_median_worse_by_more_than_the_bound():
    parent = [40.0, 40.01, 40.02, 40.0, 40.01, 40.02, 40.0, 40.01, 40.02, 40.01]
    rss = "lower"
    assert paired_bench.regression_verdict(rss, 0.05, parent, [p + 0.04 for p in parent]) \
        == "within bound"
    assert paired_bench.regression_verdict(rss, 0.05, parent, [p + 0.06 for p in parent]) \
        == "regression"
    # For a higher-is-better metric, worse means lower.
    assert paired_bench.regression_verdict("higher", 0.1, [0.9] * 10, [0.75] * 10) == "regression"
    assert paired_bench.regression_verdict("higher", 0.1, [0.9] * 10, [0.85] * 10) \
        == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 1.5, 2.0, 2.5, 3.0, 1.0, 1.5, 2.0, 2.5, 3.0]  # IQR 1.0, bound 0.25
    assert paired_bench.regression_verdict("lower", 0.25, parent, list(parent)) == "unresolved"
    # The change's own spread counts too.
    steady = [2.0] * 10
    assert paired_bench.regression_verdict("lower", 0.25, steady, parent) == "unresolved"
    # Every change run beats every parent run.
    assert paired_bench.regression_verdict("lower", 0.25, parent, [p - 2.5 for p in parent]) \
        == "within bound"


def test_the_two_copies_have_paths_of_equal_length(tmp_path):
    parent, change = paired_bench.sides(tmp_path / "paired-1")
    assert parent != change
    assert parent.parent == change.parent == tmp_path / "paired-1"
    assert len(str(parent)) == len(str(change))



def _fake_bench(tree, line, code):
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(f"import sys\nprint({line!r})\nsys.exit({code})\n")
    return tree


def test_a_correct_run_gives_its_metric_values(tmp_path):
    line = '{"correct": true, "metrics": {"run_s": {"value": 1.5, "unit": "s"}}}'
    tree = _fake_bench(tmp_path, line, 0)
    assert paired_bench.bench_once(tree, "grid_fixture", 0, 1.0) == {"run_s": 1.5}


@pytest.mark.parametrize("line, code", [
    ('{"correct": false, "metrics": {}}', 1),
    ('{"correct": false, "metrics": {}}', 0),
    ('{"correct": true, "metrics": {}}', 2),
    ("", 0),
])
def test_a_failed_or_incorrect_run_stops_the_pairs(tmp_path, line, code):
    tree = _fake_bench(tmp_path, line, code)
    with pytest.raises(paired_bench.BenchFailed):
        paired_bench.bench_once(tree, "grid_fixture", 0, 1.0)
