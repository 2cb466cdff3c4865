"""Tests of the benchmark's own arithmetic, on canned inputs.

    python3 -m pytest -q bench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from layers import PER_LAYER, layer_metrics, self_times
from outputs import CellSummary, check_run, compare_runs, read_cells
from spans import SpanTable, Tracer
from table import write_table

ROOT = Path(__file__).resolve().parent.parent

RESULTS_CSV = """augmenter,classifier,test_acc,test_f1,test_auc,train_acc,hyperparams,error
none,tree,0.8,0.7,0.9,1.0,{},
none,knn,0.6,0.5,0.7,0.9,{},
gmm,tree,,,,,{},ValueError: boom
gmm,knn,0.7,0.6,0.8,0.8,{},
"""


def test_results_csv_gives_means_over_scored_cells_and_counts_failures():
    summary, problems = CellSummary(), []
    read_cells(RESULTS_CSV, summary, problems, "out")
    assert problems == []
    assert (summary.attempted, summary.failed) == (4, 1)
    assert summary.mean_test_auc == pytest.approx((0.9 + 0.7 + 0.8) / 3)
    assert summary.mean_test_acc == pytest.approx((0.8 + 0.6 + 0.7) / 3)


def test_metric_outside_unit_interval_is_a_problem_and_not_averaged():
    text = RESULTS_CSV.replace("none,knn,0.6,0.5,0.7", "none,knn,0.6,0.5,1.7")
    summary, problems = CellSummary(), []
    read_cells(text, summary, problems, "out")
    assert problems == ["out: none/knn test_auc='1.7'"]
    assert summary.attempted == 4 and len(summary.auc) == 2


def spans_from_rows(rows, values=None) -> SpanTable:
    """A span table from (name, start, end, parent row) tuples, parents first."""
    names = sorted({r[0] for r in rows})
    return SpanTable(
        names,
        np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        np.array([r[1] for r in rows], dtype=float),
        np.array([r[2] for r in rows], dtype=float),
        np.array([r[3] for r in rows], dtype=np.int64),
        np.array(values if values is not None else [np.nan] * len(rows), dtype=float),
    )


def _write_run(d, results=RESULTS_CSV, contamination=False):
    d.mkdir(parents=True)
    (d / "report.md").write_text("# report\n")
    (d / "results.csv").write_text(results)
    meta = {"contamination": contamination,
            "cell_durations_ms": {"none/tree": 1500.0, "gmm/tree": 500.0, "none/knn": 250.0}}
    (d / "run_meta.json").write_text(json.dumps(meta))
    for cell in ("none_tree", "none_knn", "gmm_knn"):
        (d / f"roc_{cell}.csv").write_text("fpr,tpr\n")


def test_check_run_accepts_a_complete_run_and_sums_cell_time(tmp_path):
    _write_run(tmp_path / "out")
    summary, problems, cell_s = check_run(tmp_path / "out", ["none", "gmm"], ["tree", "knn"], [0])
    assert problems == []
    assert summary.attempted == 4
    assert cell_s == {"tree": pytest.approx(2.0), "knn": pytest.approx(0.25)}


def test_check_run_reports_missing_cells_artifacts_and_contamination(tmp_path):
    _write_run(tmp_path / "out", RESULTS_CSV.rsplit("gmm,knn", 1)[0], contamination=True)
    _, problems, _ = check_run(tmp_path / "out", ["none", "gmm"], ["tree", "knn"], [0])
    assert "out: 3 cells, expected 4" in problems
    assert "out: contamination is True" in problems
    _, problems, _ = check_run(tmp_path / "none", ["none"], ["tree"], [3, 4])
    assert problems[0] == "aggregate.csv missing"
    assert "seed_3: missing report.md, results.csv, run_meta.json" in problems


def test_compare_runs_flags_byte_differences(tmp_path):
    _write_run(tmp_path / "a")
    _write_run(tmp_path / "b")
    assert compare_runs(tmp_path / "a", tmp_path / "b", [0]) == []
    (tmp_path / "b" / "results.csv").write_text(RESULTS_CSV + "\n")
    assert compare_runs(tmp_path / "a", tmp_path / "b", [0]) == [
        "b/results.csv differs between repeats of one seed"
    ]


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    spans = spans_from_rows([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
    ])
    np.testing.assert_allclose(spans.self_time(), [3.0, 2.0, 1.0, 4.0])
    assert self_times(spans) == {"c": 4.0, "root": 3.0, "a": 2.0, "b": 1.0}
    assert spans.nearest(["root"]).tolist() == [-1, 0, 0, 0]
    assert spans.nearest(["a"]).tolist() == [-1, -1, 1, -1]


def test_layer_metrics_split_fit_into_cv_refit_kernel_and_score():
    rows = [
        ("harness.run_experiment", 0.0, 20.0, -1),
        ("svm_rbf.fit", 1.0, 9.0, 0),
        ("cv.cross_validate", 1.0, 7.0, 1),
        ("svm_rbf.rbf_kernel", 1.0, 2.0, 2),
        ("svm_rbf.rbf_kernel", 3.0, 3.5, 2),
        ("svm_rbf.rbf_kernel", 7.0, 7.5, 1),
        ("dense.fit", 10.0, 12.0, 0),
        ("nncore.adam_step", 10.0, 10.5, 6),
        ("nncore.adam_step", 11.0, 11.5, 6),
        ("gmm.augment_with_gmm", 12.5, 17.5, 0),
    ]
    values = [np.nan, 0.0, 15.0] + [np.nan] * 6 + [40.0]
    m = layer_metrics(spans_from_rows(rows, values), {"svm_rbf": 8.25, "dense": 2.5})
    assert set(m) == set(PER_LAYER)
    assert m["svm_rbf.fit_s"] == 8.0
    assert m["svm_rbf.cv_s"] == 6.0
    assert m["svm_rbf.refit_s"] == 2.0
    assert m["svm_rbf.score_s"] == 0.25
    assert m["svm_rbf.rbf_kernel.calls"] == 3
    assert m["svm_rbf.solve_s"] == 6.0
    assert m["svm_rbf.refit_converged_share"] == 0.0
    assert m["cv.fits"] == 15
    assert m["cv.useful_fit_share"] == pytest.approx(1 / 16)
    assert (m["dense.fit_s"], m["dense.score_s"]) == (2.0, 0.5)
    assert m["nncore.adam_step.calls"] == 2 and m["nncore.adam_step_s"] == 1.0
    assert m["harness.cells_s"] == 10.75
    assert (m["gmm.augment_share"], m["gmm.em_iters"]) == (0.25, 40.0)
    assert m["gan.augment_share"] == 0.0


def test_tracer_replaces_names_imported_elsewhere_and_dispatch_tables(monkeypatch, tmp_path):
    lib = types.ModuleType("pkg.lib")
    lib.double = lambda x: 2 * x
    user = types.ModuleType("pkg.user")
    user.double = lib.double
    user.TABLE = {"d": lib.double}
    user.call = lambda x: user.double(user.TABLE["d"](x))
    monkeypatch.setitem(sys.modules, "pkg.lib", lib)
    monkeypatch.setitem(sys.modules, "pkg.user", user)

    tracer = Tracer()
    tracer.install([("pkg.lib", "double", "lib.double", lambda r: r),
                    ("pkg.user", "call", "user.call", None)], "pkg")
    assert user.call(3) == 12
    tracer.save(tmp_path / "spans.npz")

    spans = SpanTable.load(tmp_path / "spans.npz")
    assert [spans.names[i] for i in spans.name_id] == ["user.call", "lib.double", "lib.double"]
    assert spans.parent.tolist() == [-1, 0, 0]
    assert spans.value[1:].tolist() == [6.0, 12.0]
    assert (spans.self_time() >= 0).all()


def test_benchmark_json_lists_exactly_the_metrics_the_benchmark_prints():
    from run import END_TO_END_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()
    }
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])


def test_large_table_is_a_function_of_the_seed_with_the_fixture_balance(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert write_table(ROOT, 5, a, 500) == write_table(ROOT, 5, b, 500)
    assert write_table(ROOT, 6, c, 500) != write_table(ROOT, 5, a, 500)
    rows = a.read_text().splitlines()
    assert rows[0] == "user_id,gender,age,salary,purchased"
    assert len(rows) == 501
    assert sum(r.endswith(",1") for r in rows[1:]) == 180  # 144/400 of 500
