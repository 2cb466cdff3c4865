"""Report renderers: the exact text of each artifact for a hand-built grid.

The fixture grids never fail a cell, so these bundles pin what a failed
cell, a missing metric and a cell that fails in one seed only render as.
"""

from dataclasses import replace

import numpy as np

from augbench.config import ExperimentConfig
from augbench.dataio import PreprocessPlan
from augbench.report import (
    EvalResult,
    ReportBundle,
    export_synthetic_csv,
    render_aggregate_csv,
    render_report_md,
    render_results_csv,
)

CONFIG = ExperimentConfig(
    dataset="data/toy_table.csv",
    schema={"age": "numeric", "gender": "categorical", "label": "label"},
    seed=3,
    augmenters=("none", "gmm"),
    classifiers=("tree", "knn"),
    n_synthetic=40,
)
PLAN = PreprocessPlan(
    numeric_stats={"age": (38.5, 10.25)},
    category_maps={"gender": {"Female": 0, "Male": 1}},
    feature_order=["age", "gender=Female", "gender=Male"],
)


def _bundle(seed: int, results: list[EvalResult]) -> ReportBundle:
    return ReportBundle(replace(CONFIG, seed=seed), results, n_train=300, n_test=100,
                        plan=PLAN, augmented={})


def one_bundle() -> ReportBundle:
    """Seed 3: the gmm/tree cell failed, and none/knn has no AUC."""
    return _bundle(3, [
        EvalResult("none", "tree", 0.86, 0.7083333333333334, 0.8791208791208791,
                   0.9133333333333333, {"max_depth": 4, "criterion": "gini"}),
        EvalResult("none", "knn", 0.84, 0.6666666666666666, None, 0.88,
                   {"weighting": "uniform", "k": 7}),
        EvalResult("gmm", "tree", error="FloatingPointError: overflow encountered in exp"),
        EvalResult("gmm", "knn", 0.875, 0.7272727272727273, 0.9010989010989011,
                   0.8941176470588236, {"k": 9, "weighting": "inverse"}),
    ])


def two_bundles() -> list[ReportBundle]:
    """Seeds 3 and 4, every metric present; gmm/tree fails in seed 3 only."""
    seed3 = one_bundle()
    seed3.cell("none", "knn").test_auc = 0.8461538461538461
    seed4 = _bundle(4, [
        EvalResult("none", "tree", 0.82, 0.64, 0.8534798534798534, 0.95, {"max_depth": 5}),
        EvalResult("none", "knn", 0.85, 0.6808510638297872, 0.8901098901098901, 0.87, {"k": 5}),
        EvalResult("gmm", "tree", 0.83, 0.6530612244897959, 0.8461538461538461,
                   0.9352941176470588, {"max_depth": 3}),
        EvalResult("gmm", "knn", 0.88, 0.7346938775510204, 0.9139194139194139,
                   0.9, {"k": 11}),
    ])
    return [seed3, seed4]


def synthetic_rows() -> tuple[np.ndarray, np.ndarray, PreprocessPlan]:
    """Three rows whose one-hot blocks are not yet one-hot, with ties."""
    features = np.array([
        [0.123456789, 0.7, 0.2],
        [-1.5e-7, 0.4, 0.4],
        [12345678.9, -0.1, 0.3],
    ])
    return features, np.array([1, 0, 1]), PLAN


REPORT_MD = """\
# Augmentation benchmark report

Dataset: `toy_table.csv` | seed 3 | train 300 / test 100 | 40 synthetic rows per augmenter

## Accuracy / F1

| Boost Option | Decision Tree Acc | Decision Tree F1 | KNN Acc | KNN F1 |
|---|---|---|---|---|
| No boost | 0.86 | 0.71 | 0.84 | 0.67 |
| GMM | failed | failed | 0.88 | 0.73 |

## AUC

| Boost Option | Decision Tree | KNN |
|---|---|---|
| No boost | 0.88 | failed |
| GMM | failed | 0.90 |

## Train accuracy (overfitting check)

| Boost Option | Decision Tree | KNN |
|---|---|---|
| No boost | 0.91 | 0.88 |
| GMM | failed | 0.89 |

## Failed cells

| Boost Option | Classifier | Error |
|---|---|---|
| GMM | Decision Tree | FloatingPointError: overflow encountered in exp |
"""
RESULTS_CSV = """\
augmenter,classifier,test_acc,test_f1,test_auc,train_acc,hyperparams,error
none,tree,0.86,0.7083333333333334,0.8791208791208791,0.9133333333333333,"{""criterion"": ""gini"", ""max_depth"": 4}",
none,knn,0.84,0.6666666666666666,,0.88,"{""k"": 7, ""weighting"": ""uniform""}",
gmm,tree,,,,,{},FloatingPointError: overflow encountered in exp
gmm,knn,0.875,0.7272727272727273,0.9010989010989011,0.8941176470588236,"{""k"": 9, ""weighting"": ""inverse""}",
"""
AGGREGATE_CSV = """\
augmenter,classifier,n_seeds,mean_test_acc,mean_test_f1,mean_test_auc
none,tree,2,0.840000,0.674167,0.866300
none,knn,2,0.845000,0.673759,0.868132
gmm,tree,1,0.830000,0.653061,0.846154
gmm,knn,2,0.877500,0.730983,0.907509
"""
SYNTHETIC_CSV = """\
age,gender=Female,gender=Male,label
0.123457,1,0,1
-1.5e-07,1,0,0
1.23457e+07,0,1,1
"""


def test_report_md_is_pinned():
    assert render_report_md(one_bundle()) == REPORT_MD


def test_results_csv_is_pinned():
    assert render_results_csv(one_bundle()) == RESULTS_CSV


def test_aggregate_csv_is_pinned():
    assert render_aggregate_csv(two_bundles()) == AGGREGATE_CSV


def test_synthetic_csv_is_pinned():
    assert export_synthetic_csv(*synthetic_rows()) == SYNTHETIC_CSV

