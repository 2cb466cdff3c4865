"""Report text: one seed's grid results and the renderers of its artifacts.

Each renderer takes results and returns the text of one artifact:
report.md (Acc/F1, AUC and train-accuracy tables, then any failed cells),
results.csv (one row per cell), aggregate.csv (means over seeds) and a
synthetic_<generator>.csv body. A renderer reads no clock and writes no
file, so its text depends only on its arguments.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import SyntheticBatch
from .config import ExperimentConfig
from .dataio import PreprocessPlan
from .metrics import RocCurve

AUGMENTER_NAMES = {"none": "No boost", "gmm": "GMM", "vae": "VAE", "gan": "GAN"}
CLASSIFIER_NAMES = {
    "tree": "Decision Tree",
    "knn": "KNN",
    "logistic": "Logistic Regression",
    "svm_rbf": "SVM (RBF)",
    "svm_linear": "SVM Linear",
    "dense": "Dense Network",
}


@dataclass
class EvalResult:
    augmenter: str
    classifier: str
    test_acc: float | None = None
    test_f1: float | None = None
    test_auc: float | None = None
    train_acc: float | None = None
    hyperparams: dict = field(default_factory=dict)
    roc: RocCurve | None = None
    error: str | None = None
    duration_ms: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ReportBundle:
    config: ExperimentConfig
    results: list[EvalResult]
    n_train: int
    n_test: int
    plan: PreprocessPlan
    # Each training set its generator built, as (features, labels, batch):
    # the real training rows, then the synthetic ones `batch` marks, in
    # normalized feature space. The batch is None for "none".
    augmented: dict[str, tuple[np.ndarray, np.ndarray, SyntheticBatch | None]]
    contamination: bool = False
    # Wall time of each classifier's joint fit of the run's cells, in ms.
    classifier_fit_ms: dict[str, float] = field(default_factory=dict)

    def cell(self, augmenter: str, classifier: str) -> EvalResult:
        for r in self.results:
            if r.augmenter == augmenter and r.classifier == classifier:
                return r
        raise KeyError((augmenter, classifier))


def _fmt(v: float | None) -> str:
    return "failed" if v is None else f"{v:.2f}"


def _write_metric_table(
    out: io.StringIO, bundle: ReportBundle, title: str, columns: list[tuple[str, str]]
):
    """One row per augmenter and, per classifier, one column for each
    `(header suffix, EvalResult attribute)` of `columns`."""
    cfg = bundle.config
    headers = [f"{CLASSIFIER_NAMES[c]}{suffix}" for c in cfg.classifiers for suffix, _ in columns]
    out.write(f"\n## {title}\n\n")
    out.write("| Boost Option | " + " | ".join(headers) + " |\n")
    out.write("|" + "---|" * (1 + len(headers)) + "\n")
    for aug in cfg.augmenters:
        row = [AUGMENTER_NAMES[aug]]
        for c in cfg.classifiers:
            r = bundle.cell(aug, c)
            row.extend(_fmt(getattr(r, attr)) for _, attr in columns)
        out.write("| " + " | ".join(row) + " |\n")


def render_report_md(bundle: ReportBundle) -> str:
    cfg = bundle.config
    out = io.StringIO()
    out.write("# Augmentation benchmark report\n\n")
    out.write(
        f"Dataset: `{Path(cfg.dataset).name}` | seed {cfg.seed} | "
        f"train {bundle.n_train} / test {bundle.n_test} | "
        f"{cfg.n_synthetic} synthetic rows per augmenter\n"
    )
    _write_metric_table(out, bundle, "Accuracy / F1", [(" Acc", "test_acc"), (" F1", "test_f1")])
    _write_metric_table(out, bundle, "AUC", [("", "test_auc")])
    _write_metric_table(out, bundle, "Train accuracy (overfitting check)", [("", "train_acc")])

    failed = [r for r in bundle.results if r.failed]
    if failed:
        out.write("\n## Failed cells\n\n| Boost Option | Classifier | Error |\n|---|---|---|\n")
        for r in failed:
            out.write(
                f"| {AUGMENTER_NAMES[r.augmenter]} | {CLASSIFIER_NAMES[r.classifier]} "
                f"| {r.error} |\n"
            )
    return out.getvalue()


def render_results_csv(bundle: ReportBundle) -> str:
    metrics = ["test_acc", "test_f1", "test_auc", "train_acc"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["augmenter", "classifier", *metrics, "hyperparams", "error"])
    for r in bundle.results:
        values = (getattr(r, m) for m in metrics)
        writer.writerow([
            r.augmenter, r.classifier,
            *("" if v is None else repr(v) for v in values),
            json.dumps(r.hyperparams, sort_keys=True),
            r.error or "",
        ])
    return buf.getvalue()


def render_aggregate_csv(bundles: list[ReportBundle]) -> str:
    """Mean metrics per configured cell across seeds, in config order;
    per-seed rows live in seed_*/. `n_seeds` counts the seeds where the
    cell succeeded, and a cell that failed in every seed has no means."""
    config = bundles[0].config
    lines = ["augmenter,classifier,n_seeds,mean_test_acc,mean_test_f1,mean_test_auc"]
    for aug in config.augmenters:
        for c in config.classifiers:
            cells = [b.cell(aug, c) for b in bundles]
            vals = [(r.test_acc, r.test_f1, r.test_auc) for r in cells if not r.failed]
            means = ",".join(f"{m:.6f}" for m in np.array(vals).mean(axis=0)) if vals else ",,"
            lines.append(f"{aug},{c},{len(vals)},{means}")
    return "\n".join(lines) + "\n"


def export_synthetic_csv(
    features: np.ndarray, labels: np.ndarray, plan: PreprocessPlan
) -> str:
    """Synthetic rows in normalized feature space; one-hot blocks are
    rounded to a valid one-hot assignment at export time."""
    features = np.array(features, dtype=float)
    col_of = {name: j for j, name in enumerate(plan.feature_order)}
    for cat, cmap in plan.category_maps.items():
        cols = [col_of[f"{cat}={c}"] for c in cmap]
        block = features[:, cols]
        hot = np.argmax(block, axis=1)
        block[:] = 0.0
        block[np.arange(len(block)), hot] = 1.0
        features[:, cols] = block

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(plan.feature_order) + ["label"])
    for row, lab in zip(features, labels):
        writer.writerow([f"{v:.6g}" for v in row] + [int(lab)])
    return buf.getvalue()
