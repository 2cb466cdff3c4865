"""Which functions the traced run wraps, and the per-layer metrics.

Each layer is one augbench module, timed from outside at calls into its
public functions. `PER_LAYER` lists every metric with its unit, the
direction that is better, and the end-to-end metric and workloads it
should move; `layer_metrics` computes them from the spans of one traced
`augbench run` and the cell durations in its `run_meta.json` files.
"""

from __future__ import annotations

import numpy as np

from spans import SpanTable

CLASSIFIERS = ("tree", "knn", "logistic", "svm_rbf", "svm_linear", "dense")

_FIT = {
    "tree": ("augbench.classifiers.tree", "fit_decision_tree"),
    "knn": ("augbench.classifiers.knn", "fit_knn"),
    "logistic": ("augbench.classifiers.linear", "fit_logistic"),
    "svm_rbf": ("augbench.classifiers.svm_rbf", "fit_rbf_svm"),
    "svm_linear": ("augbench.classifiers.linear", "fit_linear_svm"),
    "dense": ("augbench.classifiers.dense", "fit_dense_net"),
}


def _em_iters(result) -> int:
    return sum(len(m.log_likelihood_history) for m in result[2].models.values())


def _cv_fits(result) -> int:
    return sum(len(fold_accs) for _, _, fold_accs in result.table)


# (module, function, span name, value read from the return value)
TARGETS = [
    ("augbench.dataio", "load_table", "dataio.load_table", None),
    ("augbench.dataio", "fit_preprocess", "dataio.fit_preprocess", None),
    ("augbench.dataio", "apply_preprocess", "dataio.apply_preprocess", None),
    ("augbench.dataio", "stratified_split", "dataio.stratified_split", None),
    ("augbench.harness", "run_experiment", "harness.run_experiment", None),
    ("augbench.harness", "build_augmented_sets", "harness.build_augmented_sets", None),
    ("augbench.harness", "emit_report", "harness.emit_report", None),
    ("augbench.gmm", "augment_with_gmm", "gmm.augment_with_gmm", _em_iters),
    ("augbench.vae", "augment_with_vae", "vae.augment_with_vae", None),
    ("augbench.vae", "train_vae", "vae.train_vae", None),
    ("augbench.gan", "augment_with_gan", "gan.augment_with_gan", None),
    ("augbench.gan", "train_gan", "gan.train_gan", None),
    ("augbench.nncore", "adam_step", "nncore.adam_step", None),
    ("augbench.nncore", "mlp_forward", "nncore.mlp_forward", None),
    ("augbench.nncore", "mlp_backward", "nncore.mlp_backward", None),
    ("augbench.classifiers.cv", "cross_validate", "cv.cross_validate", _cv_fits),
    ("augbench.classifiers.linear", "logistic_loss_grad", "linear.logistic_loss_grad", None),
    ("augbench.classifiers.svm_rbf", "rbf_kernel", "svm_rbf.rbf_kernel", None),
    ("augbench.metrics", "roc_auc", "metrics.roc_auc", None),
] + [
    (module, fn, f"{clf}.fit", (lambda m: m.converged) if clf == "svm_rbf" else None)
    for clf, (module, fn) in _FIT.items()
]

# Per-layer metric -> (unit, better, end-to-end metric it should move, workloads).
PER_LAYER = {
    "dataio.load_s": ("s", "lower", "setup_s", "all, largest on grid_large"),
    "dataio.preprocess_s": ("s", "lower", "setup_s", "all, largest on grid_large"),
    "dataio.split_s": ("s", "lower", "setup_s", "all, largest on grid_large"),
    "harness.augment_s": ("s", "lower", "run_s", "all"),
    "harness.cells_s": ("s", "lower", "run_s", "all"),
    "harness.emit_report_s": ("s", "lower", "run_s", "all"),
    "gmm.augment_share": ("share", "lower", "run_s", "grid_large; zero on classify_seeds"),
    "gmm.em_iters": ("count", "lower", "run_s", "grid_large; zero on classify_seeds"),
    "vae.augment_share": ("share", "lower", "run_s", "grid_fixture; zero elsewhere"),
    "gan.augment_share": ("share", "lower", "run_s", "grid_fixture; zero elsewhere"),
    "gan.pretrain_share": ("share", "lower", "run_s", "grid_fixture; zero elsewhere"),
    "cv.cross_validate_s": ("s", "lower", "run_s", "all"),
    "cv.fits": ("count", "lower", "run_s", "all"),
    "cv.useful_fit_share": ("share", "higher", "run_s", "all"),
    "linear.logistic_loss_grad.calls": ("count", "lower", "run_s", "classify_seeds, grid_fixture"),
    "linear.logistic_loss_grad_s": ("s", "lower", "run_s", "classify_seeds, grid_fixture"),
    "svm_rbf.rbf_kernel.calls": ("count", "lower", "run_s, peak_rss_mb", "grid_large"),
    "svm_rbf.rbf_kernel_s": ("s", "lower", "run_s, peak_rss_mb", "grid_large"),
    "svm_rbf.solve_s": ("s", "lower", "run_s", "grid_large"),
    "svm_rbf.refit_converged_share": ("share", "higher", "mean_test_auc", "grid_large"),
    "metrics.roc_auc_s": ("s", "lower", "run_s", "all (negligible)"),
}
for _fn in ("adam_step", "mlp_forward", "mlp_backward"):
    PER_LAYER[f"nncore.{_fn}.calls"] = ("count", "lower", "run_s", "grid_fixture, classify_seeds")
    PER_LAYER[f"nncore.{_fn}_s"] = ("s", "lower", "run_s", "grid_fixture, classify_seeds")
for _clf in CLASSIFIERS:
    # The dense net has no CV: its one fit is the whole of fit_s.
    for _part in ("fit", "score") if _clf == "dense" else ("fit", "cv", "refit", "score"):
        PER_LAYER[f"{_clf}.{_part}_s"] = ("s", "lower", "run_s", "where the classifier dominates")


def layer_metrics(spans: SpanTable, cell_seconds: dict[str, float]) -> dict[str, float]:
    """Every `PER_LAYER` metric from one traced run.

    `cell_seconds` maps a classifier to its summed cell time, as reported
    in `run_meta.json`; a cell's time beyond its fit is scoring. Layers
    that some workloads never call (the generators) are reported as their
    share of the run's top-level span time, so a skipped layer reads 0 as
    a share rather than as a time.
    """
    dur = spans.duration

    def total(name: str, within: np.ndarray | None = None) -> float:
        m = spans.mask(name)
        return float(dur[m if within is None else m & within].sum())

    def calls(name: str) -> int:
        return int(spans.mask(name).sum())

    def values(name: str) -> np.ndarray:
        return spans.value[spans.mask(name)]

    out = {
        "dataio.load_s": total("dataio.load_table"),
        "dataio.preprocess_s": total("dataio.fit_preprocess") + total("dataio.apply_preprocess"),
        "dataio.split_s": total("dataio.stratified_split"),
        "harness.augment_s": total("harness.build_augmented_sets"),
        "harness.cells_s": float(sum(cell_seconds.values())),
        "harness.emit_report_s": total("harness.emit_report"),
        "gmm.em_iters": float(values("gmm.augment_with_gmm").sum()),
    }
    run_s = float(dur[spans.parent < 0].sum())
    in_gan = spans.nearest(["gan.train_gan"]) >= 0
    for name, seconds in (
        ("gmm.augment_share", total("gmm.augment_with_gmm")),
        ("vae.augment_share", total("vae.augment_with_vae")),
        ("gan.augment_share", total("gan.augment_with_gan")),
        ("gan.pretrain_share", total("vae.train_vae", in_gan)),
    ):
        out[name] = seconds / run_s if run_s else 0.0
    for fn in ("adam_step", "mlp_forward", "mlp_backward"):
        out[f"nncore.{fn}.calls"] = calls(f"nncore.{fn}")
        out[f"nncore.{fn}_s"] = total(f"nncore.{fn}")

    n_cv = calls("cv.cross_validate")
    cv_fits = float(values("cv.cross_validate").sum())
    out["cv.cross_validate_s"] = total("cv.cross_validate")
    out["cv.fits"] = cv_fits
    # Each CV call is followed by one refit on the whole training set,
    # the only fit whose model is kept.
    out["cv.useful_fit_share"] = n_cv / (cv_fits + n_cv) if n_cv else 0.0

    fit_owner = spans.nearest([f"{clf}.fit" for clf in CLASSIFIERS])

    def under(fit_name: str) -> np.ndarray:
        """Spans whose nearest enclosing classifier fit is `fit_name`."""
        return (fit_owner >= 0) & spans.mask(fit_name)[fit_owner]

    for clf in CLASSIFIERS:
        fit_s = total(f"{clf}.fit")
        cv_s = total("cv.cross_validate", under(f"{clf}.fit"))
        out[f"{clf}.fit_s"] = fit_s
        out[f"{clf}.cv_s"] = cv_s
        out[f"{clf}.refit_s"] = fit_s - cv_s
        out[f"{clf}.score_s"] = cell_seconds.get(clf, 0.0) - fit_s

    out["linear.logistic_loss_grad.calls"] = calls("linear.logistic_loss_grad")
    out["linear.logistic_loss_grad_s"] = total("linear.logistic_loss_grad")
    out["svm_rbf.rbf_kernel.calls"] = calls("svm_rbf.rbf_kernel")
    out["svm_rbf.rbf_kernel_s"] = total("svm_rbf.rbf_kernel")
    out["svm_rbf.solve_s"] = out["svm_rbf.fit_s"] - total(
        "svm_rbf.rbf_kernel", under("svm_rbf.fit")
    )
    converged = values("svm_rbf.fit")
    out["svm_rbf.refit_converged_share"] = float(converged.mean()) if len(converged) else 0.0
    out["metrics.roc_auc_s"] = total("metrics.roc_auc")
    return {k: float(out[k]) for k in PER_LAYER}


def self_times(spans: SpanTable) -> dict[str, float]:
    """Summed self time per span name, largest first."""
    st = spans.self_time()
    totals = np.bincount(spans.name_id, weights=st, minlength=len(spans.names))
    order = np.argsort(-totals)
    return {spans.names[i]: float(totals[i]) for i in order}
