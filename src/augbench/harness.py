"""Experiment pipeline: the augmenter x classifier grid and its files.

Per seed: one `dataio.prepare` (one dataset load, one stratified split),
then one augmented training set per augmenter (the test set is never
augmented); a generator that raises gets an `augment.GeneratorError` in
place of its set. Then every classifier is trained on every training set
of every seed, classifier by classifier: `_fit_cells` passes all of a
classifier's (seed, augmenter) cells to its set trainer in one call. The
logistic, linear-SVM and dense-net set trainers train their sets in
lockstep (`classifiers.base.by_group` bounds each loop's rows); the tree,
KNN and RBF SVM fit them one after another. The harness alone isolates
failures, so a failing cell fails alone: a generator's, a fit's (when
the one call raises, each cell is fit by itself) and a scoring's. Each
grid cell draws from an RngStream keyed by (seed, augmenter, classifier),
so execution order cannot change results, and each cell's model has the
bits of a fit on its set alone.

`harness` alone owns a run's output tree. `seed_dirs` lays it out: the
output root for one seed, root/seed_<s> for several. `write_run` writes
each seed's files through `emit_report` (report.md, results.csv and
roc_<augmenter>_<classifier>.csv as `report` renders them,
synthetic_<generator>.csv on request, and run_meta.json), and aggregate.csv
at the root for several seeds. Then one removal pass, over the root, the
seed directories it wrote and every other real (not symlinked) seed_<n>/
there, deletes each file with a run-artifact name (`RUN_FILES`, and
aggregate.csv at the root) that this run did not write, and each seed_<n>/
it did not write once that is empty; so a user's files, and the seed
directories that hold them, stay. Wall-clock durations live only in
run_meta.json so the other files are byte-identical across reruns of the
same (config, seed).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import classifiers as clf
from .augment import GeneratorError, SyntheticBatch
from .config import ExperimentConfig, module_configs
from .dataio import PreparedData, PreprocessPlan, prepare
from .gan import augment_with_gan
from .gmm import augment_with_gmm
from .metrics import accuracy, f1, roc_auc, roc_to_csv
from .report import (
    EvalResult,
    ReportBundle,
    export_synthetic_csv,
    render_aggregate_csv,
    render_report_md,
    render_results_csv,
)
from .rng import RngStream
from .vae import augment_with_vae


# Each classifier's set trainer: one model per `(X, y, rng)` set; it
# raises if any set fails.
_FIT_SETS = {
    "tree": clf.fit_decision_tree_sets,
    "knn": clf.fit_knn_sets,
    "logistic": clf.fit_logistic_sets,
    "svm_rbf": clf.fit_rbf_svm_sets,
    "svm_linear": clf.fit_linear_svm_sets,
    "dense": clf.fit_dense_net_sets,
}


def build_augmented_sets(
    config: ExperimentConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    cfgs: dict,
) -> dict[str, tuple[np.ndarray, np.ndarray, SyntheticBatch | None] | GeneratorError]:
    """One training set per augmenter, each generator drawing from its own
    stream of `config.seed`; `cfgs` is `module_configs(config)`. A generator
    that raises gets a GeneratorError in place of its set."""
    rng = RngStream(config.seed).derive("augment")
    sets = {}
    for aug in config.augmenters:
        if aug == "none":
            sets[aug] = (X_train, y_train, None)
            continue
        fn = {"gmm": augment_with_gmm, "vae": augment_with_vae, "gan": augment_with_gan}[aug]
        try:
            # A diverging generator stops at its first overflow, not at the
            # non-finite gradient that follows a stream of warnings.
            with np.errstate(over="raise", invalid="raise"):
                sets[aug] = fn(X_train, y_train, config.n_synthetic, cfgs[aug], rng.derive(aug))
        except Exception as e:  # a failed generator fails its row, not the grid
            sets[aug] = GeneratorError(f"{type(e).__name__}: {e}")
    return sets


def _fit_cells(classifier: str, sets: list, clf_config) -> list:
    """The model of each `(X, y, rng)` of `sets`, or the error its fit
    raised: one call of the classifier's set trainer, and if that raises,
    one call per set."""
    try:
        return _FIT_SETS[classifier](sets, clf_config)
    except Exception as e:  # a failing cell fails alone, not its classifier's cells
        if len(sets) == 1:
            return [e]
        return [model for s in sets for model in _fit_cells(classifier, [s], clf_config)]


def _score_cell(
    augmenter: str,
    classifier: str,
    model,
    fit_ms: float,
    X_aug: np.ndarray,
    y_aug: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
) -> EvalResult:
    """The cell's result from its fitted model, or from the error its fit
    raised; its duration is `fit_ms`, its share of its classifier's joint
    fit, plus its own scoring time."""
    result = EvalResult(augmenter=augmenter, classifier=classifier)
    start = time.perf_counter()
    try:
        if isinstance(model, Exception):
            raise model
        test_scores = model.decision_scores(X_test)
        test_pred = (test_scores >= model.threshold).astype(int)
        curve = roc_auc(y_test, test_scores)
        result.test_acc = accuracy(y_test, test_pred)
        result.test_f1 = f1(y_test, test_pred)
        result.test_auc = curve.auc
        result.train_acc = accuracy(y_aug, clf.predict_labels(model, X_aug))
        result.hyperparams = dict(getattr(model, "hyperparams", {}))
        result.roc = curve
    except Exception as e:  # cell failures must not abort the grid
        result.error = f"{type(e).__name__}: {e}"
    result.duration_ms = fit_ms + (time.perf_counter() - start) * 1000.0
    return result


def run_experiment(
    config: ExperimentConfig,
    n_seeds: int = 1,
    checked: tuple[dict, PreparedData] | None = None,
) -> list[ReportBundle]:
    """Execute the full augmenter x classifier grid for the `n_seeds`
    seeds from `config.seed` up, one ReportBundle per seed.

    `checked`, when given, is what `checked_prepare(config)` (in
    `augbench.config`) returned: its module configs are used and its data
    is the first seed's, which is not prepared again.

    Every seed is prepared and augmented first. Then each classifier
    trains all of its (seed, augmenter) cells, so the logistic,
    linear-SVM and dense-net trainers take every cell in one call. A cell
    whose classifier raises (say, on a bound `check_data_bounds` rejects)
    fails alone."""
    cfgs, first = checked or (module_configs(config), prepare(config))
    seeds = [replace(config, seed=seed) for seed in range(config.seed, config.seed + n_seeds)]
    prepared = [first] + [prepare(seed_config) for seed_config in seeds[1:]]
    aug_sets = [
        build_augmented_sets(seed_config, data.X_train, data.y_train, cfgs)
        for seed_config, data in zip(seeds, prepared)
    ]

    # (seed index, augmenter) of every cell whose generator built its
    # training set; the other cells fail with their generator's error.
    cells = [
        (k, aug) for k, sets in enumerate(aug_sets) for aug in config.augmenters
        if not isinstance(sets[aug], GeneratorError)
    ]
    scored = [{} for _ in seeds]  # per seed, (augmenter, classifier) -> EvalResult
    fit_ms = {}  # classifier -> wall time of its joint fit, every seed's cells
    for c in config.classifiers:
        start = time.perf_counter()
        models = _fit_cells(c, [
            (*aug_sets[k][aug][:2], RngStream(seeds[k].seed, ("cell", aug, c)))
            for k, aug in cells
        ], cfgs[c])
        fit_ms[c] = (time.perf_counter() - start) * 1000.0
        for (k, aug), model in zip(cells, models):
            X_aug, y_aug, _ = aug_sets[k][aug]
            scored[k][aug, c] = _score_cell(
                aug, c, model, fit_ms[c] / len(cells), X_aug, y_aug,
                prepared[k].X_test, prepared[k].y_test,
            )
    return [_bundle(*seed, fit_ms) for seed in zip(seeds, prepared, aug_sets, scored)]


def _bundle(
    config: ExperimentConfig, data: PreparedData, aug_sets: dict, scored: dict, fit_ms: dict
) -> ReportBundle:
    """One seed's ReportBundle from its augmented sets, its scored cells,
    keyed by (augmenter, classifier), and each classifier's joint fit time."""
    built = {a: s for a, s in aug_sets.items() if not isinstance(s, GeneratorError)}
    y_train = data.y_train
    # Test purity: the test set comes straight from the original split
    # (whose indices are unique, so intersect1d may assume it) and no
    # augmented set may mark an original row as synthetic.
    shared = np.intersect1d(data.train_indices, data.test_indices, assume_unique=True)
    contamination = bool(shared.size) or any(
        prov.synthetic_mask[: len(y_train)].any() or len(ya) != len(y_train) + prov.n_synthetic
        for _, ya, prov in built.values() if prov is not None
    )
    return ReportBundle(
        config=config,
        results=[
            scored[aug, c] if aug in built else EvalResult(aug, c, error=str(aug_sets[aug]))
            for aug in config.augmenters for c in config.classifiers
        ],
        n_train=len(y_train),
        n_test=len(data.y_test),
        plan=data.plan,
        augmented=built,
        contamination=contamination,
        classifier_fit_ms=fit_ms,
    )


def write_synthetic_csv(
    outdir: Path, augmented: tuple[np.ndarray, np.ndarray, SyntheticBatch], plan: PreprocessPlan
) -> Path:
    """Write the synthetic rows of the augmented set `(X, y, batch)`, those
    its batch marks, to `outdir`/synthetic_<generator>.csv; return the path."""
    X, y, batch = augmented
    path = Path(outdir) / f"synthetic_{batch.generator}.csv"
    path.write_text(export_synthetic_csv(X[batch.synthetic_mask], y[batch.synthetic_mask], plan))
    return path


# The names of the files `emit_report` writes into a seed's directory.
RUN_FILES = ("report.md", "results.csv", "run_meta.json", "roc_*.csv", "synthetic_*.csv")


def seed_dirs(root: str | Path, seeds: list[int]) -> list[Path]:
    """Each seed's output directory: `root` for one seed, `root`/seed_<s> for several."""
    return [Path(root) / f"seed_{s}" for s in seeds] if len(seeds) > 1 else [Path(root)]


def write_run(root: str | Path, bundles: list[ReportBundle]) -> None:
    """Write a run's files into its `seed_dirs`, then make the one removal
    pass over `root` and its real seed_<n>/ that the module docstring states."""
    root = Path(root)
    outdirs = seed_dirs(root, [b.config.seed for b in bundles])
    written = {p for bundle, outdir in zip(bundles, outdirs) for p in emit_report(bundle, outdir)}
    aggregate = root / "aggregate.csv"
    if len(bundles) > 1:
        aggregate.write_text(render_aggregate_csv(bundles))
        written.add(aggregate)
    old_dirs = [d for d in root.glob("seed_*") if d not in outdirs and d.is_dir()
                and not d.is_symlink() and re.fullmatch(r"seed_\d+", d.name)]
    dirs = {root, *outdirs, *old_dirs}
    named = [p for d in dirs for pattern in RUN_FILES for p in d.glob(pattern)]
    for path in [aggregate, *named]:
        if path not in written and path.is_file():
            path.unlink()
    for old_dir in old_dirs:
        if not any(old_dir.iterdir()):
            old_dir.rmdir()


def emit_report(bundle: ReportBundle, output_dir: str | Path) -> list[Path]:
    """Write report.md, results.csv, per-cell ROC files, run_meta.json and,
    with `export_synthetic`, each generator's synthetic training rows;
    return the paths written. Files an earlier run left are `write_run`'s.

    run_meta.json's `classifier_fit_ms` times each classifier's joint fit
    of all seeds' cells; a cell's `cell_durations_ms` entry is its even
    share of that fit plus its own scoring."""
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def put(name: str, content: str):
        p = outdir / name
        p.write_text(content)
        written.append(p)

    put("report.md", render_report_md(bundle))
    put("results.csv", render_results_csv(bundle))
    for r in bundle.results:
        if r.roc is not None:
            put(f"roc_{r.augmenter}_{r.classifier}.csv", roc_to_csv(r.roc))
    if bundle.config.export_synthetic:
        written += [
            write_synthetic_csv(outdir, built, bundle.plan)
            for built in bundle.augmented.values() if built[2] is not None
        ]

    meta = {
        "seed": bundle.config.seed,
        "config_digest": bundle.config.digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "n_train": bundle.n_train,
        "n_test": bundle.n_test,
        "contamination": bundle.contamination,
        "classifier_fit_ms": {c: round(ms, 1) for c, ms in bundle.classifier_fit_ms.items()},
        "cell_durations_ms": {
            f"{r.augmenter}/{r.classifier}": round(r.duration_ms, 1)
            for r in bundle.results
        },
    }
    put("run_meta.json", json.dumps(meta, indent=2) + "\n")
    return written
