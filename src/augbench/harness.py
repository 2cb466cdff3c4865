"""Experiment pipeline: the augmenter x classifier grid and its files.

Per seed: one dataset load, one stratified split, one augmented training
set per augmenter (the test set is never augmented). Then every classifier
is trained on every training set of every seed, classifier by classifier:
the logistic, linear-SVM and dense-net set trainers train all of a
classifier's (seed, augmenter) cells in one loop (in several, each of at
most JOINT_ROWS training rows, on a larger grid), and the tree, KNN and
RBF SVM fit each cell in turn. Each grid cell draws from an RngStream
keyed by (seed, augmenter, classifier), so execution order cannot change
results, and each cell's model has the bits of a fit on its set alone.

`emit_report` writes one seed's files: report.md, results.csv and
roc_<augmenter>_<classifier>.csv as `report` renders them,
synthetic_<generator>.csv on request, and run_meta.json. Wall-clock
durations live only in run_meta.json so the other files are
byte-identical across reruns of the same (config, seed).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import classifiers as clf
from .augment import SyntheticBatch
from .classifiers.base import attempt
from .config import ExperimentConfig, check_data_bounds, module_configs
from .dataio import (
    PreprocessPlan,
    apply_preprocess,
    fit_preprocess,
    load_table,
    stratified_split,
)
from .gan import augment_with_gan
from .gmm import augment_with_gmm
from .metrics import accuracy, f1, roc_auc, roc_to_csv
from .report import (
    EvalResult,
    ReportBundle,
    export_synthetic_csv,
    render_report_md,
    render_results_csv,
)
from .rng import RngStream
from .vae import augment_with_vae


class GeneratorError(Exception):
    """A generator raised; the message is "{type}: {message}" of its error."""


# Fit one training set; `run_experiment` calls each once per cell.
_FITTERS = {
    "tree": clf.fit_decision_tree,
    "knn": clf.fit_knn,
    "svm_rbf": clf.fit_rbf_svm,
}
# Fit every cell's training set in one call, one model or error per set.
_SET_FITTERS = {
    "logistic": clf.fit_logistic_sets,
    "svm_linear": clf.fit_linear_svm_sets,
    "dense": clf.fit_dense_net_sets,
}


@dataclass
class PreparedData:
    """One seed's stratified split, preprocessed with statistics fitted on
    its training rows only."""

    plan: PreprocessPlan
    train_indices: np.ndarray
    test_indices: np.ndarray
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    dropped_row_count: int


def prepare(config: ExperimentConfig) -> PreparedData:
    """Load the dataset, split it by `config.seed` and preprocess it."""
    table = load_table(config.dataset, config.schema)
    split = stratified_split(
        table.labels, config.test_fraction, RngStream(config.seed).derive("split")
    )
    # Preprocessing statistics come from the training rows only.
    plan = fit_preprocess(table.take(split.train_indices))
    X_all, y_all = apply_preprocess(table, plan)
    tr, te = split.train_indices, split.test_indices
    return PreparedData(
        plan, tr, te, X_all[tr], y_all[tr], X_all[te], y_all[te], table.dropped_row_count
    )



def checked_prepare(config: ExperimentConfig) -> tuple[dict, PreparedData]:
    """`(module_configs(config), prepare(config))`, after `check_data_bounds`:
    what `augbench validate` checks, and `augbench run` before it trains."""
    cfgs = module_configs(config)
    data = prepare(config)
    check_data_bounds(config, cfgs, data.y_train)
    return cfgs, data


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


# The most training rows one lockstepped fit takes. A set trainer's
# buffers hold each of its sets' rows x 20 CV columns at once (about 33
# bytes per row and column for the logistic trainer), so a grid with
# more rows than this trains in several calls, each of about 7 MB.
JOINT_ROWS = 10_000


def _joint_calls(sets: list) -> list[slice]:
    """Consecutive runs of `sets` of at most JOINT_ROWS rows each (a
    larger set alone)."""
    calls, start, rows = [], 0, 0
    for k, (_, y) in enumerate(sets):
        if rows and rows + len(y) > JOINT_ROWS:
            calls.append(slice(start, k))
            start, rows = k, 0
        rows += len(y)
    return calls + [slice(start, len(sets))]


def _fit_cells(classifier: str, sets: list, clf_config, rngs: list) -> list:
    """`(model or error, fit milliseconds)` for each `(X, y)` of `sets`,
    set k with `rngs[k]`. A lockstepped fit's time is split evenly across
    its sets."""
    fitted = []
    if classifier in _SET_FITTERS:
        for call in _joint_calls(sets):
            start = time.perf_counter()
            models = _SET_FITTERS[classifier](sets[call], clf_config, rngs[call])
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            fitted += [(model, elapsed_ms / len(models)) for model in models]
        return fitted
    for (X, y), rng in zip(sets, rngs):
        start = time.perf_counter()
        model = attempt(_FITTERS[classifier], X, y, clf_config, rng)
        fitted.append((model, (time.perf_counter() - start) * 1000.0))
    return fitted


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
    raised; its duration is `fit_ms` plus the scoring time."""
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

    `checked`, when given, is what `checked_prepare(config)` returned:
    its module configs are used and its data is the first seed's, which
    is not prepared again.

    Every seed is prepared and augmented first. Then each classifier
    trains all of its (seed, augmenter) cells, so the logistic,
    linear-SVM and dense-net trainers run every cell in one loop, or in
    one loop per JOINT_ROWS training rows. A cell whose classifier raises (say, on a bound
    `check_data_bounds` rejects) fails alone."""
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
    for c in config.classifiers:
        fitted = _fit_cells(
            c, [aug_sets[k][aug][:2] for k, aug in cells], cfgs[c],
            [RngStream(seeds[k].seed, ("cell", aug, c)) for k, aug in cells],
        )
        for (k, aug), (model, fit_ms) in zip(cells, fitted):
            X_aug, y_aug, _ = aug_sets[k][aug]
            scored[k][aug, c] = _score_cell(
                aug, c, model, fit_ms, X_aug, y_aug, prepared[k].X_test, prepared[k].y_test
            )
    return list(map(_bundle, seeds, prepared, aug_sets, scored))


def _bundle(
    config: ExperimentConfig, data: PreparedData, aug_sets: dict, scored: dict
) -> ReportBundle:
    """One seed's ReportBundle from its augmented sets and its scored
    cells, keyed by (augmenter, classifier)."""
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


def emit_report(bundle: ReportBundle, output_dir: str | Path) -> list[Path]:
    """Write report.md, results.csv, per-cell ROC files, run_meta.json and,
    with `export_synthetic`, each generator's synthetic training rows."""
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
        "cell_durations_ms": {
            f"{r.augmenter}/{r.classifier}": round(r.duration_ms, 1)
            for r in bundle.results
        },
    }
    put("run_meta.json", json.dumps(meta, indent=2) + "\n")
    return written
