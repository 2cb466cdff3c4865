"""Experiment orchestration: augmenter x classifier grid and reports.

One dataset load, one stratified split, one augmented training set per
augmenter (the test set is never augmented), every classifier trained on
every training set. Each grid cell draws from an RngStream keyed by
(seed, augmenter, classifier), so execution order cannot change results.

Report files: report.md (Acc/F1 and AUC tables), results.csv (one row
per cell), roc_<augmenter>_<classifier>.csv, synthetic_<generator>.csv
on request, and run_meta.json. Wall-clock durations live only in
run_meta.json so report.md and results.csv are byte-identical across
reruns of the same (config, seed).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import numbers
import operator
import time
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from . import classifiers as clf
from .augment import SyntheticBatch
from .dataio import (
    PreprocessPlan,
    apply_preprocess,
    fit_preprocess,
    load_table,
    stratified_split,
)
from .gan import GanConfig, augment_with_gan
from .gmm import GmmConfig, augment_with_gmm
from .metrics import RocCurve, accuracy, f1, roc_auc, roc_to_csv
from .rng import SEED_MAX, RngStream
from .vae import VaeConfig, augment_with_vae

AUGMENTER_IDS = ("none", "gmm", "vae", "gan")
CLASSIFIER_IDS = ("tree", "knn", "logistic", "svm_rbf", "svm_linear", "dense")

AUGMENTER_NAMES = {"none": "No boost", "gmm": "GMM", "vae": "VAE", "gan": "GAN"}
CLASSIFIER_NAMES = {
    "tree": "Decision Tree",
    "knn": "KNN",
    "logistic": "Logistic Regression",
    "svm_rbf": "SVM (RBF)",
    "svm_linear": "SVM Linear",
    "dense": "Dense Network",
}

_SECTIONS = {
    "gmm": GmmConfig, "vae": VaeConfig, "gan": GanConfig, "tree": clf.TreeConfig,
    "knn": clf.KnnConfig, "logistic": clf.LogisticConfig, "svm_linear": clf.LinearSvmConfig,
    "svm_rbf": clf.RbfSvmConfig, "dense": clf.DenseNetConfig,
}
# The values each scalar annotation accepts, and how an error names them. A
# bool is neither an integer nor a number here, although Python counts it as
# both. An error never suggests null.
_SCALARS = {
    type(None): (type(None), ""), bool: (bool, "true or false"),
    int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
    str: (str, "a string"),
}
_hints = functools.cache(typing.get_type_hints)


class ConfigError(Exception):
    pass


class GeneratorError(Exception):
    """A generator raised; the message is "{type}: {message}" of its error."""


def _check(where: str, value, hint):
    """Return `value` if it matches the annotation `hint`, with each list
    turned into a tuple; otherwise raise one ConfigError naming `where`.
    `hint` is a scalar, None, a Literal of strings, tuple[T, ...],
    tuple[T1, T2], dict[str, T], dict, or a union of these."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    expected = []
    for m in typing.get_args(hint) if union else (hint,):
        origin, args = typing.get_origin(m) or m, typing.get_args(m)
        if origin is Literal:
            if isinstance(value, str) and value in args:
                return value
            expected += map(json.dumps, args)
        elif origin is tuple:
            fixed = args[-1:] != (...,)
            if isinstance(value, (list, tuple)) and (not fixed or len(value) == len(args)):
                elems = args if fixed else args[:1] * len(value)
                return tuple(
                    _check(f"{where}[{i}]", v, a) for i, (v, a) in enumerate(zip(value, elems))
                )
            expected.append(f"a list of {len(args)}" if fixed else "a list")
        elif origin is dict:
            if isinstance(value, dict):
                return {
                    k: _check(f"{where}.{k}" if str(k).isidentifier() else f"{where}[{k!r}]",
                              v, args[1])
                    for k, v in value.items()
                } if args else value
            expected.append("an object")
        else:
            kind, name = _SCALARS[m]
            if isinstance(value, kind) and (m is bool or not isinstance(value, bool)):
                return value
            expected.append(name)
    *rest, last = filter(None, expected)
    raise ConfigError(
        f"{where} must be {', '.join(rest) + ' or ' if rest else ''}{last}, got {value!r}"
    )


@dataclass
class ExperimentConfig:
    dataset: str
    schema: dict[str, str]
    # RngStream takes a seed modulo 2**64, so one outside the range would
    # draw what another seed draws.
    seed: int = field(default=0, metadata={"ge": 0, "le": SEED_MAX})
    test_fraction: float = field(default=0.25, metadata={"gt": 0, "lt": 1})
    augmenters: tuple[Literal[AUGMENTER_IDS], ...] = AUGMENTER_IDS
    n_synthetic: int = field(default=200, metadata={"ge": 0})
    classifiers: tuple[Literal[CLASSIFIER_IDS], ...] = CLASSIFIER_IDS
    hyperparams: dict[str, dict] = field(default_factory=dict)
    output_dir: str = "out"
    export_synthetic: bool = False

    def __post_init__(self):
        for name, hint in _hints(ExperimentConfig).items():
            setattr(self, name, _check(name, getattr(self, name), hint))
        if not self.augmenters or not self.classifiers:
            raise ConfigError("augmenter and classifier sets must be nonempty")
        for name in ("augmenters", "classifiers"):
            ids = getattr(self, name)
            for k, x in enumerate(ids):
                if x in ids[:k]:
                    raise ConfigError(f"{name} lists {x!r} more than once")
        for f in dataclasses.fields(self):
            if f.metadata:
                _check_bounds(f.name, getattr(self, f.name), f.metadata)
        for section in self.hyperparams:
            if section not in _SECTIONS:
                raise ConfigError(f"unknown hyperparams section {section!r}")

    @classmethod
    def from_dict(cls, d: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for required in ("dataset", "schema"):
            if required not in d:
                raise ConfigError(f"config missing required key {required!r}")
        config = cls(**d)
        if base_dir is not None and not Path(config.dataset).is_absolute():
            config = replace(config, dataset=str(base_dir / config.dataset))
        return config

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must hold a JSON object")
        return cls.from_dict(data, base_dir=path.parent)

    def digest(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_BOUNDS = {
    "gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
    "lt": (operator.lt, "<"), "le": (operator.le, "<="),
}


def _check_bounds(where: str, value, bounds: dict) -> None:
    """Raise one ConfigError unless the number `value`, or each element of
    the non-empty grid `value`, meets the field's `gt`/`ge`/`lt`/`le`
    bounds; "auto" and None are not numbers and pass."""
    if isinstance(value, tuple):
        if not value:
            raise ConfigError(f"{where} must be a non-empty list, got []")
        for i, v in enumerate(value):
            _check_bounds(f"{where}[{i}]", v, bounds)
    elif isinstance(value, numbers.Real):
        for kind, limit in bounds.items():
            op, symbol = _BOUNDS[kind]
            if not op(value, limit):
                raise ConfigError(f"{where} must be {symbol} {limit}, got {value!r}")


def _build_section_config(defaults, overrides: dict):
    section = type(defaults).__name__
    hints = _hints(type(defaults))
    unknown = set(overrides) - set(hints)
    if unknown:
        raise ConfigError(f"unknown hyperparameter keys {sorted(unknown)} for {section}")
    metadata = {f.name: f.metadata for f in dataclasses.fields(defaults)}
    checked = {}
    for key, value in overrides.items():
        where = f"{section}.{key}"
        checked[key] = _check(where, value, hints[key])
        _check_bounds(where, checked[key], metadata[key])
    return replace(defaults, **checked)


def module_configs(config: ExperimentConfig) -> dict:
    hp = config.hyperparams
    cfgs = {
        name: _build_section_config(cls(), hp.get(name, {}))
        for name, cls in _SECTIONS.items() if name != "gan"
    }
    # gan.vae overrides hyperparams.vae, except for the epochs it never uses.
    gan_over = dict(hp.get("gan", {}))
    gan_vae_over = _check("hyperparams.gan.vae", gan_over.pop("vae", {}), dict)
    if "epochs" in gan_vae_over:
        raise ConfigError(
            "hyperparams.gan.vae.epochs is not used; the GAN pretrains its VAE "
            "for gan.pretrain_epochs"
        )
    gan_vae = _build_section_config(cfgs["vae"], gan_vae_over)
    cfgs["gan"] = _build_section_config(GanConfig(vae=gan_vae), gan_over)
    return cfgs


_FITTERS = {
    "tree": clf.fit_decision_tree,
    "knn": clf.fit_knn,
    "logistic": clf.fit_logistic,
    "svm_linear": clf.fit_linear_svm,
    "svm_rbf": clf.fit_rbf_svm,
    "dense": clf.fit_dense_net,
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
    provenances: dict[str, SyntheticBatch | None]
    # (features, labels) of the synthetic rows each generator added to the
    # training split, in its normalized feature space.
    synthetic: dict[str, tuple[np.ndarray, np.ndarray]]
    contamination: bool = False

    def cell(self, augmenter: str, classifier: str) -> EvalResult:
        for r in self.results:
            if r.augmenter == augmenter and r.classifier == classifier:
                return r
        raise KeyError((augmenter, classifier))


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


def check_data_bounds(config: ExperimentConfig, cfgs: dict, y_train: np.ndarray) -> None:
    """Raise one ConfigError for a hyperparameter that the real training
    rows, which every augmented training set contains, cannot meet: a
    tuned classifier's `cv_folds` above the smaller class's row count
    (a fold would miss that class), a pinned `knn.k` above the row
    count, or a tuned `knn.k_grid` with no entry that a CV training fold
    can hold (`fit_knn` keeps k <= n - n // cv_folds). A classifier is
    tuned when a field is "auto" (picked by CV)."""
    smaller = int(np.bincount(y_train, minlength=2).min())
    for c in config.classifiers:
        cfg, section = cfgs[c], type(cfgs[c]).__name__
        tuned = "auto" in (getattr(cfg, f.name) for f in dataclasses.fields(cfg))
        if tuned and cfg.cv_folds > smaller:
            raise ConfigError(
                f"{section}.cv_folds must be <= {smaller} (training rows of the smaller "
                f"class), got {cfg.cv_folds}"
            )
        if c == "knn" and cfg.k != "auto" and cfg.k > len(y_train):
            raise ConfigError(
                f"{section}.k must be <= {len(y_train)} (training rows), got {cfg.k}"
            )
        if c == "knn" and cfg.k == "auto":
            fold_rows = len(y_train) - len(y_train) // cfg.cv_folds
            if min(cfg.k_grid) > fold_rows:
                raise ConfigError(
                    f"{section}.k_grid must hold an entry <= {fold_rows} (training rows "
                    f"less one CV fold), got {list(cfg.k_grid)}"
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


def _run_cell(
    augmenter: str,
    classifier: str,
    X_aug: np.ndarray,
    y_aug: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    clf_config,
    rng: RngStream,
) -> EvalResult:
    result = EvalResult(augmenter=augmenter, classifier=classifier)
    start = time.perf_counter()
    try:
        model = _FITTERS[classifier](X_aug, y_aug, clf_config, rng)
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
    result.duration_ms = (time.perf_counter() - start) * 1000.0
    return result


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Execute the full augmenter x classifier grid for one seed; a cell
    whose classifier raises (say, on a bound `check_data_bounds` rejects)
    fails alone."""
    cfgs = module_configs(config)
    data = prepare(config)
    X_train, y_train = data.X_train, data.y_train
    X_test, y_test = data.X_test, data.y_test

    aug_sets = build_augmented_sets(config, X_train, y_train, cfgs)
    built = {a: s for a, s in aug_sets.items() if not isinstance(s, GeneratorError)}

    # Test purity: the test set comes straight from the original split and
    # no augmented set may mark an original row as synthetic.
    contamination = bool(np.intersect1d(data.train_indices, data.test_indices).size) or any(
        prov.synthetic_mask[: len(y_train)].any() or len(ya) != len(y_train) + prov.n_synthetic
        for _, ya, prov in built.values() if prov is not None
    )

    results = []
    for aug in config.augmenters:
        for c in config.classifiers:
            if aug in built:  # else its generator failed, and so does the cell
                X_aug, y_aug, _ = built[aug]
                cell_rng = RngStream(config.seed, ("cell", aug, c))
                results.append(_run_cell(aug, c, X_aug, y_aug, X_test, y_test, cfgs[c], cell_rng))
            else:
                results.append(EvalResult(aug, c, error=str(aug_sets[aug])))

    return ReportBundle(
        config=config,
        results=results,
        n_train=len(y_train),
        n_test=len(y_test),
        plan=data.plan,
        provenances={a: s[2] for a, s in built.items()},
        synthetic={
            a: (Xa[prov.synthetic_mask], ya[prov.synthetic_mask])
            for a, (Xa, ya, prov) in built.items() if prov is not None
        },
        contamination=contamination,
    )


def _fmt(v: float | None) -> str:
    return "failed" if v is None else f"{v:.2f}"


def _write_metric_table(out: io.StringIO, bundle: ReportBundle, title: str, attr: str):
    """One row per augmenter, one column per classifier, of `attr`."""
    cfg = bundle.config
    headers = [CLASSIFIER_NAMES[c] for c in cfg.classifiers]
    out.write(f"\n## {title}\n\n")
    out.write("| Boost Option | " + " | ".join(headers) + " |\n")
    out.write("|" + "---|" * (1 + len(headers)) + "\n")
    for aug in cfg.augmenters:
        row = [AUGMENTER_NAMES[aug]]
        row.extend(_fmt(getattr(bundle.cell(aug, c), attr)) for c in cfg.classifiers)
        out.write("| " + " | ".join(row) + " |\n")


def render_report_md(bundle: ReportBundle) -> str:
    cfg = bundle.config
    out = io.StringIO()
    out.write("# Augmentation benchmark report\n\n")
    out.write(
        f"Dataset: `{Path(cfg.dataset).name}` | seed {cfg.seed} | "
        f"train {bundle.n_train} / test {bundle.n_test} | "
        f"{cfg.n_synthetic} synthetic rows per augmenter\n\n"
    )

    headers = [CLASSIFIER_NAMES[c] for c in cfg.classifiers]
    out.write("## Accuracy / F1\n\n")
    out.write("| Boost Option | " + " | ".join(f"{h} Acc | {h} F1" for h in headers) + " |\n")
    out.write("|" + "---|" * (1 + 2 * len(headers)) + "\n")
    for aug in cfg.augmenters:
        row = [AUGMENTER_NAMES[aug]]
        for c in cfg.classifiers:
            r = bundle.cell(aug, c)
            row.extend([_fmt(r.test_acc), _fmt(r.test_f1)])
        out.write("| " + " | ".join(row) + " |\n")

    _write_metric_table(out, bundle, "AUC", "test_auc")
    _write_metric_table(out, bundle, "Train accuracy (overfitting check)", "train_acc")

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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["augmenter", "classifier", "test_acc", "test_f1", "test_auc",
         "train_acc", "hyperparams", "error"]
    )
    for r in bundle.results:
        writer.writerow([
            r.augmenter, r.classifier,
            "" if r.test_acc is None else repr(r.test_acc),
            "" if r.test_f1 is None else repr(r.test_f1),
            "" if r.test_auc is None else repr(r.test_auc),
            "" if r.train_acc is None else repr(r.train_acc),
            json.dumps(r.hyperparams, sort_keys=True),
            r.error or "",
        ])
    return buf.getvalue()


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
        for aug, (X_syn, y_syn) in bundle.synthetic.items():
            put(f"synthetic_{aug}.csv", export_synthetic_csv(X_syn, y_syn, bundle.plan))

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
