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
import hashlib
import io
import json
import numbers
import time
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classifiers as clf
from .augment import SyntheticBatch
from .dataio import (
    PreprocessPlan,
    RawTable,
    apply_preprocess,
    fit_preprocess,
    load_table,
    stratified_split,
)
from .gan import GanConfig, augment_with_gan
from .gmm import GmmConfig, augment_with_gmm
from .metrics import RocCurve, accuracy, f1, roc_auc, roc_to_csv
from .rng import RngStream
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

_CONFIG_KEYS = {
    "dataset", "schema", "seed", "test_fraction", "augmenters", "n_synthetic",
    "classifiers", "hyperparams", "output_dir", "export_synthetic",
}
_HYPERPARAM_SECTIONS = {
    "gmm", "vae", "gan", "tree", "knn", "logistic", "svm_linear", "svm_rbf", "dense",
}
# The type each config field must have, and how an error names it. A bool
# is rejected where a number is expected, although Python counts it as one.
_FIELD_TYPES = {
    "dataset": (str, "a string"),
    "schema": (dict, "an object"),
    "seed": (numbers.Integral, "an integer"),
    "test_fraction": (numbers.Real, "a number"),
    "augmenters": ((list, tuple), "a list"),
    "n_synthetic": (numbers.Integral, "an integer"),
    "classifiers": ((list, tuple), "a list"),
    "hyperparams": (dict, "an object"),
    "output_dir": (str, "a string"),
    "export_synthetic": (bool, "true or false"),
}


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    dataset: str
    schema: dict[str, str]
    seed: int = 0
    test_fraction: float = 0.25
    augmenters: tuple[str, ...] = AUGMENTER_IDS
    n_synthetic: int = 200
    classifiers: tuple[str, ...] = CLASSIFIER_IDS
    hyperparams: dict = field(default_factory=dict)
    output_dir: str = "out"
    export_synthetic: bool = False

    def __post_init__(self):
        for name, (types, expected) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
                raise ConfigError(f"{name} must be {expected}, got {value!r}")
        self.augmenters = tuple(self.augmenters)
        self.classifiers = tuple(self.classifiers)
        if not self.augmenters or not self.classifiers:
            raise ConfigError("augmenter and classifier sets must be nonempty")
        for a in self.augmenters:
            if a not in AUGMENTER_IDS:
                raise ConfigError(f"unknown augmenter {a!r}; choose from {AUGMENTER_IDS}")
        for c in self.classifiers:
            if c not in CLASSIFIER_IDS:
                raise ConfigError(f"unknown classifier {c!r}; choose from {CLASSIFIER_IDS}")
        for name in ("augmenters", "classifiers"):
            ids = getattr(self, name)
            for k, x in enumerate(ids):
                if x in ids[:k]:
                    raise ConfigError(f"{name} lists {x!r} more than once")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if self.n_synthetic < 0:
            raise ConfigError("n_synthetic must be nonnegative")
        for section, kv in self.hyperparams.items():
            if section not in _HYPERPARAM_SECTIONS:
                raise ConfigError(f"unknown hyperparams section {section!r}")
            if not isinstance(kv, dict):
                raise ConfigError(f"hyperparams.{section} must be an object")

    @classmethod
    def from_dict(cls, d: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        unknown = set(d) - _CONFIG_KEYS
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


def _build_section_config(defaults, overrides: dict):
    section = type(defaults).__name__
    current = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(defaults)}
    unknown = set(overrides) - set(current)
    if unknown:
        raise ConfigError(f"unknown hyperparameter keys {sorted(unknown)} for {section}")
    hints = typing.get_type_hints(type(defaults))
    for key, value in overrides.items():
        # None passes only where the field's annotation includes it. A
        # numeric field (one whose default is a number, "auto" or None)
        # takes a number, or "auto" where that is the default.
        if value is None:
            if type(None) not in typing.get_args(hints[key]):
                raise ConfigError(f"{section}.{key} must not be null")
            continue
        default = current[key]
        auto = default == "auto"
        numeric = auto or default is None or (
            isinstance(default, (int, float)) and not isinstance(default, bool))
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if numeric and not (number or (auto and value == "auto")):
            expected = 'a number or "auto"' if auto else "a number"
            raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
    clean = {
        k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()
    }
    return replace(defaults, **clean)


def module_configs(config: ExperimentConfig) -> dict:
    hp = config.hyperparams
    vae_cfg = _build_section_config(VaeConfig(), hp.get("vae", {}))
    gan_over = dict(hp.get("gan", {}))
    gan_vae_over = gan_over.pop("vae", {})
    if not isinstance(gan_vae_over, dict):
        raise ConfigError("hyperparams.gan.vae must be an object")
    if "epochs" in gan_vae_over:
        raise ConfigError(
            "hyperparams.gan.vae.epochs is not used; the GAN pretrains its VAE "
            "for gan.pretrain_epochs"
        )
    gan_vae = _build_section_config(vae_cfg, gan_vae_over)
    gan_cfg = _build_section_config(GanConfig(vae=gan_vae), gan_over)
    return {
        "gmm": _build_section_config(GmmConfig(), hp.get("gmm", {})),
        "vae": vae_cfg,
        "gan": gan_cfg,
        "tree": _build_section_config(clf.TreeConfig(), hp.get("tree", {})),
        "knn": _build_section_config(clf.KnnConfig(), hp.get("knn", {})),
        "logistic": _build_section_config(clf.LogisticConfig(), hp.get("logistic", {})),
        "svm_linear": _build_section_config(clf.LinearSvmConfig(), hp.get("svm_linear", {})),
        "svm_rbf": _build_section_config(clf.RbfSvmConfig(), hp.get("svm_rbf", {})),
        "dense": _build_section_config(clf.DenseNetConfig(), hp.get("dense", {})),
    }


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

    label_i = table.label_index
    y_all = np.array([int(r[label_i]) for r in table.rows])
    split = stratified_split(y_all, config.test_fraction, RngStream(config.seed).derive("split"))

    # Preprocessing statistics come from the training rows only.
    train_table = RawTable(
        table.column_names, table.column_kinds,
        [table.rows[i] for i in split.train_indices], 0,
    )
    plan = fit_preprocess(train_table)
    X_all, y_all = apply_preprocess(table, plan)
    tr, te = split.train_indices, split.test_indices
    return PreparedData(
        plan, tr, te, X_all[tr], y_all[tr], X_all[te], y_all[te], table.dropped_row_count
    )


def build_augmented_sets(
    config: ExperimentConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    cfgs: dict,
) -> dict[str, tuple[np.ndarray, np.ndarray, SyntheticBatch | None]]:
    """One training set per augmenter, each generator drawing from its own
    stream of `config.seed`; `cfgs` is `module_configs(config)`."""
    rng = RngStream(config.seed).derive("augment")
    sets = {}
    for aug in config.augmenters:
        if aug == "none":
            sets[aug] = (X_train, y_train, None)
            continue
        fn = {"gmm": augment_with_gmm, "vae": augment_with_vae, "gan": augment_with_gan}[aug]
        sets[aug] = fn(
            X_train, y_train, config.n_synthetic, cfgs[aug], rng.derive(aug)
        )
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
    """Execute the full augmenter x classifier grid for one seed."""
    cfgs = module_configs(config)
    data = prepare(config)
    X_train, y_train = data.X_train, data.y_train
    X_test, y_test = data.X_test, data.y_test

    aug_sets = build_augmented_sets(config, X_train, y_train, cfgs)

    # Test purity: the test set comes straight from the original split and
    # no augmented set may mark an original row as synthetic.
    contamination = bool(np.intersect1d(data.train_indices, data.test_indices).size)
    for aug, (_, ya, prov) in aug_sets.items():
        if prov is not None:
            if prov.synthetic_mask[: len(y_train)].any():
                contamination = True
            if len(ya) != len(y_train) + prov.n_synthetic:
                contamination = True

    results = []
    for aug in config.augmenters:
        X_aug, y_aug, _ = aug_sets[aug]
        for c in config.classifiers:
            cell_rng = RngStream(config.seed, ("cell", aug, c))
            results.append(
                _run_cell(aug, c, X_aug, y_aug, X_test, y_test, cfgs[c], cell_rng)
            )

    return ReportBundle(
        config=config,
        results=results,
        n_train=len(y_train),
        n_test=len(y_test),
        plan=data.plan,
        provenances={a: s[2] for a, s in aug_sets.items()},
        synthetic={
            a: (Xa[prov.synthetic_mask], ya[prov.synthetic_mask])
            for a, (Xa, ya, prov) in aug_sets.items() if prov is not None
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
