"""Experiment config: the JSON file's schema and every check on its values.

Every section of `hyperparams` is a dataclass here, `GmmConfig` through
`DenseNetConfig`, with its fields, defaults (the default grids included)
and bounds; each generator and classifier module imports its own. So
checking a config loads no learner: this module imports numpy, `rng`
and, for `checked_prepare`, `dataio`.

`ExperimentConfig` checks each field against its annotation and bounds,
`module_configs` builds each generator's and classifier's config from
its `hyperparams` section the same way, and `check_data_bounds` checks
the hyperparameters that depend on the training rows. `checked_prepare`
runs all three with `dataio.prepare`: what `augbench validate` checks and
`augbench run` checks before it trains. Every failed check raises one
ConfigError with a one-line message naming the field.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import operator
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from .dataio import PreparedData, prepare
from .rng import SEED_MAX

AUGMENTER_IDS = ("none", "gmm", "vae", "gan")
CLASSIFIER_IDS = ("tree", "knn", "logistic", "svm_rbf", "svm_linear", "dense")

DEFAULT_DEPTH_GRID: tuple = (2, 3, 4, 5, 6, 8, None)
DEFAULT_K_GRID = (1, 3, 5, 7, 9, 11)
LOGISTIC_LAMBDA_GRID = (1.0, 0.1, 0.01, 0.0)
SVM_LAMBDA_GRID = (1.0, 0.1, 0.01, 0.001)
DEFAULT_C_GRID = (0.1, 1.0, 10.0)


@dataclass
class GmmConfig:
    n_components: int = field(default=3, metadata={"ge": 1})
    tol: float = field(default=1e-6, metadata={"ge": 0})  # relative log-likelihood change
    max_iter: int = field(default=200, metadata={"ge": 1})
    cov_floor: float = field(default=1e-6, metadata={"gt": 0})
    select_k_bic: bool = False  # pick K in 1..bic_k_max by BIC; n_components unused
    bic_k_max: int = field(default=5, metadata={"ge": 1})


@dataclass
class VaeConfig:
    hidden_size: int = field(default=16, metadata={"ge": 1})
    latent_dim: int = field(default=4, metadata={"ge": 1})
    epochs: int = field(default=500, metadata={"ge": 0})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})
    beta: float = field(default=1.0, metadata={"ge": 0})


@dataclass
class GanConfig:
    pretrain_epochs: int = field(default=500, metadata={"ge": 0})
    epochs: int = field(default=4000, metadata={"ge": 0})
    learning_rate: float = field(default=3e-4, metadata={"gt": 0})  # generator step size
    # None = same as generator
    disc_learning_rate: float | None = field(default=1e-3, metadata={"gt": 0})
    disc_hidden: tuple[int, int] = field(default=(32, 16), metadata={"ge": 1})
    vae: VaeConfig = field(default_factory=VaeConfig)


@dataclass
class TreeConfig:
    # "auto" = pick from depth_grid by CV; None = no limit
    max_depth: int | None | Literal["auto"] = field(default="auto", metadata={"ge": 0})
    depth_grid: tuple[int | None, ...] = field(default=DEFAULT_DEPTH_GRID, metadata={"ge": 0})
    min_samples_split: int = field(default=2, metadata={"ge": 2})
    cv_folds: int = field(default=5, metadata={"ge": 2})


@dataclass
class KnnConfig:
    # "auto" = pick from k_grid by CV
    k: int | Literal["auto"] = field(default="auto", metadata={"ge": 1})
    k_grid: tuple[int, ...] = field(default=DEFAULT_K_GRID, metadata={"ge": 1})
    weighting: Literal["uniform", "inverse"] = "inverse"
    cv_folds: int = field(default=5, metadata={"ge": 2})


@dataclass
class LogisticConfig:
    reg_lambda: float | Literal["auto"] = field(default="auto", metadata={"ge": 0})
    lambda_grid: tuple[float, ...] = field(default=LOGISTIC_LAMBDA_GRID, metadata={"ge": 0})
    epochs: int = field(default=1000, metadata={"ge": 0})
    learning_rate: float = field(default=0.05, metadata={"gt": 0})
    cv_folds: int = field(default=5, metadata={"ge": 2})


@dataclass
class LinearSvmConfig:
    # Pegasos steps by 1/(lambda t), so lambda must be positive.
    reg_lambda: float | Literal["auto"] = field(default="auto", metadata={"gt": 0})
    lambda_grid: tuple[float, ...] = field(default=SVM_LAMBDA_GRID, metadata={"gt": 0})
    epochs: int = field(default=2000, metadata={"ge": 0})
    cv_folds: int = field(default=5, metadata={"ge": 2})


@dataclass
class RbfSvmConfig:
    C: float | Literal["auto"] = field(default="auto", metadata={"gt": 0})
    c_grid: tuple[float, ...] = field(default=DEFAULT_C_GRID, metadata={"gt": 0})
    gamma: float | None = field(default=None, metadata={"gt": 0})  # None = 1/d
    kkt_tol: float = field(default=1e-3, metadata={"gt": 0})  # on the gap m - M
    max_iter: int = field(default=20000, metadata={"ge": 1})
    cv_folds: int = field(default=5, metadata={"ge": 2})


@dataclass
class DenseNetConfig:
    hidden: tuple[int, int] = field(default=(16, 8), metadata={"ge": 1})
    epochs: int = field(default=500, metadata={"ge": 0})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})


_SECTIONS = {
    "gmm": GmmConfig, "vae": VaeConfig, "gan": GanConfig, "tree": TreeConfig,
    "knn": KnnConfig, "logistic": LogisticConfig, "svm_linear": LinearSvmConfig,
    "svm_rbf": RbfSvmConfig, "dense": DenseNetConfig,
}
# The values each scalar annotation accepts, and how an error names them. A
# bool is neither an integer nor a number here, although Python counts it as
# both. A number must be finite: JSON's Infinity passes every bound. An
# error never suggests null.
_SCALARS = {
    type(None): (type(None), ""), bool: (bool, "true or false"),
    int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
    str: (str, "a string"),
}
_hints = functools.cache(typing.get_type_hints)


class ConfigError(Exception):
    pass


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
                if m is float and not math.isfinite(value):
                    raise ConfigError(f"{where} must be a finite number, got {value!r}")
                return value
            expected.append(name)
    *rest, last = filter(None, expected)
    raise ConfigError(
        f"{where} must be {', '.join(rest) + ' or ' if rest else ''}{last}, got {value!r}"
    )


_BOUNDS = {
    "gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
    "lt": (operator.lt, "<"), "le": (operator.le, "<="),
}


def _check_bounds(where: str, value, bounds: dict) -> None:
    """Raise one ConfigError unless the number `value`, or each element of
    the non-empty list `value`, meets the field's `gt`/`ge`/`lt`/`le`
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


def _check_fields(cls, values: dict, prefix: str = "") -> dict:
    """`values`, a dict of some of the dataclass `cls`'s fields, with each
    value passed through `_check` against the field's annotation and then
    `_check_bounds` against its metadata; an error names `prefix + name`."""
    hints, bounds = _hints(cls), {f.name: f.metadata for f in dataclasses.fields(cls)}
    checked = {}
    for name, value in values.items():
        checked[name] = _check(prefix + name, value, hints[name])
        _check_bounds(prefix + name, checked[name], bounds[name])
    return checked


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
        for name, value in _check_fields(ExperimentConfig, vars(self)).items():
            setattr(self, name, value)
        for name in ("augmenters", "classifiers"):
            ids = getattr(self, name)
            for k, x in enumerate(ids):
                if x in ids[:k]:
                    raise ConfigError(f"{name} lists {x!r} more than once")
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
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e.strerror}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must hold a JSON object")
        return cls.from_dict(data, base_dir=path.parent)

    def digest(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build_section_config(defaults, overrides: dict):
    section = type(defaults).__name__
    unknown = set(overrides) - set(_hints(type(defaults)))
    if unknown:
        raise ConfigError(f"unknown hyperparameter keys {sorted(unknown)} for {section}")
    return replace(defaults, **_check_fields(type(defaults), overrides, f"{section}."))


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
