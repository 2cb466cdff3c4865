"""Experiment config: the JSON file's schema and every check on its values.

`ExperimentConfig` checks each field against its annotation and bounds,
`module_configs` builds each generator's and classifier's config from
its `hyperparams` section the same way, and `check_data_bounds` checks
the hyperparameters that depend on the training rows. Every failed check
raises one ConfigError with a one-line message naming the field.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import numbers
import operator
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from . import classifiers as clf
from .gan import GanConfig
from .gmm import GmmConfig
from .rng import SEED_MAX
from .vae import VaeConfig

AUGMENTER_IDS = ("none", "gmm", "vae", "gan")
CLASSIFIER_IDS = ("tree", "knn", "logistic", "svm_rbf", "svm_linear", "dense")

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
