"""CSV ingestion, preprocessing and stratified splitting.

The pipeline is: `load_table` (parse + clean), `fit_preprocess` on the
training rows (z-score statistics, category maps), `apply_preprocess`
(design matrix + labels), `stratified_split` (per-class proportional
train/test cut).

Cleaning policy: rows with unparsable numeric cells or label values
outside {0, 1} are dropped and counted, never imputed. Standard
deviations use the population (divide-by-n) convention.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import RngStream

log = logging.getLogger(__name__)

COLUMN_KINDS = ("numeric", "categorical", "identifier", "label")


class DataError(Exception):
    """Raised for unusable datasets or schema violations."""


@dataclass
class RawTable:
    column_names: list[str]
    column_kinds: list[str]
    rows: list[tuple[str, ...]]
    dropped_row_count: int = 0

    @property
    def label_index(self) -> int:
        return self.column_kinds.index("label")

    def column(self, name: str) -> list[str]:
        i = self.column_names.index(name)
        return [row[i] for row in self.rows]


@dataclass
class PreprocessPlan:
    # name -> (mean, std) for retained numeric columns
    numeric_stats: dict[str, tuple[float, float]]
    # name -> ordered {category: index} for categorical columns
    category_maps: dict[str, dict[str, int]]
    # final design-matrix column names, e.g. "age" or "gender=Male"
    feature_order: list[str]
    # zero-variance numeric columns excluded from the matrix
    excluded_columns: list[str] = field(default_factory=list)


@dataclass
class SplitPair:
    train_indices: np.ndarray
    test_indices: np.ndarray


def _parse_float(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if np.isfinite(v) else None


def load_table(path: str | Path, schema: dict[str, str]) -> RawTable:
    """Read a CSV whose header matches `schema` (name -> column kind).

    Rows with unparsable numeric cells or labels outside {0, 1} are
    dropped and counted in `dropped_row_count`.
    """
    path = Path(path)
    if not os.path.isfile(path):
        raise DataError(f"dataset file not found: {path}")
    for name, kind in schema.items():
        if kind not in COLUMN_KINDS:
            raise DataError(f"unknown column kind {kind!r} for column {name!r}")
    label_cols = [n for n, k in schema.items() if k == "label"]
    if len(label_cols) != 1:
        raise DataError(f"schema must declare exactly one label column, got {label_cols}")

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        if header != list(schema):
            raise DataError(
                f"header mismatch: file has {header}, schema declares {list(schema)}"
            )
        kinds = [schema[name] for name in header]
        label_idx = kinds.index("label")
        numeric_idx = [i for i, k in enumerate(kinds) if k == "numeric"]

        rows: list[tuple[str, ...]] = []
        dropped = 0
        for raw in reader:
            if len(raw) != len(header):
                dropped += 1
                continue
            cells = tuple(c.strip() for c in raw)
            if cells[label_idx] not in ("0", "1"):
                dropped += 1
                continue
            if any(_parse_float(cells[i]) is None for i in numeric_idx):
                dropped += 1
                continue
            rows.append(cells)

    if not rows:
        raise DataError(f"zero usable rows in {path}")
    return RawTable(header, kinds, rows, dropped)


def fit_preprocess(table: RawTable) -> PreprocessPlan:
    """Compute z-score statistics and category maps from `table`.

    Zero-variance numeric columns are excluded from the feature order
    and reported in `excluded_columns`.
    """
    numeric_stats: dict[str, tuple[float, float]] = {}
    category_maps: dict[str, dict[str, int]] = {}
    feature_order: list[str] = []
    excluded: list[str] = []

    for name, kind in zip(table.column_names, table.column_kinds):
        if kind == "numeric":
            vals = np.array([_parse_float(c) for c in table.column(name)], dtype=float)
            mean = float(vals.mean())
            std = float(vals.std())  # population convention
            if std == 0.0:
                excluded.append(name)
                log.warning("excluding zero-variance numeric column %r", name)
                continue
            numeric_stats[name] = (mean, std)
            feature_order.append(name)
        elif kind == "categorical":
            cmap: dict[str, int] = {}
            for cell in table.column(name):
                if cell not in cmap:
                    cmap[cell] = len(cmap)
            category_maps[name] = cmap
            feature_order.extend(f"{name}={cat}" for cat in cmap)

    if not feature_order:
        raise DataError("all columns excluded; nothing to train on")
    return PreprocessPlan(numeric_stats, category_maps, feature_order, excluded)


def apply_preprocess(
    table: RawTable, plan: PreprocessPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Build the design matrix and label vector under a fitted plan.

    Numeric cells are z-scored with the plan's training statistics;
    categoricals are one-hot encoded. An unseen category maps to an
    all-zero block (logged).
    """
    for name in list(plan.numeric_stats) + list(plan.category_maps):
        if name not in table.column_names:
            raise DataError(f"table lacks column {name!r} required by the plan")

    n = len(table.rows)
    X = np.zeros((n, len(plan.feature_order)))
    col_of = {name: j for j, name in enumerate(plan.feature_order)}

    for name, (mean, std) in plan.numeric_stats.items():
        i = table.column_names.index(name)
        vals = np.array([float(row[i]) for row in table.rows])
        X[:, col_of[name]] = (vals - mean) / std

    for name, cmap in plan.category_maps.items():
        i = table.column_names.index(name)
        for r, row in enumerate(table.rows):
            idx = cmap.get(row[i])
            if idx is None:
                log.warning(
                    "unseen category %r in column %r -> zero block", row[i], name
                )
                continue
            X[r, col_of[f"{name}={row[i]}"]] = 1.0

    label_i = table.label_index
    y = np.array([int(row[label_i]) for row in table.rows], dtype=int)
    return X, y


def stratified_split(
    labels: np.ndarray,
    test_fraction: float,
    rng: RngStream,
) -> SplitPair:
    """Per-class shuffle then proportional cut; deterministic in the stream."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    # With return_counts, numpy 2.4 skips its hash-based unique, which
    # imports numpy.ma: about 15 ms of every fresh `validate` process.
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2:
        raise DataError("both classes must be present to split")

    train_parts, test_parts = [], []
    for c, count in zip(classes, counts):
        if count < 2:
            raise DataError(f"class {c} has fewer than 2 rows")
        idx = np.flatnonzero(labels == c)
        n_test = int(round(len(idx) * test_fraction))
        n_test = min(max(n_test, 1), len(idx) - 1)
        order = idx[rng.derive(f"class{c}").permutation(len(idx))]
        test_parts.append(order[:n_test])
        train_parts.append(order[n_test:])

    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return SplitPair(train_indices=train, test_indices=test)
