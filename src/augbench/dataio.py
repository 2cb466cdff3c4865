"""CSV ingestion, stratified splitting and preprocessing.

The pipeline is: `load_table` (parse + clean into a column-oriented
`Table`), `stratified_split` on `Table.labels` (per-class proportional
train/test cut), `fit_preprocess` on `Table.take(train_indices)`
(z-score statistics, category maps), and `apply_preprocess` on the whole
table (design matrix + labels).

Cleaning policy: rows with the wrong cell count, unparsable or
non-finite numeric cells, or label values outside {0, 1} are dropped and
counted, never imputed. Standard deviations use the population
(divide-by-n) convention.
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
class Table:
    """A dataset's kept rows, parsed once: `columns` maps each numeric
    column to a float64 array and each categorical one to a string array,
    in schema order (identifiers dropped); `labels` is the 0/1 target."""

    columns: dict[str, np.ndarray]
    labels: np.ndarray
    dropped_row_count: int = 0

    def take(self, rows: np.ndarray) -> Table:
        """The subset at `rows`, with the same `dropped_row_count`."""
        columns = {name: col[rows] for name, col in self.columns.items()}
        return Table(columns, self.labels[rows], self.dropped_row_count)


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


def load_table(path: str | Path, schema: dict[str, str]) -> Table:
    """Read a CSV whose header matches `schema` (name -> column kind).

    Rows with the wrong cell count, unparsable numeric cells or labels
    outside {0, 1} are dropped and counted in `dropped_row_count`.
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
        label_idx = header.index(label_cols[0])
        kept = [i for i, name in enumerate(header) if schema[name] in ("numeric", "categorical")]
        numeric = {i for i in kept if schema[header[i]] == "numeric"}

        records, labels, dropped = [], [], 0
        for raw in reader:
            cells = [c.strip() for c in raw]
            if len(cells) == len(header) and cells[label_idx] in ("0", "1"):
                values = [_parse_float(cells[i]) if i in numeric else cells[i] for i in kept]
                if None not in values:
                    records.append(values)
                    labels.append(int(cells[label_idx]))
                    continue
            dropped += 1

    if not records:
        raise DataError(f"zero usable rows in {path}")
    columns = {
        header[i]: np.array(col, dtype=float if i in numeric else str)
        for i, col in zip(kept, zip(*records))
    }
    return Table(columns, np.array(labels, dtype=int), dropped)


def fit_preprocess(table: Table) -> PreprocessPlan:
    """Compute z-score statistics and category maps from `table`.

    Categories are indexed by first appearance. Zero-variance numeric
    columns are excluded from the feature order and reported in
    `excluded_columns`.
    """
    numeric_stats: dict[str, tuple[float, float]] = {}
    category_maps: dict[str, dict[str, int]] = {}
    feature_order: list[str] = []
    excluded: list[str] = []

    for name, col in table.columns.items():
        if col.dtype.kind == "f":
            mean = float(col.mean())
            std = float(col.std())  # population convention
            if std == 0.0:
                excluded.append(name)
                log.warning("excluding zero-variance numeric column %r", name)
                continue
            numeric_stats[name] = (mean, std)
            feature_order.append(name)
        else:
            cats = dict.fromkeys(col.tolist())
            category_maps[name] = {cat: j for j, cat in enumerate(cats)}
            feature_order.extend(f"{name}={cat}" for cat in cats)

    if not feature_order:
        raise DataError("all columns excluded; nothing to train on")
    return PreprocessPlan(numeric_stats, category_maps, feature_order, excluded)


def apply_preprocess(
    table: Table, plan: PreprocessPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Build the design matrix and label vector under a fitted plan.

    Numeric cells are z-scored with the plan's training statistics;
    categoricals are one-hot encoded. An unseen category maps to an
    all-zero block (logged once per value).
    """
    for name in list(plan.numeric_stats) + list(plan.category_maps):
        if name not in table.columns:
            raise DataError(f"table lacks column {name!r} required by the plan")

    X = np.zeros((len(table.labels), len(plan.feature_order)))
    col_of = {name: j for j, name in enumerate(plan.feature_order)}

    for name, (mean, std) in plan.numeric_stats.items():
        X[:, col_of[name]] = (table.columns[name] - mean) / std

    for name, cmap in plan.category_maps.items():
        col = table.columns[name]
        for cat in cmap:
            X[:, col_of[f"{name}={cat}"]] = col == cat
        for cat in dict.fromkeys(col.tolist()):
            if cat not in cmap:
                log.warning("unseen category %r in column %r -> zero block", cat, name)

    return X, table.labels


def stratified_split(
    labels: np.ndarray,
    test_fraction: float,
    rng: RngStream,
) -> SplitPair:
    """Per-class shuffle then proportional cut; deterministic in the stream."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
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
