"""Seeded generator for the `grid_large` input table.

The table has the bundled fixture's schema (user id, gender, age, salary,
purchased) and its class geometry: the cluster means, spreads, overlap
factor and positive share are read from `scripts/make_fixture.py`, which
is loaded as a module and left unchanged. Only the row count and the
random stream differ, and the stream comes from the workload seed.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
from pathlib import Path

import numpy as np

N_ROWS = 2000
FIRST_USER_ID = 15624510


def _fixture_geometry(root: Path):
    path = root / "scripts" / "make_fixture.py"
    spec = importlib.util.spec_from_file_location("_augbench_make_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clusters(rng, n: int, specs, overlap: float) -> np.ndarray:
    counts = [int(round(n * frac)) for frac, _, _ in specs]
    counts[-1] = n - sum(counts[:-1])
    parts = [
        np.column_stack([rng.normal(ma, sa * overlap, k), rng.normal(ms, ss * overlap, k)])
        for k, (_, (ma, sa), (ms, ss)) in zip(counts, specs)
    ]
    return np.vstack(parts)


def write_table(root: Path, seed: int, path: Path, n_rows: int = N_ROWS) -> str:
    """Write an `n_rows` table drawn from the fixture geometry; return its SHA-256."""
    fx = _fixture_geometry(root)
    rng = np.random.default_rng([seed, n_rows])
    n_pos = int(round(n_rows * fx.N_POSITIVE / fx.N))
    X = np.vstack([
        _clusters(rng, n_pos, fx.POSITIVE_CLUSTERS, fx.OVERLAP),
        _clusters(rng, n_rows - n_pos, fx.NEGATIVE_CLUSTERS, fx.OVERLAP),
    ])
    y = np.array([1] * n_pos + [0] * (n_rows - n_pos))
    order = rng.permutation(n_rows)
    X, y = X[order], y[order]

    # Same rounding and clipping as the fixture script.
    age = np.clip(np.round(X[:, 0]), 18, 60).astype(int)
    salary = np.clip(np.round(X[:, 1], -3), 15000, 150000).astype(int)
    gender = np.where(rng.uniform(size=n_rows) < 0.49, "Male", "Female")

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "gender", "age", "salary", "purchased"])
        writer.writerows(
            zip(range(FIRST_USER_ID, FIRST_USER_ID + n_rows), gender, age, salary, y)
        )
    return sha256_of(path)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
