"""Checks on the files one `augbench run` writes, and the quality metrics.

A run with `--seeds 1` writes report.md, results.csv, run_meta.json and a
roc_<augmenter>_<classifier>.csv per scored cell into its output
directory; with `--seeds N > 1` each seed gets a `seed_<s>/` directory
with those files and the top directory gets aggregate.csv.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

METRIC_COLUMNS = ("test_acc", "test_f1", "test_auc", "train_acc")
STABLE_FILES = ("report.md", "results.csv")


@dataclass
class CellSummary:
    """Cells of a run across its seeds, and the means over scored cells."""

    attempted: int = 0
    failed: int = 0
    auc: list[float] = field(default_factory=list)
    acc: list[float] = field(default_factory=list)

    @property
    def mean_test_auc(self) -> float:
        return sum(self.auc) / len(self.auc) if self.auc else 0.0

    @property
    def mean_test_acc(self) -> float:
        return sum(self.acc) / len(self.acc) if self.acc else 0.0


def seed_dirs(outdir: Path, seeds: list[int]) -> list[Path]:
    return [outdir] if len(seeds) == 1 else [outdir / f"seed_{s}" for s in seeds]


def _in_unit_interval(text: str) -> bool:
    try:
        return 0.0 <= float(text) <= 1.0
    except ValueError:
        return False


def read_cells(text: str, summary: CellSummary, problems: list[str], where: str) -> list[dict]:
    """Add one results.csv to `summary`; note values outside [0, 1]."""
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        summary.attempted += 1
        if row["error"]:
            summary.failed += 1
            continue
        bad = [col for col in METRIC_COLUMNS if not _in_unit_interval(row[col])]
        if bad:
            problems.append(f"{where}: {row['augmenter']}/{row['classifier']} "
                            + ", ".join(f"{c}={row[c]!r}" for c in bad))
            continue
        summary.auc.append(float(row["test_auc"]))
        summary.acc.append(float(row["test_acc"]))
    return rows


def check_run(
    outdir: Path, augmenters: list[str], classifiers: list[str], seeds: list[int]
) -> tuple[CellSummary, list[str], dict[str, float]]:
    """Summarize and check one run's output directory.

    Returns the cell summary, the problems found, and the summed cell
    time per classifier in seconds from run_meta.json.
    """
    summary, problems, cell_seconds = CellSummary(), [], {}
    expected_cells = {(a, c) for a in augmenters for c in classifiers}
    if len(seeds) > 1 and not (outdir / "aggregate.csv").is_file():
        problems.append("aggregate.csv missing")
    for d in seed_dirs(outdir, seeds):
        missing = [n for n in ("report.md", "results.csv", "run_meta.json")
                   if not (d / n).is_file()]
        if missing:
            problems.append(f"{d.name}: missing {', '.join(missing)}")
            continue
        rows = read_cells((d / "results.csv").read_text(), summary, problems, d.name)
        cells = [(r["augmenter"], r["classifier"]) for r in rows]
        if len(cells) != len(expected_cells) or set(cells) != expected_cells:
            problems.append(f"{d.name}: {len(cells)} cells, expected {len(expected_cells)}")
        for r in rows:
            if not r["error"] and not (d / f"roc_{r['augmenter']}_{r['classifier']}.csv").is_file():
                problems.append(f"{d.name}: roc_{r['augmenter']}_{r['classifier']}.csv missing")
        meta = json.loads((d / "run_meta.json").read_text())
        if meta.get("contamination") is not False:
            problems.append(f"{d.name}: contamination is {meta.get('contamination')!r}")
        for cell, ms in meta.get("cell_durations_ms", {}).items():
            clf = cell.split("/", 1)[1]
            cell_seconds[clf] = cell_seconds.get(clf, 0.0) + ms / 1000.0
    return summary, problems, cell_seconds


def compare_runs(a: Path, b: Path, seeds: list[int]) -> list[str]:
    """Files that must be byte-identical across repeats of one seed."""
    problems = []
    for da, db in zip(seed_dirs(a, seeds), seed_dirs(b, seeds)):
        for name in STABLE_FILES:
            pa, pb = da / name, db / name
            if not (pa.is_file() and pb.is_file()) or pa.read_bytes() != pb.read_bytes():
                problems.append(f"{db.name}/{name} differs between repeats of one seed")
    return problems
