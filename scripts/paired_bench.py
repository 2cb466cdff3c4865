#!/usr/bin/env python3
"""Benchmark the working tree against a git revision in alternating pairs.

    python3 scripts/paired_bench.py REV --workload W [--pairs N] [--seconds S] [--seed K]

Copies REV (with `git archive`) and the working tree (the files of `git
ls-files -co --exclude-standard`) into two directories under
`.bench_work/` whose paths have equal length, since the peak RSS moves
with the length of the checkout's path. Then runs N pairs (default 10, at
least 10) of `bench/run.py --workload W --trace 0`, each side from its own
copy: pair i uses seed K + i for both sides, and the side that runs first
alternates. `--seconds` defaults to BENCHMARK.json's `run_seconds`. A run
that exits non-zero or prints `"correct": false` stops the script with
exit code 1.

For each end-to-end metric of BENCHMARK.json it prints every pair, each
side's median and quartiles, the median per-pair ratio (change / parent),
the pairs the change wins in the metric's better direction (ties count for
neither side), and two verdicts:

  gain        the change wins at least 9 of 10 pairs and its median is
              better than the parent's by more than the parent's
              interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound, taken in the metric's own unit; where
              either side's interquartile range exceeds the bound the
              metric is unresolved, unless every change run is better
              than every parent run.

The copies are removed when the script ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_bits import REPO, extract  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


class BenchFailed(Exception):
    pass


class Summary(NamedTuple):
    """One end-to-end metric over the pairs: each side's quartiles
    (q1, median, q3), the median change/parent ratio, the change's wins,
    and the two verdicts."""

    name: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    ratio: float
    wins: int
    pairs: int
    gain: str
    regression: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the
    sorted values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(direction: str, a: float, b: float) -> bool:
    """Whether `a` is better than `b` for a metric whose better direction
    is `direction` ("lower" or "higher")."""
    return a < b if direction == "lower" else a > b


def wins(direction: str, parent: list[float], change: list[float]) -> int:
    """The pairs whose change run is better than their parent run."""
    return sum(better(direction, c, p) for p, c in zip(parent, change, strict=True))


def gain_verdict(direction: str, parent: list[float], change: list[float]) -> str:
    """"gain" when the change wins at least `WIN_SHARE` of the pairs and
    its median is better than the parent's by more than the parent's
    interquartile range, else "no gain"."""
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    ahead = parent_median - change_median if direction == "lower" else change_median - parent_median
    won = wins(direction, parent, change) >= WIN_SHARE * len(parent)
    return "gain" if won and ahead > q3 - q1 else "no gain"


def regression_verdict(
    direction: str, bound: float, parent: list[float], change: list[float]
) -> str:
    """"regression" when the change's median is worse than the parent's by
    more than `bound`; else "unresolved" when either side's interquartile
    range exceeds `bound` and not every change run beats every parent
    run; else "within bound"."""
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    change_q1, change_median, change_q3 = quartiles(change)
    worse = change_median - parent_median if direction == "lower" else parent_median - change_median
    if worse > bound:
        return "regression"
    spread = max(parent_q3 - parent_q1, change_q3 - change_q1)
    all_better = all(better(direction, c, p) for c in change for p in parent)
    return "unresolved" if spread > bound and not all_better else "within bound"


def summarize(metric: dict, parent: list[float], change: list[float]) -> Summary:
    """The `Summary` of one BENCHMARK.json end-to-end `metric` (its name,
    better direction and bound) over paired runs."""
    direction, bound = metric["better"], metric["bound"]
    return Summary(
        name=metric["name"],
        parent=quartiles(parent),
        change=quartiles(change),
        ratio=statistics.median(c / p for p, c in zip(parent, change, strict=True)),
        wins=wins(direction, parent, change),
        pairs=len(parent),
        gain=gain_verdict(direction, parent, change),
        regression=regression_verdict(direction, bound, parent, change),
    )


def sides(work: Path) -> tuple[Path, Path]:
    """The parent's and the change's copy under `work`: paths of equal length."""
    return work / "base", work / "head"


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files into `dest`."""
    listed = subprocess.run(
        ["git", "-C", str(REPO), "ls-files", "-co", "--exclude-standard", "-z"],
        check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = REPO / name
        if source.is_file():  # a tracked file deleted from the tree is skipped
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, target)


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metric values of one `bench/run.py --trace 0` run in
    `tree`; raises `BenchFailed` on a non-zero exit or a failed check."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise BenchFailed(f"{tree} seed {seed}: exit code {proc.returncode}, "
                          f"result {lines[-1] if lines else 'none'}\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(trees: tuple[Path, Path], workload: str, seeds: list[int], seconds: float,
              names: list[str]) -> list[tuple[dict, dict]]:
    """(parent, change) metric values per seed, alternating which side runs
    first; prints each pair's `names` metrics as it completes."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        values = {side: bench_once(trees[side], workload, seed, seconds) for side in order}
        pairs.append((values[0], values[1]))
        first = "parent" if order[0] == 0 else "change"
        cells = ", ".join(f"{name} {values[0][name]:.6g} -> {values[1][name]:.6g}"
                          for name in names)
        print(f"pair {i + 1} seed {seed} ({first} first): {cells}", flush=True)
    return pairs


def report(summaries: list[Summary]) -> None:
    print(f"{'metric':<15}{'parent q1 / median / q3':>32}{'change q1 / median / q3':>32}"
          f"{'ratio':>9}{'wins':>7}  verdicts")
    for s in summaries:
        parent = " / ".join(f"{v:.6g}" for v in s.parent)
        change = " / ".join(f"{v:.6g}" for v in s.change)
        print(f"{s.name:<15}{parent:>32}{change:>32}{s.ratio:>9.4f}"
              f"{f'{s.wins}/{s.pairs}':>7}  {s.gain}, {s.regression}")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent git revision")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--seed", type=int, default=0, help="the first pair's seed")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    work = REPO / ".bench_work" / f"paired-{os.getpid()}"
    trees = sides(work)
    work.mkdir(parents=True)
    try:
        extract(args.rev, trees[0])
        copy_working_tree(trees[1])
        seeds = list(range(args.seed, args.seed + args.pairs))
        print(f"{args.workload}: {args.rev} (parent) against the working tree (change), "
              f"{args.pairs} pairs, --seconds {args.seconds:g}", flush=True)
        pairs = run_pairs(trees, args.workload, seeds, args.seconds, [m["name"] for m in metrics])
    except BenchFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work)
    report([
        summarize(m, [p[m["name"]] for p, _ in pairs], [c[m["name"]] for _, c in pairs])
        for m in metrics
    ])
    return 0


if __name__ == "__main__":
    sys.exit(main())
