#!/usr/bin/env python3
"""Check that the working tree writes the same artifacts as a git revision.

    python3 scripts/same_bits.py REV [--seeds N]

Extracts REV with `git archive` into a temporary directory (the
repository's `.git` is only read), then runs the fixture grid
(`configs/fixture.json` with `export_synthetic` on, `--seeds N`) once with
each tree's own `src/` and data. Every artifact but `run_meta.json`, which
holds timings, must be byte-identical. Prints the files that differ or
exist on one side only, and exits 1 if there are any, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SKIPPED = {"run_meta.json"}


def extract(rev: str, dest: Path) -> None:
    """The tree of `rev`, as `git archive` gives it, into `dest`."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(REPO), "archive", f"--output={archive}", rev], check=True)
    dest.mkdir()
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)


def start_grid(tree: Path, work: Path, seeds: int) -> tuple[subprocess.Popen, Path]:
    """Start the fixture grid of `tree` under `work`; returns the process
    and its output directory."""
    config = json.loads((tree / "configs" / "fixture.json").read_text())
    config["dataset"] = str((tree / "configs" / config["dataset"]).resolve())
    config["export_synthetic"] = True
    work.mkdir(parents=True)
    config_path, out = work / "config.json", work / "out"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "augbench.cli", "run", "--config", str(config_path),
         "--out", str(out), "--seeds", str(seeds)],
        cwd=work, env=env, stdout=subprocess.DEVNULL,
    )
    return proc, out


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths, sorted, of the files under `a` and `b` that differ or
    exist under one only, skipping `SKIPPED` names."""
    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*")
                if p.is_file() and p.name not in SKIPPED}

    in_a, in_b = files(a), files(b)
    return sorted((in_a ^ in_b) | {
        name for name in in_a & in_b if (a / name).read_bytes() != (b / name).read_bytes()
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--seeds", type=int, default=2, help="seeds of the fixture grid")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        tmp = Path(tmp)
        extract(args.rev, tmp / "rev")
        runs = [start_grid(tree, tmp / name, args.seeds)
                for tree, name in ((tmp / "rev", "run_rev"), (REPO, "run_tree"))]
        codes = [proc.wait() for proc, _ in runs]
        if any(codes):
            print(f"error: a fixture grid failed (exit codes {args.rev}: {codes[0]}, "
                  f"working tree: {codes[1]})", file=sys.stderr)
            return 1
        diff = differing_files(runs[0][1], runs[1][1])
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(diff)} differing file(s) against {args.rev}, seeds {args.seeds}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
