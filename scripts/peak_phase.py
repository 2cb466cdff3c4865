#!/usr/bin/env python3
"""Show which calls of an `augbench run` raise the process's peak RSS.

    python3 scripts/peak_phase.py CONFIG [--seeds N]

Runs `augbench run --config CONFIG --seeds N` in this process, with its
files written to a temporary directory, and wraps these calls: the
harness's augmenters (`augment_with_gmm`, `augment_with_vae`,
`augment_with_gan`), `harness._fit_cells` and `harness._score_cell`, plus
`knn.sq_distances` and `svm_rbf.rbf_kernel`. Each wrapper reads the peak
resident size (`ru_maxrss` of `getrusage`) before and after its call, and
prints the call if the peak rose: the rise, the peak after it, the call's
name and its string arguments and 2-D array shapes. A wrapped call made
inside another prints first, and the outer call's rise includes it.
"""

from __future__ import annotations

import argparse
import functools
import resource
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from augbench import cli, harness  # noqa: E402
from augbench.classifiers import knn, svm_rbf  # noqa: E402

# (module, function name) of every wrapped call.
WRAPPED = [
    (harness, "augment_with_gmm"),
    (harness, "augment_with_vae"),
    (harness, "augment_with_gan"),
    (harness, "_fit_cells"),
    (harness, "_score_cell"),
    (knn, "sq_distances"),
    (svm_rbf, "rbf_kernel"),
]


def peak_mib() -> float:
    """The process's peak resident size so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def describe(args) -> str:
    """The string arguments and 2-D array shapes of a call, comma-separated."""
    return ", ".join(
        a if isinstance(a, str) else "x".join(map(str, a.shape))
        for a in args
        if isinstance(a, str) or (isinstance(a, np.ndarray) and a.ndim == 2)
    )


def wrap(module, name: str) -> None:
    """Replace `module.name` by a wrapper that prints each rise of the peak."""
    fn = getattr(module, name)
    label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        before = peak_mib()
        try:
            return fn(*args, **kwargs)
        finally:
            after = peak_mib()
            if after > before:
                print(f"+{after - before:6.2f} MiB -> {after:6.2f} MiB  "
                      f"{label}({describe(args)})")

    setattr(module, name, wrapped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="the experiment config to run")
    parser.add_argument("--seeds", type=int, default=1, help="seeds to run")
    args = parser.parse_args(argv)

    for module, name in WRAPPED:
        wrap(module, name)
    print(f"peak before the run: {peak_mib():.2f} MiB")
    with tempfile.TemporaryDirectory(prefix="peak_phase_") as out:
        code = cli.main(["run", "--config", args.config, "--out", out,
                         "--seeds", str(args.seeds)])
    print(f"peak after the run: {peak_mib():.2f} MiB")
    return code


if __name__ == "__main__":
    sys.exit(main())
