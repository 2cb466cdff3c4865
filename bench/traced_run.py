"""Run `augbench` in this process with its layer functions wrapped in spans.

    python3 bench/traced_run.py SPANS.npz run --config CFG --out DIR ...

Everything after the spans path is passed to augbench's command line
unchanged. The program's code is not edited: `layers.TARGETS` is wrapped
after import, and the spans are saved to SPANS.npz when the run ends.
The exit code is the program's.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from layers import TARGETS
from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, program_args = Path(argv[0]), argv[1:]
    cli = importlib.import_module("augbench.cli")
    for module in {t[0] for t in TARGETS}:
        importlib.import_module(module)
    tracer = Tracer()
    tracer.install(TARGETS, "augbench")
    code = cli.main(program_args)
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
