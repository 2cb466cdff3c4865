"""Command-line entry point.

Subcommands:
  run      — execute the full grid and write the report files
  augment  — fit one generator and write only the synthetic CSV
  validate — check the config, then load, split and preprocess as run does

Seed precedence: --seed flag > AUGBENCH_SEED env var > config file.

`run` and `augment` import `harness`, and with it every generator and
classifier, when they start; `validate` imports no learner, so it loads
only `config`, `dataio`, `augment` and `rng`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .augment import GeneratorError
from .config import (
    AUGMENTER_IDS, ConfigError, ExperimentConfig, checked_prepare, module_configs,
)
from .dataio import DataError, prepare
from .rng import SEED_MAX


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    env_seed = os.environ.get("AUGBENCH_SEED")
    if env_seed is not None:
        try:
            config = dataclasses.replace(config, seed=int(env_seed))
        except ValueError:
            raise ConfigError(f"AUGBENCH_SEED must be an integer, got {env_seed!r}") from None
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "out", None) is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    return config


def _make_output_dir(path: Path) -> Path | None:
    """Make the directory `path` and its missing parents; return the
    topmost directory this made, or None if `path` already existed."""
    missing = [p for p in (path, *path.parents) if not p.exists()]
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e.strerror}") from None
    return missing[-1] if missing else None


def _cmd_run(args) -> int:
    from . import harness

    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    config = _load_config(args)
    last_seed = config.seed + args.seeds - 1
    if last_seed > SEED_MAX:
        raise ConfigError(f"seed + --seeds - 1 must be <= {SEED_MAX}, got {last_seed}")
    # Every check, and the output directories, before the first cell trains.
    checked = checked_prepare(config)
    seeds = [config.seed + i for i in range(args.seeds)]
    for outdir in harness.seed_dirs(config.output_dir, seeds):
        _make_output_dir(outdir)
    bundles = harness.run_experiment(config, args.seeds, checked)
    harness.write_run(config.output_dir, bundles)
    print(f"wrote {len(bundles)} run(s) to {config.output_dir}")
    return 0


def _cmd_augment(args) -> int:
    from . import harness

    config = _load_config(args)
    if args.generator not in AUGMENTER_IDS or args.generator == "none":
        raise ConfigError("--generator must be one of gmm, vae, gan")
    config = dataclasses.replace(config, augmenters=(args.generator,))
    cfgs = module_configs(config)
    data = prepare(config)
    outdir = Path(config.output_dir)
    made = _make_output_dir(outdir)
    sets = harness.build_augmented_sets(config, data.X_train, data.y_train, cfgs)
    built = sets[args.generator]
    if isinstance(built, GeneratorError):
        if made is not None:  # a failed augment writes nothing
            shutil.rmtree(made)
        raise built
    path = harness.write_synthetic_csv(outdir, built, data.plan)
    print(f"wrote {built[2].n_synthetic} synthetic rows to {path}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    _, data = checked_prepare(config)
    y = np.concatenate([data.y_train, data.y_test])
    classes, counts = np.unique(y, return_counts=True)
    print(
        f"ok: {len(y)} rows ({data.dropped_row_count} dropped), "
        f"{data.X_train.shape[1]} features, class counts {dict(zip(classes.tolist(), counts.tolist()))}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augbench",
        description="Benchmark generative data augmentation for tabular classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full experiment grid")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--seeds", type=int, default=1,
                     help="number of consecutive seeds to run and aggregate")
    run.set_defaults(fn=_cmd_run)

    aug = sub.add_parser("augment", help="write synthetic rows for one generator")
    aug.add_argument("--config", required=True)
    aug.add_argument("--generator", required=True)
    aug.add_argument("--seed", type=int, default=None)
    aug.add_argument("--out", default=None)
    aug.set_defaults(fn=_cmd_augment)

    val = sub.add_parser("validate", help="check config and dataset loadability")
    val.add_argument("--config", required=True)
    val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, DataError, GeneratorError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
