"""Command-line entry point.

Subcommands:
  run      — execute the full grid and write the report files
  augment  — fit one generator and write only the synthetic CSV
  validate — check the config, then load, split and preprocess as run does

Seed precedence: --seed flag > AUGBENCH_SEED env var > config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .dataio import DataError
from .harness import (
    AUGMENTER_IDS,
    ConfigError,
    ExperimentConfig,
    GeneratorError,
    build_augmented_sets,
    emit_report,
    export_synthetic_csv,
    module_configs,
    prepare,
    run_experiment,
)


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


def _cmd_run(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    config = _load_config(args)
    seeds = [config.seed + i for i in range(args.seeds)]
    all_bundles = []
    for s in seeds:
        cfg = dataclasses.replace(config, seed=s)
        bundle = run_experiment(cfg)
        outdir = Path(config.output_dir)
        if len(seeds) > 1:
            outdir = outdir / f"seed_{s}"
        emit_report(bundle, outdir)
        all_bundles.append(bundle)

    if len(seeds) > 1:
        _write_aggregate(all_bundles, Path(config.output_dir))
    print(f"wrote {len(all_bundles)} run(s) to {config.output_dir}")
    return 0


def _write_aggregate(bundles, outdir: Path):
    """Mean metrics per cell across seeds; per-seed rows live in seed_*/."""
    rows = {}
    for b in bundles:
        for r in b.results:
            if not r.failed:
                rows.setdefault((r.augmenter, r.classifier), []).append(
                    (r.test_acc, r.test_f1, r.test_auc)
                )
    lines = ["augmenter,classifier,n_seeds,mean_test_acc,mean_test_f1,mean_test_auc"]
    for (aug, c), vals in rows.items():
        arr = np.array(vals)
        lines.append(
            f"{aug},{c},{len(vals)},"
            + ",".join(f"{m:.6f}" for m in arr.mean(axis=0))
        )
    (outdir / "aggregate.csv").write_text("\n".join(lines) + "\n")


def _cmd_augment(args) -> int:
    config = _load_config(args)
    if args.generator not in AUGMENTER_IDS or args.generator == "none":
        raise ConfigError(f"--generator must be one of gmm, vae, gan")
    config = dataclasses.replace(config, augmenters=(args.generator,))
    data = prepare(config)
    sets = build_augmented_sets(config, data.X_train, data.y_train, module_configs(config))
    if isinstance(sets[args.generator], GeneratorError):
        raise sets[args.generator]
    Xa, ya, prov = sets[args.generator]
    mask = prov.synthetic_mask
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"synthetic_{args.generator}.csv"
    path.write_text(export_synthetic_csv(Xa[mask], ya[mask], data.plan))
    print(f"wrote {int(mask.sum())} synthetic rows to {path}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    module_configs(config)
    data = prepare(config)
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
