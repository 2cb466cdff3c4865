"""augbench's benchmark: one workload, one seed, timed as a user runs it.

    python3 bench/run.py --workload grid_fixture --seed 0 --seconds 55 --trace 0

Run from the root of a source tree. Each measured run is a fresh
`python3 -m augbench.cli run` process with `src/` on PYTHONPATH and no
`--jobs` flag, so the program's default decides. Workloads (closed loop,
one client, one run at a time):

  grid_fixture    the bundled 400-row fixture through the full 4x6 grid,
                  one seed: the default user run, every layer exercised.
  classify_seeds  the fixture, augmenters ["none"], all classifiers,
                  `--seeds 4`: no generator runs, and the only workload
                  with independent seeds for parallelism to use.
  grid_large      a 2000-row table with the fixture's geometry, generated
                  from the seed, augmenters none+gmm: O(n^2) kernel, SMO
                  and KNN work becomes a large share of the run. Not
                  listed in BENCHMARK.json, to keep its 22 runs per
                  workload of about a minute each within an hour; run
                  it by hand.

`--trace 0` reports the end-to-end metrics: setup_s (median of fresh
`augbench validate` processes, after one untimed warm-up), run_s (mean
wall time of the repeats, as many as make a total nearest to `--seconds`,
at least one), peak_rss_mb (median over those repeats), ok_cell_share,
mean_test_auc and mean_test_acc. `--trace 1` runs the workload once
untraced and once with spans around augbench's layer functions (see
traced_run.py) and reports the per-layer metrics of layers.PER_LAYER.

Every run's outputs are checked: exit code, artifacts, cell count, no
contamination, metrics in [0, 1], and report.md/results.csv byte-identical
between repeats of one seed (the traced run is such a repeat). A failed
check prints `"correct": false` and exits 1. The last stdout line is the
JSON result; a fuller record with the machine's details is written under
`.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import CLASSIFIERS, PER_LAYER, layer_metrics, self_times
from outputs import check_run, compare_runs
from spans import SpanTable, span_cost_s
from table import sha256_of, write_table

BENCH_DIR = Path(__file__).resolve().parent
SCHEMA = {
    "user_id": "identifier",
    "gender": "categorical",
    "age": "numeric",
    "salary": "numeric",
    "purchased": "label",
}
FIXTURE = Path("data") / "social_ads_400.csv"
SETUP_REPEATS = 11
# One invocation stays under 180 s: no run starts that would end after this
# limit, and a run still going at it is killed.
TIME_LIMIT_S = 165.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    augmenters: list[str]
    n_seeds: int
    large_table: bool


WORKLOADS = {
    "grid_fixture": Workload(["none", "gmm", "vae", "gan"], 1, False),
    "classify_seeds": Workload(["none"], 4, False),
    "grid_large": Workload(["none", "gmm"], 1, True),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "ok_cell_share": "share",
    "mean_test_auc": "auc",
    "mean_test_acc": "share",
}


class BenchError(Exception):
    pass


@dataclass
class ProcessRun:
    wall_s: float
    code: int
    peak_rss_mib: float


def _tree_rss_bytes(pid: int, page: int) -> int:
    """Resident bytes of `pid` and its descendants, read from /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                stat = Path(entry.path, "stat").read_text()
            except OSError:
                continue
            ppid = int(stat[stat.rindex(")") + 2:].split()[1])
            children.setdefault(ppid, []).append(int(entry.name))
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        todo.extend(children.get(p, ()))
        try:
            total += int(Path(f"/proc/{p}/statm").read_text().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total


def run_process(cmd: list[str], env: dict, log: Path, deadline: float) -> ProcessRun:
    """Run `cmd` to completion; wall time, exit code and peak RSS of its tree.

    The peak is the larger of the kernel's high-water mark for the process
    (from wait4) and a 0.1 s sample of the whole tree's resident memory,
    which counts worker processes alive at the same time.
    """
    page = os.sysconf("SC_PAGE_SIZE")
    sampled = [0]
    done = threading.Event()
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)

        def sample():
            while not done.wait(0.1):
                sampled[0] = max(sampled[0], _tree_rss_bytes(proc.pid, page))
                if time.perf_counter() > deadline:
                    os.kill(proc.pid, signal.SIGKILL)
                    return

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            sampler.join()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    peak = max(usage.ru_maxrss * 1024, sampled[0]) / 2**20
    return ProcessRun(wall, code, peak)


def program_env(root: Path) -> dict:
    """The caller's environment with `src/` first on PYTHONPATH.

    BLAS thread counts default to 1. On a small shared machine a second
    BLAS thread competes with other tenants for the same cores, and the
    same run's wall time then varies by about 15% (2 cores, OpenBLAS, the
    2000-row table's kernel products); a count set by the caller is kept.
    """
    env = dict(os.environ)
    for var in BLAS_ENV:
        env.setdefault(var, "1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def write_config(root: Path, rundir: Path, workload: Workload, seed: int) -> tuple[Path, str]:
    """The workload's augbench config and the SHA-256 of its table."""
    if workload.large_table:
        table = rundir / "table.csv"
        sha = write_table(root, seed, table)
    else:
        table = root / FIXTURE
        sha = sha256_of(table)
    config = {
        "dataset": str(table),
        "schema": SCHEMA,
        "seed": seed,
        "augmenters": workload.augmenters,
        "classifiers": CLASSIFIERS,
        "n_synthetic": 200,
    }
    path = rundir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path, sha


def environment(root: Path, env: dict, load_before: tuple) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "blas_env": {k: env.get(k) for k in BLAS_ENV},
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    t0 = time.perf_counter()
    deadline = t0 + TIME_LIMIT_S
    load_before = os.getloadavg()
    root = Path.cwd().resolve()
    for needed in (root / "src" / "augbench" / "cli.py", root / FIXTURE,
                   root / "scripts" / "make_fixture.py"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(root)} not found; run from the source tree root")

    workload = WORKLOADS[args.workload]
    seeds = [args.seed + i for i in range(workload.n_seeds)]
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=work))
    config, table_sha = write_config(root, rundir, workload, args.seed)
    env = program_env(root)
    program = [sys.executable, "-m", "augbench.cli"]

    def run_cmd(out: Path) -> list[str]:
        return [*program, "run", "--config", str(config), "--out", str(out),
                "--seed", str(args.seed), "--seeds", str(workload.n_seeds)]

    problems: list[str] = []
    attempted = failed = 0
    record: dict = {}

    def measured_run(name: str, cmd: list[str]) -> tuple[ProcessRun, dict]:
        nonlocal attempted, failed
        out = rundir / name
        r = run_process(cmd, env, rundir / f"{name}.log", deadline)
        summary, found, cell_seconds = check_run(out, workload.augmenters, CLASSIFIERS, seeds)
        if r.code != 0:
            found.insert(0, f"{name}: exit code {r.code}, see {rundir / (name + '.log')}")
        problems.extend(found)
        cells = len(seeds) * len(workload.augmenters) * len(CLASSIFIERS)
        attempted += cells
        # A run that does not exit cleanly counts every cell as failed.
        failed += cells if r.code != 0 else summary.failed
        return r, {"summary": summary, "cell_seconds": cell_seconds, "out": out}

    if args.trace == 0:
        # The warm-up writes the bytecode caches and loads the files into
        # the page cache, so the timed repeats see what a user's second
        # command sees.
        warm = run_process([*program, "validate", "--config", str(config)], env,
                           rundir / "warmup.log", deadline)
        if warm.code != 0:
            problems.append(f"validate exit code {warm.code}")
        setups = []
        for i in range(SETUP_REPEATS):
            r = run_process([*program, "validate", "--config", str(config)], env,
                            rundir / f"validate{i}.log", deadline)
            if r.code != 0:
                problems.append(f"validate exit code {r.code}")
            setups.append(r.wall_s)
        runs, first = [], None
        t_runs = time.perf_counter()
        while True:
            name = f"run{len(runs)}"
            r, info = measured_run(name, run_cmd(rundir / name))
            runs.append(r)
            if first is None:
                first = info
            else:
                problems.extend(compare_runs(first["out"], info["out"], seeds))
            # Stop at the repeat count whose total time is nearest to
            # `--seconds`: another repeat starts only if it would end less
            # than half a repeat past it (and before the time limit).
            now = time.perf_counter()
            mean_s = statistics.fmean(r.wall_s for r in runs)
            if r.code != 0 or now - t_runs + mean_s / 2 > args.seconds \
                    or now + 1.5 * mean_s > deadline:
                break
        s = first["summary"]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.fmean(r.wall_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mib for r in runs),
            "ok_cell_share": 1.0 - failed / attempted,
            "mean_test_auc": s.mean_test_auc,
            "mean_test_acc": s.mean_test_acc,
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
        record.update(setup_walls_s=setups, run_walls_s=[r.wall_s for r in runs],
                      peak_rss_mib=[r.peak_rss_mib for r in runs],
                      failed_cell_share=failed / attempted)
    else:
        plain, plain_info = measured_run("plain", run_cmd(rundir / "plain"))
        spans_path = rundir / "spans.npz"
        traced_cmd = [sys.executable, str(BENCH_DIR / "traced_run.py"), str(spans_path),
                      *run_cmd(rundir / "traced")[len(program):]]
        traced, info = measured_run("traced", traced_cmd)
        problems.extend(compare_runs(plain_info["out"], info["out"], seeds))
        metrics, estimate = {}, float("nan")
        if traced.code == 0 and spans_path.is_file():
            spans = SpanTable.load(spans_path)
            values = layer_metrics(spans, info["cell_seconds"])
            metrics = {k: metric(v, PER_LAYER[k][0]) for k, v in values.items()}
            # Wall-clock pairs on a shared machine vary by more than the
            # overhead, so the estimate from span count x span cost is kept too.
            cost = span_cost_s()
            estimate = len(spans) * cost / plain.wall_s
            record.update(spans=len(spans), span_cost_s=cost,
                          self_time_s=dict(list(self_times(spans).items())[:20]))
        overhead = traced.wall_s / plain.wall_s - 1.0
        print(f"untraced run_s {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s: "
              f"tracing overhead {overhead:+.1%} measured, {estimate:.1%} estimated")
        record.update(untraced_run_s=plain.wall_s, traced_run_s=traced.wall_s,
                      tracing_overhead_share=overhead, tracing_overhead_estimate=estimate)

    correct = not problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record.update(
        workload=args.workload, seed=args.seed, seeds=seeds, seconds=args.seconds,
        trace=args.trace, table_sha256=table_sha, problems=problems,
        environment=environment(root, env, load_before),
        bench_wall_s=time.perf_counter() - t0,
    )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    results_dir = work / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    if correct:
        shutil.rmtree(rundir)

    env_line = record["environment"]
    print(f"{args.workload} seed {args.seed}: nproc {env_line['nproc']}, "
          f"python {env_line['python']}, numpy {env_line['numpy']}, "
          f"load {env_line['loadavg_before'][0]:.2f} -> {env_line['loadavg_after'][0]:.2f}, "
          f"table sha256 {table_sha[:16]}")
    if args.trace == 0:
        print(f"  failed_cell_share = {record['failed_cell_share']:.4f} share")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(root)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so a running program process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
