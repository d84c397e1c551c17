"""fedgrow benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload fnn-mnist-grow --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, then starts a fresh
single-process child (``child.py``) with every BLAS pinned to one thread,
which runs the simulations and checks their outputs. Prints every metric
with its unit and the check results; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced simulation.

Run artifacts (result.json with the environment, spans.jsonl) stay in
``.bench_runs/`` under the checkout; the generated inputs are deleted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, write_corpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
TIME_LIMIT_S = 170


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  root: Path = ROOT) -> dict:
    """Run ``workload`` once in a child process; returns its result dict.

    Raises RuntimeError when the child ends without a result.
    """
    started = time.monotonic()
    run_dir = RUNS_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    data_dir = None
    if workload.corpus is not None:
        data_dir = run_dir / "data"
        write_corpus(workload.corpus, seed, data_dir)
    job = {"root": str(root), "workload": dataclasses.asdict(workload),
           "seed": seed, "seconds": seconds, "trace": trace,
           "data_dir": str(data_dir) if data_dir else None}
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(job, indent=1) + "\n")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
            env=env, cwd=root, stdout=subprocess.DEVNULL,
            timeout=max(1.0, TIME_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload.name}: run exceeded {TIME_LIMIT_S} s")
    finally:
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
    result_path = run_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{workload.name}: child exited with code "
                           f"{proc.returncode} and no result")
    result = json.loads(result_path.read_text())
    result["environment"]["commit"] = git_commit(root)
    result["run_dir"] = str(run_dir)
    return result


def report(workload: Workload, result: dict, trace: bool) -> None:
    """Human-readable lines: environment, checks, every metric and, for a
    traced run, the per-layer table with each layer's share of wall time."""
    env = result["environment"]
    print(f"workload {workload.name} (seed {result['seed']}, "
          f"trace {int(trace)}): {workload.why}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"checks: {result['simulations']} simulation(s), "
          f"{result['attempted'] - result['failed']}/{result['attempted']} rounds "
          f"passed, fail_frac {result['failed'] / result['attempted']:.4f}; "
          f"metrics.csv sha256 {' '.join(result['metrics_sha256'])}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  final_loss (mean of the last rounds' weighted_loss, no bound) "
          f"{result['final_loss']} nats")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    table = result.get("layer_table")
    if table:
        wall = table["experiment.run"]["ms"]
        print(f"  {'traced span':32s} {'calls':>8s} {'ms':>10s} {'self_ms':>10s} "
              f"{'share':>6s}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["ms"]):
            print(f"  {name:32s} {row['calls']:8d} {row['ms']:10.1f} "
                  f"{row['self_ms']:10.1f} {row['ms'] / wall:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        result = run_benchmark(workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    report(workload, result, bool(args.trace))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
