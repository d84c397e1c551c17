"""Where the CPU time of one pooled simulation goes, parent and workers.

    python3 tools/pool_profile.py --workload fnn-mnist-grow --seed 1 [--root DIR]

Runs one simulation of a workload of ``bench/workloads.py`` through
``fedgrow.experiment.run``, at the automatic worker count with every BLAS
pinned to one thread, as the benchmark does. It writes the workload's
inputs with ``bench/workloads.py`` into a temporary directory and edits
nothing under ``bench/``. ``--root`` runs another checkout's ``src``
(for example a clone of the parent commit) under this same harness.

It prints the loop's wall time (from entry to exit of
``fedsim.run_experiment``), the parent's user and sys CPU over the loop,
and the workers' user and sys CPU, minor page faults and peak RSS. The
workers' numbers are ``RUSAGE_CHILDREN``, read after the loop has joined
the pool. CPU utilisation is the total CPU time divided by (CPUs x loop
wall), where CPUs are those the process may run on.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, experiment_config, write_corpus  # noqa: E402


def profile(root: Path, workload_name: str, seed: int) -> dict:
    """Wall time and rusage of one simulation's round loop."""
    sys.path.insert(0, str(root / "src"))
    from fedgrow import experiment, fedsim

    workload = WORKLOADS[workload_name]
    original = fedsim.run_experiment
    loop = {}

    def timed(*args, **kwargs):
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:  # the pool is joined by now
            loop["wall_s"] = time.perf_counter() - start
            loop["self"] = (self_before, resource.getrusage(resource.RUSAGE_SELF))
            loop["children"] = (children_before,
                                resource.getrusage(resource.RUSAGE_CHILDREN))

    fedsim.run_experiment = timed
    try:
        with tempfile.TemporaryDirectory(prefix="pool_profile-") as tmp:
            data_dir = None
            if workload.corpus is not None:
                data_dir = Path(tmp) / "data"
                write_corpus(workload.corpus, seed, data_dir)
            config = experiment.ExperimentConfig.from_dict(
                experiment_config(workload, seed, Path(tmp) / "run", data_dir))
            experiment.run(config)
    finally:
        fedsim.run_experiment = original
    loop["workers"] = fedsim.worker_count(config)
    return loop


def report(loop: dict, cpus: int) -> None:
    (s0, s1), (c0, c1) = loop["self"], loop["children"]
    parent_user, parent_sys = s1.ru_utime - s0.ru_utime, s1.ru_stime - s0.ru_stime
    worker_user, worker_sys = c1.ru_utime - c0.ru_utime, c1.ru_stime - c0.ru_stime
    wall = loop["wall_s"]
    total = parent_user + parent_sys + worker_user + worker_sys
    print(f"loop wall {wall:.2f} s, {loop['workers']} worker(s), {cpus} CPU(s)")
    print(f"parent  user {parent_user:.2f} s, sys {parent_sys:.2f} s, "
          f"minor faults {s1.ru_minflt - s0.ru_minflt}")
    print(f"workers user {worker_user:.2f} s, sys {worker_sys:.2f} s, "
          f"minor faults {c1.ru_minflt - c0.ru_minflt}, "
          f"peak RSS {c1.ru_maxrss / 1024:.1f} MB")
    print(f"CPU utilisation {total:.2f} CPU-s / ({cpus} x {wall:.2f} s) "
          f"= {total / (cpus * wall):.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ runs (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    print(f"workload {args.workload}, seed {args.seed}, root {root}; BLAS threads: "
          + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    report(profile(root, args.workload, args.seed), len(os.sched_getaffinity(0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
