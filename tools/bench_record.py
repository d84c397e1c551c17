"""Record one point of the benchmark trajectory in ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr N --seeds 31-35

For every workload of ``bench/workloads.py`` this runs ``bench/run.py``
for the ``run_seconds`` of ``BENCHMARK.json``, once per seed with
``--trace 0`` and once, on the first seed, with ``--trace 1``. It writes ``BENCH_<pr>.json`` at the root of the checkout
holding this script: the median and quartiles of every end-to-end
metric, each run's values and ``metrics.csv`` hashes, the per-layer
metrics and span table of the traced run, the commit (and whether
``src/`` had changes not yet committed) and the environment.

``--root DIR`` measures another checkout with that checkout's own
``bench/``, e.g. a clone of the parent commit for a baseline. Runs go
one after another, never in parallel. Exits 1 when a run fails its
checks; the file is written either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """``31-35`` or ``31,33,40`` to a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def src_modified(root: Path) -> bool | None:
    """Whether ``src/`` differs from the recorded commit; None without git."""
    try:
        out = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                             capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(out.strip())


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def record_workload(bench, workload, seeds, seconds, root) -> dict:
    runs, units = [], {}
    for seed in seeds:
        result = bench.run_benchmark(workload, seed, seconds, False, root)
        print(f"{workload.name} seed {seed}: rounds_per_s "
              f"{result['metrics']['rounds_per_s']['value']:.4g}", flush=True)
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        runs.append({"seed": seed, "correct": result["failed"] == 0,
                     "metrics_sha256": result["metrics_sha256"],
                     "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
    traced = bench.run_benchmark(workload, seeds[0], seconds, True, root)
    print(f"{workload.name} seed {seeds[0]}: traced", flush=True)
    return {
        "end_to_end": {k: {"unit": unit, **summary([r["metrics"][k] for r in runs])}
                       for k, unit in units.items()},
        "runs": runs,
        "traced": {"seed": seeds[0], "correct": traced["failed"] == 0,
                   "metrics_sha256": traced["metrics_sha256"],
                   "per_layer": {k: {"unit": m["unit"], "value": m["value"]}
                                 for k, m in traced["metrics"].items()},
                   "layer_table": traced["layer_table"]},
        "environment": traced["environment"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number of the change; names BENCH_<pr>.json")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds of the untraced runs, e.g. 31-35 or 31,33")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(root / "bench"))
    import run as bench
    from workloads import WORKLOADS

    workloads = {name: record_workload(bench, w, args.seeds, seconds, root)
                 for name, w in WORKLOADS.items()}
    environment = [w.pop("environment") for w in workloads.values()][0]
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "pr": args.pr, "commit": environment.pop("commit"),
        "src_modified": src_modified(root),
        "environment": environment, "seeds": args.seeds, "seconds": seconds,
        "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {out}")
    ok = all(r["correct"] for w in workloads.values()
             for r in w["runs"] + [w["traced"]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
