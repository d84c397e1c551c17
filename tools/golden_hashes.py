"""Print the sha256 of ``metrics.csv`` for each golden run variant.

A pure refactor must leave every hash unchanged. Run this script in both
checkouts and compare the output:

    python3 tools/golden_hashes.py

Each variant runs ``fedgrow run`` twice, each time in its own child
process against the ``src/`` of the checkout holding this script, with
``OPENBLAS_NUM_THREADS=1``: once restricted to one CPU, so one worker
(clients train in the run's own process), and once on every CPU it may
use, so the automatic worker count. It prints one hash per variant and
exits 1 when the two runs of a variant differ. The hashes depend on the
numpy/BLAS build, so they are compared between checkouts on one machine
and are not test assertions.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASE_CONFIG = ROOT / "configs" / "synthetic-fnn.json"
NEVER_SWITCH_EARLY = [1e9] * 5  # every stage lasts exactly window + lag rounds

# Overrides of configs/synthetic-fnn.json, one per variant.
VARIANTS = {
    "synthetic-fnn": {},
    "fd": {"method": "fd", "rounds": 20},
    "fedavg": {"method": "fedavg", "rounds": 20},
    "fnn-fd": {"method": "fnn-fd", "fd_exempt_prefix": 1, "switch_window": 5,
               "switch_lag": 10, "rounds": 60,
               "thresholds_override": NEVER_SWITCH_EARLY},
    "fnn-all-stages": {"switch_window": 3, "switch_lag": 5, "rounds": 48,
                       "thresholds_override": NEVER_SWITCH_EARLY},
    # Switches at rounds 1, 3, 5, 7 and 9, so every cifar10 diff runs,
    # the 1x1 identity-conv insertion included.
    "cifar10-fnn-all-stages": {
        "schedule": "cifar10", "switch_window": 1, "switch_lag": 1, "rounds": 12,
        "thresholds_override": NEVER_SWITCH_EARLY,
        "synthetic": {"classes": 10, "per_class": 100, "test_per_class": 50,
                      "dims": [32, 32, 3], "sigma": 0.1, "separation": 20.0}},
    # A schedule file: the mnist model 1 rows, then the same rows plus one
    # hidden dense block. Covers the JSON token parser and the dense
    # insert-identity step, which no builtin schedule has.
    "custom-schedule": {
        "switch_window": 3, "switch_lag": 5, "rounds": 20,
        "schedule": {"dataset": "synthetic", "input_shape": [28, 28, 1],
                     "thresholds": [1e9], "models": [
                         [{"conv": 16, "kernel": 5}, {"pool": 4}, {"dense": 128},
                          {"dense": 10}],
                         [{"conv": 16, "kernel": 5}, {"pool": 4}, {"dense": 128},
                          {"dense": 128}, {"dense": 10}]]}},
}


def _one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def metrics_sha256(name: str, overrides: dict, work: Path, one_cpu: bool) -> str:
    config = {**json.loads(BASE_CONFIG.read_text()), **overrides}
    if isinstance(config["schedule"], dict):
        schedule_path = work / f"{name}-schedule.json"
        schedule_path.write_text(json.dumps(config["schedule"]))
        config["schedule"] = str(schedule_path)
    name = f"{name}-{'one-cpu' if one_cpu else 'all-cpus'}"
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = work / name
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-m", "fedgrow.cli", "run", "--config",
                    str(config_path), "--output", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL,
                   preexec_fn=_one_cpu if one_cpu else None)
    return hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in VARIANTS.items():
            serial, auto = (metrics_sha256(name, overrides, Path(tmp), one_cpu)
                            for one_cpu in (True, False))
            if serial != auto:
                print(f"{name}: one CPU gives {serial}, every CPU gives {auto}",
                      file=sys.stderr)
                status = 1
            print(f"{serial}  {name}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
