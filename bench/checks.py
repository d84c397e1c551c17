"""Checks on what one simulation wrote to its output directory.

A simulation passes when it returns no problems. Any problem fails all of
its rounds, which is how ``fail_frac`` is counted.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

BYTES_PER_SCALAR = 4


def read_rows(out_dir: Path) -> list[dict]:
    with open(Path(out_dir) / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def metrics_hash(out_dir: Path) -> str:
    return hashlib.sha256((Path(out_dir) / "metrics.csv").read_bytes()).hexdigest()


def check_run(out_dir: Path, workload) -> list[str]:
    """Every way the run's outputs disagree with what the workload implies."""
    out_dir = Path(out_dir)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        rows = read_rows(out_dir)
    except (OSError, ValueError) as e:
        return [f"unreadable outputs: {e}"]
    problems = []
    if "error" in manifest:
        problems.append(f"manifest error: {manifest['error']}")
    rounds = [int(r["round"]) for r in rows]
    if rounds != list(range(workload.rounds)) or \
            manifest.get("rounds_completed") != workload.rounds:
        problems.append(f"{len(rows)} of {workload.rounds} rounds completed")
    problems += _check_bytes(rows, manifest, workload)
    if workload.config["method"] == "fnn":
        problems += _check_switches(rows, manifest, workload)
    return problems


def _check_bytes(rows, manifest, workload) -> list[str]:
    problems = []
    method = workload.config["method"]
    m = workload.config["clients_per_round"]
    param_counts = manifest.get("schedule", {}).get("param_counts", [])
    total = 0
    for r in rows:
        down, up = int(r["download_bytes"]), int(r["upload_bytes"])
        total += down + up
        if int(r["cumulative_bytes"]) != total:
            problems.append(f"round {r['round']}: cumulative_bytes "
                            f"{r['cumulative_bytes']} != running sum {total}")
        if method in ("fnn", "fedavg"):
            index = int(r["model_index"])
            if not 0 <= index < len(param_counts):
                problems.append(f"round {r['round']}: no model {index} in the schedule")
                continue
            want = BYTES_PER_SCALAR * m * param_counts[index]
            if down != want or up != want:
                problems.append(f"round {r['round']}: download/upload {down}/{up} "
                                f"bytes, expected {want} each")
    return problems


def _check_switches(rows, manifest, workload) -> list[str]:
    """Switches fall exactly at (window + lag) * k - 1, and each one keeps
    test accuracy unchanged (the transforms preserve the function)."""
    stage = workload.stage_rounds
    expected = [stage * k - 1 for k in range(1, len(manifest["schedule"]["models"]))
                if stage * k - 1 < workload.rounds]
    flagged = [int(r["round"]) for r in rows if r["switch_flag"] == "1"]
    problems = []
    if flagged != expected:
        problems.append(f"switch rounds {flagged}, expected {expected}")
    events = manifest.get("switch_events", [])
    if [ev["round"] for ev in events] != expected:
        problems.append(f"manifest switch rounds {[ev['round'] for ev in events]}, "
                        f"expected {expected}")
    for ev in events:
        if ev["accuracy_before"] is None or \
                ev["accuracy_before"] != ev["accuracy_after"]:
            problems.append(f"switch at round {ev['round']}: accuracy "
                            f"{ev['accuracy_before']} -> {ev['accuracy_after']}")
    return problems
