"""Print the sha256 of ``metrics.csv`` for each golden run variant.

A pure refactor must leave every hash unchanged. Run this script in both
checkouts and compare the output:

    python3 tools/golden_hashes.py

Each variant runs ``fedgrow run`` twice, each time in its own child
process against the ``src/`` of the checkout holding this script, with
``OPENBLAS_NUM_THREADS=1``: once restricted to one CPU, so one worker
(clients train in the run's own process), and once on every CPU it may
use, so the automatic worker count. It prints one hash per variant, with
each run's worker count (the manifest's ``workers``), and exits 1 when
the two runs of a variant differ, in ``metrics.csv`` or in the manifest's
switch events (whose accuracies come from evaluations that overlap the
next round's training), or when the every-CPU run also used one worker:
both runs then trained in process, and the forked path went unchecked.
It also exits 1 when a variant of ``IDX_GZIP`` does not print the hash
of the variant it names: gzipped IDX files must give the bits of the
same files uncompressed.
The hashes depend on the numpy/BLAS build and on the kernels OpenBLAS
chose for the CPU, whose name (its "core") the script prints once on
standard error. They are compared between checkouts on one machine (the
first two fields of each line) and are not test assertions.
"""

from __future__ import annotations

import ctypes
import gzip
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BASE_CONFIG = ROOT / "configs" / "synthetic-fnn.json"
NEVER_SWITCH_EARLY = [1e9] * 5  # every stage lasts exactly window + lag rounds

IDX_MAX_TRAIN_SAMPLES = {
    "dataset": "mnist", "max_train_samples": 1000, "switch_window": 3, "switch_lag": 5,
    "rounds": 16, "eval_every": 4, "thresholds_override": NEVER_SWITCH_EARLY}
IDX_NON_IID_MAX_TRAIN_SAMPLES = {
    **IDX_MAX_TRAIN_SAMPLES,
    "partition": {"scheme": "label-shard-non-iid", "client_count": 100,
                  "shards_per_client": 2, "seed": 0}}

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
    # The same rows at dropout 0.25 under fnn-fd, cropping model 2 from its
    # switch at round 7 on: the only model dropout other than 0.125, and the
    # only federated-dropout run through a schedule file.
    "schedule-dropout-fnn-fd": {
        "method": "fnn-fd", "fd_exempt_prefix": 1, "fd_keep_fraction": 0.75,
        "switch_window": 3, "switch_lag": 5, "rounds": 20,
        "schedule": {"dataset": "synthetic", "input_shape": [28, 28, 1],
                     "dropout_rate": 0.25, "thresholds": [1e9], "models": [
                         [{"conv": 16, "kernel": 5}, {"pool": 4}, {"dense": 128},
                          {"dense": 10}],
                         [{"conv": 16, "kernel": 5}, {"pool": 4}, {"dense": 128},
                          {"dense": 128}, {"dense": 10}]]}},
    # Two local epochs on label-sharded clients: no other variant trains
    # more than one epoch or uses the non-IID partition.
    "multi-epoch-non-iid": {
        "rounds": 20, "train": {"learning_rate": 0.015, "local_epochs": 2},
        "partition": {"scheme": "label-shard-non-iid", "client_count": 100,
                      "shards_per_client": 2, "seed": 0}},
    # Switches at rounds 7, 15 and 23, each also an evaluation round, so
    # the grown model's accuracy is both the switch event's
    # accuracy_after and the row's test_accuracy. 600 test images make
    # two evaluation batches, 512 and 88.
    "eval-on-switch": {
        "switch_window": 3, "switch_lag": 5, "eval_every": 4, "rounds": 24,
        "thresholds_override": NEVER_SWITCH_EARLY,
        "synthetic": {"classes": 10, "per_class": 100, "test_per_class": 60,
                      "dims": [28, 28, 1], "sigma": 0.1, "separation": 20.0}},
    # Loads IDX files (written by ``write_idx``), as the next two do.
    # Its 1000 test images make two evaluation batches, 512 and 488;
    # in each, the second conv of mnist models 3 to 6 ends in a partial
    # row block, and every stage is evaluated.
    "idx-mnist-all-stages": {
        "dataset": "mnist", "switch_window": 3, "switch_lag": 5, "rounds": 48,
        "eval_every": 4, "thresholds_override": NEVER_SWITCH_EARLY},
    # The only run without test samples: an empty t10k split. Switches at
    # rounds 7, 15 and 23, and every fourth round owes an evaluation that
    # is skipped, so every accuracy is empty.
    "idx-no-test-set": {
        "dataset": "mnist", "switch_window": 3, "switch_lag": 5, "rounds": 24,
        "eval_every": 4, "thresholds_override": NEVER_SWITCH_EARLY},
    # The runs that keep a subset of their training images: 1000 of 3000.
    # The loader reads only the kept rows (and short gaps) of uncompressed
    # files and streams gzip files whole, so the two must agree. Switches
    # at rounds 7 and 15, both evaluation rounds.
    "idx-max-train-samples": IDX_MAX_TRAIN_SAMPLES,
    "idx-gz-max-train-samples": IDX_MAX_TRAIN_SAMPLES,
    # The same 1000 of 3000 rows dealt to label-sharded clients, whose
    # client order, unlike the IID one, depends on the kept labels.
    "idx-non-iid-max-train-samples": IDX_NON_IID_MAX_TRAIN_SAMPLES,
    "idx-gz-non-iid-max-train-samples": IDX_NON_IID_MAX_TRAIN_SAMPLES,
    # A synthetic training set of which the run keeps 500 of 1000 rows.
    "synthetic-max-train-samples": {
        "max_train_samples": 500, "switch_window": 3, "switch_lag": 5, "rounds": 16,
        "eval_every": 4, "thresholds_override": NEVER_SWITCH_EARLY},
}
IDX_IMAGES = 1000  # per split, unless named below
IDX_TRAIN_IMAGES = {name: 3000 for name in (
    "idx-max-train-samples", "idx-gz-max-train-samples",
    "idx-non-iid-max-train-samples", "idx-gz-non-iid-max-train-samples")}
IDX_TEST_IMAGES = {"idx-no-test-set": 0}
# Variants whose four IDX files are gzipped, each with the variant of the
# same files uncompressed, whose hash it must print.
IDX_GZIP = {"idx-gz-max-train-samples": "idx-max-train-samples",
            "idx-gz-non-iid-max-train-samples": "idx-non-iid-max-train-samples"}
IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC = 2051, 2049


def write_idx(directory: Path, train_images: int = IDX_IMAGES,
              test_images: int = IDX_IMAGES, gz: bool = False) -> Path:
    """The four standard IDX files of a 10-class 28x28 image set, drawn
    with numpy alone, so that no change to fedgrow changes them: class c
    brightens the c-th tenth of the pixels of a noisy grey image. The
    training split is drawn first, so it does not depend on ``test_images``.
    With ``gz`` the files are gzipped, with the same bytes inside."""
    directory.mkdir(exist_ok=True)
    opener, suffix = (gzip.open, ".gz") if gz else (open, "")
    rng = np.random.default_rng(12)
    for prefix, count in (("train", train_images), ("t10k", test_images)):
        labels = rng.integers(0, 10, count)
        pixels = 64 + rng.integers(-48, 49, (count, 28 * 28))
        for c in range(10):
            pixels[labels == c, c * 78:(c + 1) * 78] += 96
        with opener(directory / f"{prefix}-images-idx3-ubyte{suffix}", "wb") as fh:
            fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, 28, 28))
            fh.write(pixels.astype(np.uint8).tobytes())
        with opener(directory / f"{prefix}-labels-idx1-ubyte{suffix}", "wb") as fh:
            fh.write(struct.pack(">II", IDX_LABEL_MAGIC, count))
            fh.write(labels.astype(np.uint8).tobytes())
    return directory


def openblas_core() -> str:
    """The name of the kernel set numpy's bundled OpenBLAS chose for this
    CPU, or that ``OPENBLAS_CORETYPE`` forces; the runs, which inherit this
    environment, choose the same. "unknown" when the library or its
    ``scipy_openblas_get_corename64_`` is not found."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def variant_config(name: str, overrides: dict, work: Path) -> dict:
    """The config dict of variant ``name``: configs/synthetic-fnn.json with
    ``overrides``, its schedule written to ``work`` when given inline, and
    its IDX files, when it loads them, written there by ``write_idx``."""
    config = {**json.loads(BASE_CONFIG.read_text()), **overrides}
    if isinstance(config["schedule"], dict):
        schedule_path = work / f"{name}-schedule.json"
        schedule_path.write_text(json.dumps(config["schedule"]))
        config["schedule"] = str(schedule_path)
    if config["dataset"] == "mnist":
        counts = IDX_TRAIN_IMAGES.get(name, IDX_IMAGES), IDX_TEST_IMAGES.get(name, IDX_IMAGES)
        gz = name in IDX_GZIP
        directory = work / "idx-{}-{}{}".format(*counts, "-gz" if gz else "")
        config["data_dir"] = str(write_idx(directory, *counts, gz))
    return config


def golden_run(name: str, overrides: dict, work: Path, one_cpu: bool):
    """(sha256 of ``metrics.csv``, the manifest's switch events, the
    manifest's worker count) of one run."""
    config = variant_config(name, overrides, work)
    name = f"{name}-{'one-cpu' if one_cpu else 'all-cpus'}"
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = work / name
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-m", "fedgrow.cli", "run", "--config",
                    str(config_path), "--output", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL,
                   preexec_fn=_one_cpu if one_cpu else None)
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    return digest, manifest["switch_events"], manifest["workers"]


def main() -> int:
    status = 0
    hashes = {}
    print(f"OpenBLAS core: {openblas_core()}", file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in VARIANTS.items():
            (serial, serial_events, serial_workers), (auto, auto_events, auto_workers) = (
                golden_run(name, overrides, Path(tmp), one_cpu) for one_cpu in (True, False))
            if auto_workers == 1:
                print(f"{name}: the every-CPU run used one worker too, so the forked "
                      f"path went unchecked; run this script on at least two CPUs",
                      file=sys.stderr)
                status = 1
            if serial != auto:
                print(f"{name}: one CPU gives {serial}, every CPU gives {auto}",
                      file=sys.stderr)
                status = 1
            if serial_events != auto_events:
                print(f"{name}: switch events differ between one CPU and every CPU",
                      file=sys.stderr)
                status = 1
            other = IDX_GZIP.get(name)
            if other is not None and hashes.get(other) != serial:
                print(f"{name}: gives {serial}, {other} gives {hashes.get(other)}",
                      file=sys.stderr)
                status = 1
            hashes[name] = serial
            print(f"{serial}  {name}  workers {serial_workers}, {auto_workers}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
