"""Config-driven experiment orchestration and plot-ready data emission.

A run directory contains:
  config.json   echo of the validated configuration
  metrics.csv   one row per round (streamed, so partial runs keep data)
  ledger.csv    one summary row keyed by method
  manifest.json config hash, seed, code version, schedule, switch events
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import typing
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import datasets, fedsim, growth, nn, rng as rngmod
from .errors import ConfigError, FedgrowError

# The header of metrics.csv.
METRICS_COLUMNS = [f.name for f in fields(fedsim.RoundMetrics)]

LEDGER_COLUMNS = ["method", "dataset", "rounds", "clients_per_round",
                  "final_model_index", "total_download_bytes",
                  "total_upload_bytes", "total_bytes", "mean_round_bytes",
                  "final_accuracy"]

REDUCTION_COLUMNS = ["baseline", "accuracy_level", "subject_round", "baseline_round",
                     "subject_round_bytes", "baseline_round_bytes",
                     "round_reduction_pct", "subject_cumulative_bytes",
                     "baseline_cumulative_bytes", "cumulative_reduction_pct"]


@dataclass
class SyntheticSpec:
    classes: int = 10
    per_class: int = 60
    test_per_class: int = 20
    dims: tuple[int, int, int] = (28, 28, 1)
    sigma: float = 0.1
    separation: float = 6.0


@dataclass
class ExperimentConfig(fedsim.RunSettings):
    """Everything one run needs: the run settings plus dataset, method,
    schedule and output; defaults follow the benchmark settings."""

    dataset: str = "synthetic"
    method: str = "fnn"
    output_dir: str = "runs/out"
    schedule: str = ""                # builtin tag or path to a schedule JSON
    data_dir: str = ""                # IDX directory for file-backed datasets
    partition: fedsim.PartitionSpec | None = None
    thresholds_override: tuple[float, ...] | None = None
    max_train_samples: int = 0        # 0 = use the full training set
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    def resolved_schedule_ref(self) -> str:
        if self.schedule:
            return self.schedule
        return "mnist" if self.dataset == "synthetic" else self.dataset

    def resolve(self) -> "ExperimentConfig":
        """Fill dataset-dependent defaults (learning rate, clients/round,
        partition) without touching explicit values."""
        ref = self.resolved_schedule_ref()
        tag = ref if ref in growth.THRESHOLDS else self.dataset
        if self.train is None:
            self.train = nn.TrainConfig(
                learning_rate=growth.LEARNING_RATES.get(tag, 0.015))
        if self.clients_per_round is None:
            self.clients_per_round = growth.CLIENTS_PER_ROUND.get(tag, 10)
        if self.partition is None:
            self.partition = fedsim.PartitionSpec(seed=self.master_seed)
        return self

    def validate(self) -> None:
        """Collect every problem before any compute."""
        self.resolve()
        problems = []
        if self.method not in fedsim.METHODS:
            problems.append(f"unknown method {self.method!r}")
        if self.rounds < 0:
            problems.append("rounds must be >= 0")
        if self.master_seed < 0:
            problems.append(f"master_seed must be >= 0, got {self.master_seed}")
        if self.partition.seed < 0 and self.partition.seed != self.master_seed:
            # `--seed` and the default partition copy master_seed: one mistake, one line
            problems.append(f"partition seed must be >= 0, got {self.partition.seed}")
        if self.clients_per_round < 1:
            problems.append("clients per round must be >= 1")
        if self.clients_per_round > self.partition.client_count:
            problems.append(
                f"clients per round {self.clients_per_round} exceeds client "
                f"count {self.partition.client_count}")
        if self.switch_window < 1 or self.switch_lag < 1:
            problems.append("switch window and lag must be >= 1")
        if self.eval_every < 0:
            problems.append("eval_every must be >= 0")
        if self.max_train_samples < 0:
            problems.append("max_train_samples must be >= 0")
        syn = self.synthetic
        for name, value, least in (("classes", syn.classes, 2), ("per_class", syn.per_class, 1),
                                   ("test_per_class", syn.test_per_class, 0)):
            if value < least:
                problems.append(f"synthetic {name} must be >= {least}, got {value}")
        if syn.sigma < 0:
            problems.append(f"synthetic sigma must be >= 0, got {syn.sigma}")
        if self.init_scheme not in nn.INIT_SCHEMES:
            problems.append(f"unknown init scheme {self.init_scheme!r}; expected one "
                            f"of {nn.INIT_SCHEMES}")
        if self.fd_exempt_prefix < 0:
            problems.append(f"fd_exempt_prefix must be >= 0, got {self.fd_exempt_prefix}")
        keep = self.fd_keep_fraction
        if keep is not None and not 0.0 < keep <= 1.0:
            problems.append(f"fd_keep_fraction must be in (0, 1], got {keep}")
        ref = self.resolved_schedule_ref()
        if ref not in growth.THRESHOLDS and not Path(ref).exists():
            problems.append(f"schedule {ref!r} is neither builtin nor an existing file")
        if self.dataset not in ("synthetic",):
            if not self.data_dir:
                problems.append(f"dataset {self.dataset!r} needs data_dir with IDX files")
            elif not Path(self.data_dir).exists():
                problems.append(f"data_dir {self.data_dir!r} does not exist")
        if self.thresholds_override is not None and \
                any(t <= 0 for t in self.thresholds_override):
            problems.append("threshold overrides must be positive")
        out = Path(self.output_dir)
        nearest = next(p for p in (out, *out.parents) if p.exists())  # "." or "/" at worst
        if not nearest.is_dir():
            problems.append(f"output_dir {self.output_dir!r}: {nearest} is not a directory")
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        self.resolve()
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _from_fields(cls, data, "config")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        return cls.from_dict(data)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _is_list_of(v, item_ok, length=None) -> bool:
    return (type(v) in (list, tuple) and length in (None, len(v))
            and all(item_ok(x) for x in v))


_SECTIONS = (nn.TrainConfig, fedsim.PartitionSpec, SyntheticSpec)

# What the value of a field of each type must be. JSON booleans count as
# neither integers nor numbers, nor do the NaN and Infinity that Python's
# json reads; a config section is a JSON object.
_FIELD_TYPES = {
    str: ("a string", lambda v: type(v) is str),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", growth.is_finite_number),
    tuple[float, ...]: ("a list of numbers",
                        lambda v: _is_list_of(v, growth.is_finite_number)),
    tuple[int, int, int]: ("three positive integers",
                           lambda v: _is_list_of(v, lambda x: type(x) is int and x > 0, 3)),
    **{section: ("a JSON object", lambda v: type(v) is dict) for section in _SECTIONS},
}


def _from_fields(cls, data: dict, where: str):
    """Build config dataclass ``cls`` from ``data``, raising ConfigError on
    unknown keys, missing required fields and values of the wrong type in
    string, integer, float, list and section fields. Sections are built
    the same way, and lists become tuples."""
    if type(data) is not dict:
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} field {f.name!r} is required")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in data.items():
        args = typing.get_args(hints[key])
        optional = type(None) in args
        hint = args[0] if optional else hints[key]
        if value is not None or not optional:
            what, ok = _FIELD_TYPES.get(hint, ("", None))
            if ok and not ok(value):
                raise ConfigError(f"{where} field {key!r} must be {what}, got {value!r}")
            if hint in _SECTIONS:
                value = _from_fields(hint, value, key)
            elif typing.get_origin(hint) is tuple:
                value = tuple(value)
        values[key] = value
    return cls(**values)


# ---------------------------------------------------------------------------
# Dataset assembly


def _kept_rows(config: ExperimentConfig, n: int):
    """The sorted rows of ``n`` training samples that ``max_train_samples``
    keeps."""
    if not config.max_train_samples or config.max_train_samples >= n:
        return np.arange(n)
    keep = rngmod.stream(config.master_seed, rngmod.DATA, 3).choice(
        n, size=config.max_train_samples, replace=False)
    keep.sort()
    return keep


def build_dataset(config: ExperimentConfig):
    """Returns (train_x, train_y, test_x, test_y, sizes) for the configured
    dataset. The training split holds only the rows the run keeps, in
    client order (``fedsim.client_order`` of their labels), and ``sizes``
    gives each client's shard size. Its labels come first, so each kept
    row is converted or drawn straight into its place."""
    spec, sizes = config.resolve().partition, []

    def client_rows(labels):
        keep = _kept_rows(config, labels.size)
        rows, shard_sizes = fedsim.client_order(labels[keep], spec)
        sizes.append(shard_sizes)
        return keep[rows]

    if config.dataset == "synthetic":
        syn = config.synthetic
        train_x, train_y = datasets.make_synthetic(
            syn.classes, syn.dims, syn.per_class,
            rngmod.stream(config.master_seed, rngmod.DATA, 1),
            syn.sigma, syn.separation, client_rows)
        if syn.test_per_class:
            test_x, test_y = datasets.make_synthetic(
                syn.classes, syn.dims, syn.test_per_class,
                rngmod.stream(config.master_seed, rngmod.DATA, 2),
                syn.sigma, syn.separation)
        else:  # no test split, and nothing drawn from its stream
            test_x = np.empty((0, *syn.dims), dtype=np.float32)
            test_y = np.empty(0, dtype=np.int64)
    else:
        (train_x, train_y), (test_x, test_y) = datasets.load_idx_dataset(
            config.data_dir, keep_train=client_rows)
    return train_x, train_y, test_x, test_y, sizes[0]


def build_schedule(config: ExperimentConfig) -> growth.GrowthSchedule:
    ref = config.resolved_schedule_ref()
    schedule = (growth.builtin_schedule(ref) if ref in growth.THRESHOLDS
                else growth.load_schedule(ref))
    if config.thresholds_override is not None:
        schedule = growth.with_thresholds(schedule, config.thresholds_override)
    return schedule


# ---------------------------------------------------------------------------
# Run


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def run(config: ExperimentConfig) -> Path:
    """Execute one configured run; returns the output directory.

    A config that does not fit its schedule or dataset fails before any
    output is written. Metrics stream to disk as rounds complete, so a
    failed or interrupted (SIGINT) run keeps its partial metrics; the
    manifest then carries the error, for an interrupt "interrupted at
    round r" with r the first round without a row.
    """
    config.validate()
    schedule = build_schedule(config)
    fedsim.fd_plan(config.method, schedule, config)
    first = schedule.models[0]
    dims = tuple(config.synthetic.dims)
    if config.dataset == "synthetic" and dims != tuple(first.input_shape):
        raise ConfigError(f"synthetic dims {dims} do not match schedule input "
                          f"{first.input_shape}")
    train_x, train_y, test_x, test_y, sizes = build_dataset(config)
    # An empty test split is a run without evaluations; build_dataset
    # rejects an empty training split.
    for split, x, y in (("dataset", train_x, train_y), ("test split", test_x, test_y)):
        if x.shape[0] and tuple(x.shape[1:]) != tuple(first.input_shape):
            raise ConfigError(f"{split} samples {x.shape[1:]} do not match "
                              f"schedule input {first.input_shape}")
        n_classes = int(y.max()) + 1 if y.size else 0
        if n_classes > first.num_classes:
            raise ConfigError(f"{split} has {n_classes} classes but the schedule "
                              f"classifier has {first.num_classes}")
    # The shards are views of the training split, the run's one copy of
    # its training data, which the pool's workers share copy-on-write.
    shards = fedsim.partition(train_x, train_y, sizes)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")

    workers = fedsim.worker_count(config)

    manifest = {
        "config_hash": config.config_hash(),
        "master_seed": config.master_seed,
        "code_version": __version__,
        "dataset": config.dataset,
        "method": config.method,
        "schedule": {
            "dataset": schedule.dataset,
            "thresholds": list(schedule.thresholds),
            "models": [m.name for m in schedule.models],
            "param_counts": [nn.count_params(m) for m in schedule.models],
        },
        "switch_window": config.switch_window,
        "switch_lag": config.switch_lag,
        "workers": workers,
    }

    error = None
    result = None
    rows_written = 0
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)

        def on_round(row: fedsim.RoundMetrics):
            nonlocal rows_written
            writer.writerow([_fmt(v) for v in astuple(row)])
            rows_written += 1
            fh.flush()

        try:
            result = fedsim.run_experiment(config.method, schedule, shards,
                                           test_x, test_y, config, on_round)
        except FedgrowError as e:
            error = f"{type(e).__name__}: {e}"
        except KeyboardInterrupt:
            error = f"interrupted at round {rows_written}"

    if result is not None:
        manifest["switch_events"] = [asdict(ev) for ev in result.events]
        final_acc = next((m.test_accuracy for m in reversed(result.metrics)
                          if m.test_accuracy is not None), None)
        manifest.update({
            "rounds_completed": len(result.metrics),
            "final_model_index": result.model_index,
            "final_accuracy": final_acc,
            "total_bytes": result.ledger.total_bytes,
        })
        _write_ledger_summary(out / "ledger.csv", config, result, final_acc)
    if workers > 1:
        # The largest child this process has waited for: the largest
        # worker when this is the process's only run.
        maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        manifest["worker_peak_rss_mb"] = round(maxrss_kb / 1024, 1)
    if error is not None:
        manifest["error"] = error
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if error is not None:
        raise FedgrowError(error)
    return out


def _write_ledger_summary(path, config, result, final_acc):
    rows = result.ledger.rows
    total_down = sum(r.download_bytes for r in rows)
    total_up = sum(r.upload_bytes for r in rows)
    mean_round = (total_down + total_up) / len(rows) if rows else 0.0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        writer.writerow([
            config.method, config.dataset, len(rows), config.clients_per_round,
            result.model_index, total_down, total_up,
            total_down + total_up, _fmt(mean_round), _fmt(final_acc),
        ])


# ---------------------------------------------------------------------------
# Cross-run comparison


def _load_run(run_dir):
    """(dataset, method, metrics rows) of a run directory; ConfigError if unreadable."""
    try:
        manifest = json.loads((Path(run_dir) / "manifest.json").read_text())
        with open(Path(run_dir) / "metrics.csv", newline="") as fh:
            rows = [{"round": int(rec["round"]),
                     "accuracy": float(rec["test_accuracy"]) if rec["test_accuracy"] else None,
                     "round_bytes": int(rec["download_bytes"]) + int(rec["upload_bytes"]),
                     "cumulative_bytes": int(rec["cumulative_bytes"])}
                    for rec in csv.DictReader(fh)]
        if any(r["round_bytes"] <= 0 or r["cumulative_bytes"] <= 0 for r in rows):
            raise ValueError("metrics.csv has a byte count that is not positive")
        return manifest["dataset"], manifest["method"], rows
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"cannot read run {run_dir}: {type(e).__name__}: {e}") from e


def _first_reaching(rows, level):
    """First metrics row whose recorded accuracy is at or above ``level``."""
    for row in rows:
        if row["accuracy"] is not None and row["accuracy"] >= level:
            return row
    return None


def compare(run_dirs, out_path) -> list[dict]:
    """Byte-reduction table of the first run over each later run.

    For every accuracy level recorded by both runs, reports per-round
    and cumulative communication of each run at the first round that
    level was reached, plus reduction percentages of the subject over
    the baseline. Writes ``out_path`` and returns the rows.
    """
    if len(run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    subj_dataset, _, subj_rows = _load_run(run_dirs[0])
    out_rows = []
    for base_dir in run_dirs[1:]:
        base_dataset, base_method, base_rows = _load_run(base_dir)
        if base_dataset != subj_dataset:
            raise ConfigError(
                f"dataset mismatch: {subj_dataset!r} vs {base_dataset!r} ({base_dir})")
        accs = sorted({r["accuracy"] for r in subj_rows + base_rows
                       if r["accuracy"] is not None})
        for level in accs:
            s = _first_reaching(subj_rows, level)
            b = _first_reaching(base_rows, level)
            if s is None or b is None:
                continue
            out_rows.append({
                "baseline": base_method,
                "accuracy_level": level,
                "subject_round": s["round"],
                "baseline_round": b["round"],
                "subject_round_bytes": s["round_bytes"],
                "baseline_round_bytes": b["round_bytes"],
                "round_reduction_pct":
                    100.0 * (1.0 - s["round_bytes"] / b["round_bytes"]),
                "subject_cumulative_bytes": s["cumulative_bytes"],
                "baseline_cumulative_bytes": b["cumulative_bytes"],
                "cumulative_reduction_pct":
                    100.0 * (1.0 - s["cumulative_bytes"] / b["cumulative_bytes"]),
            })
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REDUCTION_COLUMNS)
        writer.writeheader()
        for row in out_rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    return out_rows
