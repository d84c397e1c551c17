"""One benchmark run, inside the fresh process that ``run.py`` starts.

Usage: python bench/child.py JOB_JSON

The parent sets the BLAS thread variables to 1 before this process
imports numpy. The run imports fedgrow from the checkout's ``src``,
measures set-up several times, runs the workload's simulations, checks
their outputs and writes ``result.json`` next to the job file. With
tracing on it also runs one traced simulation and writes its spans.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import checks
import spans
from workloads import Corpus, Workload, experiment_config

SETUP_REPEATS = 11
FINAL_LOSS_ROUNDS = 10
STAGES = 6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "round_ms.p50": "ms",
    "round_ms.p90": "ms",
    "gflops_per_s": "GFLOP/s",
    "peak_rss_mb": "MB",
}

_FIELD_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms",
                "gflops_per_s": "GFLOP/s", "mb": "MB", "mb_in": "MB"}

# Span name -> fields reported; each should move an end-to-end metric on
# the workload that stresses it (see the workload notes).
LAYER_FIELDS = {
    "nn._conv_forward": ("calls", "ms", "gflops_per_s"),
    "nn._conv_backward": ("calls", "ms", "gflops_per_s"),
    "nn._maxpool_forward": ("ms",),
    "nn._maxpool_backward": ("ms",),
    "nn.backward_and_step": ("calls", "self_ms"),
    "nn.copy_params": ("calls", "ms", "mb"),
    "nn.gradients": ("self_ms",),
    "fedsim.aggregate": ("calls", "ms", "mb_in"),
    "fedsim.fd_extract": ("ms",),
    "fedsim.fd_merge": ("ms", "mb_in"),
    "fedsim.evaluate": ("calls", "ms"),
    "nn.forward": ("self_ms",),
    "fedsim.local_train": ("self_ms",),
    "fedsim.run_experiment": ("self_ms",),
    "rng.stream": ("calls", "ms"),
    "switching.policy": ("ms",),
    "experiment.on_round": ("ms",),
    "morph.apply_diff": ("calls", "ms"),
    "datasets.load_idx_dataset": ("ms", "mb"),
    "experiment.build_schedule": ("ms",),
    "growth.schedule_diffs": ("ms",),
    "fedsim.partition": ("ms",),
}

LAYER_UNITS = {f"{name}.{f}": _FIELD_UNITS[f]
               for name, fields in LAYER_FIELDS.items() for f in fields}
LAYER_UNITS.update({f"fedsim.stage{k}.round_ms.p50": "ms" for k in range(1, STAGES + 1)})
LAYER_UNITS["trace.overhead_frac"] = "ratio"


class _SetupDone(Exception):
    """Stops a run at the entry of the round loop."""


@contextmanager
def _patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def time_setup(experiment, fedsim, config) -> float:
    """Seconds from the call to ``experiment.run`` until it enters
    ``fedsim.run_experiment``: validation, config echo, schedule, data
    ingest and partition."""
    entered = []

    def stop(*args, **kwargs):
        entered.append(time.perf_counter())
        raise _SetupDone

    with _patched(fedsim, "run_experiment", stop):
        start = time.perf_counter()
        try:
            experiment.run(config)
        except _SetupDone:
            pass
    return entered[0] - start


@contextmanager
def round_clock(fedsim, tracer=None):
    """Stamp the entry and exit of ``fedsim.run_experiment`` and the end
    of every round, by wrapping the ``on_round`` callback
    ``experiment.run`` passes in (one clock read per round)."""
    stamps = {"entry": None, "exit": None, "rounds": []}

    def clocked(method, schedule, shards, test_x, test_y, settings, on_round=None):
        if tracer is not None and on_round is not None:
            on_round = tracer.wrap("experiment.on_round", on_round)

        def stamped(row):
            if on_round is not None:
                on_round(row)
            stamps["rounds"].append(time.perf_counter())

        stamps["entry"] = time.perf_counter()
        try:
            return original(method, schedule, shards, test_x, test_y, settings, stamped)
        finally:
            stamps["exit"] = time.perf_counter()

    with _patched(fedsim, "run_experiment", clocked) as original:
        yield stamps


def simulate(fg, workload: Workload, config, tracer=None) -> dict:
    """One whole simulation through ``experiment.run``, checked."""
    run = fg["experiment"].run
    if tracer is not None:
        run = tracer.wrap("experiment.run", run)
    error = None
    with round_clock(fg["fedsim"], tracer) as stamps:
        start = time.perf_counter()
        try:
            run(config)
        except fg["FedgrowError"] as e:
            error = f"run raised {type(e).__name__}: {e}"
        end = time.perf_counter()
    out = Path(config.output_dir)
    problems = ([error] if error else []) + checks.check_run(out, workload)
    rows = checks.read_rows(out) if (out / "metrics.csv").exists() else []
    entry = stamps["entry"] if stamps["entry"] is not None else end
    ticks = [entry] + stamps["rounds"]
    round_ms = [1e3 * (b - a) for a, b in zip(ticks, ticks[1:])]
    m = workload.config["clients_per_round"]
    return {
        "wall_s": end - start,
        "setup_s": entry - start,
        "loop_s": (stamps["exit"] or end) - entry,
        # Round 0 also initialises the model; it is left out of the
        # round-time percentiles as warm-up.
        "round_ms": round_ms[1:],
        "round_model": [int(r["model_index"]) for r in rows][1:len(round_ms)],
        # Rounds that do the same work: same model, same FLOPs per client,
        # same switch and evaluation.
        "round_work": [(r["model_index"], r["flops_per_client"], r["switch_flag"],
                        r["test_accuracy"] != "") for r in rows][1:len(round_ms)],
        "losses": [float(r["weighted_loss"]) for r in rows],
        "rounds": len(stamps["rounds"]),
        "flops": sum(int(r["flops_per_client"]) * m for r in rows),
        "hash": checks.metrics_hash(out) if rows else None,
        "problems": problems,
    }


def tally(sims, rounds: int):
    """(attempted rounds, failed rounds, metrics.csv hashes) of a run.

    A simulation with any problem fails all of its rounds. Every
    simulation of one seed must write the same metrics.csv, so differing
    hashes fail them all.
    """
    hashes = sorted({s["hash"] for s in sims}, key=str)
    if len(hashes) != 1:
        for s in sims:
            s["problems"].append(f"metrics.csv hashes differ across simulations: {hashes}")
    failed = sum(rounds for s in sims if s["problems"])
    return rounds * len(sims), failed, hashes


def _quantile(values, q: int) -> float:
    """The q-th decile of ``values`` (0 when there are none)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def typical_round_ms(sim) -> list[float]:
    """The simulation's round times, each replaced by the mean time of the
    rounds that do the same work.

    Rounds of one kind cost the same, so what sets them apart is load on
    the host, which comes in bursts of seconds. Percentiles of these
    times stay on the cost of a kind of round, averaged over every round
    of that kind, where a raw percentile would pick out single rounds
    that a burst happened to slow down or spare.
    """
    groups = {}
    for ms, work in zip(sim["round_ms"], sim["round_work"]):
        groups.setdefault(work, []).append(ms)
    means = {work: statistics.fmean(times) for work, times in groups.items()}
    return [means[work] for work in sim["round_work"]]


def end_to_end(setups, sims, peak_rss_mb) -> dict:
    rounds = sum(s["rounds"] for s in sims)
    loop_s = sum(s["loop_s"] for s in sims)
    round_ms = [ms for s in sims for ms in typical_round_ms(s)]
    return {
        "setup_s": statistics.median(setups + [s["setup_s"] for s in sims]),
        "wall_s": statistics.median(s["wall_s"] for s in sims),
        "rounds_per_s": rounds / loop_s,
        "round_ms.p50": _quantile(round_ms, 5),
        "round_ms.p90": _quantile(round_ms, 9),
        "gflops_per_s": sum(s["flops"] for s in sims) / loop_s / 1e9,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(table, sims, traced) -> dict:
    out = {}
    for name, fields in LAYER_FIELDS.items():
        row = table.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0})
        for f in fields:
            if f in ("calls", "ms", "self_ms"):
                value = row[f]
            elif f == "gflops_per_s":
                value = row["work"] / row["ms"] / 1e6 if row["ms"] else 0.0
            else:
                value = row["work"] / 1e6
            out[f"{name}.{f}"] = value
    for k in range(1, STAGES + 1):
        stage = [ms for s in sims for ms, mi in zip(s["round_ms"], s["round_model"])
                 if mi == k - 1]
        out[f"fedsim.stage{k}.round_ms.p50"] = statistics.median(stage) if stage else 0.0
    untraced_wall = statistics.median(s["wall_s"] for s in sims)
    out["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
    return out


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
    }


def import_fedgrow(src: Path) -> dict:
    """The fedgrow modules, imported from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    try:
        import fedgrow
        from fedgrow import (datasets, experiment, fedsim, growth, morph, nn,
                             rng, switching)
    except ImportError as e:
        raise SystemExit(f"cannot import fedgrow from {src}: {e}")
    if src.resolve() not in Path(fedgrow.__file__).resolve().parents:
        raise SystemExit(f"fedgrow was imported from {fedgrow.__file__}, not {src}")
    return {"datasets": datasets, "experiment": experiment, "fedsim": fedsim,
            "growth": growth, "morph": morph, "nn": nn, "rng": rng,
            "switching": switching, "FedgrowError": fedgrow.FedgrowError}


def workload_from_dict(d: dict) -> Workload:
    corpus = Corpus(**d["corpus"]) if d["corpus"] else None
    return Workload(d["name"], d["why"], d["config"], corpus)


def main(job_path: str) -> None:
    job_path = Path(job_path)
    job = json.loads(job_path.read_text())
    fg = import_fedgrow(Path(job["root"]) / "src")
    import numpy as np

    workload = workload_from_dict(job["workload"])
    run_dir = job_path.parent
    data_dir = Path(job["data_dir"]) if job["data_dir"] else None
    ExperimentConfig = fg["experiment"].ExperimentConfig

    def config(tag):
        return ExperimentConfig.from_dict(
            experiment_config(workload, job["seed"], run_dir / tag, data_dir))

    setups = [time_setup(fg["experiment"], fg["fedsim"], config(f"setup{k}"))
              for k in range(SETUP_REPEATS)]
    # Whole simulations back to back while the next one is expected to
    # end within the run's seconds; always at least one. A traced run
    # measures one untraced and one traced simulation.
    sims = []
    start = time.perf_counter()
    while True:
        sims.append(simulate(fg, workload, config(f"sim{len(sims)}")))
        elapsed = time.perf_counter() - start
        if job["trace"] or elapsed + sims[-1]["wall_s"] > job["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Mean training loss of the last rounds. It moves only when the
    # arithmetic changes, but it spreads too much across seeds to carry a
    # bound, so it is reported beside the metrics rather than among them.
    losses = sims[0]["losses"][-FINAL_LOSS_ROUNDS:]
    result = {"environment": environment(np), "seed": job["seed"],
              "final_loss": statistics.fmean(losses) if losses else None}
    everything = list(sims)
    if job["trace"]:
        tracer = spans.Tracer(run_id=f"{workload.name}-{job['seed']}-traced")
        with tracer.install(fg):
            traced = simulate(fg, workload, config("traced"), tracer)
        tracer.write(run_dir / "spans.jsonl")
        everything.append(traced)
        table = spans.layer_table(tracer.spans)
        result["layer_table"] = table
        metrics, units = per_layer(table, sims, traced), LAYER_UNITS
    else:
        metrics, units = end_to_end(setups, sims, peak_rss_mb), END_TO_END_UNITS

    attempted, failed, hashes = tally(everything, workload.rounds)
    result.update({
        "attempted": attempted,
        "failed": failed,
        "problems": [p for s in everything for p in s["problems"]],
        "metrics_sha256": hashes,
        "simulations": len(everything),
        "setups_s": setups,
        "round_ms": [s["round_ms"] for s in everything],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
