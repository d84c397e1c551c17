"""Per-layer time of one SGD step, one evaluation and one merge, in process.

    python3 tools/step_profile.py [--root DIR] [--models 'mnist m6,cifar10 m6 fd']

For the smallest and largest builtin model of each schedule (or any
builtin model ``--models`` names), and for the cifar10 final model as
federated dropout crops it, this times
``nn.backward_and_step`` on a batch of 10, ``fedsim.evaluate`` on 300
images (the bench's test set) and on ``fedsim.EVAL_BATCH`` images (one
whole batch of a larger test set), each one evaluation batch, and
``fedsim.aggregate`` of 10 updates at the process's CPU count
(``fedsim._cpus``), which sets how many threads the merge folds on. As
in a run's full-broadcast merge, the updates sit in the slots of a
one-worker ``fedsim.ClientPool`` and the merge folds into slot 0. For
the cropped model it also times ``fedsim.fd_merge`` of the same 10
updates as sub-updates of the cifar10 final model, folded into slot 0
and written over that model in place, as in a federated-dropout round.
It wraps module attributes from outside with this checkout's
``bench/spans.py`` tracer and changes no source, so ``--root`` measures
another checkout's ``src`` (for example a clone of the parent commit)
with this same harness, if its ``aggregate`` and ``fd_merge`` take
``out``; an older checkout is measured with its own copy of this script.

Every row is the self time of a wrapped function: its time minus that
of the wrapped functions it calls. ``_run_layers`` then holds the
forward of dense, relu, dropout, gap and flatten, ``gradients`` the loss
and their backward, and ``backward_and_step`` the SGD update. ``other``
is the call's wall time outside every wrapped function. Each number is
the median over ``STEPS`` steps or ``MERGES`` merges, or over as many
evaluations as add up to ``EVAL_SECONDS`` of wall time, at least
``EVALS``; each row prints its count of calls, and the warm-up calls
before them are discarded.
BLAS runs at one thread. Each model also reports the analytic FLOPs
(``nn.fwd_bwd_flops`` per step, ``nn.forward_flops`` per evaluation),
the achieved GFLOP/s, the float32 bytes a merge reads and its GB/s, the
minor page faults per call and, for an evaluation and ``fd_merge``, the
tracemalloc peak of one more call (MiB).
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import spans  # noqa: E402

BATCH = 10  # the default batch of nn.TrainConfig
EVAL_SAMPLES = 300  # the test set of the bench's fnn-mnist-grow
STEPS, WARMUP = 20, 5  # measured and discarded SGD steps per model
EVALS, EVAL_WARMUP = 3, 1  # least measured and discarded evaluations per model
# Wall seconds the measured evaluations of a model add up to at least:
# mnist m1 evaluates 300 images in about 30 ms, and the median of three
# such calls read 29.1 to 40.7 ms across runs on a shared 2-vCPU machine.
EVAL_SECONDS = 1.0
UPDATES = 10  # the bench workloads' clients_per_round
MERGES, MERGE_WARMUP = 9, 2  # measured and discarded merges per model

# (module, attribute) of every wrapped function. nn calls its helpers
# through module globals and fedsim calls nn through the module, so the
# wrappers see every call.
WRAPPED = (
    ("fedsim", "aggregate"),
    ("fedsim", "fd_merge"),
    ("fedsim", "evaluate"),
    ("nn", "backward_and_step"),
    ("nn", "gradients"),
    ("nn", "forward"),
    ("nn", "_run_layers"),
    ("nn", "_conv_forward"),
    ("nn", "_conv_backward"),
    ("nn", "_maxpool_forward"),
    ("nn", "_maxpool_backward"),
    ("nn", "_softmax"),
)


def install(tracer: spans.Tracer, modules: dict) -> None:
    for mod_name, attr in WRAPPED:
        owner = modules[mod_name]
        setattr(owner, attr, tracer.wrap(f"{mod_name}.{attr}", getattr(owner, attr)))


def measure(call, warmup: int, repeats: int, tracer: spans.Tracer,
            seconds: float = 0.0) -> dict:
    """Median wall ms, minor faults and self ms per wrapped function of
    at least ``repeats`` calls, and of as many more as their wall time
    takes to reach ``seconds``, after ``warmup`` discarded ones."""
    for _ in range(warmup):
        call()
    walls, faults, selfs = [], [], []
    while len(walls) < repeats or sum(walls) < seconds:
        tracer.spans.clear()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self_ms = {name: row["self_ms"]
                   for name, row in spans.layer_table(tracer.spans).items()}
        walls.append(wall)
        faults.append(after - before)
        selfs.append({**self_ms, "other": wall * 1e3 - sum(self_ms.values())})
    names = sorted({name for row in selfs for name in row})
    return {
        "calls": len(walls),
        "wall_ms": statistics.median(walls) * 1e3,
        "minor_faults": statistics.median(faults),
        "self_ms": {name: statistics.median(row.get(name, 0.0) for row in selfs)
                    for name in names},
    }


def traced_peak(call) -> float:
    """The tracemalloc peak of one more ``call``, in MiB, apart from the
    timed ones since tracing slows every allocation."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def models(growth, fedsim, nn, rngmod, only):
    """(name, arch, params, crop) of the smallest and largest builtin model
    of each schedule, of any other builtin model ``only`` names, and of
    the cifar10 final model as federated dropout crops it, whose ``crop``
    is (full arch, full params, mask); None for the others."""
    out = []
    for tag in ("mnist", "emnist", "cifar10"):
        schedule = growth.builtin_schedule(tag)
        for k, arch in enumerate(schedule.models):
            name = f"{tag} m{k + 1}"
            if k in (0, len(schedule.models) - 1) or name in (only or ()):
                out.append((name, arch, nn.init_params(arch, rngmod.stream(0, k)), None))
    _, arch, params, _ = out[-1]
    sub_arch, sub_params, mask = fedsim.fd_extract(arch, params, 1.0 - nn.DEFAULT_DROPOUT,
                                                   rngmod.stream(0, 99))
    out.append((f"cifar10 m{len(schedule.models)} fd", sub_arch, sub_params,
                (arch, nn.copy_params(params), mask)))
    return out


def profile(root: Path, only) -> None:
    sys.path.insert(0, str(root / "src"))
    from fedgrow import fedsim, growth, nn
    from fedgrow import rng as rngmod

    tracer = spans.Tracer("step_profile")
    install(tracer, {"nn": nn, "fedsim": fedsim})
    for name, arch, params, crop in models(growth, fedsim, nn, rngmod, only):
        if only and name not in only:
            continue
        data = rngmod.stream(1, 0)
        shape = tuple(arch.input_shape)
        x = data.random((BATCH, *shape), dtype=np.float32)
        y = data.integers(0, arch.num_classes, BATCH)
        test_x = data.random((max(EVAL_SAMPLES, fedsim.EVAL_BATCH), *shape), dtype=np.float32)
        test_y = data.integers(0, arch.num_classes, test_x.shape[0])
        tag = name.split()[0]
        cfg = nn.TrainConfig(learning_rate=growth.LEARNING_RATES[tag], batch_size=BATCH)
        dropout = rngmod.stream(1, 1)
        state = {"params": params}

        def step():
            state["params"], _ = nn.backward_and_step(arch, state["params"], x, y, cfg,
                                                      dropout)

        size = nn.count_params(arch)
        pool = fedsim.ClientPool(1, UPDATES, size, [])
        updates = []
        for k in range(UPDATES):
            pool.slots[k + 1] = data.random(size, dtype=np.float32)
            updates.append((nn.Params(arch, pool.slots[k + 1]), k + 1))

        def aggregate():
            fedsim.aggregate(updates, out=pool.slots[0])

        step_row = measure(step, WARMUP, STEPS, tracer)
        step_row["gflop"] = nn.fwd_bwd_flops(arch) * BATCH / 1e9
        eval_rows = {}
        for n in (EVAL_SAMPLES, fedsim.EVAL_BATCH):
            def evaluate(n=n):
                fedsim.evaluate(arch, state["params"], test_x[:n], test_y[:n])

            eval_rows[n] = measure(evaluate, EVAL_WARMUP, EVALS, tracer, EVAL_SECONDS)
            eval_rows[n]["gflop"] = nn.forward_flops(arch) * n / 1e9
            eval_rows[n]["peak_mib"] = traced_peak(evaluate)
        merge_rows = {"aggregate": measure(aggregate, MERGE_WARMUP, MERGES, tracer)}
        if crop is not None:
            full_arch, full_params, mask = crop

            def fd_merge():
                fedsim.fd_merge(full_arch, full_params, [(p, mask, n) for p, n in updates],
                                out=pool.slots[0])

            merge_rows["fd merge"] = measure(fd_merge, MERGE_WARMUP, MERGES, tracer)
            merge_rows["fd merge"]["peak_mib"] = traced_peak(fd_merge)
        del updates
        pool.close()
        for row in merge_rows.values():
            row["mb"] = UPDATES * size * np.dtype(nn.DTYPE).itemsize / 1e6
        report(name, step_row, eval_rows, merge_rows, fedsim._cpus())


def report(name: str, step_row: dict, eval_rows: dict, merge_rows: dict,
           cpus: int) -> None:
    rows = [("step", step_row, BATCH)] + [("evaluate", row, n) for n, row in eval_rows.items()]
    for what, row, n in rows:
        gflops = row["gflop"] / (row["wall_ms"] / 1e3)
        print(f"{name} {what} ({n} samples): {row['wall_ms']:.2f} ms "
              f"(median of {row['calls']}), "
              f"{row['gflop']:.3f} GFLOP, {gflops:.2f} GFLOP/s, "
              f"{row['minor_faults']:g} minor faults"
              + (f", {row['peak_mib']:.1f} MiB peak" if "peak_mib" in row else ""))
        print_self_ms(row)
    for what, row in merge_rows.items():
        gbps = row["mb"] / row["wall_ms"]
        print(f"{name} {what} ({UPDATES} updates, {cpus} CPUs): "
              f"{row['wall_ms']:.2f} ms (median of {row['calls']}), "
              f"{row['mb']:.1f} MB read, "
              f"{gbps:.2f} GB/s, {row['minor_faults']:g} minor faults"
              + (f", {row['peak_mib']:.2f} MiB peak" if "peak_mib" in row else ""))
        print_self_ms(row)
    sys.stdout.flush()


def print_self_ms(row: dict) -> None:
    for fn, ms in sorted(row["self_ms"].items(), key=lambda kv: -kv[1]):
        if ms >= 0.005:
            print(f"    {fn:28s} {ms:9.3f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is profiled (default: this one)")
    parser.add_argument("--models", type=lambda s: s.split(","), default=None,
                        help="comma-separated model names, e.g. 'mnist m6,cifar10 m6 fd'")
    args = parser.parse_args(argv)
    print("BLAS threads: " + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
          + f"; numpy {np.__version__}; root {args.root.resolve()}")
    profile(args.root.resolve(), args.models)
    return 0


if __name__ == "__main__":
    sys.exit(main())
