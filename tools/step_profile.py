"""Per-layer time of one SGD step and one evaluation, measured in process.

    python3 tools/step_profile.py [--root DIR] [--models 'mnist m6,cifar10 m6 fd']

For the smallest and largest builtin model of each schedule, and for the
cifar10 final model as federated dropout crops it, this times
``nn.backward_and_step`` on a batch of 10 and ``fedsim.evaluate`` on
300 images, one evaluation batch. It wraps module attributes from
outside with this checkout's ``bench/spans.py`` tracer and changes no
source, so ``--root`` measures another checkout's ``src`` (for example a
clone of the parent commit) with this same harness.

Every row is the self time of a wrapped function: its time minus that
of the wrapped functions it calls. ``_run_layers`` then holds the
forward of dense, relu, dropout, gap and flatten, ``gradients`` the loss
and their backward, and ``backward_and_step`` the SGD update. ``other``
is the call's wall time outside every wrapped function. Each number is
the median over ``STEPS`` steps or ``EVALS`` evaluations; the warm-up
calls before them are discarded.
BLAS runs at one thread. Each model also reports the analytic FLOPs
(``nn.fwd_bwd_flops`` per step, ``nn.forward_flops`` per evaluation),
the achieved GFLOP/s and the minor page faults per call.
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
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import spans  # noqa: E402

BATCH = 10  # the default batch of nn.TrainConfig
EVAL_SAMPLES = 300  # one evaluation batch, as in the bench's fnn-mnist-grow
STEPS, WARMUP = 20, 5  # measured and discarded SGD steps per model
EVALS, EVAL_WARMUP = 3, 1  # measured and discarded evaluations per model

# (module, attribute) of every wrapped function. nn calls its helpers
# through module globals and fedsim calls nn through the module, so the
# wrappers see every call.
WRAPPED = (
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


def measure(call, warmup: int, repeats: int, tracer: spans.Tracer) -> dict:
    """Median wall ms, minor faults and self ms per wrapped function of
    ``repeats`` calls after ``warmup`` discarded ones."""
    walls, faults, selfs = [], [], []
    for k in range(warmup + repeats):
        tracer.spans.clear()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if k >= warmup:
            self_ms = {name: row["self_ms"]
                       for name, row in spans.layer_table(tracer.spans).items()}
            walls.append(wall)
            faults.append(after - before)
            selfs.append({**self_ms, "other": wall * 1e3 - sum(self_ms.values())})
    names = sorted({name for row in selfs for name in row})
    return {
        "wall_ms": statistics.median(walls) * 1e3,
        "minor_faults": statistics.median(faults),
        "self_ms": {name: statistics.median(row.get(name, 0.0) for row in selfs)
                    for name in names},
    }


def models(growth, fedsim, nn, rngmod):
    """(name, arch, params) of every profiled model."""
    out = []
    for tag in ("mnist", "emnist", "cifar10"):
        schedule = growth.builtin_schedule(tag)
        for k in (0, len(schedule.models) - 1):
            arch = schedule.models[k]
            out.append((f"{tag} m{k + 1}", arch, nn.init_params(arch, rngmod.stream(0, k))))
    _, arch, params = out[-1]
    sub_arch, sub_params, _ = fedsim.fd_extract(arch, params, 1.0 - growth.DEFAULT_DROPOUT,
                                                rngmod.stream(0, 99))
    out.append((f"cifar10 m{len(schedule.models)} fd", sub_arch, sub_params))
    return out


def profile(root: Path, only) -> None:
    sys.path.insert(0, str(root / "src"))
    from fedgrow import fedsim, growth, nn
    from fedgrow import rng as rngmod

    tracer = spans.Tracer("step_profile")
    install(tracer, {"nn": nn, "fedsim": fedsim})
    for name, arch, params in models(growth, fedsim, nn, rngmod):
        if only and name not in only:
            continue
        data = rngmod.stream(1, 0)
        shape = tuple(arch.input_shape)
        x = data.random((BATCH, *shape), dtype=np.float32)
        y = data.integers(0, arch.num_classes, BATCH)
        test_x = data.random((EVAL_SAMPLES, *shape), dtype=np.float32)
        test_y = data.integers(0, arch.num_classes, EVAL_SAMPLES)
        tag = name.split()[0]
        cfg = nn.TrainConfig(learning_rate=growth.LEARNING_RATES[tag], batch_size=BATCH)
        dropout = rngmod.stream(1, 1)
        state = {"params": params}

        def step():
            state["params"], _ = nn.backward_and_step(arch, state["params"], x, y, cfg,
                                                      dropout)

        def evaluate():
            fedsim.evaluate(arch, state["params"], test_x, test_y)

        step_row = measure(step, WARMUP, STEPS, tracer)
        step_row["gflop"] = nn.fwd_bwd_flops(arch) * BATCH / 1e9
        eval_row = measure(evaluate, EVAL_WARMUP, EVALS, tracer)
        eval_row["gflop"] = nn.forward_flops(arch) * EVAL_SAMPLES / 1e9
        report(name, step_row, eval_row)


def report(name: str, step_row: dict, eval_row: dict) -> None:
    for what, row, n in (("step", step_row, BATCH), ("evaluate", eval_row, EVAL_SAMPLES)):
        gflops = row["gflop"] / (row["wall_ms"] / 1e3)
        print(f"{name} {what} ({n} samples): {row['wall_ms']:.2f} ms, "
              f"{row['gflop']:.3f} GFLOP, {gflops:.2f} GFLOP/s, "
              f"{row['minor_faults']:g} minor faults")
        for fn, ms in sorted(row["self_ms"].items(), key=lambda kv: -kv[1]):
            if ms >= 0.005:
                print(f"    {fn:28s} {ms:9.3f} ms")
    sys.stdout.flush()


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
