"""Guard for the bench tracer: the names it wraps exist, the work it
records for the parameter-moving calls is 4 bytes per parameter, the
conv FLOPs it records over an evaluation are the forward conv FLOPs, and
the bench's stand-ins for ``fedsim.run_experiment`` take the arguments
``experiment.run`` passes.

``bench/spans.py`` and ``bench/child.py`` are loaded from their files and
not changed; their own tests live outside this suite.
"""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fedgrow import datasets, experiment, fedsim, growth, nn, rng
from fedgrow.fedsim import PartitionSpec, RunSettings, run_experiment
from fedgrow.rng import stream

from conftest import shards_of

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "bench" / "spans.py"
MODULES = {"datasets": datasets, "experiment": experiment, "fedsim": fedsim,
           "growth": growth, "nn": nn, "rng": rng}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def child():
    # child.py imports its bench neighbours by name, as under bench/run.py.
    sys.path.insert(0, str(SPANS_PATH.parent))
    try:
        spec = importlib.util.spec_from_file_location("bench_child",
                                                      SPANS_PATH.with_name("child.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SPANS_PATH.parent))
    return module


def test_the_bench_clocks_and_stops_run_experiment_as_run_calls_it(child, tmp_path):
    # round_clock and time_setup stand in for fedsim.run_experiment with
    # exactly (method, schedule, shards, test_x, test_y, settings, on_round).
    def config(name):
        cfg = experiment.ExperimentConfig.load(ROOT / "configs" / "synthetic-fnn.json")
        cfg.rounds, cfg.output_dir = 3, str(tmp_path / name)
        cfg.synthetic = dataclasses.replace(cfg.synthetic, per_class=20)
        return cfg

    with child.round_clock(fedsim) as stamps:
        experiment.run(config("clocked"))
    assert len(stamps["rounds"]) == 3
    assert stamps["entry"] is not None and stamps["exit"] is not None
    assert child.time_setup(experiment, fedsim, config("setup")) > 0


def _bytes(params) -> int:
    return 4 * nn.count_params(params.arch)


# (module, attribute, span name, bytes of the models one call receives)
RECEIVERS = (
    (fedsim, "aggregate", "fedsim.aggregate",
     lambda args: sum(_bytes(p) for p, _ in args[0])),
    (fedsim, "fd_merge", "fedsim.fd_merge",
     lambda args: sum(_bytes(p) for p, _, _ in args[2])),
    (nn, "copy_params", "nn.copy_params", lambda args: _bytes(args[0])),
)


def test_every_traced_name_exists(spans):
    for mod_name, attr, _, _ in spans.TRACED:
        assert callable(getattr(MODULES[mod_name], attr, None)), f"{mod_name}.{attr}"
    for attr in spans.POLICY_METHODS:
        assert callable(getattr(fedsim.SwitchPolicy, attr, None)), attr


def test_traced_parameter_work_is_four_bytes_a_parameter(spans, monkeypatch):
    r = stream(40, 0)
    x = r.random((80, 4, 4, 1), dtype=np.float32)
    y = r.integers(0, 3, 80)
    shards = shards_of(x, y, PartitionSpec(client_count=8, seed=40))
    sched = growth.GrowthSchedule("tiny", tuple(
        growth.build_arch((4, 4, 1), row, 0.125)
        for row in ([("conv", 2, 3), ("pool", 2), ("dense", 4), ("dense", 3)],
                    [("conv", 4, 3), ("pool", 2), ("dense", 8), ("dense", 3)])), (0.5,))
    settings = RunSettings(rounds=3, clients_per_round=3,
                           train=nn.TrainConfig(learning_rate=0.05), master_seed=4,
                           eval_every=0)
    monkeypatch.setattr(fedsim, "_cpus", lambda: 1)  # one worker: every call in process

    expected = {name: [] for _, _, name, _ in RECEIVERS}
    for owner, attr, name, received in RECEIVERS:
        def recorded(*args, _fn=getattr(owner, attr), _name=name, _received=received):
            result = _fn(*args)
            expected[_name].append(_received(args))
            return result
        monkeypatch.setattr(owner, attr, recorded)

    tracer = spans.Tracer("guard")
    with tracer.install(MODULES):
        run_experiment("fd", sched, shards, None, None, settings)
    for _, _, name, _ in RECEIVERS:
        recorded = [work for *_, span_name, _, _, work in tracer.spans if span_name == name]
        assert expected[name] and recorded == expected[name], name


def test_traced_conv_flops_of_an_evaluation_are_the_forward_conv_share(spans):
    # cifar10 model 2 has a pooled and an unpooled 3x3 conv at each
    # resolution, then a pointwise one. At 32x32 a row block holds one
    # sample, at 10x10 ten, and the pointwise conv runs as one block.
    arch = growth.builtin_schedule("cifar10").models[1]
    params = nn.init_params(arch, stream(41, 0))
    n = 3
    x = stream(41, 1).random((n,) + arch.input_shape, dtype=np.float32)
    y = stream(41, 2).integers(0, arch.num_classes, n)
    shapes = nn.infer_shapes(arch)
    conv_flops = 2 * sum(math.prod(shapes[i][:-1]) * math.prod(spec.weight_shape)
                         for i, spec in enumerate(arch.layers) if spec.kind == "conv2d")

    tracer = spans.Tracer("guard")
    with tracer.install(MODULES):
        fedsim.evaluate(arch, params, x, y)
    table = spans.layer_table(tracer.spans)
    assert conv_flops < nn.forward_flops(arch)
    assert table["nn._conv_forward"]["work"] == n * conv_flops
    # One call per row block: n + n + 1 + 1 + 1 convs; pools after the
    # second (n blocks) and fourth (one block) conv.
    assert table["nn._conv_forward"]["calls"] == 2 * n + 3
    assert table["nn._maxpool_forward"]["calls"] == n + 1
