"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

The desk-scale training criterion runs on real MNIST IDX files when
FEDGROW_MNIST_DIR (or ./data/mnist) provides them; otherwise it runs on
a deterministic MNIST-shaped synthetic stand-in written and re-read
through the IDX pipeline, since this environment cannot download MNIST.
"""

import csv
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fedgrow import datasets, experiment, fedsim, growth, morph, nn
from fedgrow.rng import stream
from fedgrow.switching import SwitchPolicy

from conftest import finite_difference_check, random_params, shards_of


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Function preservation across both builtin schedules


def test_criterion_1_function_preservation():
    start = time.time()
    worst = 0.0
    for dataset in ("emnist", "cifar10"):
        sched = growth.builtin_schedule(dataset)
        x = stream(42, 9).random((16,) + tuple(sched.models[0].input_shape),
                                 dtype=np.float32)
        for i in range(sched.num_models - 1):
            arch = sched.models[i]
            params = random_params(arch, 100 + i)
            before = nn.forward(arch, params, x)
            diff = growth.diff_models(arch, sched.models[i + 1])
            arch2, params2, _ = morph.apply_diff(arch, params, diff,
                                                 stream(7, 4, i))
            assert arch2.layers == sched.models[i + 1].layers
            after = nn.forward(arch2, params2, x)
            worst = max(worst, float(np.abs(before - after).max()))
    elapsed = time.time() - start
    _report(1, worst < 1e-5 and elapsed < 120,
            f"max |output delta| {worst:.2e} over 10 pairs (tol 1e-5), "
            f"{elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 2. Parameter counts against the published tables


def test_criterion_2_parameter_counts():
    # Independent closed-form oracle, layer by layer (weights + biases).
    def conv(k, ci, co):
        return k * k * ci * co + co

    def fc(i, o):
        return i * o + o

    emnist_expected = [
        conv(5, 1, 16) + fc(7 * 7 * 16, 512) + fc(512, 62),
        conv(5, 1, 32) + fc(7 * 7 * 32, 512) + fc(512, 62),
        conv(5, 1, 32) + conv(5, 32, 32) + fc(7 * 7 * 32, 512) + fc(512, 62),
        conv(5, 1, 32) + conv(5, 32, 64) + fc(7 * 7 * 64, 512) + fc(512, 62),
        conv(5, 1, 32) + conv(5, 32, 64) + fc(7 * 7 * 64, 1024) + fc(1024, 62),
        conv(5, 1, 32) + conv(5, 32, 64) + fc(7 * 7 * 64, 2048) + fc(2048, 62),
    ]
    cifar_expected = [
        conv(3, 3, 32) + conv(3, 32, 64) + conv(1, 64, 10) + fc(10, 10),
        conv(3, 3, 32) + conv(3, 32, 32) + conv(3, 32, 64) + conv(3, 64, 64)
        + conv(1, 64, 10) + fc(10, 10),
        conv(3, 3, 64) + conv(3, 64, 64) + conv(3, 64, 128) + conv(3, 128, 128)
        + conv(1, 128, 10) + fc(10, 10),
        conv(3, 3, 96) + conv(3, 96, 96) + conv(3, 96, 192) + conv(3, 192, 192)
        + conv(1, 192, 10) + fc(10, 10),
        conv(3, 3, 96) + conv(3, 96, 96) + conv(3, 96, 192) + conv(3, 192, 192)
        + conv(3, 192, 192) + conv(1, 192, 10) + fc(10, 10),
        conv(3, 3, 96) + conv(3, 96, 96) + conv(3, 96, 192) + conv(3, 192, 192)
        + conv(3, 192, 192) + conv(1, 192, 192) + conv(1, 192, 10) + fc(10, 10),
    ]
    printed = {
        "emnist": ["434K", "836K", "862K", "1.7M", "3.3M", "6.6M"],
        "cifar10": ["20K", "66K", "262K", "586K", "918K", "955K"],
    }

    def print_round(count, like):
        if like.endswith("M"):
            return f"{round(count / 1e5) / 10:.1f}M"
        return f"{round(count / 1e3)}K"

    problems = []
    for dataset, expected in (("emnist", emnist_expected),
                              ("cifar10", cifar_expected)):
        sched = growth.builtin_schedule(dataset)
        for idx, (model, expect) in enumerate(zip(sched.models, expected)):
            got = nn.count_params(model)
            if got != expect:
                problems.append(f"{model.name}: {got} != closed-form {expect}")
            like = printed[dataset][idx]
            if print_round(got, like) != like:
                problems.append(f"{model.name}: {got} prints as "
                                f"{print_round(got, like)}, table says {like}")
    m1 = nn.count_params(growth.builtin_schedule("emnist").models[0])
    m6 = nn.count_params(growth.builtin_schedule("emnist").models[5])
    c1 = nn.count_params(growth.builtin_schedule("cifar10").models[0])
    detail = (f"emnist m1={m1} (434K), m6={m6} (6.6M), cifar m1={c1} (20K); "
              f"all 12 match the closed-form oracle and print-rounding")
    if problems:
        detail = "; ".join(problems)
    _report(2, not problems, detail)


# ---------------------------------------------------------------------------
# 3. Per-round communication reduction, stage 1 vs final stage


def test_criterion_3_per_round_communication_reduction():
    sched = growth.builtin_schedule("emnist")
    m = 35
    x, y = datasets.make_synthetic(62, (28, 28, 1), 4, stream(33, 1))
    shards = shards_of(x, y, fedsim.PartitionSpec(client_count=62, seed=33))
    settings = fedsim.RunSettings(
        rounds=2, clients_per_round=m,
        train=nn.TrainConfig(learning_rate=0.035), master_seed=33, eval_every=0)
    staged = fedsim.run_experiment("fnn", sched, shards, None, None, settings)
    final = fedsim.run_experiment("fedavg", sched, shards, None, None, settings)

    stage1 = staged.ledger.rows[0]
    stage6 = final.ledger.rows[0]
    down1 = nn.count_params(sched.models[0]) * 4 * m
    down6 = nn.count_params(sched.models[5]) * 4 * m
    assert stage1.download_bytes == down1
    assert stage6.download_bytes == down6
    reduction = 1.0 - stage1.download_bytes / stage6.download_bytes
    expected = 1.0 - nn.count_params(sched.models[0]) / nn.count_params(sched.models[5])

    ledger_ok = all(
        [r.cumulative_bytes for r in res.ledger.rows] ==
        res.ledger.recompute_cumulative()
        for res in (staged, final))
    ok = reduction >= 0.90 and abs(reduction - expected) < 1e-12 and \
        abs(expected - 0.9343) < 0.005 and ledger_ok
    _report(3, ok,
            f"stage-1 download {down1 / 1e6:.1f} MB vs final-stage "
            f"{down6 / 1e6:.1f} MB per round (m={m}): reduction "
            f"{reduction * 100:.2f}% (>= 90%, expected ~93.4%); "
            f"ledger recomputation exact: {ledger_ok}")


# ---------------------------------------------------------------------------
# 4. Switching policy closed forms and ordering


def test_criterion_4_switching_policy():
    # closed form on a linear trace
    a, lag = 2.5e-4, 300
    policy = SwitchPolicy(window=100, lag=300)
    closed_ok = True
    for t in range(1500):
        policy.record_round_loss(3.0 - a * t)
        sig = policy.progress_signal()
        if t < 399:
            closed_ok &= sig is None
        else:
            closed_ok &= sig is not None and abs(sig - a * lag) < 1e-9

    # staged trace: plateaus reached one threshold at a time
    sched = growth.builtin_schedule("emnist")
    policy = SwitchPolicy(window=100, lag=300)
    switch_rounds = []
    losses = []
    level = 5.0
    t = 0
    while policy.model_index < sched.num_models - 1 and t < 20000:
        threshold = sched.thresholds[policy.model_index]
        # drop fast for the guard period, then flatten below the threshold
        steep, flat = threshold * 2.0 / 300.0, threshold * 0.5 / 300.0
        slope = steep if policy.rounds_since_switch < 420 else flat
        level = max(level - slope, 0.0)
        losses.append(level)
        policy.record_round_loss(level)
        if policy.should_switch(sched):
            switch_rounds.append(t)
            policy.advance()
        t += 1
    ordered = switch_rounds == sorted(switch_rounds) and len(switch_rounds) == 5
    gaps_ok = all(b - a >= 400 for a, b in
                  zip([-1] + switch_rounds, switch_rounds))
    _report(4, closed_ok and ordered and gaps_ok,
            f"linear-trace signal == slope*lag to 1e-9 with no decision before "
            f"round 400: {closed_ok}; staged trace fired all 5 switches in "
            f"order at rounds {switch_rounds} with every gap >= 400")


# ---------------------------------------------------------------------------
# 5. Aggregation oracle


def test_criterion_5_aggregation_oracle():
    arch = growth.build_arch((6, 6, 1),
                             [("conv", 3, 3), ("pool", 2), ("dense", 5), ("dense", 3)],
                             dropout_rate=0.1)
    rng = stream(55, 0)
    worst = 0.0
    for case in range(100):
        updates = [(random_params(arch, 1000 + case * 7 + k),
                    int(rng.integers(1, 50)))
                   for k in range(int(rng.integers(2, 6)))]
        got = fedsim.aggregate(updates)
        total = sum(n for _, n in updates)
        for i in got:
            expect_w = sum(p[i].w.astype(np.float64) * n for p, n in updates) / total
            expect_b = sum(p[i].b.astype(np.float64) * n for p, n in updates) / total
            worst = max(worst, float(np.abs(got[i].w - expect_w).max()),
                        float(np.abs(got[i].b - expect_b).max()))

    # shared-mask merge equals plain aggregation on the masked region
    params = random_params(arch, 56)
    _, _, mask = fedsim.fd_extract(arch, params, 0.6, stream(56, 1))
    subs = []
    for k in range(4):
        _, sub = fedsim._crop_model(arch, params, mask)
        for p in sub.values():
            p.w += np.float32(0.1 * (k + 1))
        subs.append((sub, k + 2))
    merged = fedsim.fd_merge(arch, params, [(s, mask, n) for s, n in subs])
    plain = fedsim.aggregate(subs)
    blocks = fedsim._kept_blocks(arch, mask)
    fd_exact = True
    for i in plain:
        sel = fedsim._index_expr(*blocks[i])
        fd_exact &= bool(np.array_equal(merged[i].w[sel], plain[i].w))
    _report(5, worst < 1e-6 and fd_exact,
            f"100 randomized instances: max |aggregate - brute force| "
            f"{worst:.2e} (tol 1e-6); shared-mask merge equals aggregate "
            f"on the submatrix exactly: {fd_exact}")


# ---------------------------------------------------------------------------
# 6. Gradient correctness for every layer kind


def test_criterion_6_gradient_checks():
    cases = {
        "dense+relu+dropout": nn.ModelArch((6,), (
            nn.dense(6, 5), nn.relu(), nn.dropout(0.0),
            nn.dense(5, 3), nn.softmax())),
        "conv-same": nn.ModelArch((6, 6, 2), (
            nn.conv2d(nn.KernelShape(3, 3, 2, 3)), nn.relu(),
            nn.flatten(), nn.dense(108, 3), nn.softmax())),
        "conv-valid-stride2": nn.ModelArch((7, 7, 2), (
            nn.conv2d(nn.KernelShape(3, 3, 2, 3), padding="valid", stride=2),
            nn.relu(), nn.flatten(), nn.dense(27, 3), nn.softmax())),
        "conv-1x1": nn.ModelArch((5, 5, 3), (
            nn.conv2d(nn.KernelShape(1, 1, 3, 4)), nn.relu(),
            nn.flatten(), nn.dense(100, 3), nn.softmax())),
        "maxpool": nn.ModelArch((8, 8, 2), (
            nn.conv2d(nn.KernelShape(3, 3, 2, 3)), nn.relu(), nn.maxpool(2),
            nn.flatten(), nn.dense(48, 3), nn.softmax())),
        "gap": nn.ModelArch((6, 6, 2), (
            nn.conv2d(nn.KernelShape(3, 3, 2, 4)), nn.relu(),
            nn.global_avg_pool(), nn.dense(4, 3), nn.softmax())),
        "deep-mixed": nn.ModelArch((8, 8, 1), (
            nn.conv2d(nn.KernelShape(5, 5, 1, 3)), nn.relu(), nn.dropout(0.0),
            nn.maxpool(2),
            nn.conv2d(nn.KernelShape(3, 3, 3, 4)), nn.relu(),
            nn.flatten(), nn.dense(64, 4), nn.relu(), nn.dense(4, 3),
            nn.softmax())),
    }
    worst_by_case = {}
    for name, arch in cases.items():
        params = random_params(arch, hash(name) % 1000)
        x = stream(66, 1).random((3,) + tuple(arch.input_shape), dtype=np.float32)
        y = stream(66, 2).integers(0, arch.num_classes, 3)
        worst_by_case[name] = finite_difference_check(arch, params, x, y, eps=1e-3)
    worst = max(worst_by_case.values())
    _report(6, worst < 1e-2,
            "central differences at eps=1e-3, worst relative error "
            + ", ".join(f"{k}={v:.1e}" for k, v in worst_by_case.items()))


# ---------------------------------------------------------------------------
# 7. Desk-scale run: switch continuity and accuracy floor


def _desk_scale_config(tmp_path):
    cfg = experiment.ExperimentConfig(
        dataset="mnist", method="fnn", rounds=1500,
        clients_per_round=10, master_seed=2024,
        output_dir=str(tmp_path / "desk-mnist-fnn"),
        schedule="mnist", eval_every=50,
    )
    cfg.partition = fedsim.PartitionSpec(client_count=100, seed=2024)
    mnist_dir = os.environ.get("FEDGROW_MNIST_DIR", "data/mnist")
    if Path(mnist_dir, datasets.TRAIN_IMAGES).exists() or \
            Path(mnist_dir, datasets.TRAIN_IMAGES + ".gz").exists():
        cfg.data_dir = mnist_dir
        cfg.max_train_samples = 15000  # 150 per client keeps the run desk-sized
        corpus = f"MNIST from {mnist_dir} (15000 train samples)"
    else:
        # No MNIST available here: render the synthetic stand-in through the
        # IDX pipeline so ingestion + training run exactly as they would on
        # the real files.
        stand_in = tmp_path / "mnist-stand-in"
        train = datasets.make_synthetic(10, (28, 28, 1), 200,
                                        stream(2024, 91), separation=20.0)
        test = datasets.make_synthetic(10, (28, 28, 1), 100,
                                       stream(2024, 92), separation=20.0)
        datasets.save_idx_dataset(stand_in, train, test)
        cfg.data_dir = str(stand_in)
        corpus = "MNIST-shaped synthetic stand-in via IDX files (2000 train)"
    return cfg, corpus


@pytest.fixture(scope="module")
def desk_scale_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    cfg, corpus = _desk_scale_config(tmp)
    start = time.time()
    out = experiment.run(cfg)
    elapsed = time.time() - start
    manifest = json.loads((out / "manifest.json").read_text())
    return cfg, corpus, out, manifest, elapsed


def test_criterion_7_desk_scale_accuracy_continuity(desk_scale_run):
    cfg, corpus, out, manifest, elapsed = desk_scale_run
    events = manifest["switch_events"]
    final_acc = manifest["final_accuracy"]
    continuity = [abs(ev["accuracy_before"] - ev["accuracy_after"])
                  for ev in events]
    ok = (1 <= len(events) <= 5 and all(d < 1e-5 for d in continuity)
          and manifest["final_model_index"] <= 5
          and final_acc is not None and final_acc >= 0.95
          and manifest["rounds_completed"] == 1500)
    _report(7, ok,
            f"{corpus}: 1500 rounds, 100 clients, m=10, lr 0.015 in "
            f"{elapsed / 60:.1f} min; {len(events)} switches at rounds "
            f"{[ev['round'] for ev in events]}, max |accuracy jump| "
            f"{max(continuity) if continuity else 0:.2e} (< 1e-5); "
            f"final accuracy {final_acc:.4f} (>= 0.95)")


# ---------------------------------------------------------------------------
# 8. Determinism of the full pipeline


def test_criterion_8_determinism(tmp_path):
    def one(tag):
        cfg = experiment.ExperimentConfig(
            dataset="synthetic", method="fnn-fd", rounds=60,
            clients_per_round=6, master_seed=77,
            output_dir=str(tmp_path / tag),
            switch_window=10, switch_lag=20, eval_every=10,
            fd_exempt_prefix=1,
        )
        cfg.synthetic = experiment.SyntheticSpec(
            classes=5, per_class=40, test_per_class=20, dims=(8, 8, 1),
            separation=20.0)
        cfg.partition = fedsim.PartitionSpec(client_count=20, seed=77)
        cfg.schedule = str(tmp_path / "sched.json")
        if not Path(cfg.schedule).exists():
            sched = growth.GrowthSchedule(
                "synthetic",
                tuple(growth.build_arch((8, 8, 1), row, 0.125, name=f"d{i}")
                      for i, row in enumerate([
                          [("conv", 3, 3), ("pool", 2), ("dense", 8), ("dense", 5)],
                          [("conv", 6, 3), ("pool", 2), ("dense", 8), ("dense", 5)],
                      ])),
                (0.5,))
            growth.save_schedule(sched, cfg.schedule)
        return experiment.run(cfg)

    out_a, out_b = one("det-a"), one("det-b")
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    with open(out_a / "metrics.csv") as fh:
        switches = sum(int(r["switch_flag"]) for r in csv.DictReader(fh))
    _report(8, bytes_a == bytes_b,
            f"two seed-77 runs produced byte-identical metrics.csv "
            f"({len(bytes_a)} bytes, {switches} switch rounds included)")
