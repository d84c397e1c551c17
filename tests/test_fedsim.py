"""Federated loop tests: partitioning, aggregation, dropout broadcast, runs."""

import numpy as np
import pytest

from fedgrow import fedsim, growth, nn
from fedgrow.errors import ConfigError, NumericalError
from fedgrow.fedsim import (ClientShard, PartitionSpec, RunSettings, RunState, aggregate,
                            fd_extract, fd_merge, local_train, partition,
                            run_experiment, run_round, select_clients)
from fedgrow.rng import INIT, SELECT, stream
from fedgrow.switching import DEFAULT_LAG, DEFAULT_WINDOW, SwitchPolicy

from conftest import random_params


def toy_dataset(n, classes=4, seed=0):
    r = stream(seed, 0)
    x = r.random((n, 4, 4, 1), dtype=np.float32)
    y = r.integers(0, classes, n)
    return x, y


def tiny_schedule():
    rows = [
        [("conv", 2, 3), ("pool", 2), ("dense", 4), ("dense", 3)],
        [("conv", 4, 3), ("pool", 2), ("dense", 4), ("dense", 3)],
        [("conv", 4, 3), ("pool", 2), ("dense", 8), ("dense", 3)],
    ]
    models = tuple(growth.build_arch((4, 4, 1), row, 0.125, name=f"tiny-{i}")
                   for i, row in enumerate(rows))
    sched = growth.GrowthSchedule("tiny", models, (0.5, 0.25))
    growth.validate_schedule(sched)
    return sched


# ---------------------------------------------------------------------------
# partition / selection


def test_iid_partition_is_exhaustive_and_even():
    x, y = toy_dataset(6000)  # 600 per client, as with 60000 over 100
    shards = partition(x, y, PartitionSpec(client_count=10, seed=3))
    assert len(shards) == 10
    assert all(s.n == 600 for s in shards)
    # exhaustive + disjoint via index bookkeeping on a tagged copy
    tags = np.arange(x.shape[0], dtype=np.float32).reshape(-1, 1, 1, 1)
    shards_tagged = partition(np.broadcast_to(tags, x.shape).copy(), y,
                              PartitionSpec(client_count=10, seed=3))
    collected = np.sort(np.concatenate(
        [s.samples[:, 0, 0, 0].astype(int) for s in shards_tagged]))
    assert np.array_equal(collected, np.arange(x.shape[0]))


def test_single_client_gets_everything():
    x, y = toy_dataset(37)
    shards = partition(x, y, PartitionSpec(client_count=1, seed=0))
    assert len(shards) == 1 and shards[0].n == 37


def test_partition_deterministic_under_seed():
    x, y = toy_dataset(100)
    a = partition(x, y, PartitionSpec(client_count=7, seed=5))
    b = partition(x, y, PartitionSpec(client_count=7, seed=5))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.samples, sb.samples)
        assert np.array_equal(sa.labels, sb.labels)


def test_label_shard_partition_limits_labels_per_client():
    x, y = toy_dataset(600, classes=10, seed=4)
    spec = PartitionSpec(scheme="label-shard-non-iid", client_count=30,
                         shards_per_client=2, seed=4)
    shards = partition(x, y, spec)
    assert all(len(np.unique(s.labels)) <= 2 for s in shards)
    assert sum(s.n for s in shards) == 600


def test_more_clients_than_samples_rejected():
    x, y = toy_dataset(5)
    with pytest.raises(ConfigError, match="more clients"):
        partition(x, y, PartitionSpec(client_count=6, seed=0))


def test_select_clients_all_and_determinism():
    assert select_clients(stream(0, 1), 8, 8) == list(range(8))
    a = select_clients(stream(7, 1, 3), 100, 10)
    b = select_clients(stream(7, 1, 3), 100, 10)
    assert a == b and len(set(a)) == 10
    with pytest.raises(ConfigError):
        select_clients(stream(0, 1), 4, 5)


def test_mnist_default_clients_per_round():
    assert growth.CLIENTS_PER_ROUND["mnist"] == 10


# ---------------------------------------------------------------------------
# local training / aggregation


def test_local_train_zero_lr_returns_input_params():
    sched = tiny_schedule()
    arch = sched.models[0]
    params = random_params(arch, 1)
    x, y = toy_dataset(20, classes=3, seed=1)
    shard = ClientShard(0, x, y)
    cfg = nn.TrainConfig(learning_rate=0.0, dropout_rate=0.0)
    out, loss, n = local_train(arch, params, shard, cfg, stream(0, 2))
    assert n == 20
    for i in params:
        assert np.array_equal(out[i].w, params[i].w)


def test_local_train_loss_decreases_over_epochs():
    sched = tiny_schedule()
    arch = sched.models[0]
    params = random_params(arch, 2)
    x, y = toy_dataset(40, classes=3, seed=2)
    shard = ClientShard(0, x, y)
    cfg = nn.TrainConfig(learning_rate=0.1, dropout_rate=0.0)
    losses = []
    cur = params
    for epoch in range(20):
        cur, loss, _ = local_train(arch, cur, shard, cfg, stream(0, 3, epoch))
        losses.append(loss)
    assert losses[-1] < losses[0]


def test_aggregate_single_client_identity():
    sched = tiny_schedule()
    params = random_params(sched.models[0], 3)
    out = aggregate([(params, 17)])
    for i in params:
        assert np.allclose(out[i].w, params[i].w)


def test_aggregate_weighted_mean_hand_case():
    p0 = {0: nn.LayerParams(np.zeros((2, 2), np.float32), np.zeros(2, np.float32))}
    p1 = {0: nn.LayerParams(np.full((2, 2), 4.0, np.float32),
                            np.full(2, 4.0, np.float32))}
    out = aggregate([(p0, 1), (p1, 3)])
    assert np.allclose(out[0].w, 3.0)  # (1*0 + 3*4) / 4
    assert np.allclose(out[0].b, 3.0)


def test_aggregate_identical_clients_fixed_point():
    params = random_params(tiny_schedule().models[1], 4)
    out = aggregate([(params, 5), (params, 9), (params, 1)])
    for i in params:
        assert np.abs(out[i].w - params[i].w).max() < 1e-6


def test_aggregate_shape_mismatch_rejected():
    a = {0: nn.LayerParams(np.zeros((2, 2), np.float32), np.zeros(2, np.float32))}
    b = {0: nn.LayerParams(np.zeros((3, 2), np.float32), np.zeros(2, np.float32))}
    with pytest.raises(ConfigError, match="shape"):
        aggregate([(a, 1), (b, 1)])


def test_aggregate_matches_brute_force_per_scalar():
    # The second model's dense weight spans three fold blocks plus a
    # ragged tail.
    block = fedsim._FOLD_BLOCK
    multi_block = growth.build_arch((100,), [("dense", 3 * block // 100 + 7), ("dense", 3)])
    size = np.prod(multi_block.layers[0].weight_shape)
    assert size > 3 * block and size % block
    rng = stream(5, 0)
    for arch in (tiny_schedule().models[0], multi_block):
        updates = []
        for k in range(6):
            updates.append((random_params(arch, 50 + k), int(rng.integers(1, 40))))
        out = aggregate(updates)
        total = sum(n for _, n in updates)
        for i in updates[0][0]:
            # The sequential float64 fold in list order, rounded once.
            expect_w = sum(p[i].w.astype(np.float64) * n for p, n in updates) / total
            expect_b = sum(p[i].b.astype(np.float64) * n for p, n in updates) / total
            assert out[i].w.tobytes() == expect_w.astype(nn.DTYPE).tobytes()
            assert out[i].b.tobytes() == expect_b.astype(nn.DTYPE).tobytes()


def test_sgd_step_and_local_train_leave_callers_params_unchanged():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 4)
    before = {i: (p.w.tobytes(), p.b.tobytes()) for i, p in params.items()}
    x, y = toy_dataset(20, classes=3, seed=4)
    cfg = nn.TrainConfig(learning_rate=0.5, dropout_rate=0.125)

    stepped, _ = nn.backward_and_step(arch, params, x[:10], y[:10], cfg, stream(0, 5))
    trained, _, _ = local_train(arch, params, ClientShard(0, x, y), cfg, stream(0, 6))
    for i, p in params.items():
        assert (p.w.tobytes(), p.b.tobytes()) == before[i]
        assert not np.array_equal(stepped[i].w, p.w)
        assert not np.array_equal(trained[i].w, p.w)


# ---------------------------------------------------------------------------
# federated dropout


def test_fd_extract_keep_one_is_identity():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 6)
    sub_arch, sub_params, mask = fd_extract(arch, params, 1.0, stream(0, 4))
    assert sub_arch.layers == arch.layers
    for i in params:
        assert np.array_equal(sub_params[i].w, params[i].w)
    for i, kept in mask.kept.items():
        assert np.array_equal(kept, np.arange(len(kept)))


def test_fd_extract_keep_count_uses_floor():
    arch = growth.build_arch((4, 4, 1),
                             [("conv", 8, 3), ("pool", 2), ("dense", 512), ("dense", 3)])
    params = random_params(arch, 7)
    _, _, mask = fd_extract(arch, params, 0.875, stream(0, 5))
    dense_idx = nn.trainable_indices(arch)[1]
    assert len(mask.kept[dense_idx]) == 448  # floor(512 * 0.875)
    assert len(mask.kept[0]) == 7  # floor(8 * 0.875)


def test_fd_extract_zero_kept_rejected():
    arch = tiny_schedule().models[0]
    params = random_params(arch, 8)
    with pytest.raises(ConfigError, match="zero"):
        fd_extract(arch, params, 0.1, stream(0, 6))  # floor(2 * 0.1) == 0


def test_fd_extract_classifier_never_masked():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 9)
    _, _, mask = fd_extract(arch, params, 0.5, stream(0, 7))
    assert max(nn.trainable_indices(arch)) not in mask.kept


def test_fd_round_trip_without_training_is_identity():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 10)
    sub_arch, sub_params, mask = fd_extract(arch, params, 0.5, stream(0, 8))
    merged = fd_merge(arch, params, [(sub_params, mask, 3)])
    for i in params:
        assert np.array_equal(merged[i].w, params[i].w)
        assert np.array_equal(merged[i].b, params[i].b)


def test_fd_sub_model_forward_runs():
    arch = tiny_schedule().models[2]
    params = random_params(arch, 11)
    sub_arch, sub_params, _ = fd_extract(arch, params, 0.5, stream(0, 9))
    x = stream(1, 9).random((3, 4, 4, 1), dtype=np.float32)
    probs = nn.forward(sub_arch, sub_params, x)
    assert probs.shape == (3, 3)
    assert np.abs(probs.sum(axis=1) - 1).max() < 1e-5


def test_fd_merge_differing_masks_rejected():
    arch = nn.ModelArch((4,), (nn.dense(4, 4), nn.relu(), nn.dropout(0.1),
                               nn.dense(4, 2), nn.softmax()))
    params = random_params(arch, 12)
    mask_a = fedsim.DropoutMask({0: np.array([0, 1])}, 0.5)
    mask_b = fedsim.DropoutMask({0: np.array([2, 3])}, 0.5)
    _, sub_a = fedsim._crop_model(arch, params, mask_a)
    _, sub_b = fedsim._crop_model(arch, params, mask_b)
    with pytest.raises(ConfigError, match="different masks"):
        fd_merge(arch, params, [(sub_a, mask_a, 1), (sub_b, mask_b, 1)])
    # An equal mask held in another object is the same mask.
    same_a = fedsim.DropoutMask({0: np.array([0, 1])}, 0.5)
    merged = fd_merge(arch, params, [(sub_a, mask_a, 1), (sub_a, same_a, 2)])
    assert np.array_equal(merged[0].w, params[0].w)


def test_fd_merge_shared_mask_equals_aggregate_on_submatrix():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 13)
    _, _, mask = fd_extract(arch, params, 0.5, stream(0, 10))
    subs = []
    for k in range(3):
        _, sub = fedsim._crop_model(arch, params, mask)
        for p in sub.values():
            p.w += np.float32(k)
        subs.append((sub, int(1 + k)))
    merged = fd_merge(arch, params, [(s, mask, n) for s, n in subs])
    plain = aggregate(subs)
    prev_map = fedsim._prev_trainable_map(arch)
    for i in plain:
        in_idx = fedsim._in_index(arch, i, mask.kept, prev_map)
        out_idx = mask.kept.get(i)
        sel = fedsim._index_expr(arch.layers[i], in_idx, out_idx)
        assert np.array_equal(merged[i].w[sel], plain[i].w)


def test_fd_merge_uncovered_positions_keep_global_values():
    arch = nn.ModelArch((4,), (nn.dense(4, 4), nn.relu(), nn.dropout(0.1),
                               nn.dense(4, 2), nn.softmax()))
    params = random_params(arch, 14)
    mask = fedsim.DropoutMask({0: np.array([1])}, 0.25)
    _, sub = fedsim._crop_model(arch, params, mask)
    sub[0].w += 5.0
    merged = fd_merge(arch, params, [(sub, mask, 2)])
    for col in (0, 2, 3):
        assert np.array_equal(merged[0].w[:, col], params[0].w[:, col])


def _kept_position(kept, index):
    """Position of full-model ``index`` among the ``kept`` indices (None
    keeps every index), or None when the index was dropped."""
    if kept is None:
        return index
    hits = np.flatnonzero(kept == index)
    return int(hits[0]) if hits.size else None


def test_fd_merge_matches_brute_force_with_shared_mask():
    # conv(4) -> pool -> flatten -> dense(5) -> dense(3): the dense layer
    # reads 2x2 positions of the 4 conv channels, so its input row r is
    # position r // 4 of channel r % 4 (the flatten path of the crop).
    channels = 4
    arch = growth.build_arch((4, 4, 1), [("conv", channels, 3), ("pool", 2),
                                         ("dense", 5), ("dense", 3)])
    conv, dense, classifier = nn.trainable_indices(arch)

    def sub_input(mask, layer, row):
        if layer == conv:
            return row
        if layer == classifier:
            return _kept_position(mask.kept[dense], row)
        position, channel = divmod(row, channels)
        sub_channel = _kept_position(mask.kept[conv], channel)
        if sub_channel is None:
            return None
        return position * len(mask.kept[conv]) + sub_channel

    covered = uncovered = 0
    for case in range(6):
        params = random_params(arch, 60 + case)
        rng = stream(61, case)
        keep = float(rng.choice([0.25, 0.5, 0.75]))
        _, _, mask = fd_extract(arch, params, keep, stream(62, case))
        updates = []
        for _ in range(int(rng.integers(1, 5))):
            _, sub = fedsim._crop_model(arch, params, mask)
            for p in sub.values():
                p.w += rng.normal(0.0, 1.0, p.w.shape).astype(np.float32)
                p.b += rng.normal(0.0, 1.0, p.b.shape).astype(np.float32)
            updates.append((sub, mask, int(rng.integers(1, 20))))
        merged = fd_merge(arch, params, updates)

        for i in (conv, dense, classifier):
            expect_w, expect_b = params[i].w.copy(), params[i].b.copy()
            for pos in np.ndindex(expect_w.shape):
                acc = weight = 0.0
                for sub, mask, n in updates:
                    row = sub_input(mask, i, pos[-2])
                    col = _kept_position(mask.kept.get(i), pos[-1])
                    if row is not None and col is not None:
                        acc += float(n) * float(sub[i].w[pos[:-2] + (row, col)])
                        weight += float(n)
                if weight:
                    expect_w[pos] = np.float32(acc / weight)
                    covered += 1
                else:
                    uncovered += 1
            for col in range(expect_b.shape[0]):
                acc = weight = 0.0
                for sub, mask, n in updates:
                    sub_col = _kept_position(mask.kept.get(i), col)
                    if sub_col is not None:
                        acc += float(n) * float(sub[i].b[sub_col])
                        weight += float(n)
                if weight:
                    expect_b[col] = np.float32(acc / weight)
            assert np.array_equal(merged[i].w, expect_w), (case, i)
            assert np.array_equal(merged[i].b, expect_b), (case, i)
    assert covered and uncovered


def test_fd_merge_mask_shape_inconsistency_rejected():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 15)
    _, sub_params, mask = fd_extract(arch, params, 0.5, stream(0, 11))
    wrong_mask = fedsim.DropoutMask(
        {i: np.arange(max(1, len(k) - 1)) for i, k in mask.kept.items()},
        mask.keep_fraction)
    with pytest.raises(ConfigError, match="inconsistent"):
        fd_merge(arch, params, [(sub_params, wrong_mask, 1)])


# ---------------------------------------------------------------------------
# run_experiment


def _settings(rounds, **kw):
    defaults = dict(
        rounds=rounds, clients_per_round=4,
        train=nn.TrainConfig(learning_rate=0.05),
        master_seed=3, eval_every=10, switch_window=4, switch_lag=8)
    defaults.update(kw)
    return RunSettings(**defaults)


@pytest.fixture(scope="module")
def toy_world():
    x, y = toy_dataset(160, classes=3, seed=20)
    shards = partition(x, y, PartitionSpec(client_count=16, seed=20))
    tx, ty = toy_dataset(60, classes=3, seed=21)
    return shards, tx, ty


def test_run_zero_rounds(toy_world):
    shards, tx, ty = toy_world
    result = run_experiment("fedavg", tiny_schedule(), shards, tx, ty, _settings(0))
    assert result.metrics == [] and result.ledger.rows == []


def test_unknown_method_rejected(toy_world):
    shards, tx, ty = toy_world
    with pytest.raises(ConfigError, match="unknown method"):
        run_experiment("fedsgd", tiny_schedule(), shards, tx, ty, _settings(1))


def test_fedavg_constant_bytes_and_ledger_consistency(toy_world):
    shards, tx, ty = toy_world
    result = run_experiment("fedavg", tiny_schedule(), shards, tx, ty, _settings(12))
    per_round = {(r.download_bytes, r.upload_bytes) for r in result.ledger.rows}
    assert len(per_round) == 1
    expected = nn.count_params(tiny_schedule().models[-1]) * 4 * 4
    assert per_round.pop() == (expected, expected)
    assert [r.cumulative_bytes for r in result.ledger.rows] == \
        result.ledger.recompute_cumulative()


def test_same_seed_runs_are_bitwise_identical(toy_world):
    shards, tx, ty = toy_world
    a = run_experiment("fnn", tiny_schedule(), shards, tx, ty, _settings(25))
    b = run_experiment("fnn", tiny_schedule(), shards, tx, ty, _settings(25))
    assert a.metrics == b.metrics
    assert a.ledger.rows == b.ledger.rows


def test_fd_keep_fraction_one_equals_fedavg(toy_world):
    shards, tx, ty = toy_world
    a = run_experiment("fedavg", tiny_schedule(), shards, tx, ty,
                       _settings(8, fd_keep_fraction=1.0))
    b = run_experiment("fd", tiny_schedule(), shards, tx, ty,
                       _settings(8, fd_keep_fraction=1.0))
    assert a.metrics == b.metrics


def test_fd_reduces_bytes(toy_world):
    shards, tx, ty = toy_world
    full = run_experiment("fedavg", tiny_schedule(), shards, tx, ty, _settings(4))
    sub = run_experiment("fd", tiny_schedule(), shards, tx, ty,
                         _settings(4, fd_keep_fraction=0.5))
    assert sub.ledger.rows[0].download_bytes < full.ledger.rows[0].download_bytes


def test_paired_selection_across_methods(toy_world):
    # The selection stream depends only on (seed, round), so different
    # methods see the same clients each round.
    shards, tx, ty = toy_world
    seen = {}
    for method in ("fedavg", "fnn"):
        sel_log = []
        orig = fedsim.select_clients

        def spy(rng, population, m, _log=sel_log):
            out = orig(rng, population, m)
            _log.append(tuple(out))
            return out

        fedsim.select_clients = spy
        try:
            run_experiment(method, tiny_schedule(), shards, tx, ty, _settings(6))
        finally:
            fedsim.select_clients = orig
        seen[method] = sel_log
    assert seen["fedavg"] == seen["fnn"]


def test_staged_run_switches_and_preserves_accuracy(toy_world):
    shards, tx, ty = toy_world
    result = run_experiment("fnn", tiny_schedule(), shards, tx, ty,
                            _settings(40, fd_keep_fraction=None))
    assert result.events, "expected at least one switch in 40 rounds"
    for ev in result.events:
        assert ev.accuracy_before is not None
        assert abs(ev.accuracy_before - ev.accuracy_after) < 1e-5
    switch_rounds = [ev.round for ev in result.events]
    # rounds are 0-based: 12 recorded losses means round index >= 11
    assert min(switch_rounds) >= 11
    # bytes never decrease across stages and jump at each switch
    rows = result.ledger.rows
    for earlier, later in zip(rows, rows[1:]):
        assert later.download_bytes >= earlier.download_bytes
    for ev in result.events:
        assert rows[ev.round + 1].download_bytes > rows[ev.round].download_bytes


def test_fnn_fd_exemption_prefix(toy_world):
    shards, tx, ty = toy_world
    result = run_experiment("fnn-fd", tiny_schedule(), shards, tx, ty,
                            _settings(40, fd_keep_fraction=0.5, fd_exempt_prefix=1))
    by_model = {}
    for row in result.ledger.rows:
        by_model.setdefault(row.model_index, set()).add(row.download_bytes)
    # model 0 exempt: full bytes; later models: cropped bytes
    full0 = nn.count_params(tiny_schedule().models[0]) * 4 * 4
    assert by_model[0] == {full0}
    if 1 in by_model:
        full1 = nn.count_params(tiny_schedule().models[1]) * 4 * 4
        assert all(b < full1 for b in by_model[1])


def test_run_round_steps_a_run_state_like_run_experiment(toy_world):
    shards, tx, ty = toy_world
    sched = tiny_schedule()
    settings = _settings(40, fd_keep_fraction=0.5, fd_exempt_prefix=1)
    whole = run_experiment("fnn-fd", sched, shards, tx, ty, settings)
    assert whole.events, "expected at least one switch in 40 rounds"

    arch = sched.models[0]
    state = RunState(arch, nn.init_params(arch, stream(settings.master_seed, INIT)),
                     SwitchPolicy(settings.switch_window, settings.switch_lag))
    diffs = growth.schedule_diffs(sched)
    rows = [run_round(state, r, "fnn-fd", sched, diffs, shards, tx, ty, settings)
            for r in range(settings.rounds)]
    assert rows == state.metrics == whole.metrics
    assert state.events == whole.events
    assert state.model_index == whole.model_index == len(whole.events)
    assert state.arch == whole.arch
    assert state.params.keys() == whole.params.keys()
    for i, p in state.params.items():
        assert p.w.tobytes() == whole.params[i].w.tobytes()
        assert p.b.tobytes() == whole.params[i].b.tobytes()


def test_run_settings_defaults():
    settings = RunSettings()
    assert (settings.switch_window, settings.switch_lag) == (DEFAULT_WINDOW, DEFAULT_LAG)
    assert settings.clients_per_round is None and settings.train is None


def test_run_without_resolved_settings_is_rejected(toy_world):
    shards, tx, ty = toy_world
    with pytest.raises(ConfigError, match="clients_per_round and train"):
        run_experiment("fedavg", tiny_schedule(), shards, tx, ty, RunSettings(rounds=1))


def test_numerical_failure_carries_round_context(toy_world):
    shards, tx, ty = toy_world
    bad = _settings(3, train=nn.TrainConfig(learning_rate=1e12))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"round \d+: client"):
            run_experiment("fedavg", tiny_schedule(), shards, tx, ty, bad)


# ---------------------------------------------------------------------------
# Client worker processes

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs a run sees, at one BLAS thread, so the automatic worker
    count is that CPU count (at most clients_per_round)."""
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return lambda n: monkeypatch.setattr(fedsim, "_cpus", lambda: n)


@pytest.mark.parametrize("env, expected", [
    ({}, 1),                                         # unpinned BLAS uses every CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
    ({"OMP_NUM_THREADS": "16"}, 1),
])
def test_worker_count_resolution(monkeypatch, env, expected):
    monkeypatch.setattr(fedsim, "_cpus", lambda: 4)
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert fedsim.worker_count(_settings(1, clients_per_round=8)) == expected
    # never more workers than clients
    assert fedsim.worker_count(_settings(1, clients_per_round=2)) == min(expected, 2)


def test_huge_cpu_count_is_clamped_before_any_process_starts(toy_world, cpus, monkeypatch):
    class Started(Exception):
        pass

    def executor(max_workers, **kwargs):
        raise Started(max_workers)

    cpus(10**6)
    monkeypatch.setattr(fedsim, "ProcessPoolExecutor", executor)
    shards, tx, ty = toy_world
    with pytest.raises(Started) as exc:
        run_experiment("fedavg", tiny_schedule(), shards, tx, ty, _settings(2))
    assert exc.value.args == (4,)  # clients_per_round


def test_worker_pool_matches_in_process_training(toy_world, cpus):
    # Updates come back through the slots with the bits of in-process
    # training, so the final params match too.
    shards, tx, ty = toy_world
    runs = []
    for workers in (1, 2):
        cpus(workers)
        runs.append(run_experiment("fnn-fd", tiny_schedule(), shards, tx, ty,
                                   _settings(30, fd_keep_fraction=0.5, fd_exempt_prefix=1)))
    assert runs[0].events and runs[0].metrics == runs[1].metrics
    for i, p in runs[0].params.items():
        assert p.w.tobytes() == runs[1].params[i].w.tobytes()
        assert p.b.tobytes() == runs[1].params[i].b.tobytes()


def test_numerical_failure_in_a_worker_reads_as_in_process(toy_world, cpus):
    shards, tx, ty = toy_world
    messages = []
    for workers in (1, 2):
        cpus(workers)
        bad = _settings(3, train=nn.TrainConfig(learning_rate=1e12))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"round \d+: client") as exc:
                run_experiment("fedavg", tiny_schedule(), shards, tx, ty, bad)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_first_failing_client_in_selection_order_is_reported(toy_world, cpus, monkeypatch):
    # Clients 2 and 4 of round 0's selection fail; with two workers they
    # sit in different slices, and the error still names the earlier one.
    shards, tx, ty = toy_world
    settings = _settings(2)
    sel = select_clients(stream(settings.master_seed, SELECT, 0), len(shards), 4)
    train = fedsim.local_train

    def failing(arch, params, shard, cfg, rng):
        if shard.client_id in (sel[1], sel[3]):
            raise NumericalError(f"client {shard.client_id}: injected")
        return train(arch, params, shard, cfg, rng)

    monkeypatch.setattr(fedsim, "local_train", failing)
    for workers in (1, 2):
        cpus(workers)
        with pytest.raises(NumericalError) as exc:
            run_experiment("fedavg", tiny_schedule(), shards, tx, ty, _settings(2))
        assert str(exc.value) == f"round 0: client {sel[1]}: injected"


def test_client_pool_returns_slot_views_and_releases_its_mapping(toy_world):
    shards, _, _ = toy_world
    arch = tiny_schedule().models[-1]
    params = random_params(arch, 16)
    settings = _settings(1)
    sel = [0, 3, 5, 9]
    pool = fedsim.ClientPool(2, len(sel), fedsim._slot_size(arch), shards)
    try:
        updates = pool.train(arch, params, sel, 0, settings)
        expected = fedsim.train_clients(arch, params, sel, shards, 0, settings)
        for (got, loss, n), (want, want_loss, want_n) in zip(updates, expected):
            assert (loss, n) == (want_loss, want_n)
            for i, p in want.items():
                assert np.shares_memory(got[i].w, pool.slots)
                assert got[i].w.tobytes() == p.w.tobytes()
                assert got[i].b.tobytes() == p.b.tobytes()
        del updates, got
    finally:
        mapping = pool._mapping
        pool.close()
    assert mapping.closed
