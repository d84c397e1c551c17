"""Federated loop tests: partitioning, aggregation, dropout broadcast, runs."""

import os
import signal
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fedgrow import fedsim, growth, nn
from fedgrow.errors import ConfigError, NumericalError
from fedgrow.fedsim import (ClientShard, PartitionSpec, RunSettings, aggregate,
                            client_order, fd_extract, fd_merge, local_train,
                            run_experiment, select_clients)
from fedgrow.rng import CLIENT, SELECT, stream
from fedgrow.switching import DEFAULT_LAG, DEFAULT_WINDOW

from conftest import BUILTIN_MODELS, random_params, shards_of


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
    shards = shards_of(x, y, PartitionSpec(client_count=10, seed=3))
    assert len(shards) == 10
    assert all(s.n == 600 for s in shards)
    # exhaustive + disjoint via index bookkeeping on a tagged copy
    tags = np.arange(x.shape[0], dtype=np.float32).reshape(-1, 1, 1, 1)
    shards_tagged = shards_of(np.broadcast_to(tags, x.shape).copy(), y,
                              PartitionSpec(client_count=10, seed=3))
    collected = np.sort(np.concatenate(
        [s.samples[:, 0, 0, 0].astype(int) for s in shards_tagged]))
    assert np.array_equal(collected, np.arange(x.shape[0]))


def test_single_client_gets_everything():
    x, y = toy_dataset(37)
    shards = shards_of(x, y, PartitionSpec(client_count=1, seed=0))
    assert len(shards) == 1 and shards[0].n == 37


def test_partition_deterministic_under_seed():
    x, y = toy_dataset(100)
    a = shards_of(x, y, PartitionSpec(client_count=7, seed=5))
    b = shards_of(x, y, PartitionSpec(client_count=7, seed=5))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.samples, sb.samples)
        assert np.array_equal(sa.labels, sb.labels)


def test_label_shard_partition_limits_labels_per_client():
    x, y = toy_dataset(600, classes=10, seed=4)
    spec = PartitionSpec(scheme="label-shard-non-iid", client_count=30,
                         shards_per_client=2, seed=4)
    shards = shards_of(x, y, spec)
    assert all(len(np.unique(s.labels)) <= 2 for s in shards)
    assert sum(s.n for s in shards) == 600


def test_more_clients_than_samples_rejected():
    _, y = toy_dataset(5)
    with pytest.raises(ConfigError, match="more clients"):
        client_order(y, PartitionSpec(client_count=6, seed=0))


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
    cfg = nn.TrainConfig(learning_rate=0.0)
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
    cfg = nn.TrainConfig(learning_rate=0.1)
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
    arch = nn.ModelArch((2,), (nn.dense(2, 2), nn.softmax()))
    p0 = nn.Params(arch)
    p1 = nn.Params(arch, np.full(6, 4.0, np.float32))
    out = aggregate([(p0, 1), (p1, 3)])
    assert np.allclose(out[0].w, 3.0)  # (1*0 + 3*4) / 4
    assert np.allclose(out[0].b, 3.0)


def test_aggregate_identical_clients_fixed_point():
    params = random_params(tiny_schedule().models[1], 4)
    out = aggregate([(params, 5), (params, 9), (params, 1)])
    for i in params:
        assert np.abs(out[i].w - params[i].w).max() < 1e-6


def test_aggregate_shape_mismatch_rejected():
    a = nn.Params(nn.ModelArch((2,), (nn.dense(2, 2), nn.softmax())))
    b = nn.Params(nn.ModelArch((3,), (nn.dense(3, 2), nn.softmax())))
    with pytest.raises(ConfigError, match="shape"):
        aggregate([(a, 1), (b, 1)])


def test_aggregate_matches_brute_force_per_scalar(cpus, monkeypatch):
    # The second model spans seven fold blocks plus a ragged tail, so it
    # splits into up to four parts of at least two blocks each.
    block = fedsim._FOLD_BLOCK
    multi_block = growth.build_arch((100,), [("dense", 7 * block // 100 + 7), ("dense", 3)])
    size = nn.count_params(multi_block)
    assert 7 * block < size < 8 * block
    folds = []
    fold = fedsim._fold

    def recorded(updates, total, out, start, stop, buffers):
        folds.append((start, stop, threading.get_ident()))
        fold(updates, total, out, start, stop, buffers)

    monkeypatch.setattr(fedsim, "_fold", recorded)
    rng = stream(5, 0)
    for arch in (tiny_schedule().models[0], multi_block):
        updates = []
        for k in range(6):
            updates.append((random_params(arch, 50 + k), int(rng.integers(1, 40))))
        # Two huge updates that cancel exactly when they are folded first,
        # in list order; in any other order they swamp the others' bits.
        big = nn.Params(arch, updates[0][0].flat * np.float32(1e12))
        updates[:1] = [(big, updates[0][1]), (nn.Params(arch, -big.flat), updates[0][1])]
        total = sum(n for _, n in updates)
        expect = {}
        for i in updates[0][0]:
            # The sequential float64 fold in list order, rounded once.
            expect_w = sum(p[i].w.astype(np.float64) * n for p, n in updates) / total
            expect_b = sum(p[i].b.astype(np.float64) * n for p, n in updates) / total
            expect[i] = (expect_w.astype(nn.DTYPE).tobytes(),
                         expect_b.astype(nn.DTYPE).tobytes())
        for workers, parts in ((1, 1), (2, 2), (3, 3), (10**6, 4)):
            cpus(workers)
            folds.clear()
            threads_before = threading.active_count()
            out = aggregate(updates)
            assert threading.active_count() == threads_before
            for i in updates[0][0]:
                assert (out[i].w.tobytes(), out[i].b.tobytes()) == expect[i], (workers, i)
            # Contiguous, block-aligned ranges of at least two blocks; the
            # first in the calling thread, the others in other threads.
            folds.sort()
            if arch is multi_block:
                assert len(folds) == parts
                assert all(stop - start > block for start, stop, _ in folds)
            else:
                assert len(folds) == 1
            assert [start for start, _, _ in folds] == [0] + [stop for _, stop, _ in folds[:-1]]
            assert folds[-1][1] == nn.count_params(arch)
            assert all(start % block == 0 for start, _, _ in folds)
            assert [ident == threading.get_ident() for _, _, ident in folds] == \
                [True] + [False] * (len(folds) - 1)


def _vector_arch(size):
    """An arch of ``size`` parameters: one dense layer with one output,
    whose bias alone is the vector when ``size`` is 1."""
    return nn.ModelArch((size - 1,), (nn.LayerSpec("dense", (size - 1, 1)), nn.softmax()))


@pytest.mark.parametrize("workers", [1, 2])
def test_aggregate_into_out_gives_the_bits_of_a_fresh_result(cpus, workers):
    # Whatever ``out`` holds before, folding into it gives the bits a fresh
    # result gets, and the result is the Params over ``out`` itself. Zero
    # counts and -0.0 elements (0 + -0.0 * n is +0.0) are included.
    block = fedsim._FOLD_BLOCK
    cpus(workers)
    rng = stream(6, 0)
    for size in (1, block - 1, block + 1, 5 * block + 3):
        arch = _vector_arch(size)
        for m in range(1, 13):
            flats = rng.normal(0.0, 1.0, (m, size)).astype(nn.DTYPE)
            flats[:, ::3] = -0.0
            flats[rng.random(m) < 0.3, 1::3] = -0.0
            counts = rng.integers(0, 40, m)
            counts[rng.integers(m)] += 1
            updates = [(nn.Params(arch, flat), int(n)) for flat, n in zip(flats, counts)]
            fresh = aggregate(updates)
            out = np.full(size, np.nan, dtype=nn.DTYPE)
            got = aggregate(updates, out=out)
            assert got.flat is out and got.arch is arch
            assert out.tobytes() == fresh.flat.tobytes(), (size, m)


def test_aggregate_rejects_an_out_it_cannot_fold_into():
    # A vector of the wrong length or dtype, or one that shares memory
    # with an update, is rejected before any element is written.
    arch = tiny_schedule().models[1]
    size = nn.count_params(arch)
    for bad in (np.zeros(size + 1, nn.DTYPE), np.zeros(size, np.float64)):
        with pytest.raises(ConfigError, match="float32 vector"):
            aggregate([(random_params(arch, 7), 3)], out=bad)
    memory = stream(7, 1).random(3 * size, dtype=nn.DTYPE)
    before = memory.tobytes()
    updates = [(random_params(arch, 8), 2), (nn.Params(arch, memory[size:2 * size]), 5)]
    for out in (memory[size:2 * size], memory[size // 2:size // 2 + size],
                memory[2 * size - 1:3 * size - 1]):
        with pytest.raises(ConfigError, match="shares memory"):
            aggregate(updates, out=out)
        assert memory.tobytes() == before


def test_sgd_step_and_local_train_leave_callers_params_unchanged():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 4)
    before = {i: (p.w.tobytes(), p.b.tobytes()) for i, p in params.items()}
    x, y = toy_dataset(20, classes=3, seed=4)
    cfg = nn.TrainConfig(learning_rate=0.5)

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
    for i, kept in mask.items():
        assert np.array_equal(kept, np.arange(len(kept)))


def test_fd_extract_keep_count_uses_floor():
    arch = growth.build_arch((4, 4, 1),
                             [("conv", 8, 3), ("pool", 2), ("dense", 512), ("dense", 3)])
    params = random_params(arch, 7)
    _, _, mask = fd_extract(arch, params, 0.875, stream(0, 5))
    dense_idx = nn.trainable_indices(arch)[1]
    assert len(mask[dense_idx]) == 448  # floor(512 * 0.875)
    assert len(mask[0]) == 7  # floor(8 * 0.875)


def test_fd_extract_zero_kept_rejected():
    arch = tiny_schedule().models[0]
    params = random_params(arch, 8)
    with pytest.raises(ConfigError, match="zero"):
        fd_extract(arch, params, 0.1, stream(0, 6))  # floor(2 * 0.1) == 0


def test_fd_extract_classifier_never_masked():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 9)
    _, _, mask = fd_extract(arch, params, 0.5, stream(0, 7))
    assert max(nn.trainable_indices(arch)) not in mask


def test_fd_round_trip_without_training_is_identity():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 10)
    before = nn.copy_params(params)  # the merge writes over params
    sub_arch, sub_params, mask = fd_extract(arch, params, 0.5, stream(0, 8))
    merged = fd_merge(arch, params, [(sub_params, mask, 3)])
    for i in params:
        assert np.array_equal(merged[i].w, before[i].w)
        assert np.array_equal(merged[i].b, before[i].b)


def test_fd_sub_model_forward_runs():
    arch = tiny_schedule().models[2]
    params = random_params(arch, 11)
    sub_arch, sub_params, _ = fd_extract(arch, params, 0.5, stream(0, 9))
    x = stream(1, 9).random((3, 4, 4, 1), dtype=np.float32)
    probs = nn.forward(sub_arch, sub_params, x)
    assert probs.shape == (3, 3)
    assert np.abs(probs.sum(axis=1) - 1).max() < 1e-5


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_fd_sub_model_computes_the_full_model_with_dropped_units_zeroed(name):
    # Checked without the crop's index code: a unit whose output weights
    # and bias are zero outputs zero, so the layers after it never see it.
    arch = BUILTIN_MODELS[name]
    params = random_params(arch, 15)
    sub_arch, sub_params, mask = fd_extract(arch, params, 0.5, stream(0, 15))
    zeroed = nn.copy_params(params)
    for i, kept in mask.items():
        dropped = np.setdiff1d(np.arange(arch.layers[i].weight_shape[-1]), kept)
        zeroed[i].w[..., dropped] = 0.0
        zeroed[i].b[dropped] = 0.0
    x = stream(1, 15).random((3,) + arch.input_shape, dtype=np.float32)
    got = nn.forward(sub_arch, sub_params, x)
    assert np.abs(got - nn.forward(arch, zeroed, x)).max() < 1e-6


def test_fd_merge_differing_masks_rejected():
    arch = nn.ModelArch((4,), (nn.dense(4, 4), nn.relu(), nn.dropout(0.1),
                               nn.dense(4, 2), nn.softmax()))
    params = random_params(arch, 12)
    mask_a = {0: np.array([0, 1])}
    mask_b = {0: np.array([2, 3])}
    _, sub_a = fedsim._crop_model(arch, params, mask_a)
    _, sub_b = fedsim._crop_model(arch, params, mask_b)
    before = nn.copy_params(params)  # the merge writes over params
    with pytest.raises(ConfigError, match="different masks"):
        fd_merge(arch, params, [(sub_a, mask_a, 1), (sub_b, mask_b, 1)])
    # An equal mask held in another object is the same mask.
    same_a = {0: np.array([0, 1])}
    merged = fd_merge(arch, params, [(sub_a, mask_a, 1), (sub_a, same_a, 2)])
    assert np.array_equal(merged[0].w, before[0].w)


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
    blocks = fedsim._kept_blocks(arch, mask)
    for i in plain:
        sel = fedsim._index_expr(*blocks[i])
        assert np.array_equal(merged[i].w[sel], plain[i].w)


def test_fd_merge_uncovered_positions_keep_global_values():
    arch = nn.ModelArch((4,), (nn.dense(4, 4), nn.relu(), nn.dropout(0.1),
                               nn.dense(4, 2), nn.softmax()))
    params = random_params(arch, 14)
    mask = {0: np.array([1])}
    _, sub = fedsim._crop_model(arch, params, mask)
    sub[0].w += 5.0
    before = nn.copy_params(params)  # the merge writes over params
    merged = fd_merge(arch, params, [(sub, mask, 2)])
    for col in (0, 2, 3):
        assert np.array_equal(merged[0].w[:, col], before[0].w[:, col])
    assert np.array_equal(merged[0].w[:, 1], sub[0].w[:, 0])


def _kept_position(kept, index):
    """Position of full-model ``index`` among the ``kept`` indices (None
    keeps every index), or None when the index was dropped."""
    if kept is None:
        return index
    hits = np.flatnonzero(kept == index)
    return int(hits[0]) if hits.size else None


def test_fd_merge_matches_brute_force_with_shared_mask(cpus, monkeypatch):
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
            return _kept_position(mask[dense], row)
        position, channel = divmod(row, channels)
        sub_channel = _kept_position(mask[conv], channel)
        if sub_channel is None:
            return None
        return position * len(mask[conv]) + sub_channel

    covered = uncovered = 0
    # fd_merge folds through aggregate: at the default fold, then in
    # 4-element blocks on one CPU and split across two threads.
    for workers in (None, 1, 2):
        if workers is not None:
            cpus(workers)
            monkeypatch.setattr(fedsim, "_FOLD_BLOCK", 4)
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
            before = nn.copy_params(params)  # the merge writes over params
            merged = fd_merge(arch, params, updates)

            for i in (conv, dense, classifier):
                expect_w, expect_b = before[i].w.copy(), before[i].b.copy()
                for pos in np.ndindex(expect_w.shape):
                    acc = weight = 0.0
                    for sub, mask, n in updates:
                        row = sub_input(mask, i, pos[-2])
                        col = _kept_position(mask.get(i), pos[-1])
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
                        sub_col = _kept_position(mask.get(i), col)
                        if sub_col is not None:
                            acc += float(n) * float(sub[i].b[sub_col])
                            weight += float(n)
                    if weight:
                        expect_b[col] = np.float32(acc / weight)
                assert np.array_equal(merged[i].w, expect_w), (case, i)
                assert np.array_equal(merged[i].b, expect_b), (case, i)
    assert covered and uncovered


def test_fd_extract_crops_into_out():
    arch = tiny_schedule().models[2]
    params = random_params(arch, 17)
    sub_arch, fresh, mask = fd_extract(arch, params, 0.5, stream(0, 17))
    out = np.full(nn.count_params(arch) + 5, np.nan, dtype=nn.DTYPE)
    again_arch, sub, again = fd_extract(arch, params, 0.5, stream(0, 17), out=out)
    size = nn.count_params(sub_arch)
    assert again_arch == sub_arch and again.keys() == mask.keys()
    assert np.shares_memory(sub.flat, out[:size]) and sub.flat.size == size
    assert sub.flat.tobytes() == fresh.flat.tobytes()
    assert np.isnan(out[size:]).all()
    with pytest.raises(ConfigError, match="shares memory"):
        fd_extract(arch, params, 0.5, stream(0, 17), out=params.flat)


def test_fd_merge_folds_into_out_and_writes_the_global_model_in_place():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 18)
    _, _, mask = fd_extract(arch, params, 0.5, stream(0, 18))
    subs = []
    for k in range(3):
        _, sub = fedsim._crop_model(arch, params, mask)
        for p in sub.values():
            p.w += np.float32(k + 1)
        subs.append((sub, k + 2))
    expected = fd_merge(arch, nn.copy_params(params), [(s, mask, n) for s, n in subs])
    out = np.zeros(subs[0][0].flat.size, dtype=nn.DTYPE)
    merged = fd_merge(arch, params, [(s, mask, n) for s, n in subs], out=out)
    assert merged is params
    assert params.flat.tobytes() == expected.flat.tobytes()
    assert out.tobytes() == aggregate(subs).flat.tobytes()


def test_fd_merge_checks_everything_before_it_writes():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 19)
    _, sub, mask = fd_extract(arch, params, 0.5, stream(0, 19))
    _, other, other_mask = fd_extract(arch, params, 0.5, stream(1, 19))
    wrong_mask = {i: np.arange(max(1, len(k) - 1)) for i, k in mask.items()}
    before = params.flat.tobytes()
    out = np.full(sub.flat.size, 7.0, dtype=nn.DTYPE)
    for updates, match in (([(sub, mask, 1), (other, other_mask, 1)], "different masks"),
                           ([(sub, wrong_mask, 1)], "inconsistent"),
                           ([(sub, mask, 1)], "shares memory")):
        target = params.flat[:out.size] if match == "shares memory" else out
        with pytest.raises(ConfigError, match=match):
            fd_merge(arch, params, updates, out=target)
        assert params.flat.tobytes() == before
        assert (out == 7.0).all()


def test_fd_merge_mask_shape_inconsistency_rejected():
    arch = tiny_schedule().models[1]
    params = random_params(arch, 15)
    _, sub_params, mask = fd_extract(arch, params, 0.5, stream(0, 11))
    wrong_mask = {i: np.arange(max(1, len(k) - 1)) for i, k in mask.items()}
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
    shards = shards_of(x, y, PartitionSpec(client_count=16, seed=20))
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


def test_flops_per_client_counts_every_local_epoch(toy_world):
    shards, tx, ty = toy_world
    arch = tiny_schedule().models[-1]
    result = run_experiment("fedavg", tiny_schedule(), shards, tx, ty, _settings(
        3, train=nn.TrainConfig(learning_rate=0.05, local_epochs=2)))
    for row in result.metrics:
        sel = select_clients(stream(3, SELECT, row.round), len(shards), 4)
        mean_n = sum(shards[c].n for c in sel) / len(sel)
        assert row.flops_per_client == 2 * nn.fwd_bwd_flops(arch) * mean_n


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


def test_a_keep_fraction_that_does_not_fit_fails_before_round_0(toy_world, monkeypatch):
    # floor(4 * 0.2) == 0 filters of model 2's conv, which fnn-fd first
    # crops after the switch, rounds into the run.
    def started(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(fedsim, "ClientPool", started)
    monkeypatch.setattr(fedsim, "select_clients", started)
    shards, tx, ty = toy_world
    with pytest.raises(ConfigError, match="^fd_keep_fraction on model 2: layer 0: keep "
                                          "fraction 0.2 keeps zero of 4 units$"):
        run_experiment("fnn-fd", tiny_schedule(), shards, tx, ty,
                       _settings(30, fd_keep_fraction=0.2, fd_exempt_prefix=1))


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


@pytest.mark.parametrize("method", fedsim.METHODS)
def test_the_final_model_is_the_schedule_model_the_run_reached(toy_world, method):
    # The run keeps one record of its model, the params, whose arch must
    # be the schedule's model at the policy's index, grown or cropped on
    # the way or not.
    shards, tx, ty = toy_world
    sched = tiny_schedule()
    result = run_experiment(method, sched, shards, tx, ty,
                            _settings(40, fd_keep_fraction=0.5, fd_exempt_prefix=1))
    assert result.params.arch.layers == sched.models[result.model_index].layers
    assert result.params.flat.size == nn.count_params(result.params.arch)
    assert result.model_index == (len(result.events) if method.startswith("fnn") else 2)
    if method.startswith("fnn"):
        assert result.events


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


@pytest.mark.parametrize("workers", [1, 2])
def test_client_pool_returns_slot_views_and_releases_its_mapping(toy_world, workers):
    shards, _, _ = toy_world
    arch = tiny_schedule().models[-1]
    params = random_params(arch, 16)
    settings = _settings(1)
    sel = [0, 3, 5, 9]
    pool = fedsim.ClientPool(workers, len(sel), nn.count_params(arch), shards)
    try:
        updates = pool.collect(arch, pool.submit(arch, params, sel, 0, settings))
        expected = [fedsim.local_train(arch, params, shards[cid], settings.train,
                                       stream(settings.master_seed, CLIENT, 0, cid))
                    for cid in sel]
        assert len(updates) == len(sel)
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


def test_pool_workers_run_at_lowest_priority(toy_world):
    shards, _, _ = toy_world
    pool = fedsim.ClientPool(2, 4, nn.count_params(tiny_schedule().models[-1]), shards)
    try:
        assert pool._executor.submit(os.getpriority, os.PRIO_PROCESS, 0).result() == 19
    finally:
        pool.close()


def test_pool_workers_leave_an_interrupt_to_the_parent(toy_world):
    shards, _, _ = toy_world
    pool = fedsim.ClientPool(2, 4, nn.count_params(tiny_schedule().models[-1]), shards)
    try:
        assert pool._executor.submit(signal.getsignal, signal.SIGINT).result() == \
            signal.SIG_IGN
    finally:
        pool.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_switch_on_an_evaluation_round_evaluates_the_grown_model_once(
        toy_world, cpus, monkeypatch, workers):
    # Thresholds no signal reaches make each model train exactly 4 + 8
    # rounds, so the switches fall on rounds 11 and 23. At eval_every 12
    # both are evaluation rounds: two evaluations per switch and none
    # more. At eval_every 8 only round 23 is; rounds 7 and 15 evaluate the
    # merged model, and round 11 the models before and after its switch,
    # leaving its row's accuracy empty. Without test samples the same runs
    # evaluate nothing.
    shards, tx, ty = toy_world
    calls = []
    evaluate = fedsim.evaluate

    def counted(*args, **kwargs):
        calls.append(nn.count_params(args[0]))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(fedsim, "evaluate", counted)
    cpus(workers)
    sched = growth.GrowthSchedule("tiny", tiny_schedule().models, (1e9, 1e9))
    for eval_every, evaluated in ((12, (0, 1, 1, 2)), (8, (0, 0, 1, 1, 1, 2))):
        calls.clear()
        result = run_experiment("fnn", sched, shards, tx, ty,
                                _settings(24, eval_every=eval_every))
        assert [ev.round for ev in result.events] == [11, 23]
        assert calls == [nn.count_params(sched.models[k]) for k in evaluated]
        for ev in result.events:
            assert ev.accuracy_before is not None and ev.accuracy_after is not None
            expected = ev.accuracy_after if (ev.round + 1) % eval_every == 0 else None
            assert result.metrics[ev.round].test_accuracy == expected
        assert [m.round for m in result.metrics if m.test_accuracy is not None] == \
            list(range(eval_every - 1, 24, eval_every))

        calls.clear()
        untested = run_experiment("fnn", sched, shards, tx[:0], ty[:0],
                                  _settings(24, eval_every=eval_every))
        assert calls == []
        assert untested.metrics == [replace(m, test_accuracy=None) for m in result.metrics]
        assert untested.events == [replace(ev, accuracy_before=None, accuracy_after=None)
                                   for ev in result.events]


def _pool_log(monkeypatch):
    """Calls of ``ClientPool.submit`` (with the round), ``ClientPool.collect``,
    ``fedsim.local_train`` and ``fedsim.evaluate`` in this process, in order."""
    log = []
    submit, collect = fedsim.ClientPool.submit, fedsim.ClientPool.collect
    train, evaluate = fedsim.local_train, fedsim.evaluate

    def logged(name, fn, tag=None):
        def call(*args, **kwargs):
            log.append(tag(args) if tag else name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(fedsim.ClientPool, "submit",
                        logged("submit", submit, lambda args: ("submit", args[4])))
    monkeypatch.setattr(fedsim.ClientPool, "collect", logged("collect", collect))
    monkeypatch.setattr(fedsim, "local_train", logged("train", train))
    monkeypatch.setattr(fedsim, "evaluate", logged("evaluate", evaluate))
    return log


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluation_overlaps_the_next_rounds_training(toy_world, cpus, monkeypatch, workers):
    # Round r's evaluation runs in this process between round r + 1's
    # submit and collect; the last round's runs after its own collect.
    # Forked workers train between the two; one worker trains inside
    # collect, after the evaluation.
    shards, tx, ty = toy_world
    log = _pool_log(monkeypatch)
    cpus(workers)
    run_experiment("fedavg", tiny_schedule(), shards, tx, ty, _settings(10, eval_every=5))
    expected = []
    for r in range(10):
        expected += [("submit", r)] + (["evaluate"] if r == 5 else []) + ["collect"]
        expected += ["train"] * 4 if workers == 1 else []
    assert log == expected + ["evaluate"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_without_test_samples_writes_each_row_in_its_own_round(
        toy_world, cpus, monkeypatch, workers):
    # Such a run owes no evaluation, so even a switch round's row and an
    # evaluation round's reach on_round before the next round is submitted.
    shards, tx, ty = toy_world
    log = _pool_log(monkeypatch)
    cpus(workers)
    sched = growth.GrowthSchedule("tiny", tiny_schedule().models, (1e9, 1e9))
    result = run_experiment("fnn", sched, shards, tx[:0], ty[:0],
                            _settings(24, eval_every=4),
                            on_round=lambda row: log.append(("row", row.round)))
    assert [ev.round for ev in result.events] == [11, 23]
    expected = []
    for r in range(24):
        expected += [("submit", r), "collect"] + (["train"] * 4 if workers == 1 else [])
        expected += [("row", r)]
    assert log == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_the_server_holds_one_model_at_each_merge_and_switch(
        toy_world, cpus, monkeypatch, workers):
    # The server's model lives in pool slot 0: each full-broadcast merge
    # folds into it, and at each merge and each switch no other merged or
    # grown model is alive (the broadcast's reference to an earlier model,
    # and both models of an evaluated switch, are already dropped), so a
    # merge holds one model and a switch costs none in the round after it.
    built, merges, switches = [], [], []
    run = {}
    aggregate, apply_diff = fedsim.aggregate, fedsim.apply_diff
    broadcast, submit = fedsim.broadcast, fedsim.ClientPool.submit

    def others_alive(model):
        return sum(ref() is not None and ref() is not model for ref in built)

    def broadcasting(state, *args):
        run["state"] = state
        return broadcast(state, *args)

    def submitting(pool, *args):
        run["slot"] = pool.slots[0]
        return submit(pool, *args)

    def merging(updates, **kwargs):
        model = run["state"].params
        in_slot = np.shares_memory(model.flat, run["slot"])
        alive = others_alive(model)
        out = aggregate(updates, **kwargs)
        built.append(weakref.ref(out))
        merges.append((in_slot, np.shares_memory(out.flat, run["slot"]), alive))
        return out

    def switching(*args):
        switches.append(others_alive(args[1]))
        out = apply_diff(*args)
        built.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(fedsim, "aggregate", merging)
    monkeypatch.setattr(fedsim, "apply_diff", switching)
    monkeypatch.setattr(fedsim, "broadcast", broadcasting)
    monkeypatch.setattr(fedsim.ClientPool, "submit", submitting)
    cpus(workers)
    shards, tx, ty = toy_world
    sched = growth.GrowthSchedule("tiny", tiny_schedule().models, (1e9, 1e9))
    result = run_experiment("fnn", sched, shards, tx, ty, _settings(24, eval_every=4))
    assert [ev.round for ev in result.events] == [11, 23]
    assert merges == [(True, True, 0)] * 24 and switches == [0, 0]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_switch_round_evaluates_the_model_it_grew_from(
        toy_world, cpus, monkeypatch, workers):
    # The next round's submit writes the grown model into slot 0 before
    # the switch round is settled, so the model before the switch has to
    # be evaluated from its own copy. Its accuracy cannot tell, since
    # growing preserves the function; its bytes can. The switches fall on
    # rounds 11 (not an evaluation round) and 23 (one), and rounds 7 and
    # 15 evaluate the merged model.
    evaluated, grown_from, grown = [], [], []
    evaluate, apply_diff = fedsim.evaluate, fedsim.apply_diff

    def evaluating(arch, params, *args):
        evaluated.append(params.flat.tobytes())
        return evaluate(arch, params, *args)

    def switching(*args):
        grown_from.append(args[1].flat.tobytes())
        out = apply_diff(*args)
        grown.append(out[1].flat.tobytes())
        return out

    monkeypatch.setattr(fedsim, "evaluate", evaluating)
    monkeypatch.setattr(fedsim, "apply_diff", switching)
    cpus(workers)
    shards, tx, ty = toy_world
    sched = growth.GrowthSchedule("tiny", tiny_schedule().models, (1e9, 1e9))
    result = run_experiment("fnn", sched, shards, tx, ty, _settings(28, eval_every=8))
    assert [ev.round for ev in result.events] == [11, 23]
    assert len(evaluated) == 6
    assert [evaluated[1], evaluated[4]] == grown_from
    assert [evaluated[2], evaluated[5]] == grown


@pytest.mark.parametrize("workers", [1, 2])
def test_a_finished_run_unmaps_its_pool_slots(toy_world, cpus, monkeypatch, workers):
    closed = []
    close = fedsim.ClientPool.close

    def closing(pool):
        mapping = pool._mapping
        close(pool)
        closed.append(mapping.closed)

    monkeypatch.setattr(fedsim.ClientPool, "close", closing)
    cpus(workers)
    shards, tx, ty = toy_world
    run_experiment("fedavg", tiny_schedule(), shards, tx, ty, _settings(3))
    assert closed == [True]


def test_one_worker_forks_nothing(toy_world, cpus, monkeypatch):
    def executor(*args, **kwargs):
        raise AssertionError("a one-worker run started a process pool")

    cpus(1)
    monkeypatch.setattr(fedsim, "ProcessPoolExecutor", executor)
    shards, tx, ty = toy_world
    result = run_experiment("fnn-fd", tiny_schedule(), shards, tx, ty,
                            _settings(30, fd_keep_fraction=0.5, fd_exempt_prefix=1))
    assert result.events and len(result.metrics) == 30


def test_an_fd_run_copies_no_model_and_evaluates_the_models_it_owes(
        toy_world, cpus, monkeypatch):
    # The crop is written into slot 0, so every submit finds its model
    # there, and the merge folds into slot 0 and writes over the server's
    # model, so no round copies a model. Each evaluation still sees the
    # model merged in the round it settles, although the next round's
    # merge writes over that model in place: the settle comes first.
    copies, submitted, merged, evaluated = [], [], [], []
    copy_params, submit = nn.copy_params, fedsim.ClientPool.submit
    merge, evaluate = fedsim.fd_merge, fedsim.evaluate

    def copying(params):
        copies.append(params)
        return copy_params(params)

    def submitting(pool, arch, params, *args):
        submitted.append(params.flat.ctypes.data == pool.slots.ctypes.data
                         and params.flat.strides == pool.slots[0].strides)
        return submit(pool, arch, params, *args)

    def merging(*args, **kwargs):
        out = merge(*args, **kwargs)
        merged.append(out.flat.tobytes())
        return out

    def evaluating(arch, params, *args):
        evaluated.append(params.flat.tobytes())
        return evaluate(arch, params, *args)

    monkeypatch.setattr(nn, "copy_params", copying)
    monkeypatch.setattr(fedsim.ClientPool, "submit", submitting)
    monkeypatch.setattr(fedsim, "fd_merge", merging)
    monkeypatch.setattr(fedsim, "evaluate", evaluating)
    shards, tx, ty = toy_world
    settings = _settings(12, eval_every=4, fd_keep_fraction=0.5)
    runs = []
    for workers in (1, 2):
        cpus(workers)
        merged.clear()
        evaluated.clear()
        runs.append(run_experiment("fd", tiny_schedule(), shards, tx, ty, settings))
        assert copies == []
        assert evaluated == [merged[r] for r in (3, 7, 11)]
    assert submitted == [True] * 24
    assert runs[0].metrics == runs[1].metrics
