"""Function-preservation tests for the model transforms."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedgrow import growth, morph, nn
from fedgrow.errors import ScheduleError, TransformError
from fedgrow.rng import stream

from conftest import random_params


def eval_delta(arch_a, params_a, arch_b, params_b, x):
    out_a = nn.forward(arch_a, params_a, x)
    out_b = nn.forward(arch_b, params_b, x)
    return float(np.abs(out_a - out_b).max())


def small_conv_dense_arch():
    # conv -> relu -> dropout -> pool -> flatten -> dense -> relu -> dropout
    # -> dense classifier
    return growth.build_arch(
        (8, 8, 1),
        [("conv", 4, 3), ("pool", 2), ("dense", 6), ("dense", 3)],
        dropout_rate=0.125)


# ---------------------------------------------------------------------------
# widen


def test_widen_same_width_is_identity():
    arch = small_conv_dense_arch()
    params = random_params(arch, 1)
    x = stream(1, 9).random((4, 8, 8, 1), dtype=np.float32)
    new_arch, new_params, g = morph.widen(arch, params, 0, 4, stream(0, 0))
    assert np.array_equal(g, np.arange(4))
    assert new_arch.layers == arch.layers
    for i in params:
        assert np.array_equal(new_params[i].w, params[i].w)
        assert np.array_equal(new_params[i].b, params[i].b)
    assert eval_delta(arch, params, new_arch, new_params, x) == 0.0


def test_widen_conv_preserves_function_emnist_m1_m2():
    sched = growth.builtin_schedule("emnist")
    arch = sched.models[0]
    params = random_params(arch, 2)
    x = stream(2, 9).random((16, 28, 28, 1), dtype=np.float32)
    new_arch, new_params, _ = morph.widen(arch, params, 0, 32, stream(5, 0))
    assert new_arch.layers == sched.models[1].layers
    assert eval_delta(arch, params, new_arch, new_params, x) < 1e-5


def test_widen_dense_hand_mapping_halves_replicated_rows():
    # dense(4 -> 2) widened to 3 with g = [0, 1, 0]: unit 0 is replicated
    # twice, so the next layer's rows for units 0 and 2 are the original
    # row 0 halved; row 1 is untouched.
    arch = nn.ModelArch((4,), (
        nn.dense(4, 2), nn.relu(), nn.dropout(0.125),
        nn.dense(2, 3), nn.softmax()))
    params = random_params(arch, 3)
    w_next = params[3].w.copy()
    g = np.array([0, 1, 0])
    new_arch, new_params = morph.widen_with_mapping(arch, params, 0, g)
    assert np.allclose(new_params[3].w[0], w_next[0] / 2.0)
    assert np.allclose(new_params[3].w[2], w_next[0] / 2.0)
    assert np.allclose(new_params[3].w[1], w_next[1])
    assert np.array_equal(new_params[0].w[:, g], new_params[0].w)
    x = stream(3, 9).random((8, 4), dtype=np.float32)
    assert eval_delta(arch, params, new_arch, new_params, x) < 1e-6


def test_widen_mapping_for_another_width_rejected():
    # g has 3 sources, the layer 4 outputs: applied, output 3 would be
    # dropped and the function would change.
    arch = nn.ModelArch((4,), (
        nn.dense(4, 4), nn.relu(), nn.dropout(0.125),
        nn.dense(4, 3), nn.softmax()))
    g = np.array([0, 1, 2, 0, 1])
    with pytest.raises(TransformError, match="identity on the 4 existing channels"):
        morph.widen_with_mapping(arch, random_params(arch, 3), 0, g)


def test_widen_through_flatten_emnist_m3_m4():
    sched = growth.builtin_schedule("emnist")
    arch = sched.models[2]
    params = random_params(arch, 4)
    x = stream(4, 9).random((16, 28, 28, 1), dtype=np.float32)
    new_arch, new_params, _ = morph.widen(arch, params, 4, 64, stream(6, 0))
    assert new_arch.layers == sched.models[3].layers
    assert eval_delta(arch, params, new_arch, new_params, x) < 1e-5


def test_widen_1x1_feature_map_equals_plain_dense_widening():
    # When the flattened feature map is 1x1, conv widening across flatten
    # must behave exactly like widening the induced dense layer.
    conv_arch = nn.ModelArch((1, 1, 3), (
        nn.conv2d(nn.KernelShape(1, 1, 3, 4)), nn.relu(), nn.dropout(0.1),
        nn.flatten(), nn.dense(4, 5), nn.softmax()))
    dense_equiv = nn.ModelArch((3,), (
        nn.dense(3, 4), nn.relu(), nn.dropout(0.1),
        nn.dense(4, 5), nn.softmax()))
    cp = random_params(conv_arch, 6)
    dp = {
        0: nn.LayerParams(cp[0].w.reshape(3, 4).copy(), cp[0].b.copy()),
        3: nn.LayerParams(cp[4].w.copy(), cp[4].b.copy()),
    }
    g = np.array([0, 1, 2, 3, 1, 3])
    _, cp2 = morph.widen_with_mapping(conv_arch, cp, 0, g)
    _, dp2 = morph.widen_with_mapping(dense_equiv, dp, 0, g)
    assert np.array_equal(cp2[0].w.reshape(3, 6), dp2[0].w)
    assert np.array_equal(cp2[4].w, dp2[3].w)


def test_widen_final_classifier_rejected():
    arch = small_conv_dense_arch()
    params = random_params(arch, 7)
    final_dense = max(nn.trainable_indices(arch))
    with pytest.raises(TransformError, match="final"):
        morph.widen(arch, params, final_dense, 8, stream(0, 0))


def test_widen_mapping_prefix_identity_validated():
    # A width-2 dense layer: a map that moves an existing channel, copies
    # a channel below 0 or one past the layer's width is rejected.
    arch = nn.ModelArch((4,), (
        nn.dense(4, 2), nn.relu(), nn.dropout(0.125),
        nn.dense(2, 3), nn.softmax()))
    params = random_params(arch, 3)
    for g in ([1, 0, 0], [0, 1, -1], [0, 1, 2]):
        with pytest.raises(TransformError, match="identity on the 2 existing channels"):
            morph.widen_with_mapping(arch, params, 0, np.array(g))


@settings(max_examples=30, deadline=None)
@given(old=st.integers(2, 12), extra=st.integers(0, 12), seed=st.integers(0, 2**31))
def test_sampled_mapping_invariants(old, extra, seed):
    arch = nn.ModelArch((3,), (
        nn.dense(3, old), nn.relu(), nn.dropout(0.125),
        nn.dense(old, 2), nn.softmax()))
    params = random_params(arch, seed)
    new_arch, new_params, g = morph.widen(arch, params, 0, old + extra, stream(seed, 0))
    drawn = stream(seed, 0).integers(0, old, size=extra)
    assert np.array_equal(g, np.concatenate([np.arange(old), drawn]))
    counts = np.bincount(g)
    assert counts.sum() == old + extra and len(counts) == old and (counts >= 1).all()
    same_arch, same_params = morph.widen_with_mapping(arch, params, 0, g)
    assert same_arch.layers == new_arch.layers
    assert same_params.flat.tobytes() == new_params.flat.tobytes()


def test_replication_groups_conserve_next_layer_contribution():
    arch = small_conv_dense_arch()
    params = random_params(arch, 8)
    dense_idx = nn.trainable_indices(arch)[1]
    w_next_before = params[nn.trainable_indices(arch)[2]].w.copy()
    new_arch, new_params, g = morph.widen(
        arch, params, dense_idx, 13, stream(11, 0))
    w_next = new_params[max(nn.trainable_indices(new_arch))].w
    for q in range(arch.layers[dense_idx].weight_shape[-1]):
        group = np.flatnonzero(g == q)
        assert np.abs(w_next[group].sum(axis=0) - w_next_before[q]).max() < 1e-6


def test_widen_mapping_reproducible_per_seed():
    arch = small_conv_dense_arch()
    params = random_params(arch, 8)
    _, _, g1 = morph.widen(arch, params, 0, 32, stream(3, 4))
    _, _, g2 = morph.widen(arch, params, 0, 32, stream(3, 4))
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# deepen / split


def test_identity_conv_kernel_is_exact_on_nonnegative_input():
    channels = 3
    w = np.zeros((5, 5, channels, channels), dtype=np.float32)
    w[2, 2, np.arange(channels), np.arange(channels)] = 1.0
    x = stream(12, 0).random((2, 9, 9, channels), dtype=np.float32)
    out, _ = nn._conv_forward(x, w, np.zeros(channels, dtype=np.float32), 1, "same")
    assert np.array_equal(out, x)


# Insertion points of small_conv_dense_arch that follow a relu, with the
# identity layer that fits there: after the pool that follows
# conv/relu/dropout, and after the hidden dense block's relu+dropout.
DEEPEN_CASES = {"conv": (4, nn.conv2d(nn.KernelShape(3, 3, 4, 4))),
                "dense": (8, nn.dense(6, 6))}


@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_deepen_preserves_function_and_stacks(kind):
    arch = small_conv_dense_arch()
    position, spec = DEEPEN_CASES[kind]
    params = random_params(arch, 13)
    x = stream(13, 9).random((8, 8, 8, 1), dtype=np.float32)
    a2, p2 = morph.deepen(arch, params, position, spec)
    assert a2.layers[position] == spec
    assert eval_delta(arch, params, a2, p2, x) < 1e-6
    # double insertion at the same slot still preserves
    a3, p3 = morph.deepen(a2, p2, position, spec)
    assert eval_delta(arch, params, a3, p3, x) < 1e-6


@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_deepen_wrong_width_rejected(kind):
    arch = small_conv_dense_arch()
    position, spec = DEEPEN_CASES[kind]
    params = random_params(arch, 14)
    with pytest.raises(TransformError, match="width"):
        morph.deepen(arch, params, position, spec.with_widths(7, 7))


@pytest.mark.parametrize("kind, position", [("conv", 0), ("conv", 1), ("dense", 6)],
                         ids=["conv-at-input", "conv", "dense"])
def test_deepen_rejects_position_without_relu(kind, position):
    # At the input, or right after a conv or dense layer ahead of its relu,
    # the incoming activations may be negative.
    arch = small_conv_dense_arch()
    width = nn.shape_before(arch, position)[-1]
    spec = DEEPEN_CASES[kind][1]
    with pytest.raises(TransformError, match="negative"):
        morph.deepen(arch, random_params(arch, 15), position,
                     spec.with_widths(width, width))


@pytest.mark.parametrize("kernel, padding, stride", [
    ((4, 4), "same", 1), ((3, 4), "same", 1), ((3, 3), "valid", 1), ((3, 3), "same", 2),
], ids=["even-kernel", "even-axis", "valid-padding", "stride-2"])
def test_deepen_rejects_conv_that_cannot_be_identity(kernel, padding, stride):
    arch = small_conv_dense_arch()
    spec = nn.conv2d(nn.KernelShape(*kernel, 4, 4), padding, stride)
    with pytest.raises(TransformError, match="odd kernel"):
        morph.deepen(arch, random_params(arch, 16), DEEPEN_CASES["conv"][0], spec)


def test_split_pool_bitwise_and_divisibility_error():
    arch28 = growth.build_arch((28, 28, 1),
                               [("conv", 3, 5), ("pool", 4), ("dense", 4), ("dense", 2)])
    params = random_params(arch28, 19)
    x = stream(19, 9).random((4, 28, 28, 1), dtype=np.float32)
    pool_at = next(i for i, s in enumerate(arch28.layers) if s.kind == "maxpool")
    a2, p2 = morph.split_pool(arch28, params, pool_at)
    assert eval_delta(arch28, params, a2, p2, x) == 0.0

    arch30 = growth.build_arch((30, 30, 1),
                               [("conv", 3, 5), ("pool", 4), ("dense", 4), ("dense", 2)])
    params30 = random_params(arch30, 20)
    with pytest.raises(TransformError, match="divisible"):
        morph.split_pool(arch30, params30, pool_at)


# ---------------------------------------------------------------------------
# apply_diff


def test_apply_empty_diff_keeps_params():
    arch = small_conv_dense_arch()
    params = random_params(arch, 21)
    new_arch, new_params, mappings = morph.apply_diff(
        arch, params, (), stream(0, 0))
    assert new_arch.layers == arch.layers
    assert mappings == []
    for i in params:
        assert np.array_equal(new_params[i].w, params[i].w)


@pytest.mark.parametrize("layer", [10, 42, -1])
def test_apply_diff_rejects_a_step_out_of_range(layer):
    arch = small_conv_dense_arch()
    with pytest.raises(TransformError, match=f"widen at layer {layer}: out of range"):
        morph.apply_diff(arch, random_params(arch, 21),
                         (growth.TransformStep("widen", layer, width=8),), stream(0, 0))


def test_emnist_m2_m3_pipeline_preserves_within_1e6():
    sched = growth.builtin_schedule("emnist")
    arch = sched.models[1]
    params = random_params(arch, 22)
    x = stream(22, 9).random((16, 28, 28, 1), dtype=np.float32)
    diff = growth.diff_models(arch, sched.models[2])
    a2, p2, _ = morph.apply_diff(arch, params, diff, stream(7, 0))
    assert a2.layers == sched.models[2].layers
    assert eval_delta(arch, params, a2, p2, x) < 1e-6


@st.composite
def reachable_token_pair(draw):
    """Input channels and two build_arch token rows, the second reachable
    from the first: wider conv and dense layers, an optional 4x4 pool split
    into two 2x2 pools, an optional identity conv after the first pool, an
    optional identity dense block ahead of the classifier, and a flatten or
    global-average-pool head."""
    conv, hidden = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    split, head = draw(st.booleans()), draw(st.sampled_from([[], [("gap",)]]))
    kernel = draw(st.sampled_from([1, 3, 5]))
    pools_a = [("pool", 4)] if split else [("pool", 2)]
    pools_b = [("pool", 2), ("pool", 2)] if split else [("pool", 2)]
    if draw(st.booleans()):
        pools_b.insert(1, ("conv", conv + draw(st.integers(0, 3)),
                           draw(st.sampled_from([1, 3]))))
    dense_b = [("dense", hidden + draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        dense_b.append(("dense", hidden + draw(st.integers(0, 4))))
    classes = draw(st.integers(2, 4))
    a = [("conv", conv, kernel)] + pools_a + head + [("dense", hidden), ("dense", classes)]
    b = [("conv", conv + draw(st.integers(0, 3)), kernel)] + pools_b + head + \
        dense_b + [("dense", classes)]
    return draw(st.integers(1, 3)), a, b


def _dense_head_example(head):
    a = [("conv", 2, 3), ("pool", 2)] + head + [("dense", 4), ("dense", 3)]
    return example(pair=(1, a, a[:-1] + [("dense", 4), ("dense", 3)]), seed=0)


@settings(max_examples=60, deadline=None)
@given(pair=reachable_token_pair(), seed=st.integers(0, 2**31))
@_dense_head_example([])
@_dense_head_example([("gap",)])
def test_random_reachable_pairs_replay_and_preserve_function(pair, seed):
    channels, tokens_a, tokens_b = pair
    shape = (8, 8, channels)
    arch_a = growth.build_arch(shape, tokens_a)
    arch_b = growth.build_arch(shape, tokens_b)
    params = random_params(arch_a, seed)
    x = stream(seed, 9).random((4,) + shape, dtype=np.float32)
    diff = growth.diff_models(arch_a, arch_b)
    arch_c, params_c, _ = morph.apply_diff(arch_a, params, diff, stream(seed, 1))
    assert arch_c.layers == arch_b.layers
    assert eval_delta(arch_a, params, arch_c, params_c, x) < 1e-5


@st.composite
def arbitrary_token_pair(draw):
    """An input extent and a reachable pair perturbed so that it may no
    longer be: the extent need not be divisible by 4, both first convs may
    share an even kernel, any target conv may change its kernel, and the
    target may gain a leading conv."""
    channels, a, b = draw(reachable_token_pair())
    extent = draw(st.sampled_from([6, 8, 10, 12]))
    kernel = st.integers(1, 5)
    if draw(st.booleans()):
        k = draw(kernel)
        a[0], b[0] = ("conv", a[0][1], k), ("conv", b[0][1], k)
    b = [("conv", t[1], draw(kernel)) if t[0] == "conv" and draw(st.booleans()) else t
         for t in b]
    if draw(st.booleans()):
        b = [("conv", draw(st.integers(1, 4)), draw(kernel))] + b
    return extent, channels, a, b


@settings(max_examples=80, deadline=None)
@given(pair=arbitrary_token_pair(), seed=st.integers(0, 2**31))
@example(pair=(10, 1, [("conv", 2, 3), ("pool", 4), ("dense", 4), ("dense", 3)],
               [("conv", 3, 3), ("pool", 2), ("pool", 2), ("dense", 4), ("dense", 3)]),
         seed=0)
@example(pair=(8, 1, [("conv", 2, 5), ("pool", 2), ("dense", 4), ("dense", 3)],
               [("conv", 1, 3), ("conv", 2, 5), ("pool", 2), ("dense", 4), ("dense", 3)]),
         seed=0)
def test_accepted_diffs_apply_and_preserve_function(pair, seed):
    # Whatever diff_models accepts, apply_diff applies exactly.
    extent, channels, tokens_a, tokens_b = pair
    shape = (extent, extent, channels)
    arch_a = growth.build_arch(shape, tokens_a)
    arch_b = growth.build_arch(shape, tokens_b)
    try:
        diff = growth.diff_models(arch_a, arch_b)
    except ScheduleError:
        return
    params = random_params(arch_a, seed)
    x = stream(seed, 9).random((4,) + shape, dtype=np.float32)
    arch_c, params_c, _ = morph.apply_diff(arch_a, params, diff, stream(seed, 1))
    assert arch_c.layers == arch_b.layers
    assert eval_delta(arch_a, params, arch_c, params_c, x) < 1e-5


@pytest.mark.parametrize("dataset", ["emnist", "cifar10"])
def test_one_full_schedule_step_per_dataset(dataset):
    # The acceptance suite covers every pair; one mid-schedule pair here
    # keeps module-level regressions visible fast.
    sched = growth.builtin_schedule(dataset)
    arch = sched.models[3]
    params = random_params(arch, 23)
    x = stream(23, 9).random((8,) + tuple(arch.input_shape), dtype=np.float32)
    diff = growth.diff_models(arch, sched.models[4])
    a2, p2, _ = morph.apply_diff(arch, params, diff, stream(8, 0))
    assert eval_delta(arch, params, a2, p2, x) < 1e-5


def test_dropout_alone_drives_replica_divergence():
    # After widening, replicated units receive identical gradients when
    # dropout is off and therefore stay exactly equal through training;
    # with dropout on they must diverge.
    sched = growth.builtin_schedule("mnist")
    arch = sched.models[0]
    x = stream(30, 1).random((20, 28, 28, 1), dtype=np.float32)
    y = stream(30, 2).integers(0, 10, 20)

    for rate, expect_equal in ((0.0, True), (0.25, False)):
        params = random_params(arch, 31)
        new_arch, new_params, g = morph.widen(arch, params, 0, 24, stream(9, 0))
        if rate == 0.0:
            layers = tuple(nn.dropout(0.0) if s.kind == "dropout" else s
                           for s in new_arch.layers)
            train_arch = new_arch.with_layers(layers)
        else:
            train_arch = new_arch
        cfg = nn.TrainConfig(learning_rate=0.05)
        cur = new_params
        r = stream(10, 0)
        for _ in range(3):
            cur, _ = nn.backward_and_step(train_arch, cur, x, y, cfg, r)
        dup = [(j, g[j]) for j in range(16, 24)]
        equal = all(
            np.array_equal(cur[0].w[..., j], cur[0].w[..., src]) and
            np.array_equal(cur[0].b[j], cur[0].b[src])
            for j, src in dup)
        assert equal == expect_equal, f"rate={rate}"
