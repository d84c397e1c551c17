"""Schedule tests: builtin sequences, diffing, validation, serialization."""

import json

import numpy as np
import pytest

from fedgrow import growth, morph, nn
from fedgrow.errors import ConfigError, ScheduleError
from fedgrow.rng import stream

# Published per-model totals the builtin sequences must reproduce, at the
# same print granularity (nearest K, or nearest 0.1M).
PRINTED_COUNTS = {
    "emnist": ["434K", "836K", "862K", "1.7M", "3.3M", "6.6M"],
    "cifar10": ["20K", "66K", "262K", "586K", "918K", "955K"],
}


def _print_rounded(count: int, like: str) -> str:
    if like.endswith("M"):
        return f"{round(count / 1e5) / 10:.1f}M"
    return f"{round(count / 1e3)}K"


def test_emnist_thresholds():
    assert growth.builtin_schedule("emnist").thresholds == \
        (0.08, 0.04, 0.02, 0.01, 0.005)


def test_cifar10_thresholds_and_final_1x1_convs():
    sched = growth.builtin_schedule("cifar10")
    assert sched.thresholds == (0.12, 0.11, 0.10, 0.09, 0.08)
    convs = [s for s in sched.models[5].layers if s.kind == "conv2d"]
    assert [c.kernel.w for c in convs[-2:]] == [1, 1]
    assert len(sched.models) == 6


def test_mnist_fc_progression():
    sched = growth.builtin_schedule("mnist")
    hidden_units = []
    for m in sched.models:
        denses = [s.out_units for s in m.layers if s.kind == "dense"]
        assert denses[-1] == 10  # classifier
        hidden_units.append(denses[-2])
    assert hidden_units == [128, 128, 128, 128, 256, 512]


@pytest.mark.parametrize("dataset", ["emnist", "cifar10"])
def test_builtin_counts_match_published(dataset):
    sched = growth.builtin_schedule(dataset)
    for model, printed in zip(sched.models, PRINTED_COUNTS[dataset]):
        count = nn.count_params(model)
        assert _print_rounded(count, printed) == printed, \
            f"{model.name}: {count} prints as {_print_rounded(count, printed)}, " \
            f"table says {printed}"


@pytest.mark.parametrize("dataset", ["emnist", "cifar10", "mnist"])
def test_builtin_counts_strictly_increase(dataset):
    counts = [nn.count_params(m) for m in growth.builtin_schedule(dataset).models]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_unknown_dataset_tag():
    with pytest.raises(ConfigError):
        growth.builtin_schedule("imagenet")


def test_diff_emnist_m1_m2_is_single_conv_widening():
    sched = growth.builtin_schedule("emnist")
    diff = growth.diff_models(sched.models[0], sched.models[1])
    assert len(diff) == 1
    step = diff[0]
    assert (step.kind, step.layer, step.width) == ("widen", 0, 32)


def test_diff_emnist_m2_m3_is_pool_split_plus_identity_insert():
    sched = growth.builtin_schedule("emnist")
    diff = growth.diff_models(sched.models[1], sched.models[2])
    kinds = [s.kind for s in diff]
    assert kinds == ["split-pool", "insert-identity"]
    assert diff[1].spec == nn.conv2d(nn.KernelShape(5, 5, 32, 32))


def test_diff_identical_archs_is_empty():
    m = growth.builtin_schedule("mnist").models[3]
    assert growth.diff_models(m, m) == ()


def _dense_head_pair(head):
    """A model and the same model with one more hidden dense layer ahead
    of the classifier; the pair diffs to a single identity insertion."""
    body = [("conv", 2, 3), ("pool", 2)] + head
    return [growth.build_arch((8, 8, 1), body + [("dense", 4)] * hidden + [("dense", 3)])
            for hidden in (1, 2)]


DENSE_HEAD_PAIRS = {"flatten-head": _dense_head_pair([]),
                    "gap-head": _dense_head_pair([("gap",)])}


@pytest.mark.parametrize("dataset", ["emnist", "cifar10", "mnist", *DENSE_HEAD_PAIRS])
def test_diff_replay_reproduces_target(dataset):
    if dataset in DENSE_HEAD_PAIRS:
        models = DENSE_HEAD_PAIRS[dataset]
        diff = growth.diff_models(*models)
        assert [(s.kind, s.layer, s.spec) for s in diff] == \
            [("insert-identity", 8, nn.dense(4, 4))]
    else:
        models = growth.builtin_schedule(dataset).models
    for a, b in zip(models, models[1:]):
        diff = growth.diff_models(a, b)
        cur = a
        for step in diff:
            cur = growth.apply_step_to_arch(cur, step)
        assert cur.layers == b.layers


def test_diff_is_stable_under_its_own_replay():
    # Diffing the source against the replayed target yields the same steps.
    sched = growth.builtin_schedule("cifar10")
    for a, b in zip(sched.models, sched.models[1:]):
        diff = growth.diff_models(a, b)
        again = growth.diff_models(a, b)
        assert diff == again
        cur = a
        for step in diff:
            cur = growth.apply_step_to_arch(cur, step)
        assert growth.diff_models(a, cur) == diff


def test_diff_rejects_shrinking():
    sched = growth.builtin_schedule("emnist")
    with pytest.raises(ScheduleError):
        growth.diff_models(sched.models[1], sched.models[0])


def test_validate_builtin_ok():
    growth.validate_schedule(growth.builtin_schedule("emnist"))


def test_validate_reports_non_increasing_counts():
    sched = growth.builtin_schedule("emnist")
    shuffled = growth.GrowthSchedule(
        sched.dataset, sched.models[::-1], sched.thresholds)
    with pytest.raises(ScheduleError) as exc:
        growth.validate_schedule(shuffled)
    assert any("non-increasing" in v for v in exc.value.violations)


def test_validate_reports_threshold_arity():
    sched = growth.builtin_schedule("emnist")
    bad = growth.GrowthSchedule(sched.dataset, sched.models, sched.thresholds[:4])
    with pytest.raises(ScheduleError) as exc:
        growth.validate_schedule(bad)
    assert any("threshold arity" in v for v in exc.value.violations)


def test_validate_collects_multiple_violations():
    sched = growth.builtin_schedule("emnist")
    bad = growth.GrowthSchedule(sched.dataset, sched.models[::-1],
                                sched.thresholds[:2])
    with pytest.raises(ScheduleError) as exc:
        growth.validate_schedule(bad)
    assert len(exc.value.violations) >= 2


def test_schedule_file_round_trip(tmp_path):
    sched = growth.builtin_schedule("cifar10")
    path = tmp_path / "sched.json"
    growth.save_schedule(sched, path)
    loaded = growth.load_schedule(path)
    assert loaded.thresholds == sched.thresholds
    assert loaded.dataset == sched.dataset
    assert [m.layers for m in loaded.models] == [m.layers for m in sched.models]


def test_schedule_file_arity_error(tmp_path):
    data = growth.schedule_to_dict(growth.builtin_schedule("mnist"))
    data["thresholds"] = data["thresholds"][:3]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScheduleError):
        growth.load_schedule(path)


def test_custom_schedule_supports_ablation_variants(tmp_path):
    # A user-supplied sequence with a smaller starting model than the
    # builtin one loads through the same machinery.
    data = {
        "dataset": "emnist",
        "input_shape": [28, 28, 1],
        "dropout_rate": 0.125,
        "thresholds": [0.1, 0.08],
        "models": [
            [{"conv": 8, "kernel": 5}, {"pool": 4}, {"dense": 256}, {"dense": 62}],
            [{"conv": 16, "kernel": 5}, {"pool": 4}, {"dense": 256}, {"dense": 62}],
            [{"conv": 16, "kernel": 5}, {"pool": 4}, {"dense": 512}, {"dense": 62}],
        ],
    }
    path = tmp_path / "ablation.json"
    path.write_text(json.dumps(data))
    sched = growth.load_schedule(path)
    assert sched.num_models == 3
    counts = [nn.count_params(m) for m in sched.models]
    assert counts[0] < counts[1] < counts[2]


@pytest.mark.parametrize("reducer", [{"pool": 2}, {"gap": True}])
def test_identity_dense_right_after_flatten_or_gap_preserves_function(reducer):
    # flatten and gap keep the signs of the relu output they follow, so a
    # dense identity inserted right after them is exact.
    sched = growth.schedule_from_dict({
        "dataset": "mnist", "input_shape": [2, 2, 1], "thresholds": [0.1],
        "models": [[{"conv": 2}, reducer, {"dense": 3}],
                   [{"conv": 2}, reducer, {"dense": 4}, {"dense": 3}]]})
    small, big = sched.models
    params = nn.init_params(small, stream(4, 0))
    for p in params.values():
        p.b += stream(4, 1).normal(0, 0.1, p.b.shape).astype(np.float32)
    arch, grown, _ = morph.apply_diff(small, params, growth.schedule_diffs(sched)[0],
                                      stream(4, 2))
    assert arch.layers == big.layers
    x = stream(4, 3).normal(size=(6, 2, 2, 1)).astype(np.float32)
    np.testing.assert_allclose(nn.forward(arch, grown, x), nn.forward(small, params, x),
                               rtol=0, atol=1e-6)
