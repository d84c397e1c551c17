"""The one parameter layout: every model's params are views of one vector."""

import math

import numpy as np
import pytest

from fedgrow import fedsim, growth, morph, nn
from fedgrow.errors import ConfigError
from fedgrow.rng import stream

SCHEDULES = ("mnist", "emnist", "cifar10")


def assert_tiles_flat(params, arch):
    """Each trainable layer's weight, then its bias, in layer order, are
    contiguous views of ``params.flat`` with no gap or overlap, and the
    vector holds ``count_params(arch)`` float32s in all."""
    flat = params.flat
    assert params.arch == arch
    assert flat.dtype == nn.DTYPE and flat.shape == (nn.count_params(arch),)
    assert list(params) == nn.trainable_indices(arch)
    base = flat.__array_interface__["data"][0]
    at = 0
    for i, p in params.items():
        shape = arch.layers[i].weight_shape
        for array, want in ((p.w, shape), (p.b, shape[-1:])):
            assert array.shape == want and array.dtype == nn.DTYPE
            assert array.flags.c_contiguous
            assert array.__array_interface__["data"][0] == base + at * flat.itemsize
            at += array.size
    assert at == flat.size


@pytest.mark.parametrize("dataset", SCHEDULES)
def test_builtin_models_and_their_fd_crops_tile_one_vector(dataset):
    for k, arch in enumerate(growth.builtin_schedule(dataset).models):
        params = nn.init_params(arch, stream(k, 0))
        assert_tiles_flat(params, arch)
        sub_arch, sub_params, _ = fedsim.fd_extract(arch, params, 0.5, stream(k, 1))
        assert_tiles_flat(sub_params, sub_arch)


@pytest.mark.parametrize("dataset", SCHEDULES)
def test_every_apply_diff_result_tiles_one_vector(dataset):
    sched = growth.builtin_schedule(dataset)
    arch = sched.models[0]
    params = nn.init_params(arch, stream(1, 0))
    for k, diff in enumerate(growth.schedule_diffs(sched)):
        arch, params, _ = morph.apply_diff(arch, params, diff, stream(2, k))
        assert arch.layers == sched.models[k + 1].layers
        assert_tiles_flat(params, arch)


@pytest.mark.parametrize("dataset", SCHEDULES)
def test_init_params_equals_a_per_layer_reference_draw(dataset):
    for k, arch in enumerate(growth.builtin_schedule(dataset).models):
        scheme = nn.INIT_SCHEMES[k % len(nn.INIT_SCHEMES)]
        params = nn.init_params(arch, stream(k, 3), scheme)
        rng = stream(k, 3)
        for i in nn.trainable_indices(arch):
            shape = arch.layers[i].weight_shape
            std = nn._init_std(scheme, math.prod(shape[:-1]))
            want = np.empty(shape, nn.DTYPE)
            nn._truncated_normal(rng, std, want)
            assert params[i].w.tobytes() == want.tobytes()
            assert params[i].b.tobytes() == np.zeros(shape[-1], nn.DTYPE).tobytes()


def test_aggregate_rejects_updates_of_different_archs():
    small, large = growth.builtin_schedule("mnist").models[:2]
    updates = [(nn.init_params(small, stream(0, 0)), 1),
               (nn.init_params(large, stream(0, 0)), 1)]
    with pytest.raises(ConfigError, match="aggregate"):
        fedsim.aggregate(updates)
