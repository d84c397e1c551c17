"""Engine tests: forward semantics, gradients, SGD, counting."""

import math
import tracemalloc

import numpy as np
import pytest

from fedgrow import fedsim, growth, nn
from fedgrow.errors import ConfigError, NumericalError
from fedgrow.rng import stream

from conftest import (dense_arch, finite_difference_check, params_to_f64,
                      random_params, tiny_conv_arch)


def test_zero_weight_model_is_uniform():
    arch = dense_arch(classes=4)
    params = nn.init_params(arch, stream(0, 0))
    for p in params.values():
        p.w[:] = 0.0
        p.b[:] = 0.0
    probs = nn.forward(arch, params, np.ones((3, 6), dtype=np.float32))
    assert np.allclose(probs, 0.25, atol=1e-7)


def test_eval_forward_bitwise_deterministic_and_pure():
    arch = tiny_conv_arch(dropout_rate=0.25)
    params = random_params(arch, 5)
    before = {i: (p.w.copy(), p.b.copy()) for i, p in params.items()}
    x = stream(0, 1).random((4, 8, 8, 2), dtype=np.float32)
    out1 = nn.forward(arch, params, x)
    out2 = nn.forward(arch, params, x)
    assert np.array_equal(out1, out2)
    for i, p in params.items():
        assert np.array_equal(p.w, before[i][0])
        assert np.array_equal(p.b, before[i][1])


def test_train_forward_deterministic_under_seeded_rng():
    arch = tiny_conv_arch(dropout_rate=0.5)
    params = random_params(arch, 6)
    x = stream(0, 1).random((4, 8, 8, 2), dtype=np.float32)
    # Train mode is the taped pass of an SGD step; forward is eval-only.
    out1, out2 = (nn._run_layers(arch, params, x, stream(3, 3), len(arch.layers), [])
                  for _ in range(2))
    assert np.array_equal(_bits(out1), _bits(out2))
    assert not np.array_equal(out1, nn.forward(arch, params, x))  # masks were drawn


def test_softmax_rows_sum_to_one():
    arch = tiny_conv_arch()
    params = random_params(arch, 7)
    x = stream(1, 1).random((16, 8, 8, 2), dtype=np.float32) * 5.0
    probs = nn.forward(arch, params, x)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-5


def test_emnist_model1_output_shape():
    model1 = growth.builtin_schedule("emnist").models[0]
    params = nn.init_params(model1, stream(0, 0))
    x = stream(0, 1).random((10, 28, 28, 1), dtype=np.float32)
    assert nn.forward(model1, params, x).shape == (10, 62)


def test_shape_mismatch_names_layer():
    arch = nn.ModelArch((6, 6, 2), (
        nn.conv2d(nn.KernelShape(3, 3, 2, 3)), nn.relu(),
        nn.flatten(), nn.dense(999, 3), nn.softmax()))
    with pytest.raises(ConfigError, match="layer 3"):
        nn.infer_shapes(arch)


def test_batch_shape_mismatch_rejected():
    arch = dense_arch()
    params = nn.init_params(arch, stream(0, 0))
    with pytest.raises(ConfigError):
        nn.forward(arch, params, np.ones((2, 7), dtype=np.float32))


def test_maxpool_4_equals_two_2s():
    x = stream(2, 0).random((5, 28, 28, 3), dtype=np.float32)
    out4 = nn._maxpool_forward(x, 4)
    out2 = nn._maxpool_forward(x, 2)
    out22 = nn._maxpool_forward(out2, 2)
    assert np.array_equal(out4, out22)


@pytest.mark.parametrize("window, height, width",
                         [(2, 8, 8), (2, 9, 11), (3, 9, 11), (4, 9, 11), (4, 12, 7)])
def test_maxpool_backward_routes_to_first_max_in_row_major_order(window, height, width):
    # Integer-valued inputs make tied maxima common; odd extents leave
    # remainder rows/cols that floor pooling drops.
    r = stream(9, window)
    x = r.integers(-1, 3, size=(3, height, width, 4)).astype(np.float32)
    out = nn._maxpool_forward(x, window)
    g = r.standard_normal(out.shape).astype(np.float32)

    expect = np.zeros_like(x)
    for b, i, j, c in np.ndindex(*out.shape):
        best = None
        for u in range(window):
            for v in range(window):
                val = x[b, i * window + u, j * window + v, c]
                if best is None or val > best[0]:
                    best = (val, u, v)
        _, u, v = best
        expect[b, i * window + u, j * window + v, c] = g[b, i, j, c]

    got = nn._maxpool_backward(g, x, out, window)
    assert got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()


def test_maxpool_floor_semantics():
    # 32x32 pooled by 3 drops the remainder rows/cols: 32 -> 10.
    arch = nn.ModelArch((32, 32, 3), (
        nn.conv2d(nn.KernelShape(3, 3, 3, 4)), nn.maxpool(3),
        nn.global_avg_pool(), nn.dense(4, 2), nn.softmax()))
    assert nn.infer_shapes(arch)[1] == (10, 10, 4)


def _reshape_max_pool(x, window):
    n, h, w, c = x.shape
    oh, ow = h // window, w // window
    xr = x[:, :oh * window, :ow * window].reshape(n, oh, window, ow, window, c)
    return xr.max(axis=(2, 4))


@pytest.mark.parametrize("channels", [1, 5, 32])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_separable_maxpool_equals_the_reshape_max(window, dtype, channels):
    # Small integers make ties common, zeros carry either sign, and the
    # extents leave remainder rows and columns that floor pooling drops.
    r = stream(31, window, channels)
    x = r.integers(-2, 2, size=(3, 4 * window + 1, 3 * window + 2, channels)).astype(dtype)
    zero = x == 0
    x[zero] = np.where(r.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    x[r.random(x.shape) < 0.03] = np.nan
    before = x.tobytes()
    got = nn._maxpool_forward(x, window)
    want = _reshape_max_pool(x, window)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and not np.shares_memory(got, x)
    assert x.tobytes() == before
    assert np.array_equal(got, want, equal_nan=True)
    # Equal values with equal sign bits: the bits of every non-NaN result.
    real = ~np.isnan(want)
    assert 0 < real.sum() < real.size
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))
    assert nn._maxpool_forward(x[:0], window).shape == (0, *want.shape[1:])


def test_zero_learning_rate_keeps_params_and_returns_forward_loss():
    arch = dense_arch()
    params = random_params(arch, 8)
    x = stream(0, 1).random((6, 6), dtype=np.float32)
    y = stream(0, 2).integers(0, 3, 6)
    cfg = nn.TrainConfig(learning_rate=0.0)
    new_params, loss = nn.backward_and_step(arch, params, x, y, cfg, stream(0, 3))
    for i in params:
        assert np.array_equal(new_params[i].w, params[i].w)
        assert np.array_equal(new_params[i].b, params[i].b)
    probs = nn.forward(arch, params, x)
    expected = -np.log(probs[np.arange(6), y]).mean()
    assert abs(loss - expected) < 1e-6


def test_single_dense_sgd_update_matches_hand_computation():
    # One sample through dense+softmax; the update is computable by hand.
    arch = nn.ModelArch((2,), (nn.dense(2, 2), nn.softmax()))
    w = np.array([[0.3, -0.2], [0.1, 0.4]], dtype=np.float32)
    b = np.array([0.05, -0.05], dtype=np.float32)
    params = {0: nn.LayerParams(w.copy(), b.copy())}
    x = np.array([[1.0, 2.0]], dtype=np.float32)
    y = np.array([1])
    lr = 0.1
    new_params, loss = nn.backward_and_step(
        arch, params, x, y, nn.TrainConfig(learning_rate=lr), stream(0, 0))

    z = x[0] @ w + b
    p = np.exp(z - z.max())
    p /= p.sum()
    expect_loss = -np.log(p[1])
    dz = p.copy()
    dz[1] -= 1.0
    expect_w = w - lr * np.outer(x[0], dz)
    expect_b = b - lr * dz
    assert abs(loss - expect_loss) < 1e-6
    assert np.abs(new_params[0].w - expect_w).max() < 1e-6
    assert np.abs(new_params[0].b - expect_b).max() < 1e-6


@pytest.mark.parametrize("arch_fn, shape", [
    (lambda: dense_arch(), (6,)),
    (lambda: tiny_conv_arch(), (8, 8, 2)),
    (lambda: nn.ModelArch((7, 7, 2), (
        nn.conv2d(nn.KernelShape(3, 3, 2, 3), padding="valid", stride=2),
        nn.relu(), nn.flatten(), nn.dense(27, 3), nn.softmax())), (7, 7, 2)),
    (lambda: nn.ModelArch((6, 6, 2), (
        nn.conv2d(nn.KernelShape(1, 1, 2, 4)), nn.relu(),
        nn.global_avg_pool(), nn.dense(4, 3), nn.softmax())), (6, 6, 2)),
])
def test_gradients_match_finite_differences(arch_fn, shape):
    arch = arch_fn()
    params = random_params(arch, 21)
    x = stream(21, 1).random((3,) + shape, dtype=np.float32)
    y = stream(21, 2).integers(0, arch.num_classes, 3)
    worst = finite_difference_check(arch, params, x, y)
    assert worst < 1e-2, f"finite-difference mismatch: {worst}"


@pytest.mark.parametrize("padding, conv_out", [("valid", (4, 5, 4)), ("same", (6, 5, 4))])
def test_non_square_kernel_keeps_its_axes(padding, conv_out):
    # KernelShape takes (w, h); the weight is laid out (kh, kw, in, out).
    spec = nn.conv2d(nn.KernelShape(w=1, h=3, i=3, o=4), padding)
    assert spec.weight_shape == (3, 1, 3, 4)
    wide = spec.with_widths(5, 6)
    assert (wide.weight_shape, wide.padding) == ((3, 1, 5, 6), padding)
    arch = nn.ModelArch((6, 5, 2), (
        nn.conv2d(nn.KernelShape(3, 3, 2, 3)), nn.relu(), spec, nn.relu(),
        nn.flatten(), nn.dense(int(np.prod(conv_out)), 3), nn.softmax()))
    assert nn.infer_shapes(arch)[2] == conv_out
    params = random_params(arch, 23)
    x = stream(23, 1).random((3, 6, 5, 2), dtype=np.float32)
    assert nn._run_layers(arch, params, x, None, 3, None).shape == (3, *conv_out)
    # The second conv computes an input gradient, so both backward paths
    # run on the non-square kernel.
    y = stream(23, 2).integers(0, 3, 3)
    worst = finite_difference_check(arch, params, x, y)
    assert worst < 1e-2, f"finite-difference mismatch: {worst}"


def test_gradients_with_fixed_dropout_mask_match_finite_differences():
    # A fixed rng seed fixes the dropout mask, so the perturbed losses see
    # the same network and the check remains valid at nonzero rate.
    arch = dense_arch(dropout_rate=0.3)
    params = params_to_f64(random_params(arch, 22))
    x = stream(22, 1).random((4, 6)).astype(np.float64)
    y = stream(22, 2).integers(0, 3, 4)

    def loss_at():
        loss, _ = nn.gradients(arch, params, x, y, rng=stream(9, 9))
        return loss

    _, grads = nn.gradients(arch, params, x, y, rng=stream(9, 9))
    eps = 1e-3
    w = params[0].w
    worst = 0.0
    for j in range(w.size):
        orig = w.reshape(-1)[j]
        w.reshape(-1)[j] = orig + eps
        hi = loss_at()
        w.reshape(-1)[j] = orig - eps
        lo = loss_at()
        w.reshape(-1)[j] = orig
        fd = (hi - lo) / (2 * eps)
        g = grads[0][0].reshape(-1)[j]
        den = max(abs(fd), abs(g), 1e-8)
        worst = max(worst, abs(fd - g) / den)
    assert worst < 1e-2


def _reference_conv_backward(g, w, x_shape, stride, padding):
    """The input-gradient GEMM over the whole (n*oh*ow, kh*kw*ci) patch
    matrix, then col2im over its rows, as one full matrix."""
    kh, kw, ci, co = w.shape
    n, h, wd, _ = x_shape
    ph_lo, ph_hi, oh = nn._pad_spec(h, kh, stride, padding)
    pw_lo, pw_hi, ow = nn._pad_spec(wd, kw, stride, padding)
    xp_shape = (n, h + ph_lo + ph_hi, wd + pw_lo + pw_hi, ci)
    dcols = g.reshape(-1, co) @ w.reshape(-1, co).T
    if kh == 1 and kw == 1 and stride == 1:
        dxp = dcols.reshape(xp_shape)
    else:
        dcols = dcols.reshape(n, oh, ow, kh, kw, ci)
        dxp = np.zeros(xp_shape, dtype=g.dtype)
        for u in range(kh):
            for v in range(kw):
                dxp[:, u:u + (oh - 1) * stride + 1:stride,
                    v:v + (ow - 1) * stride + 1:stride, :] += dcols[:, :, :, u, v, :]
    return dxp[:, ph_lo:ph_lo + h, pw_lo:pw_lo + wd, :]


@pytest.mark.parametrize("ci", [2, 28, 84])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_backward_input_gradient_equals_full_matrix_col2im(k, stride, padding, ci):
    r = stream(31, k, stride, ci)
    x = r.random((4, 11, 10, ci), dtype=np.float32)
    w = r.normal(0.0, 0.1, (k, k, ci, 8)).astype(np.float32)
    b = r.normal(0.0, 0.1, 8).astype(np.float32)
    out, saved = nn._conv_forward(x, w, b, stride, padding, key=0)
    g = r.normal(0.0, 1.0, out.shape).astype(np.float32)
    gx, gw, gb = nn._conv_backward(g, w, stride, saved, x.shape)
    expect = _reference_conv_backward(g, w, x.shape, stride, padding)
    assert gx.shape == x.shape and gx.flags.c_contiguous
    assert np.array_equal(gx, expect)


def test_conv_workspace_never_aliases_tape_or_returned_gradients(monkeypatch):
    # Two archs share the conv indices 0 and 2 with other shapes. A's
    # second conv has valid padding, so its input gradient is the whole
    # padded-gradient buffer rather than a copy of its interior. B's first
    # two convs have equal buffer shapes, so one buffer shared between
    # layers would overwrite a live patch matrix.
    arch_a = nn.ModelArch((8, 8, 2), (
        nn.conv2d(nn.KernelShape(3, 3, 2, 3)), nn.relu(),
        nn.conv2d(nn.KernelShape(3, 3, 3, 4), padding="valid"), nn.relu(),
        nn.flatten(), nn.dense(6 * 6 * 4, 3), nn.softmax()))
    arch_b = nn.ModelArch((6, 6, 3), (
        nn.conv2d(nn.KernelShape(5, 5, 3, 3)), nn.relu(),
        nn.conv2d(nn.KernelShape(5, 5, 3, 3)), nn.relu(),
        nn.conv2d(nn.KernelShape(3, 3, 3, 5), stride=2), nn.relu(), nn.dropout(0.25),
        nn.global_avg_pool(), nn.dense(5, 3), nn.softmax()))
    worlds = {"a": (arch_a, random_params(arch_a, 41)),
              "b": (arch_b, random_params(arch_b, 42))}
    # Back-to-back calls on one arch and dtype reuse every buffer; the
    # others switch arch or dtype in between.
    calls = [("a", np.float32, 1), ("a", np.float32, 2), ("b", np.float32, 1),
             ("b", np.float32, 2), ("a", np.float64, 1), ("a", np.float32, 3),
             ("b", np.float32, 3)]

    def run(name, dtype, batch):
        arch, params = worlds[name]
        if dtype == np.float64:
            params = params_to_f64(params)
        r = stream(43, batch)
        x = r.random((3,) + arch.input_shape).astype(dtype)
        y = r.integers(0, 3, 3)
        return nn.gradients(arch, params, x, y, rng=stream(44, batch))

    results = [run(*call) for call in calls]
    # The oracle allocates every buffer afresh.
    monkeypatch.setattr(nn, "_scratch",
                        lambda key, role, shape, dtype: np.empty(shape, dtype=dtype))
    for call, (loss, grads) in zip(calls, results):
        expect_loss, expect = run(*call)
        assert loss == expect_loss, call
        for i, (gw, gb) in expect.items():
            assert np.array_equal(grads[i][0], gw), (call, i)
            assert np.array_equal(grads[i][1], gb), (call, i)


def test_non_finite_loss_raises():
    arch = dense_arch()
    params = random_params(arch, 9)
    params[0].w[:] = np.inf
    x = np.ones((2, 6), dtype=np.float32)
    y = np.array([0, 1])
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        nn.backward_and_step(arch, params, x, y,
                             nn.TrainConfig(learning_rate=0.1), stream(0, 0))


def test_labels_out_of_range_rejected():
    arch = dense_arch(classes=3)
    params = random_params(arch, 10)
    x = np.ones((2, 6), dtype=np.float32)
    with pytest.raises(ConfigError, match="class ids"):
        nn.gradients(arch, params, x, np.array([0, 3]))


def test_dropout_train_scales_and_eval_identity():
    arch = nn.ModelArch((50,), (nn.dropout(0.5), nn.dense(50, 2), nn.softmax()))
    x = np.ones((1, 50), dtype=np.float32)
    tape = []
    out = nn._run_layers(arch, None, x, stream(4, 4), 1, tape)
    kept = out[out != 0]
    assert np.allclose(kept, 2.0)  # 1 / (1 - 0.5)
    out_eval = nn._run_layers(arch, None, x, None, 1, None)
    assert np.array_equal(out_eval, x)


def _bits(a):
    return a.view(f"u{a.itemsize}")


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_factor_has_the_bits_of_mask_then_scale(dtype):
    rate = 0.375
    scale = dtype(1.0 / (1.0 - rate))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40], dtype=dtype)

    def values(key):
        r = stream(33, key)
        v = r.normal(0.0, 1.0, (6, 40)).astype(dtype)
        pick = r.random(v.shape) < 0.3
        v[pick] = r.choice(specials, int(pick.sum()))
        return v

    def keep(shape):
        return stream(33, 9).random(shape, dtype=np.float32) >= rate

    # Dropout on the caller's batch (a new array) ...
    x = values(1)
    arch = nn.ModelArch((40,), (nn.dropout(rate), nn.dense(40, 3), nn.softmax()))
    tape = []
    out = nn._run_layers(arch, None, x, stream(33, 9), 1, tape)
    mask = keep(x.shape)
    assert out.dtype == dtype
    assert np.array_equal(_bits(out), _bits((x * mask) * scale))
    g = values(2)
    assert np.array_equal(_bits(g * tape[0]), _bits((g * mask) * scale))
    # ... and in place on a dense output; dropped negatives become -0.0.
    arch = nn.ModelArch((40,), (nn.dense(40, 30), nn.dropout(rate), nn.dense(30, 3),
                                nn.softmax()))
    params = {i: nn.LayerParams(p.w.astype(dtype), p.b.astype(dtype))
              for i, p in random_params(arch, 34).items()}
    x = stream(34, 1).normal(0.0, 1.0, (6, 40)).astype(dtype)
    dense_out = nn._run_layers(arch, params, x, None, 1, None)
    out = nn._run_layers(arch, params, x, stream(33, 9), 2, [])
    expect = (dense_out * keep(dense_out.shape)) * scale
    assert np.signbit(expect[expect == 0]).any()
    assert np.array_equal(_bits(out), _bits(expect))


def _pool_relu_dropout_archs():
    k = nn.KernelShape
    return {
        "relu-and-dropout-after-batch": nn.ModelArch((6, 6, 2), (
            nn.relu(), nn.dropout(0.25), nn.conv2d(k(3, 3, 2, 3)), nn.relu(),
            nn.flatten(), nn.dense(108, 3), nn.softmax())),
        "relu-and-dropout-after-maxpool": nn.ModelArch((8, 8, 2), (
            nn.conv2d(k(3, 3, 2, 4)), nn.maxpool(2), nn.relu(), nn.dropout(0.25),
            nn.conv2d(k(3, 3, 4, 3)), nn.maxpool(2), nn.dropout(0.5),
            nn.flatten(), nn.dense(12, 3), nn.softmax())),
        "relu-and-dropout-after-flatten": nn.ModelArch((6, 6, 2), (
            nn.conv2d(k(3, 3, 2, 3)), nn.relu(), nn.maxpool(3), nn.flatten(),
            nn.relu(), nn.dropout(0.25), nn.dense(12, 3), nn.softmax())),
        "dropout-after-batch-flatten": nn.ModelArch((3, 4, 1), (
            nn.flatten(), nn.dropout(0.25), nn.relu(), nn.dense(12, 5), nn.relu(),
            nn.dropout(0.25), nn.dense(5, 3), nn.softmax())),
        "relu-and-dropout-after-gap": nn.ModelArch((5, 5, 2), (
            nn.conv2d(k(3, 3, 2, 4)), nn.relu(), nn.dropout(0.25), nn.global_avg_pool(),
            nn.relu(), nn.dropout(0.25), nn.dense(4, 3), nn.softmax())),
    }


@pytest.mark.parametrize("name", sorted(_pool_relu_dropout_archs()))
def test_in_place_relu_and_dropout_never_write_the_batch_params_or_tape(name):
    arch = _pool_relu_dropout_archs()[name]
    params = random_params(arch, 35)
    x = stream(35, 1).normal(0.0, 1.0, (4,) + arch.input_shape).astype(np.float32)
    y = stream(35, 2).integers(0, arch.num_classes, 4)
    x_bytes = x.tobytes()
    param_bytes = [(p.w.tobytes(), p.b.tobytes()) for p in params.values()]

    # Every maxpool entry of the tape still holds the pool of its input.
    tape = []
    nn._run_layers(arch, params, x, stream(35, 3), len(arch.layers) - 1, tape)
    for spec, saved in zip(arch.layers, tape):
        if spec.kind == "maxpool":
            assert np.array_equal(saved[1], nn._maxpool_forward(saved[0], spec.window))

    worst = finite_difference_check(arch, params, x, y, dropout_seed=36)
    assert worst < 1e-2, f"finite-difference mismatch: {worst}"
    new_params, _ = nn.backward_and_step(arch, params, x, y, nn.TrainConfig(0.1),
                                         stream(35, 3))
    assert x.tobytes() == x_bytes
    assert [(p.w.tobytes(), p.b.tobytes()) for p in params.values()] == param_bytes
    for i, p in new_params.items():
        assert not np.shares_memory(p.w, params[i].w)
        assert not np.shares_memory(p.b, params[i].b)


def test_count_params_matches_brute_force():
    for arch in (dense_arch(), tiny_conv_arch(),
                 growth.builtin_schedule("cifar10").models[2]):
        params = nn.init_params(arch, stream(0, 0))
        brute = sum(p.w.size + p.b.size for p in params.values())
        assert nn.count_params(arch) == brute


def test_count_params_emnist_model1_closed_form():
    # Layer-by-layer closed form for conv(5x5,1->16) -> pool4 -> fc(784->512)
    # -> fc(512->62), weights plus biases.
    expected = (5 * 5 * 1 * 16 + 16) + (784 * 512 + 512) + (512 * 62 + 62)
    model1 = growth.builtin_schedule("emnist").models[0]
    assert nn.count_params(model1) == expected == 434142
    assert round(434142 / 1000) == 434  # printed as 434K


def test_forward_flops_counts_macs():
    # dense 6->4 and 4->3: (24 + 12) MACs, 2 FLOPs each.
    arch = dense_arch()
    assert nn.forward_flops(arch) == 2 * (6 * 4 + 4 * 3)
    assert nn.fwd_bwd_flops(arch) == 3 * nn.forward_flops(arch)


def _builtin_conv_geometries():
    """(input shape, weight shape, stride, padding) of every conv layer in
    the builtin schedules."""
    geometries = set()
    for dataset in ("mnist", "emnist", "cifar10"):
        for arch in growth.builtin_schedule(dataset).models:
            for i, spec in enumerate(arch.layers):
                if spec.kind == "conv2d":
                    geometries.add((nn.shape_before(arch, i), spec.weight_shape,
                                    spec.stride, spec.padding))
    return sorted(geometries)


@pytest.mark.parametrize("eval_rows", [64, nn._EVAL_ROWS])
@pytest.mark.parametrize("shape, weight_shape, stride, padding", _builtin_conv_geometries())
def test_eval_conv_blocks_equal_the_train_mode_batch(monkeypatch, shape, weight_shape,
                                                     stride, padding, eval_rows):
    monkeypatch.setattr(nn, "_EVAL_ROWS", eval_rows)
    rows = math.prod(nn._conv_out(size, k, stride, padding)
                     for size, k in zip(shape, weight_shape))
    step = max(1, eval_rows // rows)
    arch = nn.ModelArch(shape, (nn.LayerSpec("conv2d", weight_shape, padding, stride),))
    r = stream(51, *weight_shape)
    w = r.normal(0.0, 0.1, weight_shape).astype(np.float32)
    b = r.normal(0.0, 0.1, weight_shape[-1]).astype(np.float32)
    # One block, then several blocks whose last one is a partial tail
    # (or a one-sample block when a block holds one sample).
    for n in (1, 2 * step + max(1, step // 2)):
        x = r.random((n,) + shape, dtype=np.float32)
        expect, _ = nn._conv_forward(x, w, b, stride, padding, key=0)
        got = nn.forward(arch, {0: nn.LayerParams(w, b)}, x)
        assert got.tobytes() == expect.tobytes(), n


_BUILTIN_MODELS = {f"{dataset} m{k + 1}": arch for dataset in ("mnist", "emnist", "cifar10")
                   for k, arch in enumerate(growth.builtin_schedule(dataset).models)}


@pytest.mark.parametrize("n", [7, 13])
@pytest.mark.parametrize("name", sorted(_BUILTIN_MODELS))
def test_eval_row_blocks_equal_one_block_on_every_builtin_model(monkeypatch, name, n):
    # Every builtin first conv holds one sample a block, so the batch is n
    # first-conv blocks; the later convs get a partial tail block.
    arch = _BUILTIN_MODELS[name]
    params = random_params(arch, 52)
    x = stream(52, n).random((n,) + arch.input_shape, dtype=np.float32)
    blocked = nn.forward(arch, params, x)
    monkeypatch.setattr(nn, "_EVAL_ROWS", n * math.prod(arch.input_shape[:2]))
    assert nn.forward(arch, params, x).tobytes() == blocked.tobytes()


def _custom_conv_archs():
    """Conv stacks beside the builtin ones: a pooled 3x3 conv, an unpooled
    strided one, a pointwise one, a 3x3 conv on a 3x3 input and a conv
    after two pools."""
    k = nn.KernelShape
    return {
        "pooled-unpooled-pointwise": nn.ModelArch((12, 12, 3), (
            nn.conv2d(k(3, 3, 3, 4)), nn.relu(), nn.maxpool(2),
            nn.conv2d(k(3, 3, 4, 5), "valid", 2), nn.relu(), nn.dropout(0.5),
            nn.conv2d(k(1, 1, 5, 6)), nn.relu(), nn.flatten(), nn.dense(24, 3),
            nn.softmax())),
        "3x3-on-3x3": nn.ModelArch((3, 3, 2), (
            nn.conv2d(k(3, 3, 2, 4)), nn.relu(), nn.conv2d(k(3, 3, 4, 4), "valid"),
            nn.flatten(), nn.dense(4, 3), nn.softmax())),
        "after-two-pools": nn.ModelArch((20, 20, 1), (
            nn.conv2d(k(5, 5, 1, 3)), nn.maxpool(2), nn.maxpool(2),
            nn.conv2d(k(3, 3, 3, 4)), nn.relu(), nn.maxpool(2), nn.global_avg_pool(),
            nn.dense(4, 3), nn.softmax())),
    }


_STACK_ARCHS = {**_BUILTIN_MODELS, **_custom_conv_archs()}


@pytest.mark.parametrize("n", [1, 7, 113, 300, 512])
@pytest.mark.parametrize("name", sorted(_STACK_ARCHS))
def test_each_eval_conv_makes_the_whole_batch_row_blocks(monkeypatch, name, n):
    # Each conv's calls, in order, are the row blocks of the whole batch:
    # _EVAL_ROWS output positions' worth of samples from sample 0 on (the
    # whole batch for a pointwise conv), the last block the remainder. A
    # GEMM of those shapes and rows keeps its bits whatever the geometry.
    arch = _STACK_ARCHS[name]
    params = nn.Params(arch)
    shapes = nn.infer_shapes(arch)
    expect = {}
    for i, spec in enumerate(arch.layers):
        if spec.kind == "conv2d":
            kh, kw = spec.weight_shape[:2]
            pointwise = (kh, kw, spec.stride) == (1, 1, 1)
            step = n if pointwise else max(1, min(n, nn._EVAL_ROWS // math.prod(shapes[i][:2])))
            expect[id(params[i].w)] = [min(step, n - start) for start in range(0, n, step)]
    calls = {key: [] for key in expect}

    def conv(x, w, b, stride, padding, **kwargs):
        calls[id(w)].append(x.shape[0])
        oh, ow = (nn._conv_out(size, k, stride, padding) for size, k in zip(x.shape[1:3], w.shape))
        return np.zeros((x.shape[0], oh, ow, w.shape[-1]), dtype=x.dtype), None

    monkeypatch.setattr(nn, "_conv_forward", conv)
    x = np.zeros((n,) + arch.input_shape, dtype=np.float32)
    assert nn.forward(arch, params, x).shape == (n, arch.num_classes)
    assert calls == expect


@pytest.mark.parametrize("name", sorted(_BUILTIN_MODELS))
def test_forward_of_an_empty_batch_is_an_empty_probability_table(name):
    arch = _BUILTIN_MODELS[name]
    x = np.zeros((0,) + arch.input_shape, dtype=np.float32)
    assert nn.forward(arch, nn.Params(arch), x).shape == (0, arch.num_classes)


def test_evaluate_rejects_an_empty_test_split():
    arch = _BUILTIN_MODELS["mnist m1"]
    x = np.zeros((0,) + arch.input_shape, dtype=np.float32)
    with pytest.raises(ConfigError, match="test split is empty"):
        fedsim.evaluate(arch, nn.Params(arch), x, np.zeros(0, dtype=np.int64))


def _evaluate_peak(arch, n):
    params = nn.init_params(arch, stream(0, 0))
    x = stream(0, 1).random((n,) + arch.input_shape, dtype=np.float32)
    y = stream(0, 2).integers(0, arch.num_classes, n)
    tracemalloc.start()
    try:
        fedsim.evaluate(arch, params, x, y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_holds_a_group_of_the_first_conv_output_on_cifar10_model6():
    # At 300 images the first conv writes 118 MB; ten samples a group
    # carry 3.9 MB of it through both 32x32 convs and the first pool.
    assert _evaluate_peak(growth.builtin_schedule("cifar10").models[5], 300) < 32 * 2**20


def test_evaluate_holds_the_stack_output_on_mnist_model6():
    # Five samples a group go through both convs and pools, so at 512
    # images the batch holds the 6.4 MB input of the first dense layer
    # besides the 1.6 MB of images.
    assert _evaluate_peak(growth.builtin_schedule("mnist").models[5], 512) < 14 * 2**20


def test_evaluate_memory_stays_bounded_on_mnist_model6():
    # The full patch matrix of model 6's second conv is 321 MB at 512
    # images; row blocks and in-place ReLU keep the peak near the first
    # conv's output.
    arch = growth.builtin_schedule("mnist").models[5]
    params = nn.init_params(arch, stream(0, 0))
    x = stream(0, 1).random((512,) + arch.input_shape, dtype=np.float32)
    y = stream(0, 2).integers(0, arch.num_classes, 512)
    tracemalloc.start()
    try:
        fedsim.evaluate(arch, params, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_evaluate_holds_the_pooled_batch_not_the_conv_output():
    # At 512 images model 6's first conv writes 51 MB and its max-pool's
    # row maxima 26 MB more. Pooled a row block at a time, the batch holds
    # the pooled 12.8 MB and 6.4 MB instead.
    arch = growth.builtin_schedule("mnist").models[5]
    params = nn.init_params(arch, stream(0, 0))
    x = stream(0, 1).random((512,) + arch.input_shape, dtype=np.float32)
    y = stream(0, 2).integers(0, arch.num_classes, 512)
    tracemalloc.start()
    try:
        fedsim.evaluate(arch, params, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize("layers", [(nn.relu(), nn.flatten()), (nn.flatten(), nn.relu())])
def test_eval_relu_never_writes_the_callers_batch(layers):
    arch = nn.ModelArch((2, 3, 1), (*layers, nn.dense(6, 2), nn.softmax()))
    params = random_params(arch, 12)
    x = stream(12, 1).normal(0.0, 1.0, (4, 2, 3, 1)).astype(np.float32)
    before = x.copy()
    nn.forward(arch, params, x)
    assert np.array_equal(x, before)
