"""Shared fixtures and oracles for the test suite."""

import numpy as np
import pytest

from fedgrow import fedsim, growth, nn
from fedgrow.rng import stream


# The 18 models of the builtin schedules, by "<dataset> m<k>".
BUILTIN_MODELS = {f"{dataset} m{k + 1}": arch for dataset in ("mnist", "emnist", "cifar10")
                  for k, arch in enumerate(growth.builtin_schedule(dataset).models)}


def shards_of(x, y, spec):
    """The client shards of (x, y) under ``spec``: the dataset gathered
    into client order, then split into views."""
    rows, sizes = fedsim.client_order(y, spec)
    return fedsim.partition(x[rows], y[rows], sizes)


def tiny_conv_arch(dropout_rate=0.0):
    """Small conv net touching conv/relu/dropout/maxpool/flatten/dense."""
    return nn.ModelArch(
        input_shape=(8, 8, 2),
        layers=(
            nn.conv2d(nn.KernelShape(3, 3, 2, 3)), nn.relu(), nn.dropout(dropout_rate),
            nn.maxpool(2),
            nn.conv2d(nn.KernelShape(3, 3, 3, 4)), nn.relu(),
            nn.flatten(),
            nn.dense(4 * 4 * 4, 5), nn.softmax(),
        ))


def dense_arch(width=6, classes=3, dropout_rate=0.0):
    return nn.ModelArch(
        input_shape=(width,),
        layers=(
            nn.dense(width, 4), nn.relu(), nn.dropout(dropout_rate),
            nn.dense(4, classes), nn.softmax(),
        ))


def params_to_f64(params):
    return {i: nn.LayerParams(p.w.astype(np.float64), p.b.astype(np.float64))
            for i, p in params.items()}


def random_params(arch, seed, scheme="truncnorm", bias_scale=0.05):
    """Init-like params with nonzero biases, resembling a trained model."""
    params = nn.init_params(arch, stream(seed, 0), scheme)
    r = stream(seed, 1)
    for p in params.values():
        p.b += r.normal(0, bias_scale, p.b.shape).astype(np.float32)
    return params


def _activation_signature(arch, params, x, rng=None):
    """Relu masks and pool argmax indices; a finite-difference step is only
    valid when these do not change across the perturbation."""
    tape = []
    nn._run_layers(arch, params, x, rng, len(arch.layers) - 1, tape)
    sig = []
    for spec, saved in zip(arch.layers, tape):
        if spec.kind == "relu":
            sig.append(saved.copy())
        elif spec.kind == "maxpool":
            sig.append(saved[1].copy())
    return sig


def finite_difference_check(arch, params, x, y, eps=1e-3, samples_per_tensor=60,
                            dropout_seed=None):
    """Worst relative error between analytic gradients and central finite
    differences, skipping coordinates whose perturbation crosses a
    relu/pool kink (where the finite difference itself is invalid).

    Runs the production formulas at float64 so the comparison measures
    the math, not float32 round-off. With a ``dropout_seed`` every pass
    draws its dropout masks from the same fresh stream, so the perturbed
    losses see the same network.
    """
    def rng():
        return None if dropout_seed is None else stream(dropout_seed, 0)

    params = params_to_f64(params)
    x = np.asarray(x, dtype=np.float64)
    _, grads = nn.gradients(arch, params, x, y, rng=rng())
    worst = 0.0
    checked = 0
    for li, lp in params.items():
        for arr, g in ((lp.w, grads[li][0]), (lp.b, grads[li][1])):
            flat = arr.reshape(-1)
            gf = g.reshape(-1)
            step = max(1, flat.size // samples_per_tensor)
            for j in range(0, flat.size, step):
                orig = flat[j]
                flat[j] = orig + eps
                sig_hi = _activation_signature(arch, params, x, rng())
                hi, _ = nn.gradients(arch, params, x, y, rng=rng())
                flat[j] = orig - eps
                sig_lo = _activation_signature(arch, params, x, rng())
                lo, _ = nn.gradients(arch, params, x, y, rng=rng())
                flat[j] = orig
                if not all(np.array_equal(a, b) for a, b in zip(sig_hi, sig_lo)):
                    continue
                fd = (hi - lo) / (2 * eps)
                den = max(abs(fd), abs(gf[j]), 1e-8)
                worst = max(worst, abs(fd - gf[j]) / den)
                checked += 1
    assert checked > 0, "finite-difference check skipped every coordinate"
    return worst


@pytest.fixture
def rng():
    return stream(1234, 99)
