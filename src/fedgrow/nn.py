"""Minimal deterministic CNN engine on float32 numpy arrays.

Supports exactly the layer kinds needed by the staged model families:
conv2d, dense, maxpool, global-average-pool, dropout, relu, softmax and
flatten. Activations are laid out as (batch, height, width, channels);
flattening is row-major over (height, width, channels). Trainable weights
put input channels on axis -2 and output channels on axis -1, for conv2d
(kh, kw, in, out) and dense (in, out) alike. Plain SGD with sparse
categorical cross-entropy is the only optimizer/loss pair.

Convolutions are patch-matrix GEMMs. In train mode a layer's patch
matrix covers the whole batch, since the backward pass reads it. In eval
mode a conv runs in row blocks of about ``_EVAL_ROWS`` output positions
and never builds a batch's full patch matrix (on the builtin schedules
with the bits of one whole-batch GEMM).

ReLU and dropout overwrite their input when the forward pass allocated
it and no tape entry holds it: the output of conv2d, dense, relu,
dropout or gap, and in eval mode (no tape) also of maxpool. They never
write the caller's batch, nor a train-mode maxpool output, which the
maxpool backward reads. The SGD step writes the new parameters over
their gradients. None of this changes a bit of any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericalError

DTYPE = np.float32

TRAINABLE_KINDS = ("conv2d", "dense")
# Kinds a transform may walk through when looking for the next/previous
# trainable layer.
PASS_THROUGH_KINDS = ("relu", "dropout", "maxpool", "flatten", "gap")


@dataclass(frozen=True)
class KernelShape:
    """Convolution kernel extents as ``conv2d`` takes them: width, height,
    input and output channels. ``conv2d`` stores them as the weight shape
    (h, w, i, o)."""

    w: int
    h: int
    i: int
    o: int

    def __post_init__(self):
        if min(self.w, self.h, self.i, self.o) < 1:
            raise ConfigError(f"kernel extents must be >= 1, got {self}")


@dataclass(frozen=True)
class LayerSpec:
    """One layer in a model; ``kind`` selects which fields are meaningful.

    conv2d:  weight_shape (kh, kw, in, out), padding ("same"|"valid"), stride
    dense:   weight_shape (in, out)
    maxpool: window (square side), stride equals window (non-overlapping)
    dropout: rate in [0, 1)
    relu / softmax / flatten / gap: no parameters
    """

    kind: str
    weight_shape: tuple[int, ...] = ()
    padding: str = "same"
    stride: int = 1
    window: int = 0
    rate: float = 0.0

    def with_widths(self, in_width: int, out_width: int) -> "LayerSpec":
        """The same conv2d/dense layer with other input and output widths."""
        if self.kind not in TRAINABLE_KINDS:
            raise ConfigError(f"{self.kind} layer has no weights")
        return replace(self, weight_shape=(*self.weight_shape[:-2], in_width, out_width))


def conv2d(kernel: KernelShape, padding: str = "same", stride: int = 1) -> LayerSpec:
    if padding not in ("same", "valid"):
        raise ConfigError(f"unknown padding mode {padding!r}")
    if stride < 1:
        raise ConfigError("conv stride must be >= 1")
    return LayerSpec("conv2d", (kernel.h, kernel.w, kernel.i, kernel.o), padding, stride)


def dense(n_in: int, n_out: int) -> LayerSpec:
    if n_in < 1 or n_out < 1:
        raise ConfigError("dense units must be >= 1")
    return LayerSpec("dense", (n_in, n_out))


def maxpool(window: int) -> LayerSpec:
    if window < 1:
        raise ConfigError("pool window must be >= 1")
    return LayerSpec("maxpool", window=window)


def dropout(rate: float) -> LayerSpec:
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    return LayerSpec("dropout", rate=rate)


def relu() -> LayerSpec:
    return LayerSpec("relu")


def softmax() -> LayerSpec:
    return LayerSpec("softmax")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def global_avg_pool() -> LayerSpec:
    return LayerSpec("gap")


@dataclass(frozen=True)
class ModelArch:
    """Immutable layer sequence plus the input sample shape (H, W, C)."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    name: str = ""

    @property
    def num_classes(self) -> int:
        for spec in reversed(self.layers):
            if spec.kind == "dense":
                return spec.weight_shape[-1]
        raise ConfigError("model has no dense layer")

    def with_layers(self, layers: Iterable[LayerSpec]) -> "ModelArch":
        return replace(self, layers=tuple(layers))


@dataclass
class LayerParams:
    """Weight and bias arrays of one trainable layer."""

    w: np.ndarray
    b: np.ndarray


# Params maps layer index -> LayerParams for every trainable layer.
Params = dict[int, LayerParams]


@dataclass(frozen=True)
class TrainConfig:
    """Local SGD hyperparameters."""

    learning_rate: float
    batch_size: int = 10
    local_epochs: int = 1
    dropout_rate: float = 0.125

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.batch_size < 1 or self.local_epochs < 1:
            raise ConfigError("batch size and local epochs must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout rate must be in [0, 1)")


# ---------------------------------------------------------------------------
# Shape inference and validation


def _pool_out(size: int, window: int) -> int:
    # Non-overlapping pooling drops the remainder rows/cols.
    return size // window


def _conv_out(size: int, k: int, stride: int, padding: str) -> int:
    if padding == "same":
        return -(-size // stride)
    return (size - k) // stride + 1


def infer_shapes(arch: ModelArch) -> list[tuple[int, ...]]:
    """Per-layer output shapes (sample shapes, no batch axis).

    Raises ConfigError naming the offending layer index when adjacent
    layers are incompatible.
    """
    shapes = []
    cur = tuple(arch.input_shape)
    for i, spec in enumerate(arch.layers):
        kind = spec.kind
        if kind in TRAINABLE_KINDS:
            # A kernel extent per spatial axis of the input: two for conv2d,
            # none for dense.
            *kernel, n_in, n_out = spec.weight_shape
            if len(cur) != len(kernel) + 1 or cur[-1] != n_in:
                want = f"(H, W, {n_in})" if kernel else f"({n_in},)"
                raise ConfigError(f"layer {i}: {kind} needs a {want} input, got {cur}")
            out = tuple(_conv_out(size, k, spec.stride, spec.padding)
                        for size, k in zip(cur, kernel))
            if any(size < 1 for size in out):
                raise ConfigError(f"layer {i}: {kind} output collapses to {out}")
            cur = (*out, n_out)
        elif kind == "maxpool":
            if len(cur) != 3:
                raise ConfigError(f"layer {i}: maxpool needs a (H, W, C) input, got {cur}")
            oh, ow = _pool_out(cur[0], spec.window), _pool_out(cur[1], spec.window)
            if oh < 1 or ow < 1:
                raise ConfigError(f"layer {i}: maxpool window {spec.window} too large for {cur}")
            cur = (oh, ow, cur[2])
        elif kind == "gap":
            if len(cur) != 3:
                raise ConfigError(f"layer {i}: gap needs a (H, W, C) input, got {cur}")
            cur = (cur[2],)
        elif kind == "flatten":
            cur = (int(np.prod(cur)),)
        elif kind in ("relu", "dropout"):
            pass
        elif kind == "softmax":
            if len(cur) != 1:
                raise ConfigError(f"layer {i}: softmax needs a flat input, got {cur}")
        else:
            raise ConfigError(f"layer {i}: unknown layer kind {kind!r}")
        shapes.append(cur)
    return shapes


def validate_arch(arch: ModelArch) -> None:
    """Full structural validation; raises ConfigError on any problem."""
    if not arch.layers:
        raise ConfigError("model has no layers")
    infer_shapes(arch)
    if arch.layers[-1].kind != "softmax":
        raise ConfigError("final layer must be softmax")
    if any(s.kind == "softmax" for s in arch.layers[:-1]):
        raise ConfigError("softmax is only supported as the final layer")


def shape_before(arch: ModelArch, index: int) -> tuple[int, ...]:
    """Sample shape entering ``arch.layers[index]``."""
    if index == 0:
        return tuple(arch.input_shape)
    return infer_shapes(arch)[index - 1]


def trainable_indices(arch: ModelArch) -> list[int]:
    return [i for i, s in enumerate(arch.layers) if s.kind in TRAINABLE_KINDS]


def next_trainable(arch: ModelArch, index: int) -> int | None:
    """Index of the next trainable layer after ``index``, walking through
    relu/dropout/pool/flatten/gap. None if the chain ends first."""
    for j in range(index + 1, len(arch.layers)):
        kind = arch.layers[j].kind
        if kind in TRAINABLE_KINDS:
            return j
        if kind not in PASS_THROUGH_KINDS:
            return None
    return None


# ---------------------------------------------------------------------------
# Parameter initialization and counting

INIT_SCHEMES = ("fanin_truncnorm", "truncnorm", "he")


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    # Resample (not clip) draws beyond two standard deviations.
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return (out * std).astype(DTYPE)


def _init_std(scheme: str, fan_in: int) -> float:
    if scheme == "fanin_truncnorm":
        return 0.1 / np.sqrt(fan_in)
    if scheme == "truncnorm":
        return 0.1
    if scheme == "he":
        return float(np.sqrt(2.0 / fan_in))
    raise ConfigError(f"unknown init scheme {scheme!r}")


def init_params(arch: ModelArch, rng: np.random.Generator,
                scheme: str = "truncnorm") -> Params:
    """Fresh trainable parameters: truncated-normal weights, zero biases."""
    params: Params = {}
    for i in trainable_indices(arch):
        shape = arch.layers[i].weight_shape
        w = _truncated_normal(rng, shape, _init_std(scheme, math.prod(shape[:-1])))
        params[i] = LayerParams(w, np.zeros(shape[-1], dtype=DTYPE))
    return params


def copy_params(params: Params) -> Params:
    return {i: LayerParams(p.w.copy(), p.b.copy()) for i, p in params.items()}


def count_params(arch: ModelArch) -> int:
    """Exact number of trainable scalars (weights plus biases)."""
    shapes = [arch.layers[i].weight_shape for i in trainable_indices(arch)]
    return sum(math.prod(shape) + shape[-1] for shape in shapes)


def forward_flops(arch: ModelArch) -> int:
    """Per-sample forward FLOPs (2 per multiply-accumulate) for the MAC layers."""
    # Every output position (oh * ow for conv2d, one for dense) costs one
    # multiply-accumulate per weight.
    shapes = infer_shapes(arch)
    return 2 * sum(math.prod(shapes[i][:-1]) * math.prod(arch.layers[i].weight_shape)
                   for i in trainable_indices(arch))


def fwd_bwd_flops(arch: ModelArch) -> int:
    """Per-sample forward+backward FLOP estimate (3x the forward cost)."""
    return 3 * forward_flops(arch)


# ---------------------------------------------------------------------------
# Forward / backward


def _pad_spec(size: int, k: int, stride: int, padding: str):
    out = _conv_out(size, k, stride, padding)
    if padding == "valid":
        return 0, 0, out
    total = max((out - 1) * stride + k - size, 0)
    lo = total // 2
    return lo, total - lo, out


# Train-mode conv scratch buffers keyed by (layer index, role). A buffer
# is read only by the backward of the same ``gradients`` call, so the next
# call may overwrite it; it is replaced when its shape or dtype changes.
_workspace: dict[tuple[int, str], np.ndarray] = {}


def _scratch(key, role, shape, dtype):
    """Reused uninitialized buffer for ``(key, role)``; a fresh one when
    ``key`` is None."""
    if key is None:
        return np.empty(shape, dtype=dtype)
    buf = _workspace.get((key, role))
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = _workspace[(key, role)] = np.empty(shape, dtype=dtype)
    return buf


# Output rows (samples times output positions) of one eval-mode
# convolution block. A block's patch matrix, kh*kw*ci floats a row, then
# stays near L2 size instead of growing with the batch. For every conv of
# the builtin schedules the blocks give the bits of one GEMM over the
# batch (the tests check each geometry); for some other shapes BLAS sums
# a block in another order.
_EVAL_ROWS = 1024


def _conv_forward(x, w, b, stride, padding, *, key=None):
    """Patch-matrix convolution, in blocks of samples.

    Returns (output, saved) where saved carries the materialized patch
    matrix so the backward pass reuses it for the weight gradient
    instead of re-extracting windows. With a ``key`` (the layer index in
    train mode) the whole batch is one block, whose padded input and
    patch matrix live in that layer's scratch buffers. Without one (eval
    mode) each block holds ``_EVAL_ROWS`` output rows' worth of samples,
    so no buffer grows with the batch; saved then carries the last
    block's patch matrix only.
    """
    kh, kw, ci, co = w.shape
    n, h, wd, _ = x.shape
    ph_lo, ph_hi, oh = _pad_spec(h, kh, stride, padding)
    pw_lo, pw_hi, ow = _pad_spec(wd, kw, stride, padding)
    pointwise = kh == 1 and kw == 1 and stride == 1
    rows = oh * ow
    # A pointwise conv reads its input as the patch matrix: nothing to bound.
    step = max(1, n if key is not None or pointwise else min(n, _EVAL_ROWS // rows))
    xp_shape = (n, h + ph_lo + ph_hi, wd + pw_lo + pw_hi, ci)
    if ph_lo or ph_hi or pw_lo or pw_hi:
        xp_block = _scratch(key, "xp", (step, *xp_shape[1:]), x.dtype)
        # Borders are zeroed on every call: a reused buffer may hold
        # another geometry's interior there. Blocks write only interiors.
        xp_block[:, :ph_lo] = xp_block[:, ph_lo + h:] = 0
        xp_block[:, :, :pw_lo] = xp_block[:, :, pw_lo + wd:] = 0
    else:
        xp_block = None
    if not pointwise:
        cols_block = _scratch(key, "cols", (step * rows, kh * kw * ci), x.dtype)
    w2 = w.reshape(-1, co)
    out = np.empty((n * rows, co), dtype=np.result_type(x.dtype, w.dtype))
    for start in range(0, max(n, 1), step):  # an empty batch is one empty block
        m = min(step, n - start)
        if xp_block is None:
            xp = x[start:start + m]
        else:
            xp = xp_block[:m]
            xp[:, ph_lo:ph_lo + h, pw_lo:pw_lo + wd] = x[start:start + m]
        if pointwise:
            cols = xp.reshape(m * rows, ci)  # no patch copy
        else:
            win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
            # (m, oh, ow, ci, kh, kw) -> rows ordered (kh, kw, ci) to match
            # w.reshape(kh*kw*ci, co).
            cols = cols_block[:m * rows]
            np.copyto(cols.reshape(m, oh, ow, kh, kw, ci), win.transpose(0, 1, 2, 4, 5, 3))
        np.matmul(cols, w2, out=out[start * rows:(start + m) * rows])
    out += b
    saved = (xp_shape, cols, (ph_lo, pw_lo), (oh, ow), key)
    return out.reshape(n, oh, ow, co), saved


def _conv_backward(g, w, stride, saved, x_shape, need_dx=True):
    xp_shape, cols, (ph_lo, pw_lo), (oh, ow), key = saved
    kh, kw, ci, co = w.shape
    n, h, wd, _ = x_shape
    g2 = g.reshape(-1, co)
    gw = (cols.T @ g2).reshape(kh, kw, ci, co)
    gb = g.sum(axis=(0, 1, 2), dtype=g.dtype)
    if not need_dx:
        return None, gw, gb

    dxp = _scratch(key, "dxp", xp_shape, g.dtype)
    if kh == 1 and kw == 1 and stride == 1:
        # Pointwise conv: the one kernel offset covers dxp exactly.
        np.matmul(g2, w[0, 0].T, out=dxp.reshape(-1, ci))
    else:
        # col2im one kernel offset at a time: each offset's GEMM adds back
        # into its source windows. Per offset the GEMM keeps the inner
        # dimension co, so its bits equal those of the whole
        # (n*oh*ow, kh*kw*ci) input-gradient GEMM for ci >= 2; at ci == 1
        # BLAS takes another kernel and the bits may differ. Only an input
        # conv has ci == 1 in the builtin schedules, and the lowest
        # trainable layer never computes dx.
        tmp = _scratch(key, "dx_offset", (n * oh * ow, ci), g.dtype)
        tmp4 = tmp.reshape(n, oh, ow, ci)
        dxp.fill(0)
        for u in range(kh):
            hi = u + (oh - 1) * stride + 1
            for v in range(kw):
                wi = v + (ow - 1) * stride + 1
                np.matmul(g2, w[u, v].T, out=tmp)
                dxp[:, u:hi:stride, v:wi:stride, :] += tmp4
    gx = dxp[:, ph_lo:ph_lo + h, pw_lo:pw_lo + wd, :]
    return np.ascontiguousarray(gx, dtype=g.dtype), gw, gb


def _maxpool_forward(x, window):
    """Non-overlapping max pooling, separable: the maximum along each
    window row, then down those row maxima. Max is exact, so each value
    equals the maximum over its whole window, signed zeros included;
    taking the columns first can give a zero of the other sign where +0.0
    and -0.0 tie. Always returns a new array."""
    n, h, w, c = x.shape
    oh, ow = h // window, w // window
    if window == 1:
        return x.copy()
    x = x[:, :oh * window, :ow * window]
    rows = np.maximum(x[:, :, 0::window], x[:, :, 1::window])
    for v in range(2, window):
        np.maximum(rows, x[:, :, v::window], out=rows)
    out = np.maximum(rows[:, 0::window], rows[:, 1::window])
    for u in range(2, window):
        np.maximum(out, rows[:, u::window], out=out)
    return out


def _maxpool_backward(g, x, out, window):
    """Route each output gradient to the first maximum of its window in
    row-major order, the element argmax picks. Later tied maxima and the
    rows/cols that floor pooling drops get +0.0."""
    oh, ow = out.shape[1:3]
    gx = np.empty(x.shape, dtype=g.dtype)
    gx[:, oh * window:] = 0
    gx[:, :, ow * window:] = 0
    # Gradients move as raw bits: bits times 1 are the gradient itself and
    # bits times 0 are +0.0, so every element of gx is exactly g or +0.0.
    bits = np.dtype(f"u{g.itemsize}")
    g_bits = g.view(bits)
    taken = np.zeros(out.shape, dtype=bool)
    hit = np.empty(out.shape, dtype=bool)
    for u in range(window):
        rows = slice(u, oh * window, window)
        for v in range(window):
            cols = slice(v, ow * window, window)
            np.equal(x[:, rows, cols, :], out, out=hit)
            np.greater(hit, taken, out=hit)  # a maximum no earlier element took
            np.multiply(g_bits, hit, out=gx[:, rows, cols, :].view(bits))
            taken |= hit
    return gx


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _check_batch(arch, x):
    # float32 is the working precision; float64 inputs are honored so the
    # same formulas can be verified at higher precision in tests.
    x = np.asarray(x)
    if x.dtype != np.float64:
        x = x.astype(DTYPE, copy=False)
    if x.shape[1:] != tuple(arch.input_shape):
        raise ConfigError(
            f"batch shape {x.shape[1:]} does not match model input {tuple(arch.input_shape)}")
    return x


def _run_layers(arch, params, x, mode, rng, upto, tape):
    """Forward through layers [0, upto); with a tape, appends one entry per
    layer: what its backward reads.

    ``fresh`` says whether ``a`` may be overwritten: this pass allocated
    it and no tape entry holds it (see the module docstring)."""
    a = x
    fresh = False
    for i in range(upto):
        spec = arch.layers[i]
        kind = spec.kind
        saved = None
        if kind in TRAINABLE_KINDS:
            p = params[i]
            if a.ndim != p.w.ndim or a.shape[-1] != p.w.shape[-2]:
                raise ConfigError(f"layer {i}: {kind} expects {p.w.shape[-2]} input "
                                  f"channels, got shape {a.shape[1:]}")
        if kind == "conv2d":
            out, conv_saved = _conv_forward(a, p.w, p.b, spec.stride, spec.padding,
                                            key=None if tape is None else i)
            saved = (a.shape, conv_saved)
            a = out
            fresh = True
        elif kind == "dense":
            saved = a
            a = a @ p.w
            a += p.b
            fresh = True
        elif kind == "relu":
            if tape is not None:
                saved = a > 0
            a = np.maximum(a, 0, out=a if fresh else None)
            fresh = True
        elif kind == "dropout":
            if mode == "train" and spec.rate > 0.0:
                if rng is None:
                    raise ConfigError("train-mode forward with dropout requires an rng")
                keep = rng.random(a.shape, dtype=np.float32) >= spec.rate
                # Each factor is 0 or the scale, so a * factor has the bits
                # of (a * keep) * scale, signed zeros and NaNs included.
                factor = keep.astype(a.dtype)
                factor *= a.dtype.type(1.0 / (1.0 - spec.rate))
                saved = factor
                a = np.multiply(a, factor, out=a if fresh else None)
                fresh = True
        elif kind == "maxpool":
            out = _maxpool_forward(a, spec.window)
            saved = (a, out)
            a = out
            fresh = tape is None  # the maxpool backward reads its output
        elif kind == "gap":
            saved = a.shape
            a = a.mean(axis=(1, 2), dtype=a.dtype)
            fresh = True
        elif kind == "flatten":
            saved = a.shape
            a = a.reshape(a.shape[0], -1)
        elif kind == "softmax":
            a = _softmax(a)
        else:
            raise ConfigError(f"layer {i}: unknown layer kind {kind!r}")
        if tape is not None:
            tape.append(saved)
    return a


def forward(arch: ModelArch, params: Params, batch: np.ndarray,
            mode: str = "eval", rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-class probabilities for a batch.

    In eval mode dropout is the identity and the result is a pure
    function of (arch, params, batch). Train mode additionally consumes
    dropout masks from ``rng``.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown forward mode {mode!r}")
    x = _check_batch(arch, batch)
    return _run_layers(arch, params, x, mode, rng, len(arch.layers), None)


def gradients(arch: ModelArch, params: Params, batch: np.ndarray, labels: np.ndarray,
              rng: np.random.Generator | None = None, mode: str = "train"):
    """Mean cross-entropy loss and its gradients for every trainable layer.

    Returns (loss, grads) with grads[i] = (gw, gb). The softmax and the
    cross-entropy are differentiated jointly for numerical stability.
    """
    x = _check_batch(arch, batch)
    labels = np.asarray(labels)
    n_classes = arch.num_classes
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ConfigError(f"labels must be integer class ids in [0, {n_classes})")
    if arch.layers[-1].kind != "softmax":
        raise ConfigError("final layer must be softmax")

    tape: list = []
    logits = _run_layers(arch, params, x, mode, rng, len(arch.layers) - 1, tape)

    n = x.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = float(-logp[np.arange(n), labels].mean())
    probs = np.exp(logp)

    g = probs.astype(x.dtype)
    g[np.arange(n), labels] -= 1.0
    g /= x.dtype.type(n)

    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    lowest = min(trainable_indices(arch))
    for i in range(len(arch.layers) - 2, -1, -1):
        spec = arch.layers[i]
        kind = spec.kind
        saved = tape[i]
        if i < lowest:
            break  # nothing below needs a gradient
        if kind == "conv2d":
            x_shape, conv_saved = saved
            g, gw, gb = _conv_backward(g, params[i].w, spec.stride, conv_saved,
                                       x_shape, need_dx=i > lowest)
            grads[i] = (gw, gb)
        elif kind == "dense":
            xin = saved
            gw = xin.T @ g
            gb = g.sum(axis=0, dtype=g.dtype)
            if i > lowest:
                g = g @ params[i].w.T
            grads[i] = (np.ascontiguousarray(gw), gb)
        elif kind == "relu":
            g *= saved
        elif kind == "dropout":
            if saved is not None:
                g *= saved
        elif kind == "maxpool":
            xin, out = saved
            g = _maxpool_backward(g, xin, out, spec.window)
        elif kind == "gap":
            x_shape = saved
            h, w = x_shape[1], x_shape[2]
            g = np.ascontiguousarray(np.broadcast_to(
                g[:, None, None, :] / g.dtype.type(h * w), x_shape))
        elif kind == "flatten":
            g = g.reshape(saved)
    return loss, grads


def backward_and_step(arch: ModelArch, params: Params, batch: np.ndarray,
                      labels: np.ndarray, cfg: TrainConfig,
                      rng: np.random.Generator | None = None):
    """One SGD step on a minibatch.

    Returns (updated params, mean loss before the step). Raises
    NumericalError if the loss is not finite.
    """
    loss, grads = gradients(arch, params, batch, labels, rng=rng, mode="train")
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite training loss {loss!r}")
    # Each gradient is a fresh array, so the step is written over it and it
    # becomes the new parameter; the caller's params are never written.
    lr = DTYPE(cfg.learning_rate)
    new_params: Params = {}
    for i, p in params.items():
        gw, gb = grads[i]
        new_params[i] = LayerParams(np.subtract(p.w, np.multiply(gw, lr, out=gw), out=gw),
                                    np.subtract(p.b, np.multiply(gb, lr, out=gb), out=gb))
    return new_params, loss
