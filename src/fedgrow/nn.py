"""Minimal deterministic CNN engine on float32 numpy arrays.

Supports exactly the layer kinds needed by the staged model families:
conv2d, dense, maxpool, global-average-pool, dropout, relu, softmax and
flatten. Activations are laid out as (batch, height, width, channels);
flattening is row-major over (height, width, channels). Trainable weights
put input channels on axis -2 and output channels on axis -1, for conv2d
(kh, kw, in, out) and dense (in, out) alike. Plain SGD with sparse
categorical cross-entropy is the only optimizer/loss pair.

A model's parameters have one layout: ``Params`` views one float32
vector of ``count_params(arch)`` elements as each trainable layer's
weight, then its bias, in layer order, with no padding. ``forward`` and
``gradients`` read any mapping of LayerParams; an SGD step returns a
plain dict whose arrays are the memory of the step's gradients.

Convolutions are patch-matrix GEMMs, one per ``_conv_forward`` call. In
train mode the call covers the whole batch, since the backward pass
reads its patch matrix. In eval mode a conv makes one call per row block
of about ``_EVAL_ROWS`` output positions' worth of samples
(``_eval_block``), and the conv stack, the layers before the first
flatten, gap or dense layer, runs a group of samples at a time: each
group goes through a chain of convs, relus, dropouts and maxpools
(``_eval_chains``) before it is written into the batch the next chain or
the first flatten, gap or dense layer reads. A group's size is a common
multiple of its convs' blocks, so every conv makes the same calls, of
the same samples, as over the whole batch, and a pool bounds what a
group holds. A batch's full patch matrix is never built, and a conv's
full-resolution output is held a group at a time. On the builtin
schedules the blocks give the bits of one whole-batch GEMM.

ReLU and dropout overwrite their input when the forward pass allocated
it and no tape entry holds it: the output of conv2d, dense, relu,
dropout or gap, and in eval mode (no tape) also of maxpool. They never
write the caller's batch, nor a train-mode maxpool output, which the
maxpool backward reads. None of this changes a bit of any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericalError

DTYPE = np.float32

# Dropout rate of the builtin schedules and of a model without dropout layers.
DEFAULT_DROPOUT = 0.125

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


class Params(dict):
    """Layer index -> LayerParams of ``arch``, views of the vector ``flat``
    (a zeroed one when None) in the layout above."""

    def __init__(self, arch: ModelArch, flat: np.ndarray | None = None):
        super().__init__()
        size = count_params(arch)
        if flat is None:
            flat = np.zeros(size, dtype=DTYPE)
        elif flat.shape != (size,) or flat.dtype != DTYPE:
            raise ConfigError(f"params need a ({size},) float32 vector, got "
                              f"{flat.shape} {flat.dtype}")
        self.arch, self.flat = arch, flat
        at = 0
        for i in trainable_indices(arch):
            shape = arch.layers[i].weight_shape
            w = flat[at:at + math.prod(shape)].reshape(shape)
            at += w.size
            self[i] = LayerParams(w, flat[at:at + shape[-1]])
            at += shape[-1]


@dataclass(frozen=True)
class TrainConfig:
    """Local SGD hyperparameters."""

    learning_rate: float
    batch_size: int = 10
    local_epochs: int = 1

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.batch_size < 1 or self.local_epochs < 1:
            raise ConfigError("batch size and local epochs must be >= 1")


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


def dropout_rate(arch: ModelArch) -> float:
    """The rate of the model's first dropout layer; ``DEFAULT_DROPOUT`` if none."""
    return next((s.rate for s in arch.layers if s.kind == "dropout"), DEFAULT_DROPOUT)


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
    params = Params(arch)
    for p in params.values():
        std = _init_std(scheme, math.prod(p.w.shape[:-1]))
        p.w[...] = _truncated_normal(rng, p.w.shape, std)
    return params


def pack(arch: ModelArch, layers, out: np.ndarray | None = None) -> Params:
    """``Params(arch, out)`` holding a copy of ``layers``, any mapping of
    LayerParams with ``arch``'s shapes."""
    params = Params(arch, out)
    for i, p in params.items():
        p.w[...] = layers[i].w
        p.b[...] = layers[i].b
    return params


def copy_params(params: Params) -> Params:
    return Params(params.arch, params.flat.copy())


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
    """Patch-matrix convolution of ``x`` as one GEMM.

    Returns (output, saved) where saved carries the materialized patch
    matrix so the backward pass reuses it for the weight gradient
    instead of re-extracting windows. With a ``key`` (the layer index in
    train mode) the padded input and patch matrix live in that layer's
    scratch buffers; without one (eval mode, one row block of samples at
    a time, see ``_eval_block``) they are fresh.
    """
    kh, kw, ci, co = w.shape
    n, h, wd, _ = x.shape
    ph_lo, ph_hi, oh = _pad_spec(h, kh, stride, padding)
    pw_lo, pw_hi, ow = _pad_spec(wd, kw, stride, padding)
    xp_shape = (n, h + ph_lo + ph_hi, wd + pw_lo + pw_hi, ci)
    if ph_lo or ph_hi or pw_lo or pw_hi:
        xp = _scratch(key, "xp", xp_shape, x.dtype)
        # Borders are zeroed on every call: a reused buffer may hold
        # another geometry's interior there.
        xp[:, :ph_lo] = xp[:, ph_lo + h:] = 0
        xp[:, :, :pw_lo] = xp[:, :, pw_lo + wd:] = 0
        xp[:, ph_lo:ph_lo + h, pw_lo:pw_lo + wd] = x
    else:
        xp = x
    if kh == 1 and kw == 1 and stride == 1:
        cols = xp.reshape(n * oh * ow, ci)  # pointwise: no patch copy
    else:
        win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        # (n, oh, ow, ci, kh, kw) -> rows ordered (kh, kw, ci) to match
        # w.reshape(kh*kw*ci, co).
        cols = _scratch(key, "cols", (n * oh * ow, kh * kw * ci), x.dtype)
        np.copyto(cols.reshape(n, oh, ow, kh, kw, ci), win.transpose(0, 1, 2, 4, 5, 3))
    out = cols @ w.reshape(-1, co)
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


def _eval_block(spec, hw, n):
    """Samples per ``_conv_forward`` call of eval-mode conv ``spec`` on an
    ``hw`` input in a batch of ``n``: about ``_EVAL_ROWS`` output
    positions' worth, and the whole batch for a pointwise conv, which
    reads its input as the patch matrix."""
    kh, kw = spec.weight_shape[:2]
    if kh == kw == 1 and spec.stride == 1:
        return max(1, n)
    rows = math.prod(_conv_out(size, k, spec.stride, spec.padding)
                     for size, k in zip(hw, (kh, kw)))
    return max(1, min(n, _EVAL_ROWS // rows))


def _eval_chains(arch, n, upto):
    """Cut the eval-mode conv stack of a batch of ``n`` into chains.

    The stack is layers [0, end), up to the first layer before ``upto``
    that is not conv2d, relu, dropout or maxpool (the first flatten, gap
    or dense layer of a valid model). A chain runs ``group`` samples at a
    time through its layers; ``group`` is the least common multiple of
    its convs' ``_eval_block`` sizes, so every group starts on a block
    start of each of them. A chain ends before a conv that would lift
    that multiple to the batch or past 16 of the chain's first block, so
    a group's first conv output stays near 16 blocks; a group of ``n`` or
    more is the whole batch. Returns ([(first, stop, group), ...], end).
    """
    shapes = [tuple(arch.input_shape), *infer_shapes(arch)]
    chains = [[0, n, 0]]  # first layer, group, first block (0: no conv yet)
    end = 0
    while end < upto and arch.layers[end].kind in ("conv2d", "relu", "dropout", "maxpool"):
        spec = arch.layers[end]
        if spec.kind == "conv2d":
            block = _eval_block(spec, shapes[end][:2], n)
            _, group, lead = chains[-1]
            if not lead:
                chains[-1][1:] = block, block
            elif (both := math.lcm(group, block)) < n and both <= 16 * lead:
                chains[-1][1] = both
            else:
                chains.append([end, block, block])
        end += 1
    stops = [first for first, _, _ in chains[1:]] + [end]
    return [(first, stop, group) for (first, group, _), stop in zip(chains, stops)], end


def _by_parts(fn, x, step):
    """``fn`` over ``x`` ``step`` samples at a time, the parts written into
    one batch output; ``fn(x)`` itself when one part covers ``x``."""
    n = x.shape[0]
    if n <= step:
        return fn(x)
    out = None
    for start in range(0, n, step):
        part = fn(x[start:start + step])
        if out is None:
            out = np.empty((n, *part.shape[1:]), dtype=part.dtype)
        out[start:start + step] = part
    return out


def _eval_chain(arch, params, x, first, stop, n):
    """Eval-mode forward of one group of samples through layers
    [first, stop) of a batch of ``n``."""
    a, fresh = x, False
    for i in range(first, stop):
        a, fresh = _layer_forward(arch, params, i, a, fresh, None, None, n)
    return a


def _layer_forward(arch, params, i, a, fresh, rng, tape, n):
    """Forward of ``a`` through ``arch.layers[i]``; returns (output,
    fresh). ``fresh`` says whether ``a`` may be overwritten: this pass
    allocated it and no tape entry holds it (see the module docstring).
    With a tape (train mode) dropout draws its mask from ``rng`` and the
    layer appends what its backward reads. Without one dropout is the
    identity and a conv makes one ``_conv_forward`` call per
    ``_eval_block`` of a batch of ``n``."""
    spec = arch.layers[i]
    kind = spec.kind
    saved = None
    if kind in TRAINABLE_KINDS:
        p = params[i]
        if a.ndim != p.w.ndim or a.shape[-1] != p.w.shape[-2]:
            raise ConfigError(f"layer {i}: {kind} expects {p.w.shape[-2]} input "
                              f"channels, got shape {a.shape[1:]}")
    if kind == "conv2d" and tape is None:
        a = _by_parts(lambda block: _conv_forward(block, p.w, p.b, spec.stride,
                                                  spec.padding)[0],
                      a, _eval_block(spec, a.shape[1:3], n))
        fresh = True
    elif kind == "conv2d":
        out, conv_saved = _conv_forward(a, p.w, p.b, spec.stride, spec.padding, key=i)
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
        if tape is not None and spec.rate > 0.0:
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
        a = a.reshape(a.shape[0], math.prod(a.shape[1:]))
    elif kind == "softmax":
        a = _softmax(a)
    else:
        raise ConfigError(f"layer {i}: unknown layer kind {kind!r}")
    if tape is not None:
        tape.append(saved)
    return a, fresh


def _run_layers(arch, params, x, rng, upto, tape):
    """Forward through layers [0, upto). A pass with a tape is in train
    mode (dropout masks from ``rng``) and appends one entry per layer:
    what its backward reads. Without a tape the conv stack
    (``_eval_chains``) runs one group of samples at a time, each group
    through a whole chain of layers, and the layers after it see the
    whole batch."""
    n = x.shape[0]
    a, i = x, 0
    if tape is None:
        chains, i = _eval_chains(arch, n, upto)
        for first, stop, group in chains:
            a = _by_parts(lambda part: _eval_chain(arch, params, part, first, stop, n),
                          a, group)
    # The stack hands back the caller's batch only when it is all dropout.
    fresh = a is not x
    for i in range(i, upto):
        a, fresh = _layer_forward(arch, params, i, a, fresh, rng, tape, n)
    return a


def forward(arch: ModelArch, params: Params, batch: np.ndarray) -> np.ndarray:
    """Per-class probabilities for a batch, in eval mode: dropout is the
    identity and the result is a pure function of (arch, params, batch).
    Only an SGD step's taped pass (``gradients``) draws dropout masks."""
    return _run_layers(arch, params, _check_batch(arch, batch), None, len(arch.layers), None)


def gradients(arch: ModelArch, params: Params, batch: np.ndarray, labels: np.ndarray,
              rng: np.random.Generator | None = None):
    """Mean cross-entropy loss and its gradients for every trainable layer,
    from a train-mode pass (dropout masks from ``rng``).

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
    logits = _run_layers(arch, params, x, rng, len(arch.layers) - 1, tape)

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
    loss, grads = gradients(arch, params, batch, labels, rng=rng)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite training loss {loss!r}")
    # Each gradient is a fresh array, so the step is written over it and it
    # becomes the new parameter; the caller's params are never written.
    lr = DTYPE(cfg.learning_rate)
    new_params: dict[int, LayerParams] = {}
    for i, p in params.items():
        gw, gb = grads[i]
        new_params[i] = LayerParams(np.subtract(p.w, np.multiply(gw, lr, out=gw), out=gw),
                                    np.subtract(p.b, np.multiply(gb, lr, out=gb), out=gb))
    return new_params, loss
