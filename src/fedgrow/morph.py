"""Function-preserving model transforms.

Each transform converts the trained parameters of a model into
parameters of a strictly larger model that computes the same function in
eval mode:

* ``widen`` replaces a conv/dense layer with a wider one. New output
  channels copy randomly chosen existing ones through a mapping ``g``
  (identity on the original channels), and the next layer's incoming
  weights for a channel replicated ``c`` times are divided by ``c`` so
  every replica group contributes exactly the original amount.
* ``deepen_conv`` / ``deepen_dense`` insert an identity-initialized
  layer (center-spike kernel or identity matrix) followed by a relu,
  which is exact because the insertion point carries nonnegative
  activations.
* ``split_pool`` rewrites one 4x4 max pool as two stacked 2x2 pools,
  which is exact on extents divisible by 4 and opens an insertion slot
  between the pools.

``apply_diff`` composes the steps of a growth.ModelDiff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import TransformError
from .growth import WIDEN_STEP, ModelDiff, TransformStep, apply_step_to_arch

__all__ = [
    "WidenMapping", "widen", "deepen_conv", "deepen_dense", "split_pool",
    "apply_diff",
]


@dataclass(frozen=True)
class WidenMapping:
    """Channel mapping used by one widening.

    ``mapping[j]`` is the source channel copied into new channel ``j``;
    it is the identity for the original channels. ``counts[q]`` is the
    number of new-model channels that point at source channel ``q``.
    """

    layer: int
    mapping: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        old = len(self.counts)
        if not np.array_equal(self.mapping[:old], np.arange(old)):
            raise TransformError("widen mapping must be the identity on existing channels")
        if self.counts.sum() != len(self.mapping) or (self.counts < 1).any():
            raise TransformError("widen mapping replication counts are inconsistent")


def sample_mapping(layer: int, old_width: int, new_width: int,
                   rng: np.random.Generator) -> WidenMapping:
    """Identity prefix plus uniformly sampled sources for the new channels."""
    extra = rng.integers(0, old_width, size=new_width - old_width)
    mapping = np.concatenate([np.arange(old_width), extra])
    counts = np.bincount(mapping, minlength=old_width)
    return WidenMapping(layer, mapping, counts)


def _shift_params(params: nn.Params, at: int, by: int) -> nn.Params:
    """Re-key params after layers were inserted at index ``at``."""
    return {(i + by if i >= at else i): p for i, p in params.items()}


def _find_next_trainable(arch: nn.ModelArch, layer: int) -> int:
    nxt = nn.next_trainable(arch, layer)
    if nxt is None:
        raise TransformError(
            f"layer {layer}: no trainable layer follows; widening the final "
            "classification layer is unsupported")
    return nxt


def widen_with_mapping(arch: nn.ModelArch, params: nn.Params,
                       mapping: WidenMapping):
    """Widen using a caller-provided mapping (the deterministic core of
    ``widen``; tests use it to inject hand-chosen mappings)."""
    layer = mapping.layer
    spec = arch.layers[layer]
    if spec.kind not in nn.TRAINABLE_KINDS:
        raise TransformError(f"layer {layer}: only conv/dense layers can be widened")
    old_width = spec.weight_shape[-1]
    new_width = len(mapping.mapping)
    if new_width < old_width:
        raise TransformError(f"layer {layer}: new width {new_width} is narrower "
                             f"than current width {old_width}")
    nxt = _find_next_trainable(arch, layer)

    g = mapping.mapping
    div = mapping.counts.astype(nn.DTYPE)[g]

    new_params = nn.copy_params(params)
    p = params[layer]
    new_params[layer] = nn.LayerParams(p.w[..., g].copy(), p.b[g].copy())

    # Incoming weights of the next trainable layer: replicated inputs are
    # divided by their replication count so each group sums to the original.
    q = params[nxt]
    *kernel, next_in, next_out = q.w.shape
    if next_in % old_width:
        raise TransformError(
            f"layer {nxt}: input size {next_in} is not a multiple of the "
            f"widened width {old_width}")
    # Spatial positions per channel: H*W across a flatten, else 1. Row-major
    # flatten puts spatial position p, channel c at input p * channels + c.
    ratio = next_in // old_width
    per_pos = q.w.reshape(*kernel, ratio, old_width, next_out)
    new_w = (per_pos[..., g, :] / div[:, None]).reshape(
        *kernel, ratio * new_width, next_out)
    new_params[nxt] = nn.LayerParams(new_w.astype(nn.DTYPE), q.b.copy())

    # Structural update via the shared step machinery keeps arch and params
    # edits in one place each.
    new_arch = apply_step_to_arch(
        arch, TransformStep(WIDEN_STEP[spec.kind], layer, new_width=new_width))
    nn.validate_arch(new_arch)
    return new_arch, new_params


def widen(arch: nn.ModelArch, params: nn.Params, layer: int, new_width: int,
          rng: np.random.Generator):
    """Widen a hidden conv or dense layer to ``new_width`` outputs.

    Returns (new arch, new params, WidenMapping). Equal widths yield the
    identity mapping and unchanged parameters.
    """
    spec = arch.layers[layer]
    if spec.kind not in nn.TRAINABLE_KINDS:
        raise TransformError(f"layer {layer}: only conv/dense layers can be widened")
    old_width = spec.weight_shape[-1]
    if new_width < old_width:
        raise TransformError(f"layer {layer}: cannot shrink {old_width} -> {new_width}")
    mapping = sample_mapping(layer, old_width, new_width, rng)
    new_arch, new_params = widen_with_mapping(arch, params, mapping)
    return new_arch, new_params, mapping


def _check_nonneg_insertion_point(arch: nn.ModelArch, position: int) -> None:
    """Identity-plus-relu insertion preserves the function only on
    nonnegative inputs: walk back through dropout/pool and require a relu."""
    j = position - 1
    while j >= 0 and arch.layers[j].kind in ("dropout", "maxpool"):
        j -= 1
    if j < 0 or arch.layers[j].kind != "relu":
        raise TransformError(
            f"position {position}: insertion point may carry negative activations "
            "(no preceding relu)")


def deepen_conv(arch: nn.ModelArch, params: nn.Params, position: int,
                channels: int, kernel: int):
    """Insert an identity-initialized conv block (conv + relu + dropout).

    The kernel is zero except for a one at the spatial center on each
    matching in/out channel pair, so the block is exact on the
    nonnegative activations guaranteed by the insertion point.
    """
    if kernel % 2 == 0:
        raise TransformError(f"identity conv kernel must be odd, got {kernel}")
    incoming = nn.shape_before(arch, position)
    if len(incoming) != 3:
        raise TransformError(f"position {position}: conv insertion needs a spatial input")
    if incoming[2] != channels:
        raise TransformError(
            f"position {position}: identity conv needs {incoming[2]} channels, "
            f"got {channels}")
    _check_nonneg_insertion_point(arch, position)

    new_arch = apply_step_to_arch(
        arch, TransformStep("insert-conv-identity", position,
                            channels=channels, kernel=kernel))
    nn.validate_arch(new_arch)
    w = np.zeros((kernel, kernel, channels, channels), dtype=nn.DTYPE)
    center = kernel // 2
    w[center, center, np.arange(channels), np.arange(channels)] = 1.0
    new_params = _shift_params(nn.copy_params(params), position, 3)
    new_params[position] = nn.LayerParams(w, np.zeros(channels, dtype=nn.DTYPE))
    return new_arch, new_params


def deepen_dense(arch: nn.ModelArch, params: nn.Params, position: int, units: int):
    """Insert an identity-matrix dense block (dense + relu + dropout)."""
    incoming = nn.shape_before(arch, position)
    if len(incoming) != 1:
        raise TransformError(f"position {position}: dense insertion needs a flat input")
    if incoming[0] != units:
        raise TransformError(
            f"position {position}: identity dense needs {incoming[0]} units, got {units}")
    _check_nonneg_insertion_point(arch, position)

    new_arch = apply_step_to_arch(
        arch, TransformStep("insert-dense-identity", position, units=units))
    nn.validate_arch(new_arch)
    new_params = _shift_params(nn.copy_params(params), position, 3)
    new_params[position] = nn.LayerParams(np.eye(units, dtype=nn.DTYPE),
                                          np.zeros(units, dtype=nn.DTYPE))
    return new_arch, new_params


def split_pool(arch: nn.ModelArch, params: nn.Params, position: int):
    """Replace a 4x4 max pool with two stacked 2x2 pools (exact), leaving
    an insertion slot between them."""
    spec = arch.layers[position]
    if spec.kind != "maxpool" or spec.window != 4:
        raise TransformError(f"position {position}: split-pool needs a 4x4 maxpool")
    shape = nn.shape_before(arch, position)
    if shape[0] % 4 or shape[1] % 4:
        raise TransformError(
            f"position {position}: spatial extents {shape[:2]} not divisible by 4")
    new_arch = apply_step_to_arch(arch, TransformStep("split-pool", position))
    nn.validate_arch(new_arch)
    return new_arch, _shift_params(nn.copy_params(params), position + 1, 1)


def apply_diff(arch: nn.ModelArch, params: nn.Params, diff: ModelDiff,
               rng: np.random.Generator):
    """Apply every step of a validated diff.

    Widen mappings are sampled from ``rng`` in step order. Returns
    (new arch, new params, list of WidenMapping).
    """
    mappings: list[WidenMapping] = []
    cur_arch, cur_params = arch, params
    for step in diff.steps:
        if step.kind == "split-pool":
            cur_arch, cur_params = split_pool(cur_arch, cur_params, step.layer)
        elif step.kind == "insert-conv-identity":
            cur_arch, cur_params = deepen_conv(cur_arch, cur_params, step.layer,
                                               step.channels, step.kernel)
        elif step.kind == "insert-dense-identity":
            cur_arch, cur_params = deepen_dense(cur_arch, cur_params, step.layer,
                                                step.units)
        elif step.kind in ("widen-conv", "widen-dense"):
            cur_arch, cur_params, mapping = widen(cur_arch, cur_params, step.layer,
                                                  step.new_width, rng)
            mappings.append(mapping)
        else:
            raise TransformError(f"unknown diff step kind {step.kind!r}")
    return cur_arch, cur_params, mappings
