"""Function-preserving model transforms.

Each transform converts the trained parameters of a model into
parameters of a strictly larger model that computes the same function in
eval mode. There is one per ``growth.TransformStep`` kind, each written
once for conv2d and dense layers (weights put inputs on axis -2 and
outputs on axis -1):

* ``widen`` (widen) replaces a conv/dense layer with a wider one. New
  channel ``j`` copies channel ``g[j]`` of the map ``g`` (identity on
  the original channels), and the next layer's incoming weights for a
  channel replicated ``c = bincount(g)`` times are divided by ``c`` so
  every replica group contributes exactly the original amount. The
  next layer's rows for ``g`` come from ``nn.next_inputs``.
* ``deepen`` (insert-identity) inserts an identity-initialized layer
  (a one at the centre of every kernel axis times the identity on the
  in/out axes) followed by a relu, which is exact because the insertion
  point carries nonnegative activations.
* ``split_pool`` (split-pool) rewrites one 4x4 max pool as two stacked
  2x2 pools, which is exact on extents divisible by 4 and opens an
  insertion slot between the pools.

``growth`` owns structure: each transform first calls the matching
``growth`` arch edit, which checks every structural precondition of its
step and raises TransformError when one fails. This module only moves
parameters. ``apply_diff`` composes the steps of a ``growth.diff_models``
result.
"""

from __future__ import annotations

import numpy as np

from . import growth, nn
from .errors import TransformError

__all__ = [
    "widen", "widen_with_mapping", "deepen", "split_pool", "apply_diff",
]


def _shift_params(params, at: int, arch, new_arch) -> dict[int, nn.LayerParams]:
    """Re-key ``arch``'s params after ``new_arch`` inserted layers at ``at``."""
    by = len(new_arch.layers) - len(arch.layers)
    return {(i + by if i >= at else i): p for i, p in params.items()}


def _widened_params(arch: nn.ModelArch, new_arch: nn.ModelArch, params: nn.Params,
                    layer: int, g: np.ndarray) -> nn.Params:
    """``params`` with the outputs of ``layer`` and the inputs of the next
    trainable layer replicated through the map ``g``."""
    nxt, rows = nn.next_inputs(arch, layer, g)
    div = np.bincount(g).astype(nn.DTYPE)[g]

    new_params = dict(params)
    p = params[layer]
    new_params[layer] = nn.LayerParams(p.w[..., g], p.b[g])

    # Incoming weights of the next trainable layer: replicated inputs are
    # divided by their replication count so each group sums to the original.
    q = params[nxt]
    new_w = q.w[..., rows, :] / np.tile(div, len(rows) // len(g))[:, None]
    new_params[nxt] = nn.LayerParams(new_w, q.b)
    return nn.pack(new_arch, new_params)


def widen_with_mapping(arch: nn.ModelArch, params: nn.Params, layer: int, g: np.ndarray):
    """Widen ``layer`` through the caller's map ``g`` (the deterministic
    core of ``widen``; tests use it to inject hand-chosen maps), which must
    be the identity on the layer's channels and copy only them."""
    new_arch = growth.widen_arch(arch, layer, len(g))
    old = arch.layers[layer].weight_shape[-1]
    if not (np.array_equal(g[:old], np.arange(old)) and ((g >= 0) & (g < old)).all()):
        raise TransformError(f"widen at layer {layer}: the map must be the identity on "
                             f"the {old} existing channels and copy only them")
    return new_arch, _widened_params(arch, new_arch, params, layer, g)


def widen(arch: nn.ModelArch, params: nn.Params, layer: int, new_width: int,
          rng: np.random.Generator):
    """Widen a hidden conv or dense layer to ``new_width`` outputs.

    Returns (new arch, new params, g): new channel j copies channel
    ``g[j]``, the identity on the original channels and drawn uniformly
    from ``rng`` for the new ones. Equal widths yield the identity map
    and unchanged parameters.
    """
    new_arch = growth.widen_arch(arch, layer, new_width)
    old = arch.layers[layer].weight_shape[-1]
    g = np.concatenate([np.arange(old), rng.integers(0, old, size=new_width - old)])
    return new_arch, _widened_params(arch, new_arch, params, layer, g), g


def deepen(arch: nn.ModelArch, params: nn.Params, position: int,
           spec: nn.LayerSpec):
    """Insert an identity-initialized block (``spec`` + relu + dropout).

    Its weight is zero except for the identity on the in/out axes at the
    centre of every kernel axis, so the layer copies its input and the
    block is exact on the nonnegative activations entering ``position``.
    """
    new_arch = growth.insert_identity_arch(arch, position, spec)
    *kernel, _, width = spec.weight_shape
    w = np.zeros(spec.weight_shape, dtype=nn.DTYPE)
    w[tuple(k // 2 for k in kernel)] = np.eye(width, dtype=nn.DTYPE)
    new_params = _shift_params(params, position, arch, new_arch)
    new_params[position] = nn.LayerParams(w, np.zeros(width, dtype=nn.DTYPE))
    return new_arch, nn.pack(new_arch, new_params)


def split_pool(arch: nn.ModelArch, params: nn.Params, position: int):
    """Replace a 4x4 max pool with two stacked 2x2 pools (exact), leaving
    an insertion slot between them."""
    new_arch = growth.split_pool_arch(arch, position)
    return new_arch, nn.pack(new_arch, _shift_params(params, position + 1, arch, new_arch))


def apply_diff(arch: nn.ModelArch, params: nn.Params,
               diff: tuple[growth.TransformStep, ...], rng: np.random.Generator):
    """Apply every step of a validated diff (see ``growth.diff_models``).

    Widen maps are drawn from ``rng`` in step order. Returns (new arch,
    new params, list of widen maps ``g``). This is the one place that
    maps a step kind to its transform.
    """
    maps: list[np.ndarray] = []
    for step in diff:
        if not 0 <= step.layer < len(arch.layers):
            raise TransformError(f"{step.kind} at layer {step.layer}: out of range")
        if step.kind == "split-pool":
            arch, params = split_pool(arch, params, step.layer)
        elif step.kind == "insert-identity":
            arch, params = deepen(arch, params, step.layer, step.spec)
        elif step.kind == "widen":
            arch, params, g = widen(arch, params, step.layer, step.width, rng)
            maps.append(g)
        else:
            raise TransformError(f"unknown diff step kind {step.kind!r}")
    return arch, params, maps
