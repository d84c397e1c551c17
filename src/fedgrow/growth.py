"""Staged model schedules: ordered architectures, switch thresholds, diffs.

A schedule is an ordered list of strictly growing architectures plus one
switch threshold per consecutive pair. The builtin schedules cover three
image benchmarks; custom schedules load from a JSON file with the same
shape (see ``schedule_from_dict`` for the format).

``diff_models`` turns one architecture into the next as a tuple of
``TransformStep``s of three kinds, split-pool, insert-identity and widen,
each defined once for conv2d and dense layers. This module owns structure:
each kind has one arch edit (``split_pool_arch``, ``insert_identity_arch``,
``widen_arch``) that checks every structural precondition of its step, and
``apply_step_to_arch`` replays a step through it. ``morph`` calls the same
edits and then only moves trained parameters, so a diff that
``diff_models`` accepts applies at every switch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import nn
from .errors import ConfigError, ScheduleError, TransformError

# Switch thresholds, learning rates and clients per round for the builtin
# benchmark setups.
THRESHOLDS = {
    "emnist": (0.08, 0.04, 0.02, 0.01, 0.005),
    "cifar10": (0.12, 0.11, 0.10, 0.09, 0.08),
    "mnist": (0.04, 0.02, 0.01, 0.005, 0.0025),
}
LEARNING_RATES = {"emnist": 0.035, "cifar10": 0.05, "mnist": 0.015}
CLIENTS_PER_ROUND = {"emnist": 35, "cifar10": 10, "mnist": 10}

DEFAULT_DROPOUT = 0.125

@dataclass(frozen=True)
class GrowthSchedule:
    """Ordered model sequence with per-switch thresholds."""

    dataset: str
    models: tuple[nn.ModelArch, ...]
    thresholds: tuple[float, ...]

    @property
    def num_models(self) -> int:
        return len(self.models)


@dataclass(frozen=True)
class TransformStep:
    """One function-preserving structural edit of an architecture.

    A diff is a tuple of steps applied in order, so each ``layer`` index
    refers to the architecture produced by the preceding steps. The same
    three kinds cover conv2d and dense layers alike:

      split-pool(layer)             4x4 maxpool -> two 2x2 maxpools
      insert-identity(layer, spec)  insert the square conv2d or dense layer
                                    ``spec`` (plus relu and dropout) at
                                    ``layer``, initialized as the identity
      widen(layer, width)           give the conv2d or dense layer at
                                    ``layer`` ``width`` outputs
    """

    kind: str
    layer: int
    width: int = 0
    spec: nn.LayerSpec | None = None


# ---------------------------------------------------------------------------
# Architecture builders
#
# Every conv and dense layer except the final classifier is followed by a
# relu and a dropout layer; the classifier is followed by softmax. A
# flatten layer is inserted automatically when a dense layer follows a
# spatial one.


def build_arch(input_shape, tokens, dropout_rate: float = DEFAULT_DROPOUT,
               name: str = "") -> nn.ModelArch:
    """Assemble a full architecture from compact layer tokens.

    Tokens: ("conv", out_channels, kernel_side), ("pool", window),
    ("dense", units), ("gap",). The last dense token is the classifier.
    """
    layers: list[nn.LayerSpec] = []
    cur = tuple(input_shape)
    last_dense = max((i for i, t in enumerate(tokens) if t[0] == "dense"), default=-1)
    for ti, tok in enumerate(tokens):
        kind = tok[0]
        if kind == "conv":
            _, out_ch, k = tok
            if len(cur) != 3:
                raise ConfigError(f"token {ti}: conv after flat shape {cur}")
            layers.append(nn.conv2d(nn.KernelShape(k, k, cur[2], out_ch)))
            layers.extend((nn.relu(), nn.dropout(dropout_rate)))
            cur = (cur[0], cur[1], out_ch)
        elif kind == "pool":
            _, window = tok
            layers.append(nn.maxpool(window))
            cur = (cur[0] // window, cur[1] // window, cur[2])
        elif kind == "gap":
            layers.append(nn.global_avg_pool())
            cur = (cur[2],)
        elif kind == "dense":
            _, units = tok
            if len(cur) == 3:
                layers.append(nn.flatten())
                cur = (cur[0] * cur[1] * cur[2],)
            layers.append(nn.dense(cur[0], units))
            if ti == last_dense:
                layers.append(nn.softmax())
            else:
                layers.extend((nn.relu(), nn.dropout(dropout_rate)))
            cur = (units,)
        else:
            raise ConfigError(f"token {ti}: unknown token kind {kind!r}")
    arch = nn.ModelArch(tuple(input_shape), tuple(layers), name=name)
    nn.validate_arch(arch)
    return arch


def _mnist_family_tokens(classes: int, fc_units):
    """Six-model token rows shared by the two 28x28 grayscale benchmarks."""
    u1, u2, u3, u4, u5, u6 = fc_units
    return [
        [("conv", 16, 5), ("pool", 4), ("dense", u1), ("dense", classes)],
        [("conv", 32, 5), ("pool", 4), ("dense", u2), ("dense", classes)],
        [("conv", 32, 5), ("pool", 2), ("conv", 32, 5), ("pool", 2),
         ("dense", u3), ("dense", classes)],
        [("conv", 32, 5), ("pool", 2), ("conv", 64, 5), ("pool", 2),
         ("dense", u4), ("dense", classes)],
        [("conv", 32, 5), ("pool", 2), ("conv", 64, 5), ("pool", 2),
         ("dense", u5), ("dense", classes)],
        [("conv", 32, 5), ("pool", 2), ("conv", 64, 5), ("pool", 2),
         ("dense", u6), ("dense", classes)],
    ]


def _cifar_tokens():
    # The trailing 10-channel conv ahead of global average pooling uses a
    # 1x1 kernel in every model, as does the conv inserted last; with 3x3
    # kernels there the published per-model parameter counts cannot be
    # reproduced.
    return [
        [("conv", 32, 3), ("pool", 3), ("conv", 64, 3), ("pool", 3),
         ("conv", 10, 1), ("gap",), ("dense", 10)],
        [("conv", 32, 3), ("conv", 32, 3), ("pool", 3), ("conv", 64, 3),
         ("conv", 64, 3), ("pool", 3), ("conv", 10, 1), ("gap",), ("dense", 10)],
        [("conv", 64, 3), ("conv", 64, 3), ("pool", 3), ("conv", 128, 3),
         ("conv", 128, 3), ("pool", 3), ("conv", 10, 1), ("gap",), ("dense", 10)],
        [("conv", 96, 3), ("conv", 96, 3), ("pool", 3), ("conv", 192, 3),
         ("conv", 192, 3), ("pool", 3), ("conv", 10, 1), ("gap",), ("dense", 10)],
        [("conv", 96, 3), ("conv", 96, 3), ("pool", 3), ("conv", 192, 3),
         ("conv", 192, 3), ("pool", 3), ("conv", 192, 3), ("conv", 10, 1),
         ("gap",), ("dense", 10)],
        [("conv", 96, 3), ("conv", 96, 3), ("pool", 3), ("conv", 192, 3),
         ("conv", 192, 3), ("pool", 3), ("conv", 192, 3), ("conv", 192, 1),
         ("conv", 10, 1), ("gap",), ("dense", 10)],
    ]


def builtin_schedule(dataset: str, dropout_rate: float = DEFAULT_DROPOUT) -> GrowthSchedule:
    """The six-model growth schedule for a builtin dataset tag."""
    if dataset == "emnist":
        rows = _mnist_family_tokens(62, (512, 512, 512, 512, 1024, 2048))
        shape = (28, 28, 1)
    elif dataset == "mnist":
        rows = _mnist_family_tokens(10, (128, 128, 128, 128, 256, 512))
        shape = (28, 28, 1)
    elif dataset == "cifar10":
        rows = _cifar_tokens()
        shape = (32, 32, 3)
    else:
        raise ConfigError(f"unknown dataset tag {dataset!r}")
    models = tuple(
        build_arch(shape, row, dropout_rate, name=f"{dataset}-model-{i + 1}")
        for i, row in enumerate(rows))
    schedule = GrowthSchedule(dataset, models, THRESHOLDS[dataset])
    validate_schedule(schedule)
    return schedule


# ---------------------------------------------------------------------------
# Architecture edits
#
# One edit per transform-step kind. Each is the single place that checks its
# step's structural preconditions: it raises TransformError when one fails
# and returns an architecture that passed ``nn.validate_arch``.


def split_pool_arch(arch: nn.ModelArch, layer: int) -> nn.ModelArch:
    """Replace the 4x4 maxpool at ``layer`` with two 2x2 maxpools, which
    is exact on spatial extents divisible by 4."""
    spec = arch.layers[layer]
    if spec.kind != "maxpool" or spec.window != 4:
        raise TransformError(f"split-pool at layer {layer}: expected a 4x4 maxpool")
    extents = nn.shape_before(arch, layer)[:2]
    if extents[0] % 4 or extents[1] % 4:
        raise TransformError(f"split-pool at layer {layer}: spatial extents "
                             f"{extents} not divisible by 4")
    new_arch = arch.with_layers(arch.layers[:layer] + (nn.maxpool(2), nn.maxpool(2))
                                + arch.layers[layer + 1:])
    nn.validate_arch(new_arch)
    return new_arch


def insert_identity_arch(arch: nn.ModelArch, layer: int,
                         spec: nn.LayerSpec) -> nn.ModelArch:
    """Insert ``spec`` followed by relu and dropout at ``layer``.

    ``spec`` must be a square conv2d or dense layer as wide as the
    activations entering ``layer`` that can start as the identity (odd
    kernel sides, same padding, stride 1), and ``layer`` must carry
    nonnegative activations, which makes the identity plus relu exact.
    """
    width = nn.shape_before(arch, layer)[-1]
    *kernel, n_in, n_out = spec.weight_shape
    if (n_in, n_out) != (width, width):
        raise TransformError(
            f"insert-identity at layer {layer}: identity {spec.kind} needs width "
            f"{width} in and out, got {n_in} -> {n_out}")
    if any(k % 2 == 0 for k in kernel) or (spec.padding, spec.stride) != ("same", 1):
        raise TransformError(
            f"insert-identity at layer {layer}: an inserted {spec.kind} cannot start "
            f"as the identity without an odd kernel, same padding and stride 1 "
            f"(got kernel {kernel}, {spec.padding} padding, stride {spec.stride})")
    # Walk back through dropout, pooling and flattening, which keep signs,
    # to a relu.
    j = layer - 1
    while j >= 0 and arch.layers[j].kind in ("dropout", "maxpool", "flatten", "gap"):
        j -= 1
    if j < 0 or arch.layers[j].kind != "relu":
        raise TransformError(
            f"insert-identity at layer {layer}: insertion point may carry negative "
            "activations (no preceding relu)")
    block = (spec, nn.relu(), nn.dropout(_nearest_dropout_rate(arch)))
    new_arch = arch.with_layers(arch.layers[:layer] + block + arch.layers[layer:])
    nn.validate_arch(new_arch)
    return new_arch


def widen_arch(arch: nn.ModelArch, layer: int, width: int) -> nn.ModelArch:
    """Give the conv2d or dense layer at ``layer`` ``width`` outputs (no
    fewer than it has) and resize the inputs of the next trainable layer,
    which must exist, to match."""
    layers = list(arch.layers)
    spec = layers[layer]
    if spec.kind not in nn.TRAINABLE_KINDS:
        raise TransformError(f"widen at layer {layer}: found a {spec.kind} layer")
    in_width, old_width = spec.weight_shape[-2:]
    if width < old_width:
        raise TransformError(f"widen at layer {layer}: cannot shrink "
                             f"{old_width} -> {width}")
    nxt = nn.next_trainable(arch, layer)
    if nxt is None:
        raise TransformError(
            f"widen at layer {layer}: no trainable layer follows; widening the "
            "final classification layer is unsupported")
    layers[layer] = spec.with_widths(in_width, width)
    # The receiving layer sees `ratio` inputs per channel of the widened
    # layer: 1 when directly adjacent or across gap, H*W across flatten.
    nspec = layers[nxt]
    next_in_old, next_out = nspec.weight_shape[-2:]
    ratio = next_in_old // old_width
    layers[nxt] = nspec.with_widths(ratio * width, next_out)
    new_arch = arch.with_layers(layers)
    nn.validate_arch(new_arch)
    return new_arch


def apply_step_to_arch(arch: nn.ModelArch, step: TransformStep) -> nn.ModelArch:
    """Apply one step structurally (specs only, no parameters). A step that
    cannot apply raises ScheduleError naming its layer."""
    i = step.layer
    if not 0 <= i < len(arch.layers):
        raise ScheduleError(f"step {step.kind}: layer index {i} out of range")
    try:
        if step.kind == "split-pool":
            return split_pool_arch(arch, i)
        if step.kind == "insert-identity":
            return insert_identity_arch(arch, i, step.spec)
        if step.kind == "widen":
            return widen_arch(arch, i, step.width)
    except TransformError as e:
        raise ScheduleError(str(e)) from e
    except ConfigError as e:
        raise ScheduleError(f"{step.kind} at layer {i}: {e}") from e
    raise ScheduleError(f"unknown transform step kind {step.kind!r}")


# ---------------------------------------------------------------------------
# Structural diffing


def _nearest_dropout_rate(arch: nn.ModelArch) -> float:
    for spec in arch.layers:
        if spec.kind == "dropout":
            return spec.rate
    return DEFAULT_DROPOUT


def _structurally_same(a: nn.LayerSpec, b: nn.LayerSpec) -> bool:
    """Kind-level match ignoring layer widths (which widening changes)."""
    if a.kind != b.kind:
        return False
    if a.kind in nn.TRAINABLE_KINDS:
        return a.with_widths(1, 1) == b.with_widths(1, 1)
    return a.window == b.window


def _feeds_softmax(arch: nn.ModelArch, i: int) -> bool:
    return i + 1 < len(arch.layers) and arch.layers[i + 1].kind == "softmax"


def _first_structural_mismatch(cur: nn.ModelArch, target: nn.ModelArch):
    # The classifier (the layer feeding softmax) only matches the target's
    # classifier, so an extra hidden dense layer in the target is seen as
    # an insertion ahead of it.
    for i, (a, b) in enumerate(zip(cur.layers, target.layers)):
        if not _structurally_same(a, b) or \
                _feeds_softmax(cur, i) != _feeds_softmax(target, i):
            return i
    if len(cur.layers) != len(target.layers):
        return min(len(cur.layers), len(target.layers))
    return None


def diff_models(a: nn.ModelArch, b: nn.ModelArch) -> tuple[TransformStep, ...]:
    """Transform steps that turn architecture ``a`` into ``b``.

    Emits pool splits first, then identity insertions, then widenings.
    Every step is replayed through its arch edit, which checks the step's
    preconditions, so a diff returned here applies to trained parameters.
    Raises ScheduleError when ``b`` is not reachable.
    """
    if tuple(a.input_shape) != tuple(b.input_shape):
        raise ScheduleError("models have different input shapes")
    steps: list[TransformStep] = []
    cur = a

    # Pool splits: a 4x4 pool in `cur` facing a 2x2 pool in `b`.
    while (i := _first_structural_mismatch(cur, b)) is not None and \
            i < min(len(cur.layers), len(b.layers)):
        ca, cb = cur.layers[i], b.layers[i]
        if (ca.kind, cb.kind, ca.window, cb.window) != ("maxpool", "maxpool", 4, 2):
            break
        step = TransformStep("split-pool", i)
        cur = apply_step_to_arch(cur, step)
        steps.append(step)

    # Identity insertions: `b` has an extra conv/dense block at the mismatch,
    # as wide as the activations entering it.
    while (i := _first_structural_mismatch(cur, b)) is not None:
        if i >= len(b.layers):
            raise ScheduleError(f"layer {i}: target model is shorter than source")
        tb = b.layers[i]
        if tb.kind not in nn.TRAINABLE_KINDS:
            have = cur.layers[i].kind if i < len(cur.layers) else "end"
            raise ScheduleError(
                f"layer {i}: cannot reach target (target wants {tb.kind!r}, "
                f"source has {have!r})")
        width = nn.shape_before(cur, i)[-1]
        step = TransformStep("insert-identity", i, spec=tb.with_widths(width, width))
        cur = apply_step_to_arch(cur, step)
        steps.append(step)

    # Widenings, in layer order.
    for i, tb in enumerate(b.layers):
        if tb.kind in nn.TRAINABLE_KINDS and \
                cur.layers[i].weight_shape[-1] != tb.weight_shape[-1]:
            step = TransformStep("widen", i, width=tb.weight_shape[-1])
            cur = apply_step_to_arch(cur, step)
            steps.append(step)

    if cur.layers != b.layers:
        i = next(j for j, (x, y) in enumerate(zip(cur.layers, b.layers)) if x != y)
        raise ScheduleError(f"layer {i}: replayed structure does not match target "
                            f"({cur.layers[i]} vs {b.layers[i]})")
    return tuple(steps)


def validate_schedule(schedule: GrowthSchedule):
    """Check arity, growth and reachability; raise ScheduleError with every
    violation found."""
    problems = []
    n = len(schedule.models)
    if n < 1:
        problems.append("schedule has no models")
    if len(schedule.thresholds) != max(n - 1, 0):
        problems.append(
            f"threshold arity: {len(schedule.thresholds)} thresholds for {n} models "
            f"(expected {max(n - 1, 0)})")
    if any(t <= 0 for t in schedule.thresholds):
        problems.append("thresholds must be positive")
    for mi, model in enumerate(schedule.models):
        try:
            nn.validate_arch(model)
        except ConfigError as e:
            problems.append(f"model {mi + 1}: {e}")
    counts = [nn.count_params(m) for m in schedule.models]
    for mi in range(n - 1):
        if counts[mi + 1] <= counts[mi]:
            problems.append(
                f"non-increasing parameter count: model {mi + 1} has {counts[mi]}, "
                f"model {mi + 2} has {counts[mi + 1]}")
        try:
            diff_models(schedule.models[mi], schedule.models[mi + 1])
        except ScheduleError as e:
            problems.append(f"models {mi + 1} -> {mi + 2} not reachable: {e}")
    if problems:
        raise ScheduleError(problems)


def schedule_diffs(schedule: GrowthSchedule) -> list[tuple[TransformStep, ...]]:
    return [diff_models(schedule.models[i], schedule.models[i + 1])
            for i in range(len(schedule.models) - 1)]


# ---------------------------------------------------------------------------
# Serialization


def _arch_to_tokens(arch: nn.ModelArch) -> list:
    tokens = []
    for spec in arch.layers:
        if spec.kind == "maxpool":
            tokens.append({"pool": spec.window})
        elif spec.kind == "gap":
            tokens.append({"gap": True})
        elif spec.kind in nn.TRAINABLE_KINDS:
            *kernel, _, width = spec.weight_shape
            tokens.append({"conv": width, "kernel": kernel[1]} if kernel
                          else {"dense": width})
    return tokens


def schedule_to_dict(schedule: GrowthSchedule) -> dict:
    first = schedule.models[0]
    return {
        "dataset": schedule.dataset,
        "input_shape": list(first.input_shape),
        "dropout_rate": _nearest_dropout_rate(first),
        "thresholds": list(schedule.thresholds),
        "models": [_arch_to_tokens(m) for m in schedule.models],
    }


_TOKEN_KINDS = ("conv", "pool", "gap", "dense")


def _positive_int(value, what: str) -> int:
    # JSON booleans are not integers here, and nothing is coerced.
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return value


def _number(value, what: str) -> float:
    # JSON booleans and strings are not numbers here.
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _token(tok: dict) -> tuple:
    """One JSON schedule token as a ``build_arch`` token."""
    if type(tok) is not dict:
        raise TypeError(f"token {tok!r} is not an object")
    kinds = [k for k in _TOKEN_KINDS if k in tok]
    allowed = {*kinds, "kernel"} if kinds == ["conv"] else set(kinds)
    if len(kinds) != 1 or set(tok) - allowed:
        raise ValueError(f"token {tok!r} needs exactly one of the keys "
                         f"{list(_TOKEN_KINDS)}, and 'kernel' only beside 'conv'")
    kind = kinds[0]
    if kind == "gap":
        if tok["gap"] is not True:
            raise ValueError(f"token {tok!r}: 'gap' must be true")
        return ("gap",)
    values = [tok[kind], tok.get("kernel", 3)] if kind == "conv" else [tok[kind]]
    return (kind, *(_positive_int(v, f"token {tok!r}: value") for v in values))


def schedule_from_dict(data: dict) -> GrowthSchedule:
    """Build and validate a schedule from its JSON form.

    Expected keys: dataset (str), input_shape ([H, W, C] or [features]),
    thresholds (a list of len(models) - 1 numbers), models (list of
    token rows), optional dropout_rate (a number). Token forms:
    {"conv": out_channels, "kernel": side}, {"pool": window},
    {"gap": true}, {"dense": units}, with integer values >= 1 and kernel
    3 when omitted. The final dense token of each row is the classifier.
    """
    try:
        dataset = data["dataset"]
        shape = data["input_shape"]
        if type(shape) is not list or len(shape) not in (1, 3):
            raise ValueError(f"input_shape must be [H, W, C] or [features], got {shape!r}")
        input_shape = tuple(_positive_int(v, "input_shape entry") for v in shape)
        if type(data["thresholds"]) is not list:
            raise ValueError(f"thresholds must be a list, got {data['thresholds']!r}")
        thresholds = tuple(_number(t, "threshold") for t in data["thresholds"])
        rate = _number(data.get("dropout_rate", DEFAULT_DROPOUT), "dropout_rate")
        rows = [[_token(tok) for tok in row] for row in data["models"]]
    except (KeyError, TypeError, ValueError) as e:
        raise ScheduleError([f"malformed schedule data: {e!r}"])
    models, problems = [], []
    for mi, tokens in enumerate(rows):
        try:
            models.append(build_arch(input_shape, tokens, rate,
                                     name=f"{dataset}-model-{mi + 1}"))
        except ConfigError as e:
            problems.append(f"model {mi + 1}: {e}")
    if problems:
        raise ScheduleError(problems)
    schedule = GrowthSchedule(dataset, tuple(models), thresholds)
    validate_schedule(schedule)
    return schedule


def load_schedule(path) -> GrowthSchedule:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:
        raise ScheduleError([f"cannot read schedule {path}: {e}"]) from e
    return schedule_from_dict(data)


def save_schedule(schedule: GrowthSchedule, path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2) + "\n")
