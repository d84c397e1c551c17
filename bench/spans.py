"""Outside-in tracing of the simulator's layers.

``Tracer.install`` replaces module attributes of fedgrow with wrappers
that record one span per call: name, start, end, the span that was open
when the call began (its parent), and an amount of work computed from the
arguments. No fedgrow source changes. Three facts make this catch the hot
calls: modules call their own helpers through module globals (which are
the module attributes), ``fedsim`` and ``experiment`` call ``nn``,
``rng``, ``datasets`` and ``fedsim`` functions as module attributes, and
``fedsim`` imports ``apply_diff``, ``schedule_diffs`` and
``SwitchPolicy`` by name, so those are patched where ``fedsim`` sees them.

Spans stay in memory until ``write`` puts them in a JSON-lines file.
``layer_table`` turns them into calls, inclusive time and self time
(inclusive time minus the time of direct child spans) per name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _param_bytes(params) -> int:
    return sum(p.w.nbytes + p.b.nbytes for p in params.values())


def _conv_forward_flops(args, kwargs, result):
    kh, kw, ci, _ = args[1].shape
    return 2 * result[0].size * kh * kw * ci


def _conv_backward_flops(args, kwargs, result):
    g, w = args[0], args[1]
    need_dx = kwargs.get("need_dx", args[5] if len(args) > 5 else True)
    kh, kw, ci, _ = w.shape
    # Weight gradient, plus the input gradient when it is asked for.
    return (2 + 2 * bool(need_dx)) * g.size * kh * kw * ci


def _copy_bytes(args, kwargs, result):
    return _param_bytes(args[0])


def _aggregate_bytes(args, kwargs, result):
    return sum(_param_bytes(p) for p, _ in args[0])


def _fd_merge_bytes(args, kwargs, result):
    return sum(_param_bytes(p) for p, _, _ in args[2])


def _loaded_bytes(args, kwargs, result):
    (train_x, train_y), (test_x, test_y) = result
    return train_x.nbytes + train_y.nbytes + test_x.nbytes + test_y.nbytes


# (module, attribute, span name, work) for every wrapped function.
# ``work`` gives FLOPs for the conv kernels and bytes for the rest.
TRACED = (
    ("nn", "_conv_forward", "nn._conv_forward", _conv_forward_flops),
    ("nn", "_conv_backward", "nn._conv_backward", _conv_backward_flops),
    ("nn", "_maxpool_forward", "nn._maxpool_forward", None),
    ("nn", "_maxpool_backward", "nn._maxpool_backward", None),
    ("nn", "gradients", "nn.gradients", None),
    ("nn", "backward_and_step", "nn.backward_and_step", None),
    ("nn", "copy_params", "nn.copy_params", _copy_bytes),
    ("nn", "forward", "nn.forward", None),
    ("nn", "init_params", "nn.init_params", None),
    ("fedsim", "run_experiment", "fedsim.run_experiment", None),
    ("fedsim", "local_train", "fedsim.local_train", None),
    ("fedsim", "select_clients", "fedsim.select_clients", None),
    ("fedsim", "aggregate", "fedsim.aggregate", _aggregate_bytes),
    ("fedsim", "fd_extract", "fedsim.fd_extract", None),
    ("fedsim", "fd_merge", "fedsim.fd_merge", _fd_merge_bytes),
    ("fedsim", "evaluate", "fedsim.evaluate", None),
    ("fedsim", "partition", "fedsim.partition", None),
    ("fedsim", "apply_diff", "morph.apply_diff", None),
    ("fedsim", "schedule_diffs", "growth.schedule_diffs", None),
    ("rng", "stream", "rng.stream", None),
    ("datasets", "load_idx_dataset", "datasets.load_idx_dataset", _loaded_bytes),
    ("datasets", "make_synthetic", "datasets.make_synthetic", None),
    ("growth", "builtin_schedule", "growth.builtin_schedule", None),
    ("experiment", "build_schedule", "experiment.build_schedule", None),
    ("experiment", "build_dataset", "experiment.build_dataset", None),
)

# SwitchPolicy methods; all of them are reported as one layer.
POLICY_METHODS = ("record_round_loss", "progress_signal", "should_switch", "advance")
POLICY_SPAN = "switching.policy"


class Tracer:
    """Span recorder for one traced simulation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, start, end, work)
        self._open: list[int] = []
        self._next_id = 0
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn, work=None):
        spans, open_ids = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = open_ids[-1] if open_ids else 0
            open_ids.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
            amount = work(args, kwargs, result) if work is not None else 0
            spans.append((span_id, parent, name, start, end, amount))
            return result

        return traced

    @contextmanager
    def install(self, modules: dict):
        """Patch every TRACED function and the policy methods for the
        duration of the block. ``modules`` maps short names to modules."""
        saved = []
        try:
            for mod_name, attr, name, work in TRACED:
                owner = modules[mod_name]
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), work))
            policy = modules["fedsim"].SwitchPolicy
            for attr in POLICY_METHODS:
                saved.append((policy, attr, getattr(policy, attr)))
                setattr(policy, attr, self.wrap(POLICY_SPAN, getattr(policy, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, work in sorted(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start - self.origin,
                    "end": end - self.origin, "work": work}) + "\n")


def layer_table(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive ms, self ms and summed work."""
    duration = {span_id: end - start for span_id, _, _, start, end, _ in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, *_ in spans:
        child_time[parent] += duration[span_id]
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0})
    for span_id, _, name, _, _, work in spans:
        row = table[name]
        row["calls"] += 1
        row["ms"] += 1e3 * duration[span_id]
        row["self_ms"] += 1e3 * (duration[span_id] - child_time[span_id])
        row["work"] += work
    return dict(table)
