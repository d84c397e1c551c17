"""Synchronous federated training loop.

``run_experiment`` steps a ``RunState`` (arch, params, switching policy,
metrics rows, switch events) with ``run_round``, one call per round. A
round's phases, in order: select (``select_clients``), broadcast
(``broadcast``: the full model, or a random sub-network cut by
``fd_extract`` under federated dropout), train (``train_clients``: local
SGD per client, in this process or across a ``ClientPool`` of forked
workers), merge (``aggregate``, or ``fd_merge`` under federated
dropout), switch (staged methods: ``switch`` grows the model in place
with ``apply_diff`` once the policy fires) and evaluate (``evaluate``
every ``eval_every`` rounds). Every transmitted scalar is accounted at
4 bytes.

Methods:
  fedavg  - final model broadcast in full every round
  fd      - final model, random sub-network broadcast per round
  fnn     - staged growing, full broadcast
  fnn-fd  - staged growing, sub-network broadcast except on the first
            ``fd_exempt_prefix`` (smallest) models
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from . import nn, rng as rngmod
from .errors import ConfigError, FedgrowError, NumericalError
from .growth import GrowthSchedule, schedule_diffs
from .morph import apply_diff
from .switching import DEFAULT_LAG, DEFAULT_WINDOW, SwitchPolicy

BYTES_PER_SCALAR = 4  # float32 on the wire

METHODS = ("fedavg", "fd", "fnn", "fnn-fd")


# ---------------------------------------------------------------------------
# Client data


@dataclass
class ClientShard:
    """One client's private samples; ``n`` is its aggregation weight."""

    client_id: int
    samples: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def __post_init__(self):
        if self.samples.shape[0] < 1:
            raise ConfigError(f"client {self.client_id}: empty shard")
        if self.samples.shape[0] != self.labels.shape[0]:
            raise ConfigError(f"client {self.client_id}: {self.samples.shape[0]} samples "
                              f"vs {self.labels.shape[0]} labels")


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset across simulated clients."""

    scheme: str = "iid-uniform"
    client_count: int = 100
    shards_per_client: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("iid-uniform", "label-shard-non-iid"):
            raise ConfigError(f"unknown partition scheme {self.scheme!r}")
        if self.client_count < 1:
            raise ConfigError("client count must be >= 1")
        if self.shards_per_client < 1:
            raise ConfigError("shards per client must be >= 1")


def partition(samples: np.ndarray, labels: np.ndarray,
              spec: PartitionSpec) -> list[ClientShard]:
    """Split a dataset into disjoint, exhaustive client shards."""
    n = samples.shape[0]
    if n == 0:
        raise ConfigError("cannot partition an empty dataset")
    if spec.client_count > n:
        raise ConfigError(f"more clients ({spec.client_count}) than samples ({n})")
    rng = rngmod.stream(spec.seed, rngmod.DATA)
    if spec.scheme == "iid-uniform":
        order = rng.permutation(n)
        pieces = np.array_split(order, spec.client_count)
    else:
        pieces = _label_shard_pieces(labels, spec, rng)
    shards = [ClientShard(cid, samples[idx], labels[idx])
              for cid, idx in enumerate(pieces)]
    return shards


def _label_shard_pieces(labels, spec, rng):
    """Label-pure shards dealt randomly: each client receives
    ``shards_per_client`` shards, so it sees at most that many labels."""
    classes = np.unique(labels)
    total_shards = spec.client_count * spec.shards_per_client
    if len(classes) > total_shards:
        raise ConfigError(f"{len(classes)} labels need at least {len(classes)} shards, "
                          f"got {total_shards}")
    counts = np.array([(labels == c).sum() for c in classes], dtype=np.int64)
    # Proportional allocation, minimum one shard per label, remainders to the
    # largest fractional parts.
    raw = counts / counts.sum() * total_shards
    alloc = np.maximum(1, np.floor(raw).astype(int))
    while alloc.sum() > total_shards:
        alloc[np.argmax(alloc)] -= 1
    remainder = raw - np.floor(raw)
    while alloc.sum() < total_shards:
        i = int(np.argmax(remainder))
        alloc[i] += 1
        remainder[i] = -1
    pool = []
    for c, k in zip(classes, alloc):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        pool.extend(np.array_split(idx, k))
    order = rng.permutation(len(pool))
    pieces = []
    for cid in range(spec.client_count):
        take = order[cid * spec.shards_per_client:(cid + 1) * spec.shards_per_client]
        pieces.append(np.concatenate([pool[s] for s in take]))
    return pieces


def select_clients(rng: np.random.Generator, population: int, m: int) -> list[int]:
    """m distinct client ids, uniform without replacement."""
    if m > population:
        raise ConfigError(f"cannot select {m} of {population} clients")
    return sorted(int(c) for c in rng.choice(population, size=m, replace=False))


# ---------------------------------------------------------------------------
# Local training and aggregation


def local_train(arch: nn.ModelArch, params: nn.Params, shard: ClientShard,
                cfg: nn.TrainConfig, rng: np.random.Generator):
    """Local epochs of minibatch SGD on one client's shard.

    Returns (updated params, mean per-sample loss, shard size). Each SGD
    step returns new arrays, so ``params`` is never written.
    """
    cur = params
    loss_sum, seen = 0.0, 0
    try:
        for _ in range(cfg.local_epochs):
            order = rng.permutation(shard.n)
            for start in range(0, shard.n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                cur, loss = nn.backward_and_step(
                    arch, cur, shard.samples[idx], shard.labels[idx], cfg, rng)
                loss_sum += loss * len(idx)
                seen += len(idx)
    except NumericalError as e:
        raise NumericalError(f"client {shard.client_id}: {e}") from e
    return cur, loss_sum / seen, shard.n


def weighted_round_loss(losses_and_counts) -> float:
    """Sample-count-weighted mean of the clients' local mean losses."""
    pairs = list(losses_and_counts)
    total = sum(n for _, n in pairs)
    if total <= 0:
        raise ConfigError("weighted loss needs a positive total sample count")
    return math.fsum(loss * n for loss, n in pairs) / total


def aggregate(updates: list[tuple[nn.Params, int]]) -> nn.Params:
    """Sample-count-weighted mean of client parameters.

    Accumulates in float64 with a fixed (list) order and rounds to
    float32 once, so a single update (or identical updates) comes back
    bit-exact and the result is deterministic for a given order.
    """
    if not updates:
        raise ConfigError("aggregate needs at least one update")
    keys = set(updates[0][0].keys())
    for p, _ in updates[1:]:
        if set(p.keys()) != keys:
            raise ConfigError("aggregate: updates have different layer sets")
    total = float(sum(n for _, n in updates))
    if total <= 0:
        raise ConfigError("aggregate: total sample count must be positive")
    weights = [float(n) for _, n in updates]
    out: nn.Params = {}
    for i in keys:
        layers = [p[i] for p, _ in updates]
        if any(q.w.shape != layers[0].w.shape or q.b.shape != layers[0].b.shape
               for q in layers):
            raise ConfigError(f"aggregate: layer {i} shape mismatch across updates")
        out[i] = nn.LayerParams(_weighted_mean([q.w for q in layers], weights, total),
                                _weighted_mean([q.b for q in layers], weights, total))
    return out


# float64 elements per fold block: the accumulator and the scratch buffer
# (256 KiB together) stay in L2 while every client is folded in.
_FOLD_BLOCK = 16384


def _weighted_mean(arrays: list[np.ndarray], weights: list[float],
                   total: float) -> np.ndarray:
    """``sum(a.astype(float64) * n) / total`` over equal-shape arrays, rounded
    to float32 once.

    Folds one block of elements at a time, adding the arrays in list
    order, so every element sees the same operations in the same order
    as a whole-array fold.
    """
    flats = [a.reshape(-1) for a in arrays]
    size = flats[0].size
    out = np.empty(size, dtype=nn.DTYPE)
    acc = np.empty(min(size, _FOLD_BLOCK), dtype=np.float64)
    scratch = np.empty_like(acc)
    for start in range(0, size, _FOLD_BLOCK):
        stop = min(start + _FOLD_BLOCK, size)
        a, s = acc[:stop - start], scratch[:stop - start]
        a.fill(0.0)
        for flat, n in zip(flats, weights):
            a += np.multiply(flat[start:stop], n, out=s, dtype=np.float64)
        out[start:stop] = np.divide(a, total, out=a)
    return out.reshape(arrays[0].shape)


# ---------------------------------------------------------------------------
# Federated dropout


@dataclass(frozen=True)
class DropoutMask:
    """Kept output indices per maskable trainable layer.

    Layers absent from ``kept`` (the final classifier) keep every output.
    Index arrays are sorted and unique.
    """

    kept: dict[int, np.ndarray]
    keep_fraction: float


def _in_index(arch: nn.ModelArch, layer: int, kept: dict[int, np.ndarray],
              prev_map: dict[int, int]):
    """Input index array of ``layer`` in the full model's input coordinates,
    or None when the full input is kept."""
    prev = prev_map.get(layer)
    if prev is None or prev not in kept:
        return None
    prev_width = arch.layers[prev].weight_shape[-1]
    ratio = arch.layers[layer].weight_shape[-2] // prev_width  # positions across flatten
    kp = kept[prev]
    if ratio == 1:
        return kp
    return (np.arange(ratio)[:, None] * prev_width + kp[None, :]).ravel()


def _prev_trainable_map(arch: nn.ModelArch) -> dict[int, int]:
    prev_map: dict[int, int] = {}
    prev = None
    for i in nn.trainable_indices(arch):
        if prev is not None:
            prev_map[i] = prev
        prev = i
    return prev_map


def fd_extract(arch: nn.ModelArch, params: nn.Params, keep_fraction: float,
               rng: np.random.Generator):
    """Random sub-network for broadcasting.

    Keeps floor(width * keep_fraction) units/filters in every hidden
    trainable layer (the classifier is exempt) and crops adjacent
    weights consistently. Returns (sub_arch, sub_params, mask).
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(f"keep fraction must be in (0, 1], got {keep_fraction}")
    trainables = nn.trainable_indices(arch)
    kept: dict[int, np.ndarray] = {}
    for i in trainables[:-1]:
        width = arch.layers[i].weight_shape[-1]
        count = int(math.floor(width * keep_fraction))
        if count == 0:
            raise ConfigError(
                f"layer {i}: keep fraction {keep_fraction} keeps zero of {width} units")
        if count == width:
            kept[i] = np.arange(width)
        else:
            kept[i] = np.sort(rng.choice(width, size=count, replace=False))
    mask = DropoutMask(kept, keep_fraction)
    sub_arch, sub_params = _crop_model(arch, params, mask)
    return sub_arch, sub_params, mask


def _crop_model(arch: nn.ModelArch, params: nn.Params, mask: DropoutMask):
    prev_map = _prev_trainable_map(arch)
    layers = list(arch.layers)
    sub_params: nn.Params = {}
    for i in nn.trainable_indices(arch):
        spec, p = arch.layers[i], params[i]
        in_idx = _in_index(arch, i, mask.kept, prev_map)
        out_idx = mask.kept.get(i)
        w = np.ascontiguousarray(p.w[_index_expr(spec, in_idx, out_idx)])
        b = p.b[out_idx] if out_idx is not None else p.b.copy()
        sub_params[i] = nn.LayerParams(w, b)
        layers[i] = spec.with_widths(*w.shape[-2:])
    sub_arch = arch.with_layers(layers)
    nn.validate_arch(sub_arch)
    return sub_arch, sub_params


def fd_merge(arch: nn.ModelArch, global_params: nn.Params,
             updates: list[tuple[nn.Params, DropoutMask, int]]) -> nn.Params:
    """Fold sub-network updates that share one mask back into the global model.

    The kept block of every layer becomes ``aggregate`` of the clients'
    sub-arrays (float64, list order, rounded once); positions the mask
    drops keep the global value. Raises ConfigError when the updates
    carry different masks.
    """
    if not updates:
        raise ConfigError("fd_merge needs at least one update")
    mask = updates[0][1]
    for _, other, _ in updates[1:]:
        same = other is mask or (other.kept.keys() == mask.kept.keys() and all(
            np.array_equal(other.kept[i], kept) for i, kept in mask.kept.items()))
        if not same:
            raise ConfigError("fd_merge: updates carry different masks; "
                              "a round shares one mask")
    mean = aggregate([(sub, n) for sub, _, n in updates])
    prev_map = _prev_trainable_map(arch)
    merged: nn.Params = {}
    for i in nn.trainable_indices(arch):
        spec = arch.layers[i]
        *kernel, full_in, full_out = spec.weight_shape
        in_idx = _in_index(arch, i, mask.kept, prev_map)
        out_idx = mask.kept.get(i)
        expect_in = len(in_idx) if in_idx is not None else full_in
        expect_out = len(out_idx) if out_idx is not None else full_out
        if mean[i].w.shape != (*kernel, expect_in, expect_out) or \
                mean[i].b.shape != (expect_out,):
            raise ConfigError(f"fd_merge: layer {i} update shape {mean[i].w.shape} "
                              f"inconsistent with its mask")
        w, b = global_params[i].w.copy(), global_params[i].b.copy()
        w[_index_expr(spec, in_idx, out_idx)] = mean[i].w
        b[out_idx if out_idx is not None else slice(None)] = mean[i].b
        merged[i] = nn.LayerParams(w, b)
    return merged


def _index_expr(spec, in_idx, out_idx):
    """Index of the kept (input, output) block of ``spec``'s weight array;
    None keeps the whole axis. Every trainable kind keeps inputs on axis -2
    and outputs on axis -1, so ``spec`` does not change the expression."""
    if in_idx is None:
        return (Ellipsis,) if out_idx is None else (Ellipsis, out_idx)
    if out_idx is None:
        return (Ellipsis, in_idx, slice(None))
    return (Ellipsis,) + np.ix_(in_idx, out_idx)


# ---------------------------------------------------------------------------
# Evaluation, accounting, the round loop


def evaluate(arch: nn.ModelArch, params: nn.Params, samples: np.ndarray,
             labels: np.ndarray, batch_size: int = 512) -> float:
    """Top-1 accuracy in eval mode; deterministic for fixed inputs."""
    hits = 0
    for start in range(0, samples.shape[0], batch_size):
        probs = nn.forward(arch, params, samples[start:start + batch_size])
        hits += int((probs.argmax(axis=1) ==
                     labels[start:start + batch_size]).sum())
    return hits / samples.shape[0]


@dataclass
class RoundMetrics:
    round: int
    model_index: int
    weighted_loss: float
    test_accuracy: float | None
    signal: float | None
    switched: bool
    download_bytes: int
    upload_bytes: int
    cumulative_bytes: int
    flops_per_client: int


@dataclass
class CommLedger:
    """Communication view of a run's per-round records."""

    rows: list[RoundMetrics]

    @property
    def total_bytes(self) -> int:
        return self.rows[-1].cumulative_bytes if self.rows else 0

    def recompute_cumulative(self) -> list[int]:
        """Independent re-derivation of the cumulative column from the
        per-round columns (consistency oracle)."""
        total, out = 0, []
        for row in self.rows:
            total += row.download_bytes + row.upload_bytes
            out.append(total)
        return out


@dataclass
class SwitchEvent:
    round: int
    from_model: int
    to_model: int
    signal: float
    accuracy_before: float | None
    accuracy_after: float | None


@dataclass
class RunSettings:
    """Knobs of one simulated run (independent of dataset and schedule).
    ``ExperimentConfig.resolve`` fills the dataset-dependent None fields."""

    rounds: int = 200
    clients_per_round: int | None = None
    train: nn.TrainConfig | None = None
    master_seed: int = 0
    eval_every: int = 50
    switch_window: int = DEFAULT_WINDOW
    switch_lag: int = DEFAULT_LAG
    fd_keep_fraction: float | None = None  # None -> 1 - dropout rate
    fd_exempt_prefix: int = 2
    init_scheme: str = "truncnorm"


@dataclass
class RunState:
    """Everything a run carries from one round to the next."""

    arch: nn.ModelArch
    params: nn.Params
    policy: SwitchPolicy
    metrics: list[RoundMetrics] = field(default_factory=list)
    events: list[SwitchEvent] = field(default_factory=list)

    @property
    def model_index(self) -> int:
        return self.policy.model_index

    @property
    def ledger(self) -> CommLedger:
        return CommLedger(self.metrics)


# ---------------------------------------------------------------------------
# Client worker processes


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads(cpus: int) -> int:
    """Threads one BLAS call uses, resolved the way OpenBLAS resolves them:
    the first positive OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS, otherwise every CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return min(threads, cpus)
    return cpus


def worker_count(settings: RunSettings) -> int:
    """Processes that train a round's clients: as many as the CPUs hold
    at the BLAS thread count, at most ``clients_per_round``. Unpinned BLAS
    therefore trains in this process; restricting the CPU affinity caps
    the count. The count never changes the output.
    """
    cpus = _cpus()
    return max(1, min(settings.clients_per_round, cpus // _blas_threads(cpus)))


# float32 elements: every slot, and every array in a slot, starts on a
# 64-byte boundary.
_SLOT_ALIGN = 16


def _aligned(size: int) -> int:
    return -(-size // _SLOT_ALIGN) * _SLOT_ALIGN


def _array_shapes(arch: nn.ModelArch):
    """(layer, weight shape, bias shape) of every trainable layer."""
    for i in nn.trainable_indices(arch):
        shape = arch.layers[i].weight_shape
        yield i, shape, shape[-1:]


def _slot_size(arch: nn.ModelArch) -> int:
    """Elements a slot needs for ``arch``."""
    return sum(_aligned(math.prod(w)) + _aligned(math.prod(b))
               for _, w, b in _array_shapes(arch))


def _slot_params(arch: nn.ModelArch, slot: np.ndarray) -> nn.Params:
    """``arch``'s parameters as views into the flat float32 ``slot``."""
    params: nn.Params = {}
    at = 0
    for i, *shapes in _array_shapes(arch):
        arrays = []
        for shape in shapes:
            arrays.append(slot[at:at + math.prod(shape)].reshape(shape))
            at += _aligned(math.prod(shape))
        params[i] = nn.LayerParams(*arrays)
    return params


def _write_slot(arch: nn.ModelArch, slot: np.ndarray, params: nn.Params) -> None:
    for i, view in _slot_params(arch, slot).items():
        view.w[...] = params[i].w
        view.b[...] = params[i].b


_worker: dict = {}  # in a forked worker: the pool's slots and the shards


def _start_worker(slots: np.ndarray, shards: list[ClientShard]) -> None:
    _worker.update(slots=slots, shards=shards)


def _train_slice(arch: nn.ModelArch, cids: list[int], first_slot: int, r: int,
                 settings: RunSettings) -> list[tuple[float, int]]:
    """In a worker: ``local_train`` of clients ``cids`` from the model in
    slot 0, each update written to the next slot from ``first_slot`` on.
    Returns the clients' (loss, n)."""
    slots, shards = _worker["slots"], _worker["shards"]
    params = _slot_params(arch, slots[0])
    out = []
    for k, cid in enumerate(cids):
        update, loss, n = local_train(
            arch, params, shards[cid], settings.train,
            rngmod.stream(settings.master_seed, rngmod.CLIENT, r, cid))
        _write_slot(arch, slots[first_slot + k], update)
        out.append((loss, n))
    return out


class ClientPool:
    """Fork-started processes that train a round's clients.

    The workers inherit the shards copy-on-write, so no data is sent to
    them. Parameters travel through one shared anonymous mapping of
    ``clients + 1`` float32 slots: slot 0 holds the broadcast model and
    slot k + 1 the update of the k-th selected client. Each worker trains
    a contiguous slice of the selection and sends back only (loss, n).
    Every client does the same arithmetic as in this process, so the
    updates are the same bits.
    """

    def __init__(self, workers: int, clients: int, slot_size: int,
                 shards: list[ClientShard]):
        self.workers = workers
        self._mapping = mmap.mmap(-1, (clients + 1) * slot_size * np.dtype(nn.DTYPE).itemsize)
        self.slots = np.frombuffer(self._mapping, dtype=nn.DTYPE).reshape(clients + 1, -1)
        self._executor = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(self.slots, shards))

    def train(self, arch: nn.ModelArch, params: nn.Params, sel: list[int], r: int,
              settings: RunSettings) -> list[tuple[nn.Params, float, int]]:
        """``train_clients`` across the workers; the returned updates are
        views of the slots, valid until the next call."""
        _write_slot(arch, self.slots[0], params)
        bounds = [len(sel) * w // self.workers for w in range(self.workers + 1)]
        futures = [self._executor.submit(_train_slice, arch, sel[lo:hi], lo + 1, r, settings)
                   for lo, hi in zip(bounds, bounds[1:])]
        try:
            results = [pair for future in futures for pair in future.result()]
        except BrokenProcessPool as e:
            raise FedgrowError(f"a client training worker exited unexpectedly: {e}") from e
        return [(_slot_params(arch, self.slots[k + 1]), loss, n)
                for k, (loss, n) in enumerate(results)]

    def close(self) -> None:
        self._executor.shutdown(cancel_futures=True)
        self._executor = self.slots = None  # both hold the mapping
        try:
            self._mapping.close()
        except BufferError:  # a slot view is still alive; it keeps the mapping
            pass


def broadcast(state: RunState, r: int, use_fd: bool, settings: RunSettings):
    """(arch, params, mask) sent to round ``r``'s clients; mask None is the full model."""
    keep = settings.fd_keep_fraction
    if keep is None:
        keep = 1.0 - settings.train.dropout_rate
    if use_fd and keep < 1.0:
        return fd_extract(state.arch, state.params, keep,
                          rngmod.stream(settings.master_seed, rngmod.FD_MASK, r))
    return state.arch, state.params, None


def train_clients(arch: nn.ModelArch, params: nn.Params, sel: list[int],
                  shards: list[ClientShard], r: int, settings: RunSettings,
                  pool: ClientPool | None = None):
    """``local_train`` of every selected client, each on its own stream, in
    ``sel`` order: in this process, or across ``pool``'s workers, whose
    updates come back as views of the pool's slots."""
    if pool is not None:
        return pool.train(arch, params, sel, r, settings)
    return [local_train(arch, params, shards[cid], settings.train,
                        rngmod.stream(settings.master_seed, rngmod.CLIENT, r, cid))
            for cid in sel]


def switch(state: RunState, r: int, signal: float, diffs, seed: int,
           test_samples, test_labels) -> None:
    """Grow ``state`` to the next model and record the switch event."""
    index = state.model_index
    acc_before = acc_after = None
    if test_samples is not None:
        acc_before = evaluate(state.arch, state.params, test_samples, test_labels)
    state.arch, state.params, _ = apply_diff(
        state.arch, state.params, diffs[index], rngmod.stream(seed, rngmod.SWITCH, index))
    if test_samples is not None:
        acc_after = evaluate(state.arch, state.params, test_samples, test_labels)
    state.events.append(SwitchEvent(r, index, index + 1, signal, acc_before, acc_after))
    state.policy.advance()


def run_round(state: RunState, r: int, method: str, schedule: GrowthSchedule,
              diffs, shards: list[ClientShard], test_samples, test_labels,
              settings: RunSettings, pool: ClientPool | None = None) -> RoundMetrics:
    """Run round ``r`` on ``state`` in place and return its metrics row.
    ``diffs`` is ``schedule_diffs(schedule)``, or None for unstaged methods;
    ``pool``, when given, trains the clients."""
    seed, policy = settings.master_seed, state.policy
    if test_samples is not None and test_samples.shape[0] == 0:
        test_samples = test_labels = None  # nothing to evaluate on
    index = state.model_index  # the model trained this round, reported pre-switch
    try:
        sel = select_clients(rngmod.stream(seed, rngmod.SELECT, r),
                             len(shards), settings.clients_per_round)
        use_fd = method == "fd" or (method == "fnn-fd" and index >= settings.fd_exempt_prefix)
        bc_arch, bc_params, mask = broadcast(state, r, use_fd, settings)
        updates = train_clients(bc_arch, bc_params, sel, shards, r, settings, pool)
        if mask is None:
            state.params = aggregate([(p, n) for p, _, n in updates])
        else:
            state.params = fd_merge(state.arch, state.params,
                                    [(p, mask, n) for p, _, n in updates])
        wloss = weighted_round_loss((loss, n) for _, loss, n in updates)
        policy.record_round_loss(wloss)
        signal = policy.progress_signal()
        switched = diffs is not None and policy.should_switch(schedule)
        if switched:
            switch(state, r, signal, diffs, seed, test_samples, test_labels)
        accuracy = None
        if test_samples is not None and settings.eval_every > 0 and \
                (r + 1) % settings.eval_every == 0:
            accuracy = evaluate(state.arch, state.params, test_samples, test_labels)

        mean_n = sum(n for _, _, n in updates) / len(sel)
        flops = int(nn.fwd_bwd_flops(bc_arch) * mean_n)
        down = up = nn.count_params(bc_arch) * len(sel) * BYTES_PER_SCALAR
        row = RoundMetrics(r, index, wloss, accuracy, signal, switched,
                           down, up, state.ledger.total_bytes + down + up, flops)
    except FedgrowError as e:
        raise type(e)(f"round {r}: {e}") from e
    state.metrics.append(row)
    return row


def run_experiment(method: str, schedule: GrowthSchedule,
                   shards: list[ClientShard],
                   test_samples: np.ndarray | None,
                   test_labels: np.ndarray | None,
                   settings: RunSettings,
                   on_round=None) -> RunState:
    """Execute a full multi-round run of one method.

    ``on_round`` (optional) receives each RoundMetrics as it completes,
    so callers can stream partial results before a failure. With more
    than one ``worker_count``, a ``ClientPool`` with a slot for the
    largest model of the schedule trains the clients.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    if settings.clients_per_round is None or settings.train is None:
        raise ConfigError("run settings need clients_per_round and train")
    if settings.clients_per_round > len(shards):
        raise ConfigError(f"clients per round {settings.clients_per_round} exceeds "
                          f"population {len(shards)}")
    staged = method in ("fnn", "fnn-fd")
    diffs = schedule_diffs(schedule) if staged else None
    index = 0 if staged else schedule.num_models - 1
    arch = schedule.models[index]
    init_rng = rngmod.stream(settings.master_seed, rngmod.INIT)
    policy = SwitchPolicy(settings.switch_window, settings.switch_lag, model_index=index)
    # No local holds the initial params, so the first merge frees them.
    state = RunState(arch, nn.init_params(arch, init_rng, settings.init_scheme), policy)
    workers = worker_count(settings)
    pool = None
    if workers > 1:
        pool = ClientPool(workers, settings.clients_per_round,
                          max(_slot_size(m) for m in schedule.models), shards)
    try:
        for r in range(settings.rounds):
            row = run_round(state, r, method, schedule, diffs, shards,
                            test_samples, test_labels, settings, pool)
            if on_round is not None:
                on_round(row)
    finally:
        if pool is not None:
            pool.close()
    return state
