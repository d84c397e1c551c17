"""Synchronous federated training loop.

``run_experiment`` steps a ``RunState`` (arch, params, switching policy,
metrics rows, switch events) round by round. A round has three phases.
``start_round``: select (``select_clients``), broadcast (``broadcast``:
the full model, or a random sub-network cut by ``fd_extract`` where
``fd_plan`` crops) and submit the clients' local SGD to the run's
``ClientPool``. ``finish_round``: train (``collect`` from the pool),
merge (``aggregate``, or ``fd_merge`` under federated dropout), record
the loss in the policy and switch (staged methods: ``switch`` grows the
model in place with ``apply_diff`` once the policy fires).
``settle_round``: evaluate (``evaluate``, every ``eval_every`` rounds and
around each switch, unless there are no test samples) and complete the
round's metrics row. ``run_experiment`` settles round r after starting
round r + 1, so the evaluation overlaps the workers' training. Every
transmitted scalar is accounted at 4 bytes.

Methods:
  fedavg  - final model broadcast in full every round
  fd      - final model, random sub-network broadcast per round
  fnn     - staged growing, full broadcast
  fnn-fd  - staged growing, sub-network broadcast except on the first
            ``fd_exempt_prefix`` (smallest) models
"""

from __future__ import annotations

import functools
import math
import mmap
import multiprocessing
import os
import signal
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
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


# float64 elements per fold block: each thread's accumulator and scratch
# buffer (1 MiB together) stay in its core's L2 while every client is
# folded in. On a 2-vCPU Xeon with 2 MiB of L2 per core, 20 alternating
# pairs of tools/step_profile.py runs at two CPUs folded 10 updates faster
# at this size than at 16384 (medians: mnist m6 17.5 against 21.7 ms,
# emnist m6 67.3 against 82.8 ms, cifar10 m6 10.8 against 13.4 ms). A
# model of fewer than two blocks (131072 elements) folds in one thread.
_FOLD_BLOCK = 65536


def aggregate(updates: list[tuple[nn.Params, int]]) -> nn.Params:
    """Sample-count-weighted mean of client parameters of one arch.

    Accumulates in float64 with a fixed (list) order and rounds to
    float32 once, so a single update (or identical updates) comes back
    bit-exact and the result is deterministic for a given order. The
    clients' vectors are folded one block of elements at a time, so every
    element sees the operations of a whole-vector fold in the same order:
    (0 + x1·n1 + x2·n2 + …) / total. Contiguous, block-aligned ranges of
    at least two blocks each fold at the same time on up to ``_cpus()``
    threads (numpy releases the GIL in its ufuncs), the first in the
    calling thread. The threads live only inside the call, so none is
    alive when a ``ClientPool`` forks; the split never changes a bit.
    """
    if not updates:
        raise ConfigError("aggregate needs at least one update")
    arch = updates[0][0].arch
    if any(p.arch.layers != arch.layers for p, _ in updates[1:]):
        raise ConfigError("aggregate: updates differ in their layers or layer shapes")
    total = float(sum(n for _, n in updates))
    if total <= 0:
        raise ConfigError("aggregate: total sample count must be positive")
    out = nn.Params(arch)
    size = out.flat.size
    blocks = -(-size // _FOLD_BLOCK)
    parts = max(1, min(_cpus(), blocks // 2))
    edges = [blocks * k // parts * _FOLD_BLOCK for k in range(parts)] + [size]
    # Every part's accumulator and scratch buffer, allocated in this
    # thread, so no fold thread grows a malloc arena of its own.
    buffers = np.empty((parts, 2, min(size, _FOLD_BLOCK)), dtype=np.float64)
    fold = functools.partial(_fold, updates, total, out.flat)
    with ThreadPoolExecutor(max(1, parts - 1)) as threads:  # joined on exit
        futures = [threads.submit(fold, edges[k], edges[k + 1], buffers[k])
                   for k in range(1, parts)]
        fold(edges[0], edges[1], buffers[0])
        for future in futures:
            future.result()
    return out


def _fold(updates, total: float, out: np.ndarray, start: int, stop: int,
          buffers: np.ndarray) -> None:
    """``aggregate`` of elements ``start:stop`` into ``out``, one block at a
    time, with ``buffers`` as the accumulator and the scratch buffer."""
    for lo in range(start, stop, _FOLD_BLOCK):
        hi = min(lo + _FOLD_BLOCK, stop)
        acc, scratch = buffers[0, :hi - lo], buffers[1, :hi - lo]
        acc.fill(0.0)
        for p, n in updates:
            acc += np.multiply(p.flat[lo:hi], float(n), out=scratch, dtype=np.float64)
        out[lo:hi] = np.divide(acc, total, out=acc)


# ---------------------------------------------------------------------------
# Federated dropout


@dataclass(frozen=True)
class DropoutMask:
    """Kept output indices per maskable trainable layer.

    Layers absent from ``kept`` (the final classifier) keep every output.
    Index arrays are sorted and unique.
    """

    kept: dict[int, np.ndarray]


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


def fd_kept_units(arch: nn.ModelArch, keep_fraction: float | None):
    """Federated dropout's keep fraction on ``arch`` and the units it keeps
    of each hidden trainable layer, floor(width * keep fraction); the
    classifier keeps all. A ``keep_fraction`` of None resolves to 1 minus
    the model's dropout rate. Raises ConfigError when the fraction is
    outside (0, 1] or keeps zero units of a layer."""
    if keep_fraction is None:
        keep_fraction = 1.0 - nn.dropout_rate(arch)
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(f"keep fraction must be in (0, 1], got {keep_fraction}")
    counts = {}
    for i in nn.trainable_indices(arch)[:-1]:
        width = arch.layers[i].weight_shape[-1]
        counts[i] = math.floor(width * keep_fraction)
        if counts[i] == 0:
            raise ConfigError(
                f"layer {i}: keep fraction {keep_fraction} keeps zero of {width} units")
    return keep_fraction, counts


def fd_extract(arch: nn.ModelArch, params: nn.Params, keep_fraction: float,
               rng: np.random.Generator):
    """Random sub-network for broadcasting.

    Keeps the units ``fd_kept_units`` counts, chosen at random, in every
    hidden trainable layer and crops adjacent weights consistently.
    Returns (sub_arch, sub_params, mask).
    """
    _, counts = fd_kept_units(arch, keep_fraction)
    kept: dict[int, np.ndarray] = {}
    for i, count in counts.items():
        width = arch.layers[i].weight_shape[-1]
        if count == width:
            kept[i] = np.arange(width)
        else:
            kept[i] = np.sort(rng.choice(width, size=count, replace=False))
    mask = DropoutMask(kept)
    sub_arch, sub_params = _crop_model(arch, params, mask)
    return sub_arch, sub_params, mask


def _crop_model(arch: nn.ModelArch, params: nn.Params, mask: DropoutMask):
    prev_map = _prev_trainable_map(arch)
    layers = list(arch.layers)
    cropped = {}
    for i in nn.trainable_indices(arch):
        spec, p = arch.layers[i], params[i]
        in_idx = _in_index(arch, i, mask.kept, prev_map)
        out_idx = mask.kept.get(i)
        w = p.w[_index_expr(spec, in_idx, out_idx)]
        cropped[i] = nn.LayerParams(w, p.b if out_idx is None else p.b[out_idx])
        layers[i] = spec.with_widths(*w.shape[-2:])
    sub_arch = arch.with_layers(layers)
    nn.validate_arch(sub_arch)
    return sub_arch, nn.pack(sub_arch, cropped)


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
    merged = nn.copy_params(global_params)
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
        merged[i].w[_index_expr(spec, in_idx, out_idx)] = mean[i].w
        merged[i].b[out_idx if out_idx is not None else slice(None)] = mean[i].b
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


# Test samples per ``evaluate`` batch: whole 512-sample batches give the
# same bits in any process, and splitting a batch changes the dense layers' bits.
EVAL_BATCH = 512


def evaluate(arch: nn.ModelArch, params: nn.Params, samples: np.ndarray,
             labels: np.ndarray) -> float:
    """Top-1 accuracy in eval mode; deterministic for fixed inputs."""
    if samples.shape[0] == 0:
        raise ConfigError("cannot evaluate: the test split is empty")
    hits = 0
    for start in range(0, samples.shape[0], EVAL_BATCH):
        probs = nn.forward(arch, params, samples[start:start + EVAL_BATCH])
        hits += int((probs.argmax(axis=1) ==
                     labels[start:start + EVAL_BATCH]).sum())
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
    fd_keep_fraction: float | None = None  # None -> 1 - the model's dropout rate
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


_worker: dict = {}  # in a forked worker: the pool's slots and the shards


def _start_worker(slots: np.ndarray, shards: list[ClientShard]) -> None:
    # An interrupt is the parent's to handle; its pool.close() reaps the
    # workers. SIGINT stays blocked, as at the fork (see submit), and ignored.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Lowest priority, so the parent's evaluation, which overlaps the
    # training, is not starved by the workers.
    os.nice(19)
    _worker.update(slots=slots, shards=shards)


def _train_in_worker(*args) -> list[tuple[float, int]]:
    return _train_slice(_worker["slots"], _worker["shards"], *args)


def _train_slice(slots: np.ndarray, shards: list[ClientShard], arch: nn.ModelArch,
                 cids: list[int], first_slot: int, r: int,
                 settings: RunSettings) -> list[tuple[float, int]]:
    """``local_train`` of clients ``cids``, each on its own stream, from the
    model in slot 0, each update packed into the next slot from
    ``first_slot`` on. Returns the clients' (loss, n)."""
    size = nn.count_params(arch)
    params = nn.Params(arch, slots[0, :size])
    out = []
    for k, cid in enumerate(cids):
        update, loss, n = local_train(
            arch, params, shards[cid], settings.train,
            rngmod.stream(settings.master_seed, rngmod.CLIENT, r, cid))
        nn.pack(arch, update, slots[first_slot + k, :size])
        out.append((loss, n))
    return out


class ClientPool:
    """Trains a round's clients: in this process at one worker, otherwise
    in fork-started processes, which inherit the shards copy-on-write.

    Parameters travel through one shared anonymous mapping of
    ``clients + 1`` float32 slots of ``slot_size`` elements, the largest
    ``nn.count_params`` of the schedule. A model in a slot is the
    ``nn.Params`` over the slot's first ``count_params(arch)`` elements.
    Slot 0 holds the broadcast model and slot k + 1 the update of the
    k-th selected client. Each worker trains a contiguous slice of the
    selection and sends back only (loss, n), so at any worker count every
    client does the same arithmetic and the updates are the same bits.
    Workers run at niceness 19. While they wait at the round's barrier,
    the parent's ``aggregate`` folds on every CPU; it starts no thread
    that outlives the call, so the fork sees none.
    """

    def __init__(self, workers: int, clients: int, slot_size: int,
                 shards: list[ClientShard]):
        self.workers = workers
        self._shards = shards
        self._mapping = mmap.mmap(-1, (clients + 1) * slot_size * np.dtype(nn.DTYPE).itemsize)
        self.slots = np.frombuffer(self._mapping, dtype=nn.DTYPE).reshape(clients + 1, -1)
        self._executor = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(self.slots, shards)) if workers > 1 else None

    def submit(self, arch: nn.ModelArch, params: nn.Params, sel: list[int], r: int,
               settings: RunSettings) -> list[Callable[[], list]]:
        """Copy ``params.flat`` to slot 0 and start training ``sel`` across the
        workers; ``collect`` calls the returned slices, which at one worker
        train in this process. Every slot is rewritten, so the previous
        round's updates must be collected and merged first."""
        self.slots[0, :params.flat.size] = params.flat
        if self._executor is None:
            return [functools.partial(_train_slice, self.slots, self._shards,
                                      arch, sel, 1, r, settings)]
        bounds = [len(sel) * w // self.workers for w in range(self.workers + 1)]
        # The executor forks every worker at its first submit, so no worker
        # runs Python with SIGINT unblocked before it ignores it.
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            return [self._executor.submit(_train_in_worker, arch, sel[lo:hi], lo + 1, r,
                                          settings).result
                    for lo, hi in zip(bounds, bounds[1:])]
        finally:  # an interrupt that came meanwhile is raised here
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def collect(self, arch: nn.ModelArch,
                slices: list[Callable[[], list]]) -> list[tuple[nn.Params, float, int]]:
        """The submitted clients' (update, loss, n) in ``sel`` order; the
        updates are views of the slots, valid until the next ``submit``."""
        try:
            results = [pair for wait in slices for pair in wait()]
        except BrokenProcessPool as e:
            raise FedgrowError(f"a client training worker exited unexpectedly: {e}") from e
        size = nn.count_params(arch)
        return [(nn.Params(arch, self.slots[k + 1, :size]), loss, n)
                for k, (loss, n) in enumerate(results)]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
        self._executor = self.slots = None  # both hold the mapping
        try:
            self._mapping.close()
        except BufferError:  # a slot view is still alive; it keeps the mapping
            pass


def fd_plan(method: str, schedule: GrowthSchedule, settings: RunSettings) -> list:
    """Per model of ``schedule``, the keep fraction federated dropout crops
    it at under ``method``, or None to broadcast it in full (fedavg, fnn, a
    keep of 1, fnn-fd's first ``fd_exempt_prefix`` models, all but fd's
    last). Raises ConfigError naming a model the keep fraction does not fit."""
    n = schedule.num_models
    plan = [None] * n
    for k in range({"fd": n - 1, "fnn-fd": settings.fd_exempt_prefix}.get(method, n), n):
        try:
            keep, _ = fd_kept_units(schedule.models[k], settings.fd_keep_fraction)
        except ConfigError as e:
            raise ConfigError(f"fd_keep_fraction on model {k + 1}: {e}") from e
        plan[k] = None if keep == 1.0 else keep
    return plan


def broadcast(state: RunState, r: int, plan: list, settings: RunSettings):
    """(arch, params, mask) sent to round ``r``'s clients: the model cut at
    its ``fd_plan`` keep fraction, or in full with mask None."""
    keep = plan[state.model_index]
    if keep is None:
        return state.arch, state.params, None
    return fd_extract(state.arch, state.params, keep,
                      rngmod.stream(settings.master_seed, rngmod.FD_MASK, r))


# A model whose test accuracy is owed: (arch, params, targets), where each
# target is a (record, field name) that receives the accuracy.
Evaluation = tuple[nn.ModelArch, nn.Params, list[tuple[object, str]]]


def switch(state: RunState, r: int, signal: float, diffs, seed: int,
           evaluations: list[Evaluation]) -> None:
    """Grow ``state`` to the next model and record the switch event. The
    models before and after the switch are appended to ``evaluations``,
    owing the event's two accuracies."""
    index = state.model_index
    event = SwitchEvent(r, index, index + 1, signal, None, None)
    before = (state.arch, state.params, [(event, "accuracy_before")])
    state.arch, state.params, _ = apply_diff(
        state.arch, state.params, diffs[index], rngmod.stream(seed, rngmod.SWITCH, index))
    evaluations += [before, (state.arch, state.params, [(event, "accuracy_after")])]
    state.events.append(event)
    state.policy.advance()


@contextmanager
def _in_round(r: int):
    """Prefix a simulator error raised in the block with its round."""
    try:
        yield
    except FedgrowError as e:
        raise type(e)(f"round {r}: {e}") from e


@dataclass
class Sent:
    """A round between ``start_round`` and ``finish_round``: what was
    broadcast, and ``train``, the pool's ``collect``, which returns the
    clients' (update, loss, n)."""

    r: int
    model_index: int  # the model trained this round, reported pre-switch
    sel: list[int]
    arch: nn.ModelArch
    mask: DropoutMask | None
    train: Callable[[], list]


def start_round(state: RunState, r: int, plan: list, shards: list[ClientShard],
                settings: RunSettings, pool: ClientPool) -> Sent:
    """Select and broadcast round ``r``'s clients as ``plan`` (``fd_plan``)
    says and submit them to ``pool``; ``finish_round`` collects their updates."""
    index = state.model_index
    with _in_round(r):
        sel = select_clients(rngmod.stream(settings.master_seed, rngmod.SELECT, r),
                             len(shards), settings.clients_per_round)
        arch, params, mask = broadcast(state, r, plan, settings)
        train = functools.partial(pool.collect, arch,
                                  pool.submit(arch, params, sel, r, settings))
    return Sent(r, index, sel, arch, mask, train)


def finish_round(state: RunState, sent: Sent, schedule: GrowthSchedule, diffs,
                 settings: RunSettings):
    """Merge round ``sent.r``'s updates into ``state``, step the policy and
    switch when it fires. Returns the round's row and the evaluations
    ``settle_round`` owes it."""
    r, policy = sent.r, state.policy
    with _in_round(r):
        updates = sent.train()
        if sent.mask is None:
            state.params = aggregate([(p, n) for p, _, n in updates])
        else:
            state.params = fd_merge(state.arch, state.params,
                                    [(p, sent.mask, n) for p, _, n in updates])
        wloss = weighted_round_loss((loss, n) for _, loss, n in updates)
        policy.record_round_loss(wloss)
        signal = policy.progress_signal()
        switched = diffs is not None and policy.should_switch(schedule)
        evaluations: list[Evaluation] = []
        if switched:
            switch(state, r, signal, diffs, settings.master_seed, evaluations)

        mean_n = sum(n for _, _, n in updates) / len(sent.sel)
        flops = settings.train.local_epochs * int(nn.fwd_bwd_flops(sent.arch) * mean_n)
        down = up = nn.count_params(sent.arch) * len(sent.sel) * BYTES_PER_SCALAR
        row = RoundMetrics(r, sent.model_index, wloss, None, signal, switched,
                           down, up, state.ledger.total_bytes + down + up, flops)
    if settings.eval_every > 0 and (r + 1) % settings.eval_every == 0:
        if not switched:
            evaluations.append((state.arch, state.params, []))
        # After a switch the grown model is owed already, for accuracy_after.
        evaluations[-1][2].append((row, "test_accuracy"))
    return row, evaluations


def settle_round(state: RunState, row: RoundMetrics, evaluations: list[Evaluation],
                 test_samples, test_labels) -> RoundMetrics:
    """Evaluate what ``finish_round`` left owed, fill the accuracies in and
    append the completed row to ``state.metrics``. Without test samples
    nothing is evaluated and every accuracy stays None."""
    if test_samples is None or test_samples.shape[0] == 0:
        evaluations = []
    with _in_round(row.round):
        for arch, params, targets in evaluations:
            accuracy = evaluate(arch, params, test_samples, test_labels)
            for record, name in targets:
                setattr(record, name, accuracy)
    state.metrics.append(row)
    return row


def run_experiment(method: str, schedule: GrowthSchedule,
                   shards: list[ClientShard],
                   test_samples: np.ndarray | None,
                   test_labels: np.ndarray | None,
                   settings: RunSettings,
                   on_round=None) -> RunState:
    """Execute a full multi-round run of one method.

    ``on_round`` (optional) receives each RoundMetrics once its accuracy
    is known, so callers can stream partial results before a failure. A
    ``ClientPool`` of ``worker_count`` workers with a slot for the largest
    model of the schedule trains the clients. Each round runs
    ``start_round``; then the previous round's ``settle_round``, whose
    evaluations overlap this round's training in forked workers (at one
    worker, precede it); then this round's ``finish_round``. A row that
    owes no evaluation is settled at once, and any row, with test samples
    or none, at most one round late. Every completed round's row reaches
    ``on_round`` before a later round's error is raised.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    if settings.clients_per_round is None or settings.train is None:
        raise ConfigError("run settings need clients_per_round and train")
    if settings.clients_per_round > len(shards):
        raise ConfigError(f"clients per round {settings.clients_per_round} exceeds "
                          f"population {len(shards)}")
    plan = fd_plan(method, schedule, settings)
    staged = method in ("fnn", "fnn-fd")
    diffs = schedule_diffs(schedule) if staged else None
    index = 0 if staged else schedule.num_models - 1
    arch = schedule.models[index]
    init_rng = rngmod.stream(settings.master_seed, rngmod.INIT)
    policy = SwitchPolicy(settings.switch_window, settings.switch_lag, model_index=index)
    # No local holds the initial params, so the first merge frees them.
    state = RunState(arch, nn.init_params(arch, init_rng, settings.init_scheme), policy)
    owed = None  # (row, evaluations) of a finished round not yet settled

    def settle():
        nonlocal owed
        if owed is not None:
            row, owed = settle_round(state, *owed, test_samples, test_labels), None
            if on_round is not None:
                on_round(row)

    pool = ClientPool(worker_count(settings), settings.clients_per_round,
                      max(nn.count_params(m) for m in schedule.models), shards)
    try:
        for r in range(settings.rounds):
            try:
                sent = start_round(state, r, plan, shards, settings, pool)
            finally:  # the previous row is written even when this round fails
                settle()
            owed = finish_round(state, sent, schedule, diffs, settings)
            if not owed[1]:
                settle()
        settle()
    finally:
        pool.close()
    return state
