"""Synchronous federated training loop.

``run_experiment`` steps a ``RunState`` (params, switching policy,
metrics rows, switch events) round by round in one loop. Each round
selects its clients (``select_clients``), broadcasts (``broadcast``: the
full model, or a random sub-network cut by ``fd_extract`` where
``fd_plan`` crops) and submits their local SGD to the run's
``ClientPool``; settles the previous round, evaluating (``evaluate``)
the models it owes, so the evaluation overlaps the workers' training;
then collects the updates, merges them (``aggregate``, or ``fd_merge``
under federated dropout), records the loss in the policy, switches
(staged methods: ``switch`` grows the model in place with
``apply_diff`` once the policy fires) and builds the round's metrics
row. A round owes the models before and after its switch, or on every
``eval_every``-th round the merged model, unless there are no test
samples. A full broadcast leaves the server's model in the pool's slot
0, its only copy, and ``aggregate`` writes the merged model over it.
Every transmitted scalar is accounted at 4 bytes.

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


def client_order(labels: np.ndarray, spec: PartitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sizes): the rows of a dataset with ``labels`` in client
    order, client 0's shard first, and each client's shard size. The
    shards are disjoint and exhaustive. They depend only on the labels and
    ``spec``, so a loader can write its rows straight into this order."""
    n = labels.shape[0]
    if n == 0:
        raise ConfigError("cannot partition an empty dataset")
    if spec.client_count > n:
        raise ConfigError(f"more clients ({spec.client_count}) than samples ({n})")
    rng = rngmod.stream(spec.seed, rngmod.DATA)
    if spec.scheme == "iid-uniform":  # the sizes of np.array_split's pieces
        sizes = np.full(spec.client_count, n // spec.client_count)
        sizes[:n % spec.client_count] += 1
        return rng.permutation(n), sizes
    pieces = _label_shard_pieces(labels, spec, rng)
    return np.concatenate(pieces), np.array([piece.size for piece in pieces])


def partition(samples: np.ndarray, labels: np.ndarray,
              sizes: np.ndarray) -> list[ClientShard]:
    """The client shards of a dataset already in client order (see
    ``client_order``): client k holds the next ``sizes[k]`` rows, as views
    of ``samples`` and ``labels``, so the shards copy nothing."""
    ends = np.cumsum(sizes).tolist()
    return [ClientShard(cid, samples[start:end], labels[start:end])
            for cid, (start, end) in enumerate(zip([0, *ends], ends))]


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


def aggregate(updates: list[tuple[nn.Params, int]], *,
              out: np.ndarray | None = None) -> nn.Params:
    """Sample-count-weighted mean of client parameters of one arch, as the
    ``nn.Params`` over ``out`` (a fresh vector when None).

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
    ``out`` must be a ``count_params`` float32 vector that shares no
    memory with any update, or ConfigError is raised before it is written.
    """
    if not updates:
        raise ConfigError("aggregate needs at least one update")
    arch = updates[0][0].arch
    if any(p.arch.layers != arch.layers for p, _ in updates[1:]):
        raise ConfigError("aggregate: updates differ in their layers or layer shapes")
    total = float(sum(n for _, n in updates))
    if total <= 0:
        raise ConfigError("aggregate: total sample count must be positive")
    out = nn.Params(arch, out)
    if any(np.shares_memory(out.flat, p.flat) for p, _ in updates):
        raise ConfigError("aggregate: out shares memory with an update")
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
    hidden trainable layer, with the weights of the next trainable layer
    that read them (``nn.next_inputs``). Returns (sub_arch, sub_params,
    mask), the mask mapping each hidden trainable layer to its kept output
    indices, sorted and unique; the classifier, absent, keeps every output.
    """
    _, counts = fd_kept_units(arch, keep_fraction)
    mask = {i: np.sort(rng.choice(arch.layers[i].weight_shape[-1], size=count,
                                  replace=False))
            for i, count in counts.items()}
    sub_arch, sub_params = _crop_model(arch, params, mask)
    return sub_arch, sub_params, mask


def _kept_blocks(arch: nn.ModelArch, mask: dict[int, np.ndarray]) -> dict:
    """Trainable layer index -> its kept [input, output] indices in the full
    model's coordinates, ``np.arange`` of a whole axis."""
    blocks = {i: [np.arange(n) for n in arch.layers[i].weight_shape[-2:]]
              for i in nn.trainable_indices(arch)}
    for i, kept in mask.items():
        blocks[i][1] = kept
        j, rows = nn.next_inputs(arch, i, kept)
        if j is not None:
            blocks[j][0] = rows
    return blocks


def _crop_model(arch: nn.ModelArch, params: nn.Params, mask: dict[int, np.ndarray]):
    layers = list(arch.layers)
    cropped = {}
    for i, (in_idx, out_idx) in _kept_blocks(arch, mask).items():
        spec, p = arch.layers[i], params[i]
        w = p.w[_index_expr(in_idx, out_idx)]
        cropped[i] = nn.LayerParams(w, p.b[out_idx])
        layers[i] = spec.with_widths(*w.shape[-2:])
    sub_arch = arch.with_layers(layers)
    nn.validate_arch(sub_arch)
    return sub_arch, nn.pack(sub_arch, cropped)


def fd_merge(arch: nn.ModelArch, global_params: nn.Params,
             updates: list[tuple[nn.Params, dict[int, np.ndarray], int]]) -> nn.Params:
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
        same = other is mask or (other.keys() == mask.keys() and all(
            np.array_equal(other[i], kept) for i, kept in mask.items()))
        if not same:
            raise ConfigError("fd_merge: updates carry different masks; "
                              "a round shares one mask")
    mean = aggregate([(sub, n) for sub, _, n in updates])
    merged = nn.copy_params(global_params)
    for i, (in_idx, out_idx) in _kept_blocks(arch, mask).items():
        kernel = arch.layers[i].weight_shape[:-2]
        if mean[i].w.shape != (*kernel, len(in_idx), len(out_idx)) or \
                mean[i].b.shape != (len(out_idx),):
            raise ConfigError(f"fd_merge: layer {i} update shape {mean[i].w.shape} "
                              f"inconsistent with its mask")
        merged[i].w[_index_expr(in_idx, out_idx)] = mean[i].w
        merged[i].b[out_idx] = mean[i].b
    return merged


def _index_expr(in_idx, out_idx):
    """Index of the kept (input, output) block of a trainable layer's weight
    array, inputs on axis -2 and outputs on axis -1."""
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
    """One row of metrics.csv, whose columns are these fields' names."""

    round: int
    model_index: int
    weighted_loss: float
    test_accuracy: float | None
    S_t: float | None
    switch_flag: bool
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
    """Everything a run carries from one round to the next. The model is
    ``params``, whose ``arch`` is its architecture."""

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
    k-th selected client. A run that broadcasts in full keeps its model
    in slot 0 and merges into it, so ``submit`` copies nothing then. Each
    worker trains a contiguous slice of the selection and sends back only
    (loss, n), so at any worker count every client does the same
    arithmetic and the updates are the same bits.
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
        """Copy ``params.flat`` to slot 0, unless it is slot 0's view, and
        start training ``sel`` across the workers; ``collect`` calls the
        returned slices, which at one worker train in this process. Every
        other slot is rewritten, so the previous round's updates must be
        collected and merged first."""
        slot = self.slots[0, :params.flat.size]
        if (params.flat.ctypes.data, params.flat.strides) != (slot.ctypes.data, slot.strides):
            slot[...] = params.flat
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
    """(params, mask) sent to round ``r``'s clients: the model cut at its
    ``fd_plan`` keep fraction, or in full with mask None."""
    keep = plan[state.model_index]
    if keep is None:
        return state.params, None
    return fd_extract(state.params.arch, state.params, keep,
                      rngmod.stream(settings.master_seed, rngmod.FD_MASK, r))[1:]


def switch(state: RunState, r: int, signal: float, diffs, seed: int) -> SwitchEvent:
    """Grow ``state`` to the next model and record the switch event, whose
    accuracies the round's settle step fills in."""
    index = state.model_index
    event = SwitchEvent(r, index, index + 1, signal, None, None)
    _, state.params, _ = apply_diff(
        state.params.arch, state.params, diffs[index], rngmod.stream(seed, rngmod.SWITCH, index))
    state.events.append(event)
    state.policy.advance()
    return event


@contextmanager
def _in_round(r: int):
    """Prefix a simulator error raised in the block with its round."""
    try:
        yield
    except FedgrowError as e:
        raise type(e)(f"round {r}: {e}") from e


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
    model of the schedule trains the clients. Each round selects its
    clients, broadcasts and submits them to the pool; then settles the
    previous round, whose evaluations overlap this round's training in
    forked workers (at one worker, precede it); then collects, merges,
    records the loss, switches if the policy fires and builds the row.
    A finished round owes the models it still has to evaluate: a switch
    round the models before and after the switch, another evaluation
    round the merged model, any other round, or any round of a run
    without test samples, none. A row that owes none is settled at once,
    any other one round late. Every completed round's row reaches
    ``on_round`` before a later round's error is raised.

    Under a full broadcast ``state.params`` is the view of slot 0 from the
    submit on, and the merge folds into it. The next submit overwrites
    slot 0, so a switch round copies out a pre-switch model it owes, and
    the run copies out its final model before the pool unmaps the slots.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    if settings.clients_per_round is None or settings.train is None:
        raise ConfigError("run settings need clients_per_round and train")
    if settings.clients_per_round > len(shards):
        raise ConfigError(f"clients per round {settings.clients_per_round} exceeds "
                          f"population {len(shards)}")
    testing = test_samples is not None and test_samples.shape[0] > 0
    plan = fd_plan(method, schedule, settings)
    staged = method in ("fnn", "fnn-fd")
    diffs = schedule_diffs(schedule) if staged else None
    index = 0 if staged else schedule.num_models - 1
    arch = schedule.models[index]
    init_rng = rngmod.stream(settings.master_seed, rngmod.INIT)
    policy = SwitchPolicy(settings.switch_window, settings.switch_lag, model_index=index)
    # No local holds the initial params, so the first round frees them.
    state = RunState(nn.init_params(arch, init_rng, settings.init_scheme), policy)
    total_bytes = 0
    owed = None  # (row, event, models) of a finished round not yet settled

    def evaluated(r: int) -> bool:
        return settings.eval_every > 0 and (r + 1) % settings.eval_every == 0

    def write(row: RoundMetrics) -> None:
        state.metrics.append(row)
        if on_round is not None:
            on_round(row)

    def settle() -> None:
        """Evaluate the models the owed round lists, fill its accuracies in
        and write its row."""
        nonlocal owed
        if owed is not None:
            (row, event, models), owed = owed, None
            with _in_round(row.round):
                accuracies = [evaluate(p.arch, p, test_samples, test_labels)
                              for p in models]
            if event is not None:
                event.accuracy_before, event.accuracy_after = accuracies
            if evaluated(row.round):
                row.test_accuracy = accuracies[-1]
            write(row)

    pool = ClientPool(worker_count(settings), settings.clients_per_round,
                      max(nn.count_params(m) for m in schedule.models), shards)
    try:
        for r in range(settings.rounds):
            index = state.model_index  # the model trained this round, reported pre-switch
            try:
                with _in_round(r):
                    sel = select_clients(rngmod.stream(settings.master_seed, rngmod.SELECT, r),
                                         len(shards), settings.clients_per_round)
                    params, mask = broadcast(state, r, plan, settings)
                    arch = params.arch
                    slices = pool.submit(arch, params, sel, r, settings)
                    if mask is None:  # slot 0 holds the model now, its only copy
                        state.params = nn.Params(arch, pool.slots[0, :params.flat.size])
                    del params  # the slots hold it now, so no earlier model outlives the round
            finally:  # the previous row is written even when this round fails
                settle()
            with _in_round(r):
                updates = pool.collect(arch, slices)
                if mask is None:
                    state.params = aggregate([(p, n) for p, _, n in updates],
                                             out=state.params.flat)
                else:
                    state.params = fd_merge(state.params.arch, state.params,
                                            [(p, mask, n) for p, _, n in updates])
                wloss = weighted_round_loss((loss, n) for _, loss, n in updates)
                policy.record_round_loss(wloss)
                signal = policy.progress_signal()
                event, models = None, [state.params]
                if diffs is not None and policy.should_switch(schedule):
                    if testing and mask is None:  # the next submit overwrites slot 0
                        models = [nn.copy_params(state.params)]
                    event = switch(state, r, signal, diffs, settings.master_seed)
                    models.append(state.params)
                elif not evaluated(r):
                    models = []

                mean_n = sum(n for _, _, n in updates) / len(sel)
                flops = settings.train.local_epochs * int(nn.fwd_bwd_flops(arch) * mean_n)
                down = up = nn.count_params(arch) * len(sel) * BYTES_PER_SCALAR
                total_bytes += down + up
                row = RoundMetrics(r, index, wloss, None, signal, event is not None,
                                   down, up, total_bytes, flops)
            if testing and models:
                owed = (row, event, models)
            else:
                write(row)
            # owed alone holds the models and the pool its slots, so settling
            # frees the models and close() unmaps the slots.
            del models, updates, slices
        settle()
        if np.shares_memory(state.params.flat, pool.slots):  # the model outlives the slots
            state.params = nn.copy_params(state.params)
    finally:
        pool.close()
    return state
