"""The benchmark's workloads and the inputs it generates for them.

Each workload is one method of the paper, run through the public API
(``fedgrow.experiment.run``) as a closed loop: one simulation in one
process, every round waiting for the previous one. Each puts its weight
on a different layer of the simulator, so that a change to one layer
shows on the workload that exercises it and not on the others.

``fnn-mnist-grow`` reads IDX files that this module writes from the
workload seed. They are made here, not by
``fedgrow.datasets.make_synthetic``, so that a change to the program
cannot change what the program is fed. ``fd-cifar10`` needs 32x32x3
input, which the IDX loader cannot read, so it uses the config's
synthetic dataset seeded from the workload seed; its ``metrics.csv``
hash shows when a change alters that generator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


@dataclass(frozen=True)
class Corpus:
    """Class-blob uint8 images, written as the four standard IDX files.

    Every image is a grey background plus uniform noise; class ``c``
    brightens its own contiguous block of pixels. A fixed share of labels
    is then redrawn at random, so the loss levels off well above zero
    instead of vanishing at a seed-dependent rate. The class means do not
    depend on the seed, so every seed poses the same task.
    """

    classes: int
    train: int
    test: int
    side: int = 28


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # ExperimentConfig fields; the runner adds the seeds and the paths.
    config: dict
    corpus: Corpus | None = None  # None: the config's synthetic dataset

    @property
    def rounds(self) -> int:
        return self.config["rounds"]

    @property
    def stage_rounds(self) -> int:
        """Rounds each model of an fnn run trains before its switch."""
        return self.config.get("switch_window", 0) + self.config.get("switch_lag", 0)


# 100 clients share 1000 training samples, so each shard is one batch of
# 10 and every client does one SGD step per round. The 60k-image corpus
# matches MNIST, so the IDX ingest in set-up has a realistic size.
_MNIST_CORPUS_TRAIN = 60000
_SHARD_SAMPLES = 1000
_PARTITION = {"scheme": "iid-uniform", "client_count": 100, "shards_per_client": 2}

# Stages of fnn-mnist-grow: models 1-5 train for window + lag rounds
# each; the last model, which never switches, trains for the rest.
_FNN_WINDOW, _FNN_LAG = 3, 5
_FNN_STAGES = 6
_FNN_LAST_STAGE = 61

WORKLOADS = {w.name: w for w in (
    Workload(
        name="fnn-mnist-grow",
        why=("the paper's own method: every transform kind at a switch, "
             "small-to-mid conv, maxpool and evaluate dominate"),
        config={
            "dataset": "mnist", "method": "fnn", "schedule": "mnist",
            # Round times rise stage by stage, and a burst of load on the
            # host moves the rounds of one stage together. The last stage
            # holds 60% of the rounds, so the median round is one of its
            # plain rounds and p90 one of its evaluation rounds: both are
            # sampled all through the longest stretch of the run, not
            # from the few seconds one short stage lasts.
            "rounds": (_FNN_STAGES - 1) * (_FNN_WINDOW + _FNN_LAG) + _FNN_LAST_STAGE,
            "clients_per_round": 10,
            "switch_window": _FNN_WINDOW, "switch_lag": _FNN_LAG,
            # Thresholds far above any progress signal make every stage
            # last exactly window + lag rounds, so the stage mix (and with
            # it the round-time distribution) does not move when a change
            # moves the loss in its last bits.
            "thresholds_override": [1e9] * (_FNN_STAGES - 1),
            # Every 4th round evaluates: one plain round and the switch
            # round (which also evaluates before and after the switch) of
            # each early stage, and 15 rounds of the last stage. The 3
            # dearest switch rounds and those 15 make up the slowest 18%
            # of rounds, so p90 falls among the last stage's evaluation
            # rounds, far from either edge of that group.
            "eval_every": 4,
            "max_train_samples": _SHARD_SAMPLES,
            "partition": _PARTITION,
        },
        # 300 test images keep evaluation near a fifth of the run.
        corpus=Corpus(classes=10, train=_MNIST_CORPUS_TRAIN, test=300),
    ),
    Workload(
        name="fd-cifar10",
        why=("federated-dropout baseline on the cifar10 final model: conv "
             "forward/backward dominate, aggregation goes through fd_merge"),
        config={
            "dataset": "synthetic", "method": "fd", "schedule": "cifar10",
            # One simulation fills a 30 s run (about 1.5 s a round); load
            # on the host comes in bursts of seconds, so a shorter one
            # spreads more from run to run.
            "rounds": 20, "clients_per_round": 10, "eval_every": 0,
            "synthetic": {"classes": 10, "per_class": _SHARD_SAMPLES // 10,
                          "test_per_class": 1, "dims": [32, 32, 3],
                          "sigma": 0.1, "separation": 6.0},
            "partition": _PARTITION,
        },
    ),
)}


def experiment_config(workload: Workload, seed: int, out_dir: Path,
                      data_dir: Path | None) -> dict:
    """The ExperimentConfig dict of one simulation of ``workload``."""
    config = {**workload.config, "master_seed": seed, "output_dir": str(out_dir)}
    config["partition"] = {**config["partition"], "seed": seed}
    if data_dir is not None:
        config["data_dir"] = str(data_dir)
    return config


# ---------------------------------------------------------------------------
# Input generation

_BACKGROUND = 64
_BLOB = 96
_NOISE = 48
_LABEL_NOISE = 0.4
_CHUNK = 8192


def _class_means(corpus: Corpus) -> np.ndarray:
    flat = corpus.side * corpus.side
    block = flat // corpus.classes
    means = np.full((corpus.classes, flat), _BACKGROUND, dtype=np.int16)
    for c in range(corpus.classes):
        means[c, c * block:(c + 1) * block] += _BLOB
    return means


def write_corpus(corpus: Corpus, seed: int, directory: Path) -> None:
    """Write the train and test IDX files of ``corpus`` for ``seed``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, corpus.classes, corpus.train, corpus.test])
    means = _class_means(corpus)
    flat = means.shape[1]
    for prefix, count in (("train", corpus.train), ("t10k", corpus.test)):
        classes = rng.integers(0, corpus.classes, count)
        redraw = rng.random(count) < _LABEL_NOISE
        labels = np.where(redraw, rng.integers(0, corpus.classes, count),
                          classes).astype(np.uint8)
        with open(directory / f"{prefix}-labels-idx1-ubyte", "wb") as fh:
            fh.write(struct.pack(">II", IDX_LABEL_MAGIC, count))
            fh.write(labels.tobytes())
        with open(directory / f"{prefix}-images-idx3-ubyte", "wb") as fh:
            fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count,
                                 corpus.side, corpus.side))
            for start in range(0, count, _CHUNK):
                cls = classes[start:start + _CHUNK]
                noise = rng.integers(-_NOISE, _NOISE + 1, (len(cls), flat),
                                     dtype=np.int16)
                pixels = np.clip(means[cls] + noise, 0, 255).astype(np.uint8)
                fh.write(pixels.tobytes())
