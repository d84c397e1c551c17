"""Experiment orchestration and CLI tests."""

import csv
import json
import os
from pathlib import Path

import pytest

from fedgrow import cli, experiment, fedsim, growth
from fedgrow.errors import ConfigError, FedgrowError, NumericalError
from fedgrow.experiment import ExperimentConfig, METRICS_COLUMNS
from fedgrow.rng import CLIENT, SELECT, stream


def tiny_config(tmp_path, method="fnn", rounds=30, seed=5, name=None):
    cfg = ExperimentConfig(
        dataset="synthetic", method=method, rounds=rounds,
        clients_per_round=4, master_seed=seed,
        output_dir=str(tmp_path / (name or method)),
        switch_window=4, switch_lag=8, eval_every=5,
    )
    cfg.synthetic = experiment.SyntheticSpec(
        classes=3, per_class=40, test_per_class=15, dims=(8, 8, 1), separation=20.0)
    cfg.partition = fedsim.PartitionSpec(client_count=12, seed=seed)
    cfg.schedule = str(tmp_path / "sched.json")
    sched = growth.GrowthSchedule(
        "synthetic",
        tuple(growth.build_arch((8, 8, 1), row, 0.125, name=f"s{i}") for i, row in
              enumerate([
                  [("conv", 2, 3), ("pool", 2), ("dense", 4), ("dense", 3)],
                  [("conv", 4, 3), ("pool", 2), ("dense", 4), ("dense", 3)],
              ])),
        (0.5,))
    growth.save_schedule(sched, cfg.schedule)
    return cfg


def test_config_round_trip(tmp_path):
    cfg = tiny_config(tmp_path)
    clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert clone == cfg
    assert clone.config_hash() == cfg.config_hash()


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"datset": "mnist"})


@pytest.mark.parametrize("fraction", [0.0, -0.25, 1.5])
def test_fd_keep_fraction_outside_unit_interval_rejected(tmp_path, fraction):
    cfg = tiny_config(tmp_path, method="fd")
    cfg.fd_keep_fraction = fraction
    with pytest.raises(ConfigError, match="fd_keep_fraction"):
        cfg.validate()
    cfg.fd_keep_fraction = 1.0
    cfg.validate()


def test_validation_collects_all_problems(tmp_path):
    cfg = ExperimentConfig(dataset="mnist", method="bogus", rounds=-1,
                           output_dir=str(tmp_path), schedule="no-such-file.json")
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    message = str(exc.value)
    for fragment in ("unknown method", "rounds must be", "schedule", "data_dir"):
        assert fragment in message


def test_run_writes_all_artifacts(tmp_path):
    cfg = tiny_config(tmp_path, rounds=30)
    out = experiment.run(cfg)
    for name in ("config.json", "metrics.csv", "ledger.csv", "manifest.json"):
        assert (out / name).exists()
    with open(out / "metrics.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == METRICS_COLUMNS
    assert len(rows) == 30
    assert all(len(row) == len(header) for row in rows)
    assert [int(row[0]) for row in rows] == list(range(30))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["rounds_completed"] == 30
    assert manifest["schedule"]["param_counts"][0] < manifest["schedule"]["param_counts"][1]


def test_manifest_switch_events_match_metrics_flags(tmp_path):
    cfg = tiny_config(tmp_path, rounds=40)
    out = experiment.run(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    with open(out / "metrics.csv") as fh:
        flagged = [int(r["round"]) for r in csv.DictReader(fh)
                   if r["switch_flag"] == "1"]
    event_rounds = [ev["round"] for ev in manifest["switch_events"]]
    assert flagged == event_rounds
    assert len(event_rounds) >= 1
    for ev in manifest["switch_events"]:
        assert ev["to_model"] == ev["from_model"] + 1
        assert abs(ev["accuracy_before"] - ev["accuracy_after"]) < 1e-5


def test_metrics_accuracy_only_on_eval_rounds(tmp_path):
    cfg = tiny_config(tmp_path, rounds=12, name="evalrounds")
    cfg.eval_every = 5
    out = experiment.run(cfg)
    with open(out / "metrics.csv") as fh:
        for row in csv.DictReader(fh):
            has_acc = row["test_accuracy"] != ""
            assert has_acc == ((int(row["round"]) + 1) % 5 == 0)


def test_same_seed_metrics_are_byte_identical(tmp_path):
    cfg_a = tiny_config(tmp_path, rounds=25, name="det-a")
    cfg_b = tiny_config(tmp_path, rounds=25, name="det-b")
    out_a = experiment.run(cfg_a)
    out_b = experiment.run(cfg_b)
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_compare_identical_runs_zero_reduction(tmp_path):
    out_a = experiment.run(tiny_config(tmp_path, rounds=20, name="same-a"))
    out_b = experiment.run(tiny_config(tmp_path, rounds=20, name="same-b"))
    rows = experiment.compare([out_a, out_b], tmp_path / "red.csv")
    assert rows, "expected at least one matched accuracy level"
    for row in rows:
        assert row["round_reduction_pct"] == 0.0
        assert row["cumulative_reduction_pct"] == 0.0


def test_compare_dataset_mismatch(tmp_path):
    out_a = experiment.run(tiny_config(tmp_path, rounds=10, name="ds-a"))
    out_b = experiment.run(tiny_config(tmp_path, rounds=10, name="ds-b"))
    manifest = json.loads((out_b / "manifest.json").read_text())
    manifest["dataset"] = "cifar10"
    (out_b / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="dataset mismatch"):
        experiment.compare([out_a, out_b], tmp_path / "red.csv")


def test_compare_reductions_are_antisymmetric(tmp_path):
    out_small = experiment.run(tiny_config(tmp_path, rounds=20, name="anti-small"))
    big = tiny_config(tmp_path, method="fedavg", rounds=20, name="anti-big")
    out_big = experiment.run(big)
    ab = experiment.compare([out_small, out_big], tmp_path / "ab.csv")
    ba = experiment.compare([out_big, out_small], tmp_path / "ba.csv")
    fwd = {r["accuracy_level"]: r["round_reduction_pct"] / 100.0 for r in ab}
    rev = {r["accuracy_level"]: r["round_reduction_pct"] / 100.0 for r in ba}
    for level, red in fwd.items():
        back = rev[level]
        assert abs(red + back / (1 - back)) < 1e-9


def test_mnist_requires_data_dir(tmp_path):
    cfg = ExperimentConfig(dataset="mnist", method="fedavg", rounds=1,
                           output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="data_dir"):
        cfg.validate()


def test_run_on_idx_files(tmp_path):
    # generate a small IDX dataset and drive a run through the file path
    from fedgrow import datasets
    from fedgrow.rng import stream
    train = datasets.make_synthetic(3, (8, 8, 1), 40, stream(1, 1), separation=20.0)
    test = datasets.make_synthetic(3, (8, 8, 1), 10, stream(1, 2), separation=20.0)
    data_dir = tmp_path / "idx"
    datasets.save_idx_dataset(data_dir, train, test)
    cfg = tiny_config(tmp_path, method="fedavg", rounds=6, name="idx-run")
    cfg.dataset = "mnist-like"
    cfg.data_dir = str(data_dir)
    out = experiment.run(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rounds_completed"] == 6


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_overrides(tmp_path, capsys):
    cfg = tiny_config(tmp_path, rounds=99, name="cli")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    rc = cli.main(["run", "--config", str(cfg_path), "--rounds", "8",
                   "--output", str(tmp_path / "cli-out"), "--seed", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run complete" in out
    manifest = json.loads((tmp_path / "cli-out" / "manifest.json").read_text())
    assert manifest["rounds_completed"] == 8
    assert manifest["master_seed"] == 9


# A 4x4 pool split on extents not divisible by 4, and an identity conv
# inserted at the input, where activations may be negative.
UNAPPLICABLE_SCHEDULES = [
    (30, [[{"conv": 2, "kernel": 3}, {"pool": 4}, {"dense": 4}, {"dense": 3}],
          [{"conv": 3, "kernel": 3}, {"pool": 2}, {"pool": 2}, {"dense": 4},
           {"dense": 3}]],
     "split-pool at layer 3: spatial extents (30, 30) not divisible by 4"),
    (8, [[{"conv": 2, "kernel": 5}, {"pool": 2}, {"dense": 4}, {"dense": 3}],
         [{"conv": 1, "kernel": 3}, {"conv": 2, "kernel": 5}, {"pool": 2},
          {"dense": 4}, {"dense": 3}]],
     "insert-identity at layer 0: insertion point may carry negative activations"),
]


def test_cli_validate_schedule(tmp_path, capsys):
    sched_path = tmp_path / "sched.json"
    growth.save_schedule(growth.builtin_schedule("mnist"), sched_path)
    assert cli.main(["validate-schedule", str(sched_path)]) == 0
    assert "schedule ok" in capsys.readouterr().out

    data = json.loads(sched_path.read_text())
    data["thresholds"] = data["thresholds"][:2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["validate-schedule", str(bad)]) == 1
    assert "threshold arity" in capsys.readouterr().out

    # A custom schedule that deepens the dense head by one hidden layer.
    deeper = tmp_path / "deeper-head.json"
    deeper.write_text(json.dumps({
        "dataset": "mnist", "input_shape": [8, 8, 1], "thresholds": [0.1],
        "models": [[{"conv": 2, "kernel": 3}, {"pool": 2}, {"dense": 4}, {"dense": 3}],
                   [{"conv": 2, "kernel": 3}, {"pool": 2}, {"dense": 4}, {"dense": 4},
                    {"dense": 3}]]}))
    assert cli.main(["validate-schedule", str(deeper)]) == 0
    assert "schedule ok: 2 models" in capsys.readouterr().out

    # An inserted conv with an even kernel cannot start as the identity.
    even = tmp_path / "even-kernel.json"
    even.write_text(json.dumps({
        "dataset": "mnist", "input_shape": [8, 8, 1], "thresholds": [0.1],
        "models": [[{"conv": 2, "kernel": 3}, {"pool": 2}, {"dense": 4}, {"dense": 3}],
                   [{"conv": 2, "kernel": 3}, {"pool": 2}, {"conv": 2, "kernel": 2},
                    {"dense": 4}, {"dense": 3}]]}))
    assert cli.main(["validate-schedule", str(even)]) == 1
    assert "start as the identity" in capsys.readouterr().out

    # Schedules whose structure lines up but whose transform cannot be
    # exact fail validation, and so fail a run before any output.
    for extent, rows, message in UNAPPLICABLE_SCHEDULES:
        cfg = tiny_config(tmp_path)
        Path(cfg.schedule).write_text(json.dumps({
            "dataset": "mnist", "input_shape": [extent, extent, 1],
            "thresholds": [0.1], "models": rows}))
        assert cli.main(["validate-schedule", cfg.schedule]) == 1
        assert message in capsys.readouterr().out
        cfg.synthetic.dims = (extent, extent, 1)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "never-written"
        assert cli.main(["run", "--config", str(cfg_path), "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_compare(tmp_path, capsys):
    out_a = experiment.run(tiny_config(tmp_path, rounds=15, name="cli-cmp-a"))
    out_b = experiment.run(tiny_config(tmp_path, rounds=15, name="cli-cmp-b"))
    red = tmp_path / "cli-red.csv"
    rc = cli.main(["compare", str(out_a), str(out_b), "--output", str(red)])
    assert rc == 0
    assert red.exists()


def test_cli_error_paths(tmp_path, capsys):
    rc = cli.main(["compare", str(tmp_path / "cli-missing")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_seed_override_keeps_the_configured_partition(tmp_path):
    cfg = tiny_config(tmp_path, name="seeded")
    cfg.partition = fedsim.PartitionSpec(scheme="label-shard-non-iid",
                                         client_count=10, seed=5)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "seeded-out"
    assert cli.main(["run", "--config", str(cfg_path), "--seed", "7",
                     "--rounds", "0", "--output", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["master_seed"] == 7
    assert echoed["partition"] == {"scheme": "label-shard-non-iid", "client_count": 10,
                                   "shards_per_client": 2, "seed": 7}


@pytest.mark.parametrize("override, fragment", [
    ({"train": {"learning_rate": 0.05, "bogus": 1}}, "unknown train keys"),
    ({"partition": {"client_count": 12, "bogus": 1}}, "unknown partition keys"),
    ({"synthetic": {"classes": 3, "bogus": 1}}, "unknown synthetic keys"),
    ({"rounds": "5"}, "'rounds' must be an integer"),
    ({"clients_per_round": 2.5}, "'clients_per_round' must be an integer"),
    ({"partition": {"client_count": "12"}}, "'client_count' must be an integer"),
    ({"train": {"learning_rate": 0.05, "batch_size": True}},
     "'batch_size' must be an integer"),
    ({"train": {"learning_rate": "0.1"}}, "'learning_rate' must be a number"),
    ({"fd_keep_fraction": "0.5"}, "'fd_keep_fraction' must be a number"),
    ({"thresholds_override": ["x"]}, "'thresholds_override' must be a list of numbers"),
    ({"train": {"batch_size": 20}}, "'learning_rate' is required"),
    ({"train": {"learning_rate": True}}, "'learning_rate' must be a number"),
    ({"train": 5}, "'train' must be a JSON object"),
    ({"synthetic": {"dims": 5}}, "'dims' must be three positive integers"),
    ({"synthetic": {"dims": ["a", "b", "c"]}}, "'dims' must be three positive integers"),
    ({"schedule": 5}, "'schedule' must be a string"),
    ({"thresholds_override": [0.5, 0.5]}, "threshold arity"),
    ({"synthetic": {"classes": 3, "dims": [32, 32, 3]}},
     "synthetic dims (32, 32, 3) do not match schedule input (8, 8, 1)"),
    ({"synthetic": {"classes": 5, "per_class": 8, "dims": [8, 8, 1]}},
     "dataset has 5 classes but the schedule classifier has 3"),
    ({"max_train_samples": -5}, "max_train_samples must be >= 0"),
    ({"synthetic": {"classes": 3, "dims": [8, 8, 1], "sigma": -0.1}},
     "synthetic sigma must be >= 0, got -0.1"),
    ({"init_scheme": "bogus"}, "unknown init scheme 'bogus'"),
    ({"max_train_samples": 5}, "more clients (12) than samples (5)"),
    ({"clients_per_round": 1, "partition": {"scheme": "label-shard-non-iid",
                                            "client_count": 1, "shards_per_client": 2}},
     "3 labels need at least 3 shards, got 2"),
    ({"master_seed": -3}, "master_seed must be >= 0, got -3"),
    ({"partition": {"client_count": 12, "seed": -1}}, "partition seed must be >= 0, got -1"),
    (["--seed", "-3"], "master_seed must be >= 0, got -3"),
])
def test_cli_rejects_malformed_config_before_any_output(tmp_path, capsys, override,
                                                        fragment):
    # An override is config keys (a dict) or extra `fedgrow run` flags (a list).
    flags = override if isinstance(override, list) else []
    data = tiny_config(tmp_path).to_dict()
    data.update({} if flags else override)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "never-written"
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("flags, seeds", [(["--seed", "-3"], 5), ([], -3)])
def test_a_negative_master_seed_is_reported_once(tmp_path, capsys, flags, seeds):
    # `--seed` sets both seeds; a config may too. One mistake names only master_seed.
    config = tiny_config(tmp_path, seed=seeds).to_dict()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert "master_seed must be >= 0, got -3" in err and "partition seed" not in err
    assert not (tmp_path / "fnn").exists()


_SCHEDULE_HEAD = '{"dataset": "mnist", "input_shape": [8, 8, 1], "thresholds": [], '


@pytest.mark.parametrize("config_text, schedule_text, fragment", [
    ("{not json", None, "cannot read config"),
    ("[]", None, "config must be a JSON object, got []"),
    (None, "{not json", "cannot read schedule"),
    (None, _SCHEDULE_HEAD + '"models": [[5]]}', "TypeError('token 5 is not an object')"),
    (None, _SCHEDULE_HEAD + '"models": [[{"dense": "a"}]]}',
     "value must be an integer >= 1, got 'a'"),
    (None, _SCHEDULE_HEAD + '"models": [[{"dense": 6.9}]]}',
     "value must be an integer >= 1, got 6.9"),
    (None, _SCHEDULE_HEAD + '"models": [[{"dense": "6"}]]}',
     "value must be an integer >= 1, got '6'"),
    (None, _SCHEDULE_HEAD + '"models": [[{"dense": true}]]}',
     "value must be an integer >= 1, got True"),
    (None, _SCHEDULE_HEAD + '"models": [[{"conv": 4, "kernle": 5}, {"dense": 3}]]}',
     "'kernel' only beside 'conv'"),
    (None, _SCHEDULE_HEAD + '"models": [[{"conv": 4, "pool": 2}, {"dense": 3}]]}',
     "needs exactly one of the keys"),
    (None, '{"dataset": "mnist", "input_shape": ["8", 8.9, 1], "thresholds": [], '
           '"models": [[{"dense": 3}]]}',
     "input_shape entry must be an integer >= 1, got '8'"),
    (None, '{"dataset": "mnist", "input_shape": [8, 8.9, 1], "thresholds": [], '
           '"models": [[{"dense": 3}]]}',
     "input_shape entry must be an integer >= 1, got 8.9"),
    (None, _SCHEDULE_HEAD.replace("[]", '["0.1"]') + '"models": [[{"dense": 3}]]}',
     "threshold must be a number, got '0.1'"),
    (None, _SCHEDULE_HEAD.replace("[]", "[true]") + '"models": [[{"dense": 3}]]}',
     "threshold must be a number, got True"),
    (None, _SCHEDULE_HEAD + '"dropout_rate": "0.5", "models": [[{"dense": 3}]]}',
     "dropout_rate must be a number, got '0.5'"),
    (None, _SCHEDULE_HEAD + '"models": [[{"conv": 2}], [{"conv": 3}]]}',
     "model 1: final layer must be softmax"),
], ids=["config-not-json", "config-not-object", "schedule-not-json",
        "token-not-object", "token-not-integer", "token-float", "token-string-digits",
        "token-bool", "token-misspelled-kernel", "token-two-kinds",
        "input-shape-string", "input-shape-float", "threshold-string", "threshold-bool",
        "dropout-rate-string", "row-without-classifier"])
def test_cli_rejects_unreadable_files_before_any_output(tmp_path, capsys, config_text,
                                                         schedule_text, fragment):
    cfg = tiny_config(tmp_path)
    if schedule_text is not None:
        Path(cfg.schedule).write_text(schedule_text)
        assert cli.main(["validate-schedule", cfg.schedule]) == 1
        assert fragment in capsys.readouterr().out
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()) if config_text is None else config_text)
    out = tmp_path / "never-written"
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("name, digest", [
    ("mnist-fedavg", "3d66d06a278a62e0"),
    ("mnist-fnn", "ebab3be290cbe36e"),
    ("synthetic-fnn", "691c167bb8c4adad"),
])
def test_shipped_config_hashes_are_pinned(name, digest):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    assert ExperimentConfig.load(path).config_hash() == digest


# ---------------------------------------------------------------------------
# Client worker processes


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs a run sees, at one BLAS thread, so the automatic worker
    count is that CPU count whatever the machine."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return lambda n: monkeypatch.setattr(fedsim, "_cpus", lambda: n)


@pytest.mark.parametrize("method, extra", [
    ("fnn", {}),
    ("fd", {"fd_keep_fraction": 0.5}),
    ("fnn-fd", {"fd_keep_fraction": 0.5, "fd_exempt_prefix": 1}),
])
def test_worker_count_never_changes_metrics(tmp_path, cpus, method, extra):
    outputs = []
    for workers in (1, 2):
        cpus(workers)
        cfg = tiny_config(tmp_path, method=method, rounds=20, name=f"{method}-w{workers}")
        for key, value in extra.items():
            setattr(cfg, key, value)
        out = experiment.run(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == workers
        assert ("worker_peak_rss_mb" in manifest) == (workers > 1)
        outputs.append((out / "metrics.csv").read_bytes())
    assert manifest["worker_peak_rss_mb"] > 0
    assert outputs[0] == outputs[1]
    # The staged runs grow, so both models train across the workers.
    assert len(manifest.get("switch_events", [])) == (method != "fd")


def test_dead_worker_is_a_round_error_in_the_manifest(tmp_path, cpus, monkeypatch):
    cpus(2)
    monkeypatch.setattr(fedsim, "local_train", lambda *args: os._exit(3))
    cfg = tiny_config(tmp_path, rounds=3, name="dead-worker")
    with pytest.raises(FedgrowError, match="round 0: a client training worker exited"):
        experiment.run(cfg)
    manifest = json.loads((Path(cfg.output_dir) / "manifest.json").read_text())
    assert manifest["workers"] == 2
    assert manifest["error"].startswith("FedgrowError: round 0: a client training worker")
    assert "rounds_completed" not in manifest


# A fedsim function of each phase of a round, and the argument that is
# round 5's own random stream (tiny_config's seed is 5) when it is called
# for round 5, with the stream that argument then equals.
ROUND_5_CALLS = {
    "start": ("select_clients", lambda args: (args[0], stream(5, SELECT, 5))),
    "train": ("local_train",
              lambda args: (args[4], stream(5, CLIENT, 5, args[2].client_id))),
}


@pytest.mark.parametrize("phase", ROUND_5_CALLS)
def test_rows_before_a_failing_round_are_written(tmp_path, cpus, monkeypatch, phase):
    # Round 4 evaluates (eval_every 5) and round 5 fails. Round 4's row is
    # settled after round 5 starts, and still written before the error.
    attr, round_5_stream = ROUND_5_CALLS[phase]
    fn = getattr(fedsim, attr)

    def failing(*args):
        rng, own = round_5_stream(args)
        if rng.bit_generator.state == own.bit_generator.state:
            raise NumericalError("injected")
        return fn(*args)

    monkeypatch.setattr(fedsim, attr, failing)
    outputs = []
    for workers in (1, 2):
        cpus(workers)
        cfg = tiny_config(tmp_path, rounds=10, name=f"{phase}-w{workers}")
        with pytest.raises(FedgrowError, match="^NumericalError: round 5: "):
            experiment.run(cfg)
        rows = list(csv.DictReader(open(Path(cfg.output_dir) / "metrics.csv")))
        assert [int(row["round"]) for row in rows] == list(range(5))
        assert rows[4]["test_accuracy"] != ""
        outputs.append((Path(cfg.output_dir) / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_evaluation_names_its_own_round(tmp_path, cpus, monkeypatch, workers):
    def failing(*args):
        raise NumericalError("injected")

    monkeypatch.setattr(fedsim, "evaluate", failing)
    cpus(workers)
    cfg = tiny_config(tmp_path, rounds=10, name=f"eval-w{workers}")
    with pytest.raises(FedgrowError, match="^NumericalError: round 4: injected$"):
        experiment.run(cfg)
    rows = list(csv.DictReader(open(Path(cfg.output_dir) / "metrics.csv")))
    assert [int(row["round"]) for row in rows] == list(range(4))
