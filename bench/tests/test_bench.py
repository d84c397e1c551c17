"""Self-test of the benchmark: every workload at a tiny size, and the
output checks against tampered outputs.

Run from the root of a checkout: ``python -m pytest bench/tests``.
"""

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Corpus  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _tiny(name, corpus=None, **config):
    workload = WORKLOADS[name]
    return replace(workload, config={**workload.config, **config},
                   corpus=corpus or workload.corpus)


TINY = {
    "fnn-mnist-grow": _tiny(
        "fnn-mnist-grow", Corpus(classes=10, train=1000, test=50), rounds=12,
        switch_window=1, switch_lag=1, eval_every=4, max_train_samples=100),
    "fd-cifar10": _tiny(
        "fd-cifar10", rounds=2, clients_per_round=2,
        synthetic={**WORKLOADS["fd-cifar10"].config["synthetic"], "per_class": 10}),
}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    result = run.run_benchmark(TINY[name], seed=3, seconds=0, trace=trace)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == TINY[name].rounds * (2 if trace else 1)
    assert len(result["metrics_sha256"]) == 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def fnn_output(tmp_path_factory):
    result = run.run_benchmark(TINY["fnn-mnist-grow"], seed=5, seconds=0, trace=False)
    out = tmp_path_factory.mktemp("fnn") / "sim"
    shutil.copytree(Path(result["run_dir"]) / "sim0", out)
    return out


def _fail_frac(out_dir):
    workload = TINY["fnn-mnist-grow"]
    sim = {"problems": checks.check_run(out_dir, workload),
           "hash": checks.metrics_hash(out_dir)}
    attempted, failed, _ = child.tally([sim], workload.rounds)
    return failed / attempted


def _edit_csv(out_dir, row_index, column, value):
    path = out_dir / "metrics.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row_index + 1].split(",")
    cells[header.index(column)] = value
    lines[row_index + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_untampered_output_passes(fnn_output):
    assert _fail_frac(fnn_output) == 0


def test_wrong_byte_column_fails(fnn_output, tmp_path):
    out = shutil.copytree(fnn_output, tmp_path / "bytes")
    _edit_csv(out, 4, "upload_bytes", "4")
    assert _fail_frac(out) > 0


def test_moved_switch_fails(fnn_output, tmp_path):
    out = shutil.copytree(fnn_output, tmp_path / "switch")
    _edit_csv(out, 1, "switch_flag", "0")
    _edit_csv(out, 2, "switch_flag", "1")
    assert _fail_frac(out) > 0


def test_broken_switch_continuity_fails(fnn_output, tmp_path):
    out = shutil.copytree(fnn_output, tmp_path / "continuity")
    manifest = json.loads((out / "manifest.json").read_text())
    event = manifest["switch_events"][0]
    event["accuracy_after"] = event["accuracy_before"] + 0.01
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert _fail_frac(out) > 0


def test_differing_hashes_fail_every_simulation():
    sims = [{"problems": [], "hash": "a"}, {"problems": [], "hash": "b"}]
    assert child.tally(sims, 7) == (14, 14, ["a", "b"])


def test_round_times_take_the_mean_of_their_kind():
    sim = {"round_ms": [10.0, 60.0, 20.0, 100.0], "round_work": ["a", "a", "a", "b"]}
    assert child.typical_round_ms(sim) == [30.0, 30.0, 30.0, 100.0]
