"""Self-test of the benchmark harness at the ``--smoke`` scale.

Run with ``python -m pytest benchmarks/perf -q`` (not collected by the
tier-1 suite, whose ``testpaths`` is ``tests``).  One smoke measurement of
all four workloads (8 brokers / 2 000 patterns, 4 and 2 entities, 24 slices,
three passes plus the traced run and its twin) feeds every check below.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import layers
import report
import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke() -> dict:
    return run.measure(
        list(workloads.NAMES), seed=7, seconds=10, smoke=True, end_to_end=True, traced=True
    )


def test_benchmark_json_is_the_catalogue():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest == layers.manifest()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer") for m in manifest[key])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert len(manifest["per_layer"]) <= 128


def test_every_workload_is_correct_and_deterministic(smoke):
    for name, workload in smoke["workloads"].items():
        assert workload["correct"], (name, workload["problems"])
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        digests = {p["sim_digest"] for p in workload["passes"]}
        # tracing must not change what is simulated either
        digests |= {workload["traced"]["sim_digest"], workload["reference"]["sim_digest"]}
        assert len(digests) == 1, name


def test_driver_lines_carry_exactly_the_named_metrics(smoke):
    manifest = layers.manifest()
    for workload in smoke["workloads"].values():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(run.driver_line(workload, trace=trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            expected = {m["name"]: m["unit"] for m in manifest[key]}
            assert {n: v["unit"] for n, v in line["metrics"].items()} == expected
            assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        assert all(v["value"] > 0 for v in json.loads(run.driver_line(workload, False))["metrics"].values())


def test_self_times_add_up_to_the_traced_window(smoke):
    for name, workload in smoke["workloads"].items():
        values, window = workload["per_layer"], workload["traced"]["run_s"]  # both speed-corrected
        attributed = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        unattributed = values["bench.unattributed_share"] * window
        assert attributed + unattributed == pytest.approx(window, rel=0.02), name
        assert 0 <= values["bench.unattributed_share"] < 0.35, name


def test_every_entry_point_is_hit_where_the_table_says(smoke):
    """A ``from x import f`` binding the patch missed shows up as zero calls."""
    for name, workload in smoke["workloads"].items():
        rows = {row["name"]: row for row in workload["traced"]["targets"]}
        for target in spans.TARGETS:
            row = rows[target.name]
            if name in target.window_on:
                assert row["window_calls"] >= 1, (name, target.name, "window")
            if name in target.setup_on:
                assert row["setup_calls"] >= 1, (name, target.name, "setup")


def test_zero_call_predictions_hold(smoke):
    per_layer = {name: w["per_layer"] for name, w in smoke["workloads"].items()}
    for name in ("fabric-route", "fabric-churn"):
        for layer in ("crypto.rsa", "crypto.aes", "auth", "tracing", "tdn", "analytics"):
            assert per_layer[name][f"{layer}.calls"] == 0, (name, layer)
    assert per_layer["trace-steady"]["crypto.aes.calls"] == 0
    assert per_layer["trace-steady"]["messaging.federation.calls"] == 0
    assert per_layer["trace-secure"]["crypto.aes.share"] > 0.5
    assert (
        per_layer["fabric-churn"]["messaging.federation.control_floods"]
        >= 50 * max(1, per_layer["fabric-route"]["messaging.federation.control_floods"])
    )


def test_patches_are_removed_and_cover_imported_names():
    import repro.messaging.broker
    import repro.messaging.topics
    import repro.sim.engine

    before = {
        "step": repro.sim.engine.Simulator.__dict__["step"],
        "topics": repro.messaging.topics.topic_matches,
        "broker": repro.messaging.broker.topic_matches,
    }
    recorder = spans.Recorder()
    recorder.install()
    try:
        patched = recorder.patched()
        assert repro.sim.engine.Simulator.__dict__["step"] is not before["step"]
        # broker.py did ``from repro.messaging.topics import topic_matches``
        assert repro.messaging.broker.topic_matches is repro.messaging.topics.topic_matches
        assert repro.messaging.broker.topic_matches is not before["broker"]
    finally:
        recorder.uninstall()
    assert len(patched) > len(spans.TARGETS)
    for holder, attr, original in patched:
        assert holder.__dict__[attr] is original, (holder, attr)
    assert repro.messaging.broker.topic_matches is before["broker"]


def test_phase_changes_only_between_spans():
    recorder = spans.Recorder()
    frame = recorder._enter(0)
    with pytest.raises(RuntimeError):
        recorder.enter_phase("window")
    recorder._leave(frame)
    recorder.enter_phase("window")


def test_generator_entry_points_are_timed_per_resume():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))

    def body():
        got = yield "first"
        try:
            yield got
        except KeyError:
            yield "caught"
        return "done"

    driven = spans._drive(body(), 0, recorder._enter, recorder._leave)
    assert next(driven) == "first"
    assert driven.send("echo") == "echo"
    assert driven.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(driven)
    assert stop.value.value == "done"
    assert recorder.calls["setup"][0] == 4 and recorder.self_s["setup"][0] == 4.0


def test_compare_classifies_and_fails_only_on_worse(smoke):
    bounds = {m.name: m.bound for m in layers.END_TO_END}
    table, acceptable = report.compare(smoke, smoke, bounds)
    assert acceptable and "worse" not in table and "differs" not in table

    slower = json.loads(json.dumps(smoke))
    entry = slower["workloads"]["fabric-route"]["end_to_end"]["peak_rss_mb"]
    entry["value"] *= 1.5
    entry["passes"] = [v * 1.5 for v in entry["passes"]]
    table, acceptable = report.compare(smoke, slower, bounds)
    assert not acceptable
    assert [line for line in table.splitlines() if "peak_rss_mb" in line and "worse" in line]

    other_seed = dict(smoke, seed=8)
    with pytest.raises(ValueError):
        report.compare(smoke, other_seed, bounds)


def test_without_the_program_the_harness_fails_without_a_result(tmp_path):
    """The driver also runs the command where only the benchmark's files exist."""
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for source in run.HERE.glob("*.py"):
        shutil.copy(source, bare / source.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fabric-route", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == "" and "not in" in done.stderr
