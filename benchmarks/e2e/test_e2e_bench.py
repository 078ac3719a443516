"""Tests of the benchmark's own machinery (collected by the tier-1 run).

They check the arithmetic and the plumbing — percentiles, digests, span
self time, compare verdicts, process-group clean-up, the contract file —
and one ``--smoke`` run end to end.  They assert nothing about speed.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from icpebench import child, runner, spans, stats, workloads
from icpebench.compare import compare_results, verdict

BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parents[1] / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- contract


def test_contract_file_matches_the_benchmark():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    # Every end-to-end metric the contract names is one a pass produces.
    fake_pass = {"records": 10, "wall_s": 2.0, "latencies_ms": [1.0, 2.0], "peak_rss_mb": 5.0, "setup_s": 0.5}
    assert set(runner.end_to_end_samples(fake_pass)) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_dense_twins_share_one_input():
    serial, process = workloads.WORKLOADS["taxi_dense_vba"], workloads.WORKLOADS["taxi_dense_process"]
    assert workloads.dataset_key(serial, 5, False) == workloads.dataset_key(process, 5, False)
    assert workloads.dataset_key(serial, 5, False) != workloads.dataset_key(serial, 6, False)


# ------------------------------------------------------------------- stats


def test_percentile_is_nearest_rank():
    samples = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert stats.percentile(samples, 30) == 20.0
    assert stats.percentile(samples, 40) == 20.0
    assert stats.percentile(samples, 50) == 35.0
    assert stats.percentile(samples, 100) == 50.0
    assert stats.percentile(list(range(1, 201)), 95) == 190  # ten samples beyond
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(samples, 0)


def test_run_value_is_the_better_quartile():
    slowed = [10.0, 10.2, 10.1, 14.0, 13.0, 10.3, 15.0, 10.4]  # one-sided host noise
    lower = stats.summarize(slowed, "lower")
    assert lower["value"] == 10.1
    assert lower["median"] == pytest.approx(10.35)
    rates = [1 / v for v in slowed]
    assert stats.summarize(rates, "higher")["value"] == pytest.approx(1 / 10.1)
    three = stats.summarize([3.0, 1.0, 2.0], "lower")
    assert (three["value"], three["spread"]) == (1.0, 1.0)


def test_a_perturbed_pattern_set_fails_every_operation():
    keys = [((1, 2, 3, 4, 5), (1, 2, 3)), ((1, 2, 3, 4, 6), (2, 3, 4))]
    good = stats.pattern_digest(keys)
    assert stats.pattern_digest(reversed(keys + keys[:1])) == good  # a set, in any order
    bad = stats.pattern_digest(keys[:1] + [((1, 2, 3, 4, 6), (2, 3, 5))])
    assert bad != good

    def runs(digest):
        return [{"released": 200, "result_digest": digest, "error": None}] * 3

    fine = runner.judge(200, runs(good), good, None, "in")
    assert (fine["ops_attempted"], fine["ops_failed"], fine["result_ok"]) == (600, 0, True)
    wrong = runner.judge(200, runs(bad), good, None, "in")
    assert (wrong["ops_failed"], wrong["result_ok"]) == (600, False)
    short = runner.judge(200, [{"released": 150, "result_digest": good, "error": "boom"}], good, None, "in")
    assert (short["ops_failed"], short["result_ok"]) == (200, False)
    # At the pinned seed the golden digests gate as well: drift fails loudly.
    pinned = {"input_digest": "in", "result_digest": good}
    assert runner.judge(200, runs(good), good, pinned, "in")["golden"] == "match"
    drifted = runner.judge(200, runs(good), good, pinned, "other-input")
    assert (drifted["golden"], drifted["result_ok"]) == ("input_mismatch", False)
    assert runner.judge(200, runs(bad), bad, pinned, "in")["golden"] == "result_mismatch"


def test_bounded_disorder_keeps_the_delay_contract():
    times = np.repeat(np.arange(1, 60), 40)
    order = workloads.bounded_disorder(times, 3, seed=11)
    arrival = times[order]
    assert sorted(order) == list(range(len(times)))
    assert (arrival != times).any()
    assert workloads.disorder_violations(arrival, 3) == 0
    assert workloads.disorder_violations(arrival, 1) > 0  # the self-test can fail
    assert workloads.disorder_violations(np.array([1, 5, 1]), 3) == 1
    assert (workloads.bounded_disorder(times, 3, seed=11) == order).all()


# ------------------------------------------------------------------- spans


def _span(span_id, parent, start, end, layer="x"):
    return {"id": span_id, "name": f"s{span_id}", "layer": layer, "parent": parent,
            "trace_id": span_id, "start": start, "end": end}


def test_self_time_subtracts_what_children_cover():
    rows = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),    # overlaps span 1: the overlap counts once
        _span(3, 0, 8.0, 12.0),   # clipped to the parent's end
        _span(4, 1, 1.0, 2.0),    # a grandchild covers nothing of span 0
    ]
    assert spans.self_time(rows[0], rows) == pytest.approx(10 - (4 + 2))
    assert spans.self_time(rows[1], rows) == pytest.approx(1.0)
    assert spans.self_time(rows[4], rows) == pytest.approx(1.0)
    summary = spans.layer_summary(rows, "x", slowest=2)
    assert summary["calls"] == 4
    assert summary["busy_s"] == pytest.approx(2 + 3 + 4 + 1)
    assert summary["harness_s"] == pytest.approx(4.0)
    assert [s["name"] for s in summary["slowest"]] == ["s3", "s2"]


def test_recorder_times_only_the_call():
    rec = spans.SpanRecorder()
    root = rec.open("replay", "x")
    result, span = rec.call("sleep", "x", root, 7, time.sleep, 0.01)
    rec.close(root, calls=1)
    assert result is None and span["trace_id"] == 7 and span["parent"] == root
    assert 0.009 < spans.duration(span) < 0.2
    assert rec.spans[root]["calls"] == 1 and spans.self_time(rec.spans[root], rec.spans) >= 0


# ----------------------------------------------------------------- compare


def _cell(value, spread=0.01):
    return {"value": value, "spread": spread}


def test_verdicts():
    assert verdict(_cell(100), _cell(105), "lower", 0.08)[0] == "same"
    assert verdict(_cell(100), _cell(109), "lower", 0.08)[0] == "regression"
    assert verdict(_cell(100), _cell(90), "lower", 0.08)[0] == "better"
    assert verdict(_cell(100), _cell(91), "higher", 0.08)[0] == "regression"
    assert verdict(_cell(100), _cell(120), "higher", 0.08)[0] == "better"
    label, worse_by = verdict(_cell(100), _cell(130, spread=0.2), "lower", 0.08)
    assert label == "unresolved" and worse_by == pytest.approx(0.3)


def test_compare_flags_more_failed_operations():
    metrics = [{"name": "records_per_s", "unit": "1/s", "better": "higher", "bound": 0.08}]

    def results(value, failed):
        return {"workloads": {"w": {"end_to_end": {"records_per_s": _cell(value)},
                                    "ops_attempted": 400, "ops_failed": failed}}}

    same = compare_results(results(100, 0), results(101, 0), metrics)
    assert [row["verdict"] for row in same] == ["same", "same"]
    worse = compare_results(results(100, 0), results(101, 4), metrics)
    assert worse[-1]["verdict"] == "regression"
    assert compare_results(results(100, 0), {"workloads": {"w": {"ops_attempted": 1, "ops_failed": 1}}},
                           metrics)[0]["verdict"] == "missing"


# --------------------------------------------------------------- processes


def test_a_timed_out_child_dies_with_its_process_group(tmp_path):
    pid_file = tmp_path / "pids"
    script = (
        "import os, subprocess, sys, time\n"
        "worker = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(f'{{os.getpid()}} {{worker.pid}}')\n"
        "time.sleep(60)\n"
    )
    started = time.monotonic()
    code = runner.run_process_group([sys.executable, "-c", script], dict(os.environ), timeout=2.0)
    assert code is None
    assert time.monotonic() - started < 20
    deadline = time.monotonic() + 10
    pids = [int(p) for p in pid_file.read_text().split()]
    assert len(pids) == 2

    def alive(pid):
        try:
            status = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        return status != "Z"

    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(alive(pid) for pid in pids)


# --------------------------------------------------------------- smoke runs


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text()), json.loads((out.parent / "trace.json").read_text()), done.stdout


def test_smoke_results_schema(smoke_results):
    results, traces, printed = smoke_results
    assert results["schema"] == 1 and results["smoke"] is True and results["seed"] == 5
    assert {"usable_cores", "python", "numpy", "commit"} <= set(results["host"])
    assert list(results["workloads"]) == list(workloads.WORKLOADS)
    for name, row in results["workloads"].items():
        assert row["result_ok"] is True, (name, row["errors"])
        assert row["golden"] == "not_pinned"
        assert row["ops_attempted"] == 2 * row["snapshots"] and row["ops_failed"] == 0
        assert row["snapshot_samples"] == row["snapshots"]
        for metric in CONTRACT["end_to_end"]:
            cell = row["end_to_end"][metric["name"]]
            assert cell["unit"] == metric["unit"] and cell["value"] > 0
            assert {"value", "median", "min", "max", "spread", "values"} <= set(cell)
            assert metric["name"] in printed
        # The replay found every internal it probes at this commit.
        assert row["unavailable_layers"] == []
        assert set(row["per_layer"]) == {m["name"] for m in CONTRACT["per_layer"]}
        assert runner.UNAVAILABLE not in row["per_layer"].values()
        layers = traces[name]["layers"]
        assert set(layers) == {"data", "sync", "cluster", "partition", "enumerate", "pipeline", "session", "state"}
        assert all({"calls", "busy_s", "share_pct", "slowest"} <= set(layer) for layer in layers.values())
        assert layers["session"]["snapshots_out"] == row["snapshots"]
        by_id = {s["id"]: s for s in traces[name]["spans"]}
        assert all(s["parent"] is None or s["parent"] in by_id for s in by_id.values())
    dense, process = results["workloads"]["taxi_dense_vba"], results["workloads"]["taxi_dense_process"]
    assert dense["input_digest"] == process["input_digest"]
    assert dense["result_digest"] == process["result_digest"]


def test_a_renamed_internal_marks_its_layer_unavailable(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["taxi_wide_disorder"]
    dataset = workloads.generate(workload, 5, tmp_path, smoke=True)
    job = {
        "csv": str(dataset.path),
        "batch_size": workloads.BATCH_SIZE,
        "config": workloads.session_config(workload, dataset.extent),
        "checkpoint_path": str(tmp_path / "checkpoint.bin"),
    }
    import repro.kernels

    monkeypatch.delattr(repro.kernels, "make_kernel")
    try:
        trace = child.run_trace(job)
    finally:
        gc.unfreeze()
    layers = trace["layers"]
    assert "ImportError" in layers["cluster"]["unavailable"]
    assert "unavailable" in layers["partition"] and "unavailable" in layers["enumerate"]
    assert "busy_s" in layers["sync"] and "busy_s" in layers["pipeline"] and "busy_s" in layers["session"]
    assert "self_s" not in layers["pipeline"] and "self_s" in layers["session"]
    assert trace["released"] == dataset.snapshots and trace["error"] is None
    flat = runner.flatten_layers(trace, untraced_busy_s=None)
    assert flat["cluster.busy_s"] == runner.UNAVAILABLE and flat["sync.busy_s"] > 0
    # The same pass through the reference kernels gives the same answer.
    reference = child.run_pass(
        {**job, "config": workloads.session_config(workload, dataset.extent, workloads.other_kernels(workload))},
        time.time(),
    )
    gc.unfreeze()
    assert reference["result_digest"] == trace["result_digest"]
    assert reference["released"] == dataset.snapshots
