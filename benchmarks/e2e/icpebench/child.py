"""The measured child process: one fresh interpreter per repetition.

``python -m icpebench.child pass|trace JOB.json OUT.json SPAWNED_AT``

* ``pass`` — the untraced run every end-to-end metric comes from.  It uses
  only the bench-stable surface: ``open_session``, ``ICPEConfig``,
  ``PatternConstraints``, ``iter_csv_batches``, ``Session.feed_batch`` /
  ``finish`` / ``close`` and the event classes.  The reference digest is
  the same pass under the reference configuration.
* ``trace`` — the layer replay: the same batches pushed through each
  layer's public functions from outside, one layer at a time, with a span
  around every call.  A probed internal that a refactor renamed marks its
  layer ``unavailable``; the replay carries on.

The ``process`` backend spawns its workers by re-importing this module, so
everything that runs is under the ``__main__`` check.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from icpebench.spans import SpanRecorder, layer_summary
from icpebench.stats import pattern_digest

#: What a renamed, moved or re-signed internal raises when probed.
PROBE_ERRORS = (ImportError, AttributeError, TypeError, NotImplementedError)


def build_config(job: dict[str, Any]):
    """The job's ``ICPEConfig``."""
    from repro import ICPEConfig, PatternConstraints

    fields = dict(job["config"])
    return ICPEConfig(**{**fields, "constraints": PatternConstraints(**fields["constraints"])})


def peak_rss_kb(pid: int | str = "self") -> int:
    """Peak resident set of a live process: ``VmHWM`` of its ``/proc`` status.

    Not ``ru_maxrss``: Linux carries that across ``fork`` and ``exec``, so a
    child would report at least the resident set its parent had when it
    spawned it — here the parent that has just generated the dataset.
    """
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def workers_peak_rss_kb() -> int:
    """Summed peak resident sets of the backend's live worker processes."""
    return sum(peak_rss_kb(worker.pid) for worker in multiprocessing.active_children())


def drive_session(session, batches, on_call: Callable | None = None) -> dict[str, Any]:
    """Closed loop, one caller: every ``feed_batch`` then ``finish``.

    Inside the clock only the call durations and the returned event lists
    are kept; watermarks and patterns are counted after it stops.  An
    exception ends the run, which fails every snapshot not yet released.
    Worker memory is sampled once, before the final flush.
    ``on_call(index)`` runs between calls, outside every timed interval
    but inside ``wall_s`` — the untraced pass passes none.
    """
    from repro import PatternConfirmed, WatermarkAdvanced

    stamps: list[tuple[float, float]] = []
    returned: list[list] = []
    error = None
    workers_kb = 0
    clock = time.perf_counter
    started = clock()
    try:
        for index, batch in enumerate(batches):
            t0 = clock()
            events = session.feed_batch(batch)
            stamps.append((t0, clock()))
            returned.append(events)
            if on_call is not None:
                on_call(index)
        # finish() flushes and then dismisses the workers, so this is the
        # last moment their memory can be read; the clock is stopped for it.
        paused = clock()
        workers_kb = workers_peak_rss_kb()
        started += clock() - paused
        t0 = clock()
        events = session.finish()
        stamps.append((t0, clock()))
        returned.append(events)
    except Exception:  # noqa: BLE001 - reported as failed operations
        error = traceback.format_exc()
    wall_s = clock() - started
    latencies_ms: list[float] = []
    released_per_call: list[list[int]] = []
    keys = []
    for (t0, t1), events in zip(stamps, returned):
        times = [e.time for e in events if isinstance(e, WatermarkAdvanced)]
        released_per_call.append(times)
        latencies_ms.extend([(t1 - t0) * 1e3] * len(times))
        keys.extend(e.pattern.key() for e in events if isinstance(e, PatternConfirmed))
    return {
        "wall_s": wall_s,
        "busy_s": sum(t1 - t0 for t0, t1 in stamps),
        "stamps": stamps,
        "released_per_call": released_per_call,
        "latencies_ms": latencies_ms,
        "released": len(latencies_ms),
        "patterns": len(set(keys)),
        "result_digest": pattern_digest(keys),
        "workers_peak_rss_kb": workers_kb,
        "error": error,
    }


def run_pass(job: dict[str, Any], spawned_at: float) -> dict[str, Any]:
    """Set up, measure one pass, report."""
    from repro import open_session
    from repro.data import iter_csv_batches

    batches = list(iter_csv_batches(job["csv"], job["batch_size"]))
    session = open_session(build_config(job))
    try:
        gc.collect()
        gc.freeze()
        setup_s = time.time() - spawned_at
        result = drive_session(session, batches)
    finally:
        session.close()
    result.pop("stamps")
    result.pop("released_per_call")
    result.update(
        setup_s=setup_s,
        records=sum(len(batch) for batch in batches),
        peak_rss_mb=(peak_rss_kb() + result.pop("workers_peak_rss_kb")) / 1024.0,
    )
    return result


# ------------------------------------------------------------- layer replay


def _columns(snapshot):
    """``(oids, xs, ys)`` of a columnar or an object snapshot."""
    if hasattr(snapshot, "xs"):
        return snapshot.oids, snapshot.xs, snapshot.ys
    points = snapshot.points()
    return [p[0] for p in points], [p[1] for p in points], [p[2] for p in points]


def probe_data(rec: SpanRecorder, job, ctx) -> dict[str, Any]:
    """``data``: CSV rows into 1024-record columnar batches."""
    from repro.data import iter_csv_batches

    root = rec.open("data.replay", "data")
    batches, span = rec.call(
        "iter_csv_batches", "data", root, None,
        lambda: list(iter_csv_batches(job["csv"], job["batch_size"])),
    )
    rec.close(root)
    ctx["batches"] = batches
    span["rows"] = sum(len(batch) for batch in batches)
    return {"rows": span["rows"], "batches": len(batches)}


def probe_sync(rec: SpanRecorder, job, ctx) -> dict[str, Any]:
    """``sync``: the time-synchronisation operator on the recorded batches."""
    from repro.streaming.sync import TimeSyncOperator

    operator = TimeSyncOperator(job["config"]["max_delay"])
    snapshots: list = []
    peak_state = 0
    root = rec.open("sync.replay", "sync")
    for batch in ctx["batches"]:
        out, span = rec.call("TimeSyncOperator.feed_batch", "sync", root, None, operator.feed_batch, batch)
        span["trace_id"] = [s.time for s in out]
        span["records_in"] = len(batch)
        peak_state = max(peak_state, sum(operator.state_metrics().values()))
        snapshots.extend(out)
    out, span = rec.call("TimeSyncOperator.flush", "sync", root, None, operator.flush)
    span["trace_id"] = [s.time for s in out]
    snapshots.extend(out)
    rec.close(root)
    ctx["snapshots"] = snapshots
    return {
        "records_in": sum(len(batch) for batch in ctx["batches"]),
        "snapshots_out": len(snapshots),
        "peak_state_entries": peak_state,
    }


def probe_cluster(rec: SpanRecorder, job, ctx) -> dict[str, Any]:
    """``cluster``: the clustering kernel, one call per snapshot."""
    from repro.kernels import make_kernel

    config = job["config"]
    kernel = make_kernel(
        config["clustering_kernel"],
        epsilon=config["epsilon"],
        min_pts=config["min_pts"],
        cell_width=config["cell_width"],
    )
    results = []
    points = clusters = pairs = 0
    root = rec.open("cluster.replay", "cluster")
    for snapshot in ctx["snapshots"]:
        result, span = rec.call(
            "ClusteringKernel.cluster_columns", "cluster", root, snapshot.time,
            kernel.cluster_columns, *_columns(snapshot),
        )
        span["points_in"] = len(snapshot)
        span["clusters_out"] = len(result.clusters)
        points += len(snapshot)
        clusters += len(result.clusters)
        pairs += kernel.last_join_stats.result_pairs
        results.append((snapshot.time, result))
    rec.close(root)
    ctx["clusters"] = results
    return {"points_in": points, "clusters_out": clusters, "pairs": pairs}


def probe_partition(rec: SpanRecorder, job, ctx) -> dict[str, Any]:
    """``partition``: id-based partitioning of each cluster snapshot."""
    from repro.enumeration.partition import id_partitions
    from repro.model.snapshot import ClusterSnapshot

    significance = job["config"]["constraints"]["m"]

    def partition(time, result):
        snapshot = ClusterSnapshot.from_groups(time, result.clusters.values())
        return sorted(id_partitions(snapshot, significance).items())

    partitions = []
    records = 0
    root = rec.open("partition.replay", "partition")
    for time_, result in ctx["clusters"]:
        out, span = rec.call("id_partitions", "partition", root, time_, partition, time_, result)
        span["records_out"] = len(out)
        records += len(out)
        partitions.append((time_, out))
    rec.close(root)
    ctx["partitions"] = partitions
    return {"records_out": records}


def probe_enumerate(rec: SpanRecorder, job, ctx) -> dict[str, Any]:
    """``enumerate``: one enumeration kernel hosting every anchor."""
    from repro import PatternConstraints
    from repro.enumeration.kernels import make_enumeration_kernel

    config = job["config"]
    kernel = make_enumeration_kernel(
        config["enumeration_kernel"],
        enumerator=config["enumerator"],
        constraints=PatternConstraints(**config["constraints"]),
    )
    records = emitted = peak_state = 0
    root = rec.open("enumerate.replay", "enumerate")
    for time_, partitions in ctx["partitions"]:
        out, span = rec.call(
            "EnumerationKernel.on_snapshot", "enumerate", root, time_,
            kernel.on_snapshot, time_, partitions,
        )
        span["records_in"] = len(partitions)
        span["patterns_out"] = len(out)
        records += len(partitions)
        emitted += len(out)
        peak_state = max(peak_state, sum(kernel.state_metrics().values()))
    out, span = rec.call("EnumerationKernel.finish", "enumerate", root, None, kernel.finish)
    span["patterns_out"] = len(out)
    emitted += len(out)
    rec.close(root)
    ctx["emitted"] = emitted
    return {"records_in": records, "patterns_out": emitted, "peak_state_entries": peak_state}


def probe_pipeline(rec: SpanRecorder, job, ctx) -> dict[str, Any]:
    """``pipeline``: the compiled job graph on the recorded snapshots."""
    from repro.core.icpe import ICPEPipeline

    pipeline = ICPEPipeline(build_config(job))
    fresh = 0
    try:
        root = rec.open("pipeline.replay", "pipeline")
        for snapshot in ctx["snapshots"]:
            out, span = rec.call(
                "ICPEPipeline.process_snapshot", "pipeline", root, snapshot.time,
                pipeline.process_snapshot, snapshot,
            )
            span["fresh"] = len(out)
            fresh += len(out)
        out, span = rec.call("ICPEPipeline.finish", "pipeline", root, None, pipeline.finish)
        span["fresh"] = len(out)
        fresh += len(out)
        rec.close(root)
    finally:
        pipeline.close()
    return {"snapshots_in": len(ctx["snapshots"]), "fresh_patterns": fresh}


def probe_session(rec: SpanRecorder, job, ctx, layers) -> dict[str, Any]:
    """``session`` and ``state``: the real session, one checkpoint mid-stream."""
    from repro import open_session

    batches = ctx["batches"]
    session = open_session(build_config(job))
    state_root = rec.open("state.replay", "state")

    def checkpoint_midway(index: int) -> None:
        if index != len(batches) // 2:
            return
        try:
            path, span = rec.call(
                "Session.checkpoint+save", "state", state_root, None,
                lambda: session.checkpoint().save(job["checkpoint_path"]),
            )
        except (RuntimeError, *PROBE_ERRORS) as error:
            layers["state"] = {"unavailable": repr(error)}
            return
        span["bytes"] = path.stat().st_size
        layers["state"] = {"checkpoint_bytes": span["bytes"]}

    try:
        run = drive_session(session, batches, on_call=checkpoint_midway)
    finally:
        session.close()
    rec.close(state_root)
    # drive_session timed the calls; file them as spans after the fact so
    # the session layer reads like every other one.
    stamps = run.pop("stamps")
    root = rec.add("session.replay", "session", None, None, stamps[0][0], stamps[-1][1])["id"]
    names = ["Session.feed_batch"] * len(batches) + ["Session.finish"]
    for name, (start, end), times in zip(names, stamps, run.pop("released_per_call")):
        rec.add(name, "session", root, times, start, end)
    ctx["run"] = run
    return {"records_in": sum(len(b) for b in batches), "snapshots_out": run["released"],
            "patterns_confirmed": run["patterns"]}


def run_trace(job: dict[str, Any]) -> dict[str, Any]:
    """Replay every layer; summarise busy time, counts and shares."""
    rec = SpanRecorder()
    ctx: dict[str, Any] = {}
    layers: dict[str, dict[str, Any]] = {}
    # (layer, probe, the ctx entry it replays — left by an earlier probe)
    for layer, probe, needs in (
        ("data", probe_data, None),
        ("sync", probe_sync, "batches"),
        ("cluster", probe_cluster, "snapshots"),
        ("partition", probe_partition, "clusters"),
        ("enumerate", probe_enumerate, "partitions"),
        ("pipeline", probe_pipeline, "snapshots"),
    ):
        if needs is not None and needs not in ctx:
            layers[layer] = {"unavailable": f"no {needs} to replay"}
            continue
        try:
            layers[layer] = probe(rec, job, ctx)
        except PROBE_ERRORS as error:
            layers[layer] = {"unavailable": repr(error)}
    if "batches" not in ctx:
        # The session replay needs batches even when the data probe broke;
        # iter_csv_batches is bench-stable surface, so let a failure raise.
        from repro.data import iter_csv_batches

        ctx["batches"] = list(iter_csv_batches(job["csv"], job["batch_size"]))
    # What the earlier replays left behind (snapshots, clusters, spans) must
    # not cost the session replay collector passes the untraced run lacks.
    gc.collect()
    gc.freeze()
    layers["session"] = probe_session(rec, job, ctx, layers)
    layers.setdefault("state", {"unavailable": "no checkpoint taken"})
    for layer, counts in layers.items():
        if "unavailable" not in counts:
            counts.update(layer_summary(rec.spans, layer))
    for layer, alias in (("data", "load_s"), ("state", "checkpoint_s")):
        if "busy_s" in layers[layer]:
            layers[layer][alias] = layers[layer]["busy_s"]
    run = ctx["run"]
    session_busy = layers["session"]["busy_s"]
    for counts in layers.values():
        if "busy_s" in counts:
            counts["share_pct"] = 100 * counts["busy_s"] / session_busy

    def busy(*names: str) -> float | None:
        values = [layers[n].get("busy_s") for n in names]
        return None if None in values else sum(values)

    for layer, parts in (
        ("pipeline", ("cluster", "partition", "enumerate")),
        ("session", ("sync", "pipeline")),
    ):
        whole, inside = busy(layer), busy(*parts)
        if whole is not None and inside is not None:
            layers[layer]["self_s"] = whole - inside
    if ctx.get("emitted"):
        layers["enumerate"]["useful_ratio"] = run["patterns"] / ctx["emitted"]
    return {
        "layers": layers,
        "spans": rec.spans,
        "wall_s": run["wall_s"],
        "busy_s": run["busy_s"],
        "released": run["released"],
        "result_digest": run["result_digest"],
        "error": run["error"],
    }


def main(argv: list[str]) -> int:
    mode, job_path, out_path, spawned_at = argv
    job = json.loads(Path(job_path).read_text())
    result = run_pass(job, float(spawned_at)) if mode == "pass" else run_trace(job)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
