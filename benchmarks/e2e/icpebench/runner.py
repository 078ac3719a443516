"""The parent process: datasets, children, verdicts, results.

The parent generates a workload's CSV from the seed, then runs every
repetition in a fresh child interpreter (its own process group, killed on
timeout), one at a time — load comes from a single process that never
competes with the next.  It never times anything of ``repro`` itself.

Two ways in (see ``../README.md``):

* for people — no arguments — every workload, ``--repeats`` untraced
  passes plus one layer replay each, a printed table, ``out/results.json``
  and ``out/trace.json``;
* the driver contract — ``--workload W --seed N --seconds S --trace 0|1``
  — one workload, untraced passes until ``S`` seconds are measured (or,
  with ``--trace 1``, the layer replay), and the one-line JSON verdict
  last on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from icpebench.stats import percentile, summarize
from icpebench.workloads import (
    BATCH_SIZE,
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    generate,
    other_kernels,
    session_config,
)

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

#: Untraced passes a run makes at least, so ``setup_s`` and every other
#: metric comes from several fresh processes — and at most, so a workload
#: with short passes does not spend the run starting interpreters.
MIN_PASSES = 3
MAX_PASSES = 8
#: The driver allows 180 s per run; stop starting children well before.
RUN_BUDGET_S = 150.0
#: Value printed for a per-layer metric whose layer probe was unavailable.
UNAVAILABLE = -1.0


# ------------------------------------------------------------------ children


def run_process_group(
    argv: list[str], env: dict[str, str], timeout: float
) -> int | None:
    """Run ``argv`` in its own process group; ``None`` if it timed out.

    Whatever the outcome the whole group is killed afterwards and the
    child is waited for, so neither a timeout nor a crash can leave a
    backend worker behind.
    """
    process = subprocess.Popen(argv, env=env, start_new_session=True)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()


def run_child(mode: str, job: dict[str, Any], timeout: float) -> dict[str, Any]:
    """One child run; ``{"error": ...}`` when it produced no result."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    job_path = OUT_DIR / f"job-{os.getpid()}.json"
    out_path = OUT_DIR / f"child-{os.getpid()}.json"
    job_path.write_text(json.dumps(job))
    out_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH_DIR), str(SRC_DIR), *filter(None, [env.get("PYTHONPATH")])]
    )
    argv = [sys.executable, "-m", "icpebench.child", mode, str(job_path), str(out_path), repr(time.time())]
    try:
        code = run_process_group(argv, env, timeout)
        if code is None:
            return {"error": f"child timed out after {timeout:.0f} s"}
        if code != 0 or not out_path.exists():
            return {"error": f"child exited with code {code}"}
        return json.loads(out_path.read_text())
    finally:
        job_path.unlink(missing_ok=True)
        out_path.unlink(missing_ok=True)


# ---------------------------------------------------------------- one workload


def end_to_end_samples(run: dict[str, Any]) -> dict[str, float]:
    """The five end-to-end metrics of one untraced pass."""
    latencies = run["latencies_ms"]
    return {
        "records_per_s": run["records"] / run["wall_s"],
        "snapshot_latency_p50_ms": percentile(latencies, 50),
        "snapshot_latency_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": run["setup_s"],
    }


def judge(
    snapshots: int,
    runs: list[dict[str, Any]],
    reference_digest: str | None,
    pinned: dict[str, str] | None,
    input_digest: str,
) -> dict[str, Any]:
    """Operations attempted / failed and whether the result set is right.

    One operation per snapshot the input contains, per run.  A snapshot
    never released is a failed operation; a wrong result set — against the
    reference run, or against the pinned digests when the seed is the
    default one — fails them all.
    """
    digests = {run.get("result_digest") for run in runs}
    result_ok = (
        reference_digest is not None
        and digests == {reference_digest}
        and all(run.get("error") is None for run in runs)
    )
    golden = "not_pinned"
    if pinned is not None:
        if pinned["input_digest"] != input_digest:
            golden = "input_mismatch"
        elif digests != {pinned["result_digest"]}:
            golden = "result_mismatch"
        else:
            golden = "match"
        result_ok = result_ok and golden == "match"
    attempted = snapshots * len(runs)
    failed = sum(snapshots - run.get("released", 0) for run in runs)
    return {
        "ops_attempted": attempted,
        "ops_failed": failed if result_ok else attempted,
        "result_ok": result_ok,
        "golden": golden,
        "result_digest": sorted(d for d in digests if d),
        "reference_digest": reference_digest,
    }


def flatten_layers(trace: dict[str, Any], untraced_busy_s: float | None) -> dict[str, float]:
    """The per-layer metrics BENCHMARK.json names, from a layer replay."""
    layers = trace["layers"]
    values = {}
    for metric in CONTRACT["per_layer"]:
        name = metric["name"]
        if name == "trace_overhead_pct":
            value = (
                100 * (trace["busy_s"] / untraced_busy_s - 1)
                if untraced_busy_s
                else UNAVAILABLE
            )
        else:
            layer, _, key = name.partition(".")
            value = layers.get(layer, {}).get(key, UNAVAILABLE)
        values[name] = value
    return values


def measure(
    workload: Workload,
    seed: int,
    *,
    seconds: float,
    repeats: int | None,
    traced: bool,
    smoke: bool,
    data_dir: Path,
    pinned: dict[str, str] | None,
) -> tuple[dict[str, Any], dict[str, Any] | None]:
    """Run one workload; returns its results row and its trace (if traced).

    Untraced passes repeat until ``seconds`` of measured section have
    accumulated (at least :data:`MIN_PASSES`, at most :data:`MAX_PASSES`),
    or exactly ``repeats`` times when given.  Then the layer replay if
    ``traced``, then the same pass under the reference kernels.
    """
    started = time.monotonic()

    def remaining() -> float:
        return max(5.0, RUN_BUDGET_S - (time.monotonic() - started))

    dataset = generate(workload, seed, data_dir, smoke)
    job = {
        "csv": str(dataset.path),
        "batch_size": BATCH_SIZE,
        "config": session_config(workload, dataset.extent),
        "checkpoint_path": str(OUT_DIR / f"checkpoint-{os.getpid()}.bin"),
    }
    passes: list[dict[str, Any]] = []
    measured = 0.0

    def another_pass() -> bool:
        if repeats is not None:
            return len(passes) < repeats
        if len(passes) < MIN_PASSES:
            return True
        if len(passes) >= MAX_PASSES or time.monotonic() - started > RUN_BUDGET_S / 2:
            return False
        return measured < seconds

    while another_pass():
        run = run_child("pass", job, remaining())
        passes.append(run)
        measured += run.get("wall_s", seconds)  # a pass that died must not earn another
    passes_done = time.monotonic()
    trace = None
    if traced:
        trace = run_child("trace", job, remaining())
        Path(job["checkpoint_path"]).unlink(missing_ok=True)
    trace_done = time.monotonic()
    reference = run_child(
        "pass",
        {**job, "config": session_config(workload, dataset.extent, other_kernels(workload))},
        remaining(),
    )
    phases = {
        "passes": passes_done - started - dataset.datagen_s,
        "trace": trace_done - passes_done,
        "reference": time.monotonic() - trace_done,
    }

    good = [run for run in passes if "wall_s" in run and run["latencies_ms"]]
    judged_runs = passes + ([trace] if trace is not None else [])
    row: dict[str, Any] = {
        "seed": seed,
        "records": dataset.records,
        "snapshots": dataset.snapshots,
        "datagen_s": dataset.datagen_s,
        "phase_s": phases,
        "input_digest": dataset.input_digest,
        "passes": len(passes),
        "errors": [run["error"] for run in judged_runs + [reference] if run.get("error")],
        **judge(
            dataset.snapshots,
            judged_runs,
            reference.get("result_digest"),
            pinned,
            dataset.input_digest,
        ),
    }
    if good:
        samples = [end_to_end_samples(run) for run in good]
        row["end_to_end"] = {
            metric["name"]: {
                "unit": metric["unit"],
                **summarize([s[metric["name"]] for s in samples], metric["better"]),
                "values": [s[metric["name"]] for s in samples],
            }
            for metric in CONTRACT["end_to_end"]
        }
        row["snapshot_samples"] = len(good[0]["latencies_ms"])
        row["snapshot_latency_max_ms"] = max(max(run["latencies_ms"]) for run in good)
        row["patterns"] = good[0]["patterns"]
    if trace is not None and "layers" in trace:
        untraced_busy = min(run["busy_s"] for run in good) if good else None
        row["per_layer"] = flatten_layers(trace, untraced_busy)
        row["unavailable_layers"] = sorted(
            name for name, layer in trace["layers"].items() if "unavailable" in layer
        )
    return row, trace


# ------------------------------------------------------------------- the CLI


def host_facts() -> dict[str, Any]:
    """What the numbers were measured on."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "platform": platform.platform(),
    }


def regenerate_golden(data_dir: Path) -> int:
    """Pin the default seed's input and result digests (python x python, serial)."""
    golden: dict[str, Any] = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        dataset = generate(workload, DEFAULT_SEED, data_dir)
        run = run_child(
            "pass",
            {
                "csv": str(dataset.path),
                "batch_size": BATCH_SIZE,
                "config": session_config(workload, dataset.extent, "python"),
            },
            timeout=900,
        )
        if run.get("error") or run.get("released") != dataset.snapshots:
            print(f"{name}: reference run failed: {run.get('error')}", file=sys.stderr)
            return 1
        golden["workloads"][name] = {
            "input_digest": dataset.input_digest,
            "result_digest": run["result_digest"],
            "records": dataset.records,
            "snapshots": dataset.snapshots,
            "patterns": run["patterns"],
        }
        print(f"{name}: {dataset.records} records, {run['patterns']} patterns")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


def print_row(name: str, row: dict[str, Any]) -> None:
    """Every metric by name and unit, with sample counts."""
    print(f"\n== {name} (seed {row['seed']}) ==")
    print(
        f"  input: {row['records']} records, {row['snapshots']} snapshots, "
        f"{row.get('patterns', '?')} patterns; datagen_s = {row['datagen_s']:.2f} s (not a metric)"
    )
    print("  also spent: " + ", ".join(f"{k} {v:.1f} s" for k, v in row["phase_s"].items()))
    for metric, cell in row.get("end_to_end", {}).items():
        print(
            f"  {metric:<26} {cell['value']:>12.3f} {cell['unit']:<4} "
            f"(median {cell['median']:.3f}, min {cell['min']:.3f}, max {cell['max']:.3f}, "
            f"spread {100 * cell['spread']:.1f} %, {len(cell['values'])} passes)"
        )
    if "snapshot_samples" in row:
        print(
            f"  latency samples per pass = {row['snapshot_samples']}; "
            f"slowest snapshot = {row['snapshot_latency_max_ms']:.1f} ms (information only)"
        )
    print(
        f"  ops_attempted = {row['ops_attempted']}, ops_failed = {row['ops_failed']}, "
        f"result_ok = {str(row['result_ok']).lower()} (golden: {row['golden']})"
    )
    for error in row["errors"]:
        print("  error: " + error.strip().splitlines()[-1])
    if "per_layer" in row:
        units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
        for metric, value in row["per_layer"].items():
            shown = "unavailable" if value == UNAVAILABLE else f"{value:.4f} {units[metric]}"
            print(f"  {metric:<30} {shown}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"],
                        help="with --trace 0: untraced passes until this much is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced passes only, 1: layer replay only; with --workload, "
                             "ends with the driver's one-line JSON (default: both, as a table)")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"exactly this many untraced passes (default without --trace: {MIN_PASSES})")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one pass each")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json")
    parser.add_argument("--regenerate-golden", action="store_true")
    args = parser.parse_args(argv)

    data_dir = OUT_DIR / f"data-{os.getpid()}"
    try:
        if args.regenerate_golden:
            return regenerate_golden(data_dir)
        names = [args.workload] if args.workload else list(WORKLOADS)
        traced = args.trace != 0
        if args.smoke or args.trace == 1:
            repeats = 1  # a lone replay still needs the base of trace_overhead_pct
        elif args.trace is None:
            repeats = args.repeats or MIN_PASSES
        else:
            repeats = args.repeats
        golden = json.loads(GOLDEN_PATH.read_text())
        use_golden = args.seed == golden["seed"] and not args.smoke
        results: dict[str, Any] = {"schema": 1, "host": host_facts(), "seed": args.seed,
                                   "smoke": args.smoke, "workloads": {}}
        traces: dict[str, Any] = {}
        for name in names:
            row, trace = measure(
                WORKLOADS[name], args.seed,
                seconds=args.seconds, repeats=repeats, traced=traced,
                smoke=args.smoke, data_dir=data_dir,
                pinned=golden["workloads"].get(name) if use_golden else None,
            )
            results["workloads"][name] = row
            if trace is not None:
                traces[name] = trace
            print_row(name, row)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
        if traces:
            (args.out.parent / "trace.json").write_text(json.dumps(traces) + "\n")
        print(f"\nresults: {args.out}")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    if args.workload is None or args.trace is None:
        return 0 if all(row["result_ok"] for row in results["workloads"].values()) else 1
    row = results["workloads"][args.workload]
    source = row.get("per_layer") if traced else row.get("end_to_end")
    if not source:
        print("no metrics: every run failed", file=sys.stderr)
        return 1
    listed = CONTRACT["per_layer"] if traced else CONTRACT["end_to_end"]
    metrics = {
        m["name"]: {
            "value": source[m["name"]] if traced else source[m["name"]]["value"],
            "unit": m["unit"],
        }
        for m in listed
    }
    print(json.dumps({
        "correct": row["result_ok"],
        "attempted": row["ops_attempted"],
        "failed": row["ops_failed"],
        "metrics": metrics,
    }))
    return 0
