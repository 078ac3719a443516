"""Command-line interface: generate workloads, inspect them, run detection.

Usage::

    python -m repro.cli generate --kind brinkhoff --objects 200 --horizon 60 \
        --seed 11 --out /tmp/brinkhoff.csv
    python -m repro.cli stats --input /tmp/brinkhoff.csv
    python -m repro.cli detect --input /tmp/brinkhoff.csv \
        --epsilon-pct 0.06 --grid-pct 1.6 --min-pts 5 \
        --m 5 --k 10 --l 2 --g 2 --enumerator fba --maximal-only
    python -m repro.cli plugins

Strategy flags (``--enumerator`` / ``--backend`` / ``--kernel`` /
``--enum-kernel`` / ``--shed-policy`` / ``--pattern-family``) take
their choice lists from the
plugin registry, so
third-party plugins registered via the ``repro.plugins`` entry-point
group appear automatically; ``plugins`` lists every registered strategy
with its capabilities.  ``detect --output json`` streams the session's
typed pattern events as JSON lines (the :class:`~repro.session.sinks.
JsonlSink` format) instead of the human listing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Sequence

from repro.bench.report import format_table
from repro.core.config import ICPEConfig
from repro.data.brinkhoff import BrinkhoffConfig, generate_brinkhoff
from repro.data.dataset import TrajectoryDataset
from repro.data.geolife import GeoLifeConfig, generate_geolife
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.constraints import PatternConstraints
from repro.observability import ObservabilityOptions
from repro.registry import PLUGIN_KINDS, PluginError, default_registry
from repro.session import JsonlSink, Session
from repro.state import Checkpoint, CheckpointError

GENERATORS = {
    "brinkhoff": (generate_brinkhoff, BrinkhoffConfig),
    "geolife": (generate_geolife, GeoLifeConfig),
    "taxi": (generate_taxi, TaxiConfig),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with the four subcommands.

    The strategy flags' ``choices`` are generated from the plugin
    registry rather than hardcoded, so every registered plugin —
    built-in or entry-point discovered — is selectable.
    """
    registry = default_registry()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICPE: co-movement pattern detection on streaming trajectories",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="generate a synthetic workload")
    gen.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    gen.add_argument("--objects", type=int, default=200)
    gen.add_argument("--horizon", type=int, default=60)
    gen.add_argument("--seed", type=int, default=11)
    gen.add_argument("--group-fraction", type=float, default=None)
    gen.add_argument("--out", required=True, help="output CSV path")

    stats = commands.add_parser("stats", help="print Table-2 style statistics")
    stats.add_argument("--input", required=True, help="CSV from `generate`")

    plugins = commands.add_parser(
        "plugins", help="list registered strategy plugins and capabilities"
    )
    plugins.add_argument(
        "--kind", choices=PLUGIN_KINDS, default=None,
        help="restrict the listing to one strategy axis",
    )

    detect = commands.add_parser("detect", help="run pattern detection")
    detect.add_argument("--input", required=True, help="CSV from `generate`")
    detect.add_argument("--epsilon-pct", type=float, default=0.06,
                        help="epsilon as %% of dataset max distance")
    detect.add_argument("--grid-pct", type=float, default=1.6,
                        help="grid cell width as %% of dataset max distance")
    detect.add_argument("--min-pts", type=int, default=5)
    detect.add_argument("--m", type=int, default=5)
    detect.add_argument("--k", type=int, default=10)
    detect.add_argument("--l", type=int, default=2)
    detect.add_argument("--g", type=int, default=2)
    detect.add_argument(
        "--enumerator", choices=registry.names("enumerator"), default="fba"
    )
    detect.add_argument(
        "--backend", choices=registry.names("backend"), default="serial",
        help="execution backend running the job graph",
    )
    detect.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size for --backend process",
    )
    detect.add_argument(
        "--kernel", choices=registry.names("clustering_kernel"),
        default="python",
        help="snapshot-clustering kernel: reference object path or "
             "vectorized NumPy arrays (identical results)",
    )
    detect.add_argument(
        "--enum-kernel", choices=registry.names("enumeration_kernel"),
        default="python",
        help="pattern-enumeration kernel: reference per-anchor state "
             "machines or batched NumPy membership bitmaps (identical "
             "results; requires --enumerator fba or vba)",
    )
    detect.add_argument(
        "--shed-policy", choices=registry.names("shed_policy"),
        default="none",
        help="load-shedding policy under overload: none (default), "
             "random Bernoulli drops, or pattern_aware (protects "
             "records inside live partial matches)",
    )
    detect.add_argument(
        "--shed-rate", type=float, default=0.0,
        help="fraction of ingested records to shed in [0, 1); the "
             "starting rate when --target-p99-ms engages the controller",
    )
    detect.add_argument(
        "--target-p99-ms", type=float, default=None,
        help="latency SLO: adapt the shed rate toward this p99 "
             "per-snapshot latency (requires --shed-policy != none)",
    )
    detect.add_argument(
        "--pattern-family", choices=registry.names("pattern_family"),
        default="strict",
        help="pattern family: strict (the paper's exact semantics), "
             "evolving (θ-continuous groups, GroupEvolved events) or "
             "predictive (online confirmation-probability scoring, "
             "PatternForming events; requires --enumerator fba or vba)",
    )
    detect.add_argument(
        "--evolving-theta", type=float, default=0.5,
        help="Jaccard-continuity threshold of --pattern-family evolving, "
             "in (0, 1]",
    )
    detect.add_argument(
        "--prediction-min-probability", type=float, default=0.0,
        help="emission threshold of --pattern-family predictive, in "
             "[0, 1]; forming candidates scoring below it are dropped",
    )
    detect.add_argument("--max-delay", type=int, default=0)
    detect.add_argument(
        "--batch-size", type=int, default=1024,
        help="records per columnar ingest batch (the RecordBatch data "
             "plane); 0 feeds record-at-a-time through the per-point "
             "compatibility path — identical results either way",
    )
    detect.add_argument(
        "--output", choices=("text", "json"), default="text",
        help="text: human pattern listing; json: one JSON line per "
             "session pattern event plus a final summary line",
    )
    detect.add_argument(
        "--maximal-only", action="store_true",
        help="report only maximal object sets",
    )
    detect.add_argument(
        "--limit", type=int, default=20, help="max patterns to print"
    )
    detect.add_argument(
        "--json-out", default=None,
        help="also write the patterns as JSON to this path",
    )
    detect.add_argument(
        "--checkpoint-dir", default=None,
        help="save periodic checkpoints into this directory "
             "(checkpoint-<watermark>.ckpt, loadable via --restore-from)",
    )
    detect.add_argument(
        "--checkpoint-every-records", type=int, default=None,
        help="ingested records between automatic checkpoints "
             "(requires --checkpoint-dir; default: every watermark)",
    )
    detect.add_argument(
        "--checkpoint-every-seconds", type=float, default=None,
        help="wall-clock seconds between automatic checkpoints "
             "(requires --checkpoint-dir; combines with "
             "--checkpoint-every-records, whichever fires first)",
    )
    detect.add_argument(
        "--checkpoint-keep-last", type=int, default=None,
        help="retain only the newest N checkpoints in --checkpoint-dir "
             "(the newest valid checkpoint always survives)",
    )
    detect.add_argument(
        "--restore-from", default=None,
        help="resume from a checkpoint file; detection parameters come "
             "from the checkpoint (only --backend/--workers may differ) "
             "and already-ingested records are skipped",
    )
    detect.add_argument(
        "--metrics-out", default=None,
        help="write the telemetry registry as a JSONL time series "
             "(one row per --metrics-every watermarks plus a final row)",
    )
    detect.add_argument(
        "--metrics-every", type=int, default=1,
        help="watermarks between --metrics-out rows",
    )
    detect.add_argument(
        "--trace-out", default=None,
        help="write per-stage operator spans as JSON lines",
    )
    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: synthesize a workload and write it as CSV."""
    generate, config_cls = GENERATORS[args.kind]
    kwargs = dict(n_objects=args.objects, horizon=args.horizon, seed=args.seed)
    if args.group_fraction is not None:
        kwargs["group_fraction"] = args.group_fraction
    dataset = generate(config_cls(**kwargs))
    dataset.save_csv(args.out)
    stats = dataset.statistics()
    print(
        f"wrote {args.out}: {stats.trajectories} trajectories, "
        f"{stats.locations} locations, {stats.snapshots} snapshots"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: print Table-2 style statistics for a CSV workload."""
    dataset = TrajectoryDataset.load_csv(args.input)
    print(format_table([dataset.statistics().as_row()], title="Dataset"))
    print(f"\nmax L1 extent: {dataset.max_distance():.1f}")
    for pct in (0.02, 0.06, 0.12):
        print(f"  epsilon at {pct}% -> {dataset.resolve_percentage(pct):.2f}")
    return 0


def cmd_plugins(args: argparse.Namespace) -> int:
    """``plugins``: list every registered strategy with capabilities."""
    registry = default_registry()
    kinds = (args.kind,) if args.kind else registry.kinds()
    rows = []
    for kind in kinds:
        for spec in registry.specs(kind):
            rows.append(
                {
                    "kind": spec.kind,
                    "name": spec.name,
                    "source": spec.source,
                    "capabilities": spec.capabilities.summary_markers(),
                    "summary": spec.summary,
                }
            )
    print(format_table(rows, title="Registered plugins"))
    return 0


def _selection_error(args: argparse.Namespace) -> str | None:
    """One-line reason the requested plugin selection cannot run, if any.

    Unknown names are already rejected by argparse ``choices``; this
    covers the capability layer — invalid cross-axis combinations, from
    the declarative registry check.
    """
    try:
        default_registry().validate_selection(
            enumerator=args.enumerator,
            backend=args.backend,
            clustering_kernel=args.kernel,
            enumeration_kernel=args.enum_kernel,
            shed_policy=args.shed_policy,
            pattern_family=args.pattern_family,
        )
    except PluginError as error:
        return str(error)
    return None


def cmd_detect(args: argparse.Namespace) -> int:
    """``detect``: run ICPE over a CSV workload and print patterns."""
    reason = _selection_error(args)
    if reason is not None:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    if args.metrics_every < 1:
        print("error: --metrics-every must be >= 1", file=sys.stderr)
        return 2
    dataset = TrajectoryDataset.load_csv(args.input)
    restore = None
    skip = 0
    if args.restore_from is not None:
        try:
            restore = Checkpoint.load(args.restore_from)
        except (OSError, CheckpointError) as error:
            print(f"error: --restore-from: {error}", file=sys.stderr)
            return 2
        skip = restore.records_ingested
        # Detection parameters must match the checkpointed run exactly;
        # only the execution surface may change, so the config is the
        # checkpoint's with the backend flags applied on top.
        config = replace(
            restore.config,
            backend=args.backend,
            parallel_workers=args.workers,
            checkpoint_every_records=args.checkpoint_every_records,
            checkpoint_every_seconds=args.checkpoint_every_seconds,
        )
    else:
        config = ICPEConfig(
            epsilon=dataset.resolve_percentage(args.epsilon_pct),
            cell_width=dataset.resolve_percentage(args.grid_pct),
            min_pts=args.min_pts,
            constraints=PatternConstraints(
                m=args.m, k=args.k, l=args.l, g=args.g
            ),
            enumerator=args.enumerator,
            max_delay=args.max_delay,
            backend=args.backend,
            parallel_workers=args.workers,
            clustering_kernel=args.kernel,
            enumeration_kernel=args.enum_kernel,
            shed_policy=args.shed_policy,
            shed_rate=args.shed_rate,
            target_p99_ms=args.target_p99_ms,
            checkpoint_every_records=args.checkpoint_every_records,
            checkpoint_every_seconds=args.checkpoint_every_seconds,
            pattern_family=args.pattern_family,
            evolving_theta=args.evolving_theta,
            prediction_min_probability=args.prediction_min_probability,
        )
    observability = None
    if args.metrics_out or args.trace_out:
        observability = ObservabilityOptions(
            metrics_out=args.metrics_out,
            metrics_every=args.metrics_every,
            trace_out=args.trace_out,
        )
    # Context-managed so the backend's worker pool is released even if a
    # sink or the pipeline raises mid-run.
    with Session(
        config,
        restore=restore,
        observability=observability,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_keep_last=args.checkpoint_keep_last,
    ) as session:
        if args.output == "json":
            session.subscribe(JsonlSink(sys.stdout))
        if skip:
            print(
                f"restored from {args.restore_from}: skipping {skip} "
                "already-ingested records",
                file=sys.stderr,
            )
        if args.batch_size > 0 and not skip:
            # Columnar ingestion: the CSV workload streams through the
            # session in RecordBatch chunks of the configured size.
            for batch in dataset.batches(args.batch_size):
                session.feed_batch(batch)
        else:
            for record in dataset.records[skip:]:
                session.feed(record)
        session.finish()
        for path in session.auto_checkpoints:
            print(f"checkpoint saved: {path}", file=sys.stderr)
        if args.metrics_out:
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
        if args.trace_out:
            print(f"trace written to {args.trace_out}", file=sys.stderr)

    store = session.store()
    result = session.result()
    if args.output == "json":
        print(
            json.dumps(
                {
                    "kind": "summary",
                    "patterns": len(result.patterns),
                    "maximal_patterns": len(store.maximal()),
                    "snapshots": result.snapshots,
                    "avg_latency_ms": result.avg_latency_ms,
                    "throughput_tps": result.throughput_tps,
                    "backend": result.backend,
                    "clustering_kernel": result.clustering_kernel,
                    "enumeration_kernel": result.enumeration_kernel,
                    "enumerator": result.enumerator,
                    "shedding": result.shedding,
                }
            )
        )
    else:
        print(f"backend: {result.backend}")
        print(f"kernel: {result.clustering_kernel}")
        print(f"enumeration kernel: {result.enumeration_kernel}")
        if config.pattern_family != "strict":
            counts = result.events
            print(
                f"pattern family: {config.pattern_family} "
                f"(evolved {counts.get('evolved', 0)}, "
                f"forming {counts.get('forming', 0)})"
            )
        patterns = store.maximal() if args.maximal_only else list(store)
        patterns.sort(key=lambda p: (-p.size, p.objects))
        label = "maximal patterns" if args.maximal_only else "patterns"
        print(f"{len(patterns)} {label} (showing up to {args.limit}):")
        for stored in patterns[: args.limit]:
            first, last = stored.span
            ids = ", ".join(f"o{oid}" for oid in stored.objects)
            print(f"  {{{ids}}}  witnessed over [{first}, {last}]")
        meter = session.meter
        print(
            f"\n{meter.snapshots} snapshots; avg latency "
            f"{meter.average_latency_ms():.2f} ms; throughput "
            f"{meter.throughput_tps():.0f} snapshots/s"
        )
        shed = result.shedding
        if shed.get("policy", "none") != "none":
            print(
                f"shedding ({shed['policy']}): "
                f"{shed['records_shed']}/{shed['records_offered']} records "
                f"dropped; final rate {shed['shed_rate']:.2f}; "
                f"{shed['records_protected']} protected"
            )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(
                store.to_json(maximal_only=args.maximal_only, indent=2)
            )
        if args.output != "json":
            print(f"wrote JSON to {args.json_out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "stats": cmd_stats,
        "plugins": cmd_plugins,
        "detect": cmd_detect,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
