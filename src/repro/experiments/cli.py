"""Command-line runner for the paper's experiments.

Usage (any panel, any dataset, any scale, from a shell)::

    python -m repro.experiments figure frequency --dataset caida
    python -m repro.experiments figure difference --mode inclusion
    python -m repro.experiments figure1
    python -m repro.experiments overall --cases 2,4,8,16
    python -m repro.experiments table3 --scale 0.02

The output is the same text rendering the benchmark suite prints, so a
shell user can regenerate a single figure without invoking pytest.

Every subcommand accepts ``--metrics PATH``: it arms
:mod:`repro.observability` for the duration of the run and writes the
default registry's :func:`~repro.observability.metrics.snapshot` to
``PATH`` as JSON afterwards (``-`` prints to stdout) — a machine-readable
telemetry artifact to ride along with the figure text.  The sibling
``--trace PATH`` writes the default
:class:`~repro.observability.tracing.TraceSink`'s buffered events as
JSON Lines after the run (trace emission is always on, so no arming is
involved).

The ``serve`` / ``push`` pair exposes the fault-tolerant aggregation
service (:mod:`repro.service`) from a shell: ``serve`` runs a
:class:`~repro.service.server.SketchServer` in the foreground, ``push``
sketches a dataset trace client-side and union-folds it into a named
remote aggregate with full retry/breaker protection.  See
``docs/SERVICE.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.experiments.figures import PANEL_RUNNERS, figure1_flow_distribution
from repro.experiments.overall import (
    DEFAULT_CASES_KB,
    overall_performance,
    table3_accuracy,
)
from repro.experiments.report import (
    render_cases,
    render_distribution_curves,
    render_sweep,
    render_table3,
)


def _float_list(text: str) -> List[float]:
    return [float(item) for item in text.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DaVinci Sketch paper's figures/tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="arm metric collection for the run and write a JSON snapshot "
        "of the default registry to PATH ('-' for stdout)",
    )
    common.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="after the run, write the default trace sink's buffered "
        "events to PATH as JSON Lines ('-' for stdout)",
    )

    figure = subparsers.add_parser(
        "figure", help="one Figure 4/5/6 panel", parents=[common]
    )
    figure.add_argument("panel", choices=sorted(PANEL_RUNNERS))
    figure.add_argument("--dataset", default="caida")
    figure.add_argument("--scale", type=float, default=0.01)
    figure.add_argument("--memories", type=_float_list, default=[2, 4, 6, 8])
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument(
        "--mode",
        default="overlap",
        choices=["overlap", "inclusion"],
        help="difference panel only",
    )
    figure.add_argument(
        "--metric",
        default="are",
        choices=["are", "aae"],
        help="frequency panel only (Fig. 7c uses aae)",
    )

    fig1 = subparsers.add_parser(
        "figure1", help="flow-size CDFs (Fig. 1)", parents=[common]
    )
    fig1.add_argument("--scale", type=float, default=0.01)
    fig1.add_argument("--seed", type=int, default=0)

    overall = subparsers.add_parser(
        "overall", help="Fig. 8 (AMA/throughput/memory)", parents=[common]
    )
    overall.add_argument("--scale", type=float, default=0.01)
    overall.add_argument(
        "--cases", type=_float_list, default=list(DEFAULT_CASES_KB)
    )
    overall.add_argument("--seed", type=int, default=0)
    overall.add_argument("--dataset", default="caida")

    table3 = subparsers.add_parser(
        "table3", help="Table III (9 tasks × cases)", parents=[common]
    )
    table3.add_argument("--scale", type=float, default=0.01)
    table3.add_argument(
        "--cases", type=_float_list, default=list(DEFAULT_CASES_KB)
    )
    table3.add_argument("--seed", type=int, default=0)
    table3.add_argument("--dataset", default="caida")

    sharded = subparsers.add_parser(
        "sharded",
        help="multiprocess sharded ingestion demo (see docs/SCALING.md)",
        parents=[common],
    )
    sharded.add_argument(
        "--shards", type=int, default=4, help="worker process count"
    )
    sharded.add_argument("--scale", type=float, default=0.01)
    sharded.add_argument("--seed", type=int, default=0)
    sharded.add_argument("--dataset", default="caida")
    sharded.add_argument(
        "--memory-kb", type=float, default=16.0, help="sketch memory budget"
    )
    sharded.add_argument(
        "--durable-root",
        default=None,
        metavar="DIR",
        help="run each shard inside a checkpointing ingestor rooted here",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run a fault-tolerant sketch aggregation server "
        "(see docs/SERVICE.md)",
        parents=[common],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission bound; requests beyond it are shed",
    )
    serve.add_argument(
        "--read-deadline",
        type=float,
        default=30.0,
        help="seconds an idle/stalled connection may hold a reader",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then drain and exit "
        "(default: until interrupted)",
    )

    push = subparsers.add_parser(
        "push",
        help="sketch a dataset trace and union-fold it into a remote "
        "aggregate",
        parents=[common],
    )
    push.add_argument("--host", default="127.0.0.1")
    push.add_argument("--port", type=int, required=True)
    push.add_argument(
        "--aggregate", default="default", help="remote aggregate name"
    )
    push.add_argument("--dataset", default="caida")
    push.add_argument("--scale", type=float, default=0.01)
    push.add_argument("--seed", type=int, default=0)
    push.add_argument(
        "--memory-kb", type=float, default=16.0, help="sketch memory budget"
    )
    push.add_argument(
        "--parts",
        type=int,
        default=1,
        help="split the trace into this many sketches pushed separately",
    )
    push.add_argument(
        "--task",
        default=None,
        choices=["cardinality", "entropy"],
        help="after pushing, run this task against the remote aggregate",
    )
    push.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="per-push end-to-end deadline budget in seconds",
    )

    return parser


def _write_metrics_snapshot(path: str) -> None:
    """Dump the default registry's snapshot as JSON to ``path``/stdout."""
    from repro.observability import metrics as obs

    payload = json.dumps(obs.snapshot(), indent=2, sort_keys=True)
    if path == "-":
        print(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def _write_trace_jsonl(path: str) -> None:
    """Dump the default trace sink as JSON Lines to ``path``/stdout."""
    from repro.observability.tracing import get_default_trace_sink

    payload = get_default_trace_sink().render_jsonl()
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_path: Optional[str] = getattr(args, "metrics", None)
    trace_path: Optional[str] = getattr(args, "trace", None)
    if metrics_path is None:
        code = _dispatch(args)
    else:
        from repro.observability import metrics as obs

        with obs.enabled():
            code = _dispatch(args)
            _write_metrics_snapshot(metrics_path)
    if trace_path is not None:
        _write_trace_jsonl(trace_path)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "figure":
        runner = PANEL_RUNNERS[args.panel]
        kwargs = dict(
            dataset=args.dataset,
            scale=args.scale,
            memories_kb=tuple(args.memories),
            seed=args.seed,
        )
        if args.panel == "difference":
            kwargs["mode"] = args.mode
        if args.panel == "frequency":
            kwargs["metric"] = args.metric
        print(render_sweep(runner(**kwargs)))
        return 0

    if args.command == "figure1":
        curves = figure1_flow_distribution(scale=args.scale, seed=args.seed)
        print(render_distribution_curves(curves))
        return 0

    if args.command == "overall":
        results = overall_performance(
            scale=args.scale,
            cases_kb=tuple(args.cases),
            seed=args.seed,
            dataset=args.dataset,
        )
        print(render_cases(results))
        return 0

    if args.command == "sharded":
        return _run_sharded(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "push":
        return _run_push(args)

    if args.command == "table3":
        rows = table3_accuracy(
            scale=args.scale,
            cases_kb=tuple(args.cases),
            seed=args.seed,
            dataset=args.dataset,
        )
        print(render_table3(rows))
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


def _run_sharded(args: argparse.Namespace) -> int:
    """Ingest one dataset trace through the sharded runtime and report."""
    import time

    from repro.core.config import DaVinciConfig
    from repro.runtime import ShardedIngestor
    from repro.workloads import load_trace

    trace = load_trace(args.dataset, scale=args.scale, seed=args.seed)
    config = DaVinciConfig.from_memory_kb(args.memory_kb, seed=args.seed)
    started = time.perf_counter()
    with ShardedIngestor(
        config, args.shards, durable_root=args.durable_root
    ) as ingestor:
        ingestor.ingest_keys(trace)
        merged = ingestor.finalize()
    elapsed = time.perf_counter() - started
    per_shard = [sketch.total_count for sketch in ingestor.shard_sketches]
    print(
        f"sharded ingest: {len(trace):,} items over {args.shards} worker "
        f"processes in {elapsed:.2f}s "
        f"({len(trace) / max(elapsed, 1e-9):,.0f} items/s)"
    )
    print(f"per-shard items: {per_shard}")
    print(
        f"merged sketch: mode={merged.mode} total={merged.total_count:,} "
        f"cardinality≈{merged.cardinality():,.0f} "
        f"heavy hitters={len(merged.heavy_hitters(max(1, len(trace) // 1000)))}"
    )
    if args.durable_root is not None:
        print(f"durable shard checkpoints under {args.durable_root}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Serve sketch aggregation in the foreground until stopped."""
    import time

    from repro.service import SketchServer

    server = SketchServer(
        args.host,
        args.port,
        max_inflight=args.max_inflight,
        read_deadline_seconds=args.read_deadline,
    )
    server.start()
    host, port = server.address
    print(f"serving sketch aggregation on {host}:{port}", flush=True)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive mode, exercised manually
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        pass
    finally:
        server.close()
    print("drained and stopped")
    return 0


def _run_push(args: argparse.Namespace) -> int:
    """Sketch a trace (optionally in parts) and push it to a server."""
    from repro.core.config import DaVinciConfig
    from repro.core.davinci import DaVinciSketch
    from repro.service import AggregationClient
    from repro.workloads import load_trace

    trace = load_trace(args.dataset, scale=args.scale, seed=args.seed)
    config = DaVinciConfig.from_memory_kb(args.memory_kb, seed=args.seed)
    client = AggregationClient(args.host, args.port)
    parts = max(1, args.parts)
    for part in range(parts):
        sketch = DaVinciSketch(config)
        sketch.insert_all(trace[part::parts])
        response = client.push(
            args.aggregate, sketch, deadline_seconds=args.deadline
        )
        print(
            f"pushed part {part + 1}/{parts}: seq={response['seq']} "
            f"duplicate={response['duplicate']} "
            f"applied={response['applied']}"
        )
    if args.task is not None:
        value = client.query(
            args.aggregate, args.task, deadline_seconds=args.deadline
        )
        print(f"{args.task}: {value:,.1f}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
