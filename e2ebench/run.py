#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, three workloads.

Run from the repository root::

    python3 e2ebench/run.py                       # every workload, seed 1
    python3 e2ebench/run.py --workload query --seed 7 --seconds 10
    python3 e2ebench/run.py --workload pipeline --trace 1   # layer breakdown
    python3 e2ebench/run.py --workload ingest --held-out    # untuned seed

The library is imported from ``src/`` next to this directory; without it
the command fails before printing a result.  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` runs the workload untraced and then traced,
prints the per-layer breakdown and the tracing overhead, and reports every
per-layer metric.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
operation (exception, service error, degraded answer, oracle mismatch)
makes the run incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: seeds from here up are never used while tuning; ``--held-out`` maps a
#: seed into this range to check a claim on data nobody tuned against
HELD_OUT_BASE = 1_000_000

#: the interpreter and allocator settings every run executes under.  String
#: hashing is randomized per process by default, which moved the point-read
#: latency by about a third between runs of the same seed.  glibc gives
#: each new server thread its own malloc arena, so how much freed memory
#: stays resident depended on which thread allocated what: the query
#: workload's peak RSS read 58 to 100 MB over ten runs, and 36 to 39 MB
#: with one arena.
RUN_ENV = {"PYTHONHASHSEED": "0", "MALLOC_ARENA_MAX": "1"}


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, and the metrics each run reports.

    It is the one place that names every metric with its unit, direction
    and regression bound, and says why each workload exists.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


DECODE_RATIONALE = (
    "256 KB is the smallest power-of-two budget at which the IFP fully "
    "decodes the 1M-item Zipf(1.1) stream over 100k flows (64 KB peels 0 "
    "keys, 128 KB stalls, 256 KB recovers ~1070), so decode work shows."
)


def load_library() -> bool:
    """Put ``src/`` first on the path; False when it holds no library."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import repro

    origin = os.path.realpath(os.path.dirname(repro.__file__))
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: repro imported from {origin}, not {SRC}", file=sys.stderr)
        return False
    return True


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        default="all",
        choices=("ingest", "pipeline", "query", "all"),
        help="workload to run; 'all' runs each in a fresh process",
    )
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument(
        "--held-out",
        action="store_true",
        help=f"use seed + {HELD_OUT_BASE:,} (a range never used for tuning)",
    )
    parser.add_argument(
        "--seconds", type=float, default=8.0, help="measuring time per run"
    )
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Any]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def provenance(
    workload: str, seed: int, args: argparse.Namespace, spec: Dict[str, Any]
) -> Dict[str, Any]:
    from repro.core.davinci import DaVinciSketch

    import workloads
    from hostspeed import REFERENCE_SECONDS

    config = workloads.config_for(seed)
    return {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed_argument": args.seed,
        "held_out": args.held_out,
        "seed": seed,
        "kernel": DaVinciSketch(config).kernel,
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL"),
        "config": dataclasses.asdict(config),
        "memory_kb": workloads.MEMORY_KB,
        "reference_unit_seconds": REFERENCE_SECONDS,
        "decode_rationale": DECODE_RATIONALE,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def effective_seed(args: argparse.Namespace) -> int:
    return args.seed + (HELD_OUT_BASE if args.held_out else 0)


def reported(values: Dict[str, float], listed: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``listed`` metrics found in ``values``, each with its unit."""
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in listed
        if m["name"] in values
    }


def untraced(
    workload: str, inputs: Any, seconds: float, spec: Dict[str, Any]
) -> Tuple[Dict[str, Any], Any]:
    """Every end-to-end metric of one untraced measurement, and its tally."""
    import workloads

    result = workloads.measure(workload, inputs, seconds, None)
    metrics = reported(result.metrics, spec["end_to_end"])
    print(f"{'metric':<22}{'reported':>16}{'as measured':>16}")
    for name, entry in metrics.items():
        measured = result.raw.get(name, entry["value"])
        print(f"{name:<22}{entry['value']:>16.6g}{measured:>16.6g} {entry['unit']}")
    return metrics, result.tally


def traced(
    workload: str, inputs: Any, seconds: float, spec: Dict[str, Any]
) -> Tuple[Dict[str, Any], Any]:
    """Every per-layer metric: an untraced then a traced measurement.

    Each gets half of ``seconds``; the tracing overhead is the traced
    session time over the untraced one.  Prints the layer breakdown.
    """
    import workloads
    from layers import breakdown_lines, layer_metrics
    from repro.observability import metrics as obs_metrics
    from spans import Tracer, layer_wrap_targets

    plain = workloads.measure(workload, inputs, seconds / 2.0, None)
    tracer = Tracer()
    layer_wrap_targets(tracer)
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_default_registry(registry)
    try:
        spanned = workloads.measure(workload, inputs, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
        obs_metrics.set_default_registry(previous)
    tally = spanned.tally
    tally.attempted += plain.tally.attempted
    tally.failed += plain.tally.failed
    tally.reasons.update(plain.tally.reasons)
    extras = dict(spanned.layer)
    replay = getattr(inputs, "replay_snapshot", None)
    if replay is not None:
        extras["davinci.ama"] = inputs.replay_ama
    wall = spanned.region.wall
    values = layer_metrics(tracer, registry.snapshot(), wall, extras, replay)
    overhead = spanned.unit_seconds / plain.unit_seconds - 1.0
    values["tracing_overhead_fraction"] = overhead
    values["failed_ops_fraction"] = tally.fraction

    print(f"layer breakdown of {workload} (traced wall {wall:.3f} s):")
    for line in breakdown_lines(tracer, wall):
        print("  " + line)
    print(f"{'metric':<22}{'untraced':>14}{'traced':>14}")
    for name in (m["name"] for m in spec["end_to_end"]):
        if name in plain.metrics and name in spanned.metrics:
            print(
                f"{name:<22}{plain.metrics[name]:>14.6g}"
                f"{spanned.metrics[name]:>14.6g}"
            )
    print(
        f"tracing overhead: {overhead:+.2%} per session "
        f"({plain.unit_seconds:.4f} s untraced, "
        f"{spanned.unit_seconds:.4f} s traced)"
    )
    return reported(values, spec["per_layer"]), tally


def run_one(args: argparse.Namespace) -> int:
    import workloads

    spec = load_spec()
    workload = args.workload
    seed = effective_seed(args)
    print(
        "provenance " + json.dumps(provenance(workload, seed, args, spec)),
        flush=True,
    )
    scratch = os.path.join(ROOT, ".e2ebench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        inputs = workloads.prepare(
            workload, seed, workloads.Scale(), bool(args.trace), work_dir
        )
        gc.collect()
        gc.freeze()  # the inputs live all run; keep them out of collections
        measure = traced if args.trace else untraced
        metrics, tally = measure(workload, inputs, args.seconds, spec)
        if tally.failed:
            print(f"failed operations: {tally.summary()}", file=sys.stderr)
        expected = len(spec["per_layer" if args.trace else "end_to_end"])
        correct = tally.failed == 0 and len(metrics) == expected
        emit(correct, max(1, tally.attempted), tally.failed, metrics)
        return 0 if correct else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    import workloads

    combined: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for workload in workloads.WORKLOADS:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            f"--workload={workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
        ] + (["--held-out"] if args.held_out else [])
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        result: Optional[Dict[str, Any]] = None
        if lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                print(lines[-1])
        if completed.returncode != 0 or result is None:
            correct = False
        if result is None:
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            combined[f"{workload}.{name}"] = entry
    emit(correct and failed == 0, max(1, attempted), failed, combined)
    return 0 if correct and failed == 0 else 1


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if any(os.environ.get(name) != value for name, value in RUN_ENV.items()):
        # Both settings are read at interpreter start, so start again.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__)] + argv,
            {**os.environ, **RUN_ENV},
        )
    if not load_library():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
