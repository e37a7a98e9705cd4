#!/usr/bin/env python3
"""Ingestion throughput: per-item ``insert`` loop vs batched ``insert_batch``.

The bulk path (``DaVinciSketch.insert_batch``) canonicalizes and
pre-aggregates each chunk into per-key totals as arrays and applies them
to the three parts as arrays — while producing a sketch state
byte-identical to the equivalent sequential loop.  This script
measures how much wall-clock that buys on the paper's canonical workload
(a Zipf(1.1) packet trace) and cross-checks the equivalence claim on the
fly via ``to_state``.

Run (from the repository root):

    PYTHONPATH=src python benchmarks/bench_ingest.py               # 1M items
    PYTHONPATH=src python benchmarks/bench_ingest.py --quick       # CI smoke

Writes ``BENCH_ingest.json`` (see ``--output``) with the measured rates,
the speedup and the equivalence verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.serialization import to_state
from repro.workloads import zipf_trace

#: memory budget for the benchmark sketches (generous enough that the
#: frequent part is exercised, small enough to be cache-resident)
DEFAULT_MEMORY_KB = 64.0


def build_sketch(memory_kb: float, seed: int) -> DaVinciSketch:
    return DaVinciSketch(DaVinciConfig.from_memory_kb(memory_kb, seed=seed))


def time_per_item(sketch: DaVinciSketch, trace: List[int]) -> float:
    start = time.perf_counter()
    insert = sketch.insert
    for key in trace:
        insert(key)
    return time.perf_counter() - start


def time_batched(
    sketch: DaVinciSketch, trace: List[int], chunk_size: int
) -> float:
    start = time.perf_counter()
    sketch.insert_all(trace, chunk_size=chunk_size)
    return time.perf_counter() - start


def run(args: argparse.Namespace) -> Dict[str, object]:
    print(
        f"generating Zipf({args.skew}) trace: {args.items:,} items over "
        f"{args.flows:,} flows (seed {args.seed}) ...",
        flush=True,
    )
    trace = zipf_trace(
        num_packets=args.items,
        num_flows=args.flows,
        skew=args.skew,
        seed=args.seed,
    )

    # warm-up pass so both measurements see hot bytecode/caches
    warm = build_sketch(args.memory_kb, args.seed + 1)
    warm.insert_all(trace[: min(len(trace), 50_000)])

    per_item_sketch = build_sketch(args.memory_kb, args.seed + 2)
    per_item_seconds = time_per_item(per_item_sketch, trace)

    batched_sketch = build_sketch(args.memory_kb, args.seed + 2)
    batched_seconds = time_batched(batched_sketch, trace, args.chunk_size)

    # equivalence spot-check: the batched sketch must match the sequential
    # loop over the same chunking's aggregated pairs, byte for byte
    reference = build_sketch(args.memory_kb, args.seed + 2)
    for start in range(0, len(trace), args.chunk_size):
        aggregated: Dict[int, int] = {}
        for key in trace[start : start + args.chunk_size]:
            aggregated[key] = aggregated.get(key, 0) + 1
        for key, count in aggregated.items():
            reference.insert(key, count)
    state_identical = to_state(reference) == to_state(batched_sketch)

    per_item_rate = len(trace) / per_item_seconds
    batched_rate = len(trace) / batched_seconds
    speedup = batched_rate / per_item_rate

    result: Dict[str, object] = {
        "workload": {
            "items": args.items,
            "flows": args.flows,
            "skew": args.skew,
            "seed": args.seed,
            "memory_kb": args.memory_kb,
            "chunk_size": args.chunk_size,
        },
        "per_item": {
            "seconds": per_item_seconds,
            "items_per_second": per_item_rate,
            "ama": per_item_sketch.average_memory_access(),
        },
        "batched": {
            "seconds": batched_seconds,
            "items_per_second": batched_rate,
            "ama": batched_sketch.average_memory_access(),
        },
        "speedup": speedup,
        "state_identical_to_sequential": state_identical,
    }

    print(
        f"per-item : {per_item_seconds:8.3f} s  "
        f"({per_item_rate:12,.0f} items/s, AMA {result['per_item']['ama']:.2f})"  # type: ignore[index]
    )
    print(
        f"batched  : {batched_seconds:8.3f} s  "
        f"({batched_rate:12,.0f} items/s, AMA {result['batched']['ama']:.2f})"  # type: ignore[index]
    )
    print(f"speedup  : {speedup:.2f}x")
    print(f"state identical to sequential loop: {state_identical}")
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--items", type=int, default=1_000_000, help="stream length"
    )
    parser.add_argument(
        "--flows", type=int, default=100_000, help="distinct keys"
    )
    parser.add_argument("--skew", type=float, default=1.1, help="Zipf skew")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--memory-kb",
        type=float,
        default=DEFAULT_MEMORY_KB,
        help="sketch memory budget (KB)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=1 << 16,
        help="insert_batch chunk size",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 100k items / 20k flows",
    )
    parser.add_argument(
        "--output",
        default="BENCH_ingest.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if the batched path is below this speedup",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.items = min(args.items, 100_000)
        args.flows = min(args.flows, 20_000)

    result = run(args)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if not result["state_identical_to_sequential"]:
        print("ERROR: batched sketch state diverged from sequential loop")
        return 1
    if float(result["speedup"]) < args.min_speedup:  # type: ignore[arg-type]
        print(
            f"ERROR: speedup {result['speedup']:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
