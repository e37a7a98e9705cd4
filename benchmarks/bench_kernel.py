#!/usr/bin/env python3
"""Bulk ingestion vs the per-item oracle: identity and items/second.

``DaVinciSketch.insert_all`` runs each chunk through the one bulk path
(``repro.core.kernel.ingest_chunk``): keys canonicalized and
aggregated as arrays, frequent-part rank rounds, element-filter
first-occurrence rounds, exact infrequent-part encodes.  Its contract is
the per-item oracle: ``insert(key, total)`` over each chunk's per-key
totals in first-seen order.  This script times both on the paper's
canonical workload (a Zipf(1.1) packet trace) and checks the contract on
the fly via ``to_state``.

Run (from the repository root):

    PYTHONPATH=src python benchmarks/bench_kernel.py               # 1M items
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick       # CI smoke

Timings are interleaved best-of-``--repeats`` (default 3) so host noise
lands on neither side of the comparison.  Writes ``BENCH_kernel.json``
(see ``--output``) with both rates, the speedup and the identity verdict;
a diverging state exits non-zero whatever the speedup.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from _harness import Side, interleaved_best
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.serialization import to_state
from repro.workloads import zipf_trace

#: memory budget for the benchmark sketches (generous enough that the
#: frequent part is exercised, small enough to be cache-resident)
DEFAULT_MEMORY_KB = 64.0


def per_item_oracle(sketch: DaVinciSketch, trace: List[int], chunk: int) -> None:
    """``insert(key, total)`` over each chunk's first-seen totals."""
    for start in range(0, len(trace), chunk):
        totals: Dict[int, int] = {}
        for key in trace[start : start + chunk]:
            totals[key] = totals.get(key, 0) + 1
        for key, total in totals.items():
            sketch.insert(key, total)


def time_side(
    config: DaVinciConfig, trace: List[int], chunk_size: int, bulk: bool
) -> "tuple[float, DaVinciSketch]":
    sketch = DaVinciSketch(config)
    start = time.perf_counter()
    if bulk:
        sketch.insert_all(trace, chunk_size=chunk_size)
    else:
        per_item_oracle(sketch, trace, chunk_size)
    return time.perf_counter() - start, sketch


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
    config = DaVinciConfig.from_memory_kb(args.memory_kb, seed=args.seed + 2)

    # warm-up pass so both measurements see hot bytecode/caches
    warm = trace[: min(len(trace), 50_000)]
    for bulk in (False, True):
        time_side(config, warm, args.chunk_size, bulk)

    oracle, bulk = interleaved_best(
        [
            Side(
                "per-item oracle",
                lambda: time_side(config, trace, args.chunk_size, False),
            ),
            Side(
                "bulk", lambda: time_side(config, trace, args.chunk_size, True)
            ),
        ],
        repeats=args.repeats,
    )
    oracle_sketch: DaVinciSketch = oracle.artifact
    bulk_sketch: DaVinciSketch = bulk.artifact

    state_identical = to_state(oracle_sketch) == to_state(bulk_sketch)
    oracle_rate = len(trace) / oracle.seconds
    bulk_rate = len(trace) / bulk.seconds
    speedup = bulk_rate / oracle_rate

    result: Dict[str, object] = {
        "workload": {
            "items": args.items,
            "flows": args.flows,
            "skew": args.skew,
            "seed": args.seed,
            "memory_kb": args.memory_kb,
            "chunk_size": args.chunk_size,
        },
        "per_item_oracle": {
            "seconds": oracle.seconds,
            "items_per_second": oracle_rate,
        },
        "bulk": {
            "seconds": bulk.seconds,
            "items_per_second": bulk_rate,
            "ama": bulk_sketch.average_memory_access(),
        },
        "speedup": speedup,
        "state_identical_to_per_item_oracle": state_identical,
    }

    print(
        f"per-item oracle: {oracle.seconds:8.3f} s  "
        f"({oracle_rate:12,.0f} items/s)"
    )
    print(
        f"bulk ingest    : {bulk.seconds:8.3f} s  "
        f"({bulk_rate:12,.0f} items/s, AMA "
        f"{bulk_sketch.average_memory_access():.2f})"
    )
    print(f"speedup        : {speedup:.2f}x")
    print(f"state identical to per-item oracle: {state_identical}")
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
    parser.add_argument("--seed", type=int, default=11, help="workload seed")
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
        help="insert_all chunk size",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="interleaved measurement rounds (best-of-N)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 100k items / 20k flows, 2 rounds",
    )
    parser.add_argument(
        "--output",
        default="BENCH_kernel.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if bulk ingest is below this speedup",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.items = min(args.items, 100_000)
        args.flows = min(args.flows, 20_000)
        args.repeats = min(args.repeats, 2)

    result = run(args)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if not result["state_identical_to_per_item_oracle"]:
        print("ERROR: bulk-ingest sketch state diverged from the oracle")
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
