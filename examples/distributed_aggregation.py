#!/usr/bin/env python3
"""Distributed measurement: sharded ingestion plus cross-site merging.

The paper's union operation (Algorithm 3) exists precisely for this:
several measurement points each summarize their local traffic into a
DaVinci Sketch, ship the fixed-size sketch (not the traffic!) to a
collector, and the collector folds them into one network-wide view on
which every task still works.  The difference operation then localizes
*where* traffic was lost between two points on a path.

This example runs the real pipeline end to end:

1. a :class:`~repro.runtime.sharded.ShardedIngestor` spreads one site's
   stream across worker processes and merge-trees the shards back
   together (see ``docs/SCALING.md``);
2. each vantage point ships its sketch as a digest-checked binary
   wire-v3 blob, the collector verifies and unions them.

Run:  python examples/distributed_aggregation.py
"""

import random
from collections import Counter

from repro import DaVinciConfig, DaVinciSketch
from repro.core.serialization import from_wire, to_wire
from repro.runtime import ShardedIngestor
from repro.workloads import zipf_trace


def main(scale: float = 1.0) -> None:
    config = DaVinciConfig.from_memory_kb(32, seed=9)
    rng = random.Random(4)

    # --- one busy vantage point ingests with the sharded runtime -------- #
    packets = int(120_000 * scale)
    flows = max(100, int(9_000 * scale))
    traffic = zipf_trace(num_packets=packets, num_flows=flows, skew=1.05, seed=1)
    rng.shuffle(traffic)

    with ShardedIngestor(config, num_shards=4) as ingestor:
        ingestor.ingest_keys(traffic)
        busy_site_view = ingestor.finalize()
    print(f"sharded site: {busy_site_view.total_count:,} packets across "
          f"{ingestor.num_shards} worker processes "
          f"(mode={busy_site_view.mode})")

    # --- other vantage points see disjoint slices of more traffic ------- #
    extra = zipf_trace(num_packets=packets, num_flows=flows, skew=1.05, seed=2)
    rng.shuffle(extra)
    half = len(extra) // 2
    slices = [extra[:half], extra[half:]]

    wire_blobs = []
    for index, site_packets in enumerate(slices):
        sketch = DaVinciSketch(config)
        sketch.insert_all(site_packets)
        # Ship over the network as a checksummed wire-v3 blob: the
        # collector's from_wire() verifies the embedded digest before
        # trusting a single counter.
        blob = to_wire(sketch, "sha256")
        wire_blobs.append(blob)
        print(f"monitor {index}: {sketch.total_count:,} packets, "
              f"wire blob = {len(blob) / 1024:.0f} KB")

    # --- collector verifies and folds everything ------------------------ #
    network_view = busy_site_view
    for blob in wire_blobs:
        network_view = network_view.union(from_wire(blob))

    truth = Counter(traffic) + Counter(extra)
    print(f"\nnetwork-wide view: {network_view.total_count:,} packets")
    print(f"cardinality  true={len(truth):,}, "
          f"estimated={network_view.cardinality():,.0f}")

    top = truth.most_common(5)
    print("top flows (true vs merged estimate):")
    for key, count in top:
        print(f"  flow {key}: {count:,} vs {network_view.query(key):,}")

    heavy = network_view.heavy_hitters(max(1, len(traffic) // 1000))
    print(f"network-wide heavy hitters: {len(heavy)}")

    # --- packet-loss localization via difference ------------------------- #
    # Upstream sees everything; downstream drops 1% of packets.
    upstream, downstream = DaVinciSketch(config), DaVinciSketch(config)
    upstream.insert_all(traffic)
    kept = [packet for packet in traffic if rng.random() > 0.01]
    downstream.insert_all(kept)
    lost_truth = Counter(traffic)
    lost_truth.subtract(Counter(kept))
    lost_truth = +lost_truth  # drop zero entries

    delta = upstream.difference(downstream)
    candidates = delta.heavy_hitters(1)
    detected = {key: value for key, value in candidates.items() if value > 0}
    true_lost_packets = sum(lost_truth.values())
    detected_packets = sum(detected.values())
    print(f"\npacket loss: {true_lost_packets:,} packets across "
          f"{len(lost_truth):,} flows")
    print(f"difference sketch attributes {detected_packets:,} lost packets "
          f"to {len(detected):,} flows")


if __name__ == "__main__":
    main()
