"""Sharded ingestion against the per-item oracle, across processes.

Shard workers run every chunk through the bulk path; the merged state
must equal the fold of per-partition sketches built with the paper's
per-item ``insert(key, total)`` over each chunk's aggregates.
"""

from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch
from repro.runtime import ShardedIngestor, ShardRouter, merge_tree

CHUNK = 1024


def small_config(seed: int = 3) -> DaVinciConfig:
    return DaVinciConfig.from_memory(16384, seed=seed)


def trace(n: int = 30_000, seed: int = 9):
    import random

    rng = random.Random(seed)
    return [rng.randint(1, 50_000) for _ in range(n)]


def reference_fold(config, num_shards, pairs, chunk_items):
    """Per-partition per-item oracle + merge tree."""
    router = ShardRouter(num_shards)
    shards = []
    for part in router.partition_pairs(pairs):
        sketch = DaVinciSketch(config)
        for start in range(0, len(part), chunk_items):
            totals = {}
            for key, count in part[start : start + chunk_items]:
                totals[key] = totals.get(key, 0) + count
            for key, total in totals.items():
                sketch.insert(key, total)
        shards.append(sketch)
    return merge_tree(shards)


class TestShardedArrayKernelIdentity:
    def test_merged_state_matches_object_kernel_fold(self):
        config = small_config()
        keys = trace()
        with ShardedIngestor(
            config, 4, chunk_items=CHUNK
        ) as ingestor:
            ingestor.ingest_keys(keys)
            merged = ingestor.finalize()
        reference = reference_fold(
            config, 4, [(k, 1) for k in keys], CHUNK
        )
        assert merged.to_state() == reference.to_state()
