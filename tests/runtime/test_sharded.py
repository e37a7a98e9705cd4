"""Sharded multiprocess ingestion: routing, identity, faults, shutdown.

The heart of the contract is byte-identity: a ``ShardedIngestor`` run
must produce a merged sketch whose ``to_state()`` equals a sequential
fold over the router's partitions built with the same per-shard chunking
— including when a worker is SIGKILLed mid-run and recovered from its
durable shard checkpoint (the acceptance fault test).
"""

import functools
import os
import random
import re
import signal
import time
from itertools import repeat

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ShardFailureError
from repro.common.hashing import key_to_int
from repro.core import setops
from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch, PairColumns, checked_count
from repro.observability import metrics as obs_metrics
from repro.observability.metrics import MetricsRegistry
from repro.runtime import ShardedIngestor, ShardRouter, merge_tree

CHUNK = 1024


def small_config(seed: int = 3) -> DaVinciConfig:
    return DaVinciConfig.from_memory(16384, seed=seed)


def zipfish_keys(n: int, seed: int = 7):
    rng = random.Random(seed)
    return [rng.randint(1, 50_000) for _ in range(n)]


def flow_keys(n: int, seed: int = 7):
    """``zipfish_keys`` rendered as ``a.b.c.d:port`` flow strings."""
    return [
        f"10.{k >> 16 & 255}.{k >> 8 & 255}.{k & 255}:{k % 65536}"
        for k in zipfish_keys(n, seed)
    ]


def reference_fold(config, router, pairs, chunk_items):
    """Sequential per-partition build + fold, the byte-identity oracle."""
    shards = []
    for part in router.partition_pairs(pairs):
        sketch = DaVinciSketch(config)
        if part:
            sketch.insert_batch(part, chunk_size=chunk_items)
        shards.append(sketch)
    return merge_tree(shards), shards


# --------------------------------------------------------------------- #
# router
# --------------------------------------------------------------------- #
class TestShardRouter:
    def test_deterministic_and_in_range(self):
        router = ShardRouter(5)
        for key in [1, 2, 2**31, "flow-9", b"\x00\x01", -17, 0]:
            shard = router.shard_of(key)
            assert 0 <= shard < 5
            assert router.shard_of(key) == shard

    def test_matches_canonical_key_of_sketch(self):
        sketch = DaVinciSketch(small_config())
        router = ShardRouter(4)
        for key in [5, "alpha", b"beta", 2**40, -3]:
            assert router.canonical_key(key) == sketch.canonical_key(key)

    def test_residue_classes_still_spread(self):
        # All keys congruent mod num_shards: a plain modulo router would
        # put everything on one shard; the multiplicative mix must not.
        router = ShardRouter(4)
        hits = [0] * 4
        for i in range(4000):
            hits[router.shard_of(1 + 4 * i)] += 1
        assert all(h > 0 for h in hits)
        assert max(hits) < 0.5 * sum(hits)

    def test_partition_preserves_order_and_identity(self):
        router = ShardRouter(3)
        pairs = [(k, 1) for k in zipfish_keys(5000)]
        parts = router.partition_pairs(pairs)
        assert sum(len(p) for p in parts) == len(pairs)
        for index, part in enumerate(parts):
            assert all(
                router.shard_of(key) == index for key, _count in part[:50]
            )

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)


# --------------------------------------------------------------------- #
# merge tree
# --------------------------------------------------------------------- #
class TestMergeTree:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_tree([])

    def test_single_sketch_passes_through(self):
        sketch = DaVinciSketch(small_config())
        assert merge_tree([sketch]) is sketch

    def test_tree_equals_fold_left_on_partitions(self):
        config = small_config()
        router = ShardRouter(5)
        pairs = [(k, 1) for k in zipfish_keys(30_000)]
        _merged, shards = reference_fold(config, router, pairs, CHUNK)
        tree = merge_tree(shards)
        fold_left = functools.reduce(setops.union, shards)
        assert tree.to_state() == fold_left.to_state()


# --------------------------------------------------------------------- #
# the facade: identity, weighted pairs, lifecycle
# --------------------------------------------------------------------- #
class TestShardedIngestor:
    def test_merged_state_matches_sequential_fold(self):
        config = small_config()
        keys = zipfish_keys(40_000)
        with ShardedIngestor(
            config, 4, chunk_items=CHUNK
        ) as ingestor:
            ingestor.ingest_keys(keys)
            merged = ingestor.finalize()
        reference, _ = reference_fold(
            config, ShardRouter(4), [(k, 1) for k in keys], CHUNK
        )
        assert merged.mode == "additive"
        assert merged.to_state() == reference.to_state()

    def test_weighted_pairs_and_mixed_key_types(self):
        config = small_config()
        rng = random.Random(11)
        pairs = []
        for i in range(8000):
            kind = rng.randrange(3)
            key = (
                rng.randint(1, 10_000)
                if kind == 0
                else f"flow-{rng.randint(1, 500)}"
                if kind == 1
                else bytes([rng.randrange(256), rng.randrange(256)])
            )
            pairs.append((key, rng.randint(1, 5)))
        router = ShardRouter(3)
        with ShardedIngestor(
            config, 3, chunk_items=CHUNK
        ) as ingestor:
            ingestor.ingest(pairs)
            merged = ingestor.finalize()
        reference, _ = reference_fold(config, router, pairs, CHUNK)
        assert merged.to_state() == reference.to_state()
        assert ingestor.items_routed == len(pairs)

    def test_weighted_then_unweighted_in_same_buffer_window(self):
        # ingest() leaves explicit per-shard count lists pending; a
        # following ingest_keys() into the same dispatch window must not
        # desync keys from counts (a mismatch would silently truncate
        # the batch at the worker's zip).
        config = small_config()
        pairs = [(k, 3) for k in zipfish_keys(500, seed=5)]
        keys = zipfish_keys(700, seed=6)
        with ShardedIngestor(
            config, 2, chunk_items=CHUNK
        ) as ingestor:
            ingestor.ingest(pairs)
            ingestor.ingest_keys(keys)
            merged = ingestor.finalize()
        reference, _ = reference_fold(
            config,
            ShardRouter(2),
            pairs + [(k, 1) for k in keys],
            CHUNK,
        )
        assert merged.total_count == 3 * 500 + 700
        assert merged.to_state() == reference.to_state()

    def test_vectorized_routing_matches_scalar_partition(self):
        # ingest/ingest_keys canonicalize and route whole batches with
        # numpy; what each shard is sent must be bit for bit the substream
        # the scalar ShardRouter.partition_pairs computes, order included,
        # for every key type the sketch accepts.
        rng = random.Random(13)
        ints = zipfish_keys(3000, seed=13) + [
            0, -1, -(2**40), 2**32 - 1, 2**32, 2**40, 2**64, 2**64 + 7,
            2**70, -(2**64) - 3,
        ]
        texts = [f"10.0.{k % 256}.{k % 7}:{k}" for k in ints[:1500]] + [
            "", "é", "流量", "🙂 flow", "x" * 300,
        ]
        blobs = [b"", b"\x00\xff", bytearray(b"flow-1"), bytearray()] + [
            text.encode() for text in texts[:60]
        ]
        mixed = ints + texts + blobs
        rng.shuffle(mixed)
        router = ShardRouter(4)
        sent = [[] for _ in range(4)]
        with ShardedIngestor(small_config(), 4) as ingestor:
            ingestor._send_batch = lambda handle, keys, counts: sent[
                handle.index
            ].append((keys, counts))
            for keys in (ints, texts, blobs, mixed):
                counts = [rng.randint(1, 3) for _ in keys]
                for weighted in (False, True):
                    if weighted:
                        ingestor.ingest(zip(keys, counts))
                    else:
                        ingestor.ingest_keys(keys)
                    for shard in range(4):
                        ingestor._dispatch(shard)
                    expected = router.partition_pairs(
                        zip(keys, counts if weighted else [1] * len(keys))
                    )
                    for shard in range(4):
                        got = []
                        for batch_keys, batch_counts in sent[shard]:
                            assert batch_keys.dtype == "uint64"
                            if batch_counts is None:
                                batch_counts = [1] * len(batch_keys)
                            else:
                                assert batch_counts.dtype == "int64"
                                batch_counts = batch_counts.tolist()
                            got.extend(zip(batch_keys.tolist(), batch_counts))
                        assert got == expected[shard]
                        sent[shard].clear()

            # bool and unsupported types raise the scalar path's error
            for bad in (True, False, 1.5, None, ("a",)):
                with pytest.raises(ConfigurationError) as scalar:
                    key_to_int(bad)
                message = re.escape(str(scalar.value))
                with pytest.raises(ConfigurationError, match=message):
                    ingestor.ingest_keys([1, "a", bad])
                with pytest.raises(ConfigurationError, match=message):
                    ingestor.ingest([(b"b", 2), (bad, 1)])
            assert not any(sent)

    @pytest.mark.parametrize("weighted", [False, True], ids=["keys", "pairs"])
    def test_messages_are_whole_chunks_plus_one_finalize_tail(self, weighted):
        # Whatever slices the caller passes, every message a shard gets
        # is one chunk of its stream; only finalize sends a shorter one.
        chunk = 64
        rng = random.Random(17)
        keys = zipfish_keys(5000, seed=17)
        counts = [rng.randint(1, 3) if weighted else 1 for _ in keys]
        sent = [[] for _ in range(3)]
        with ShardedIngestor(small_config(), 3, chunk_items=chunk) as ingestor:
            ingestor._send_batch = lambda handle, keys, counts: sent[
                handle.index
            ].append((keys, counts))
            for start in range(0, len(keys), 777):
                part = slice(start, start + 777)
                if weighted:
                    ingestor.ingest(zip(keys[part], counts[part]))
                else:
                    ingestor.ingest_keys(keys[part])
            assert all(
                len(batch_keys) == chunk
                for messages in sent
                for batch_keys, _counts in messages
            )
            ingestor.finalize()
        expected = ShardRouter(3).partition_pairs(zip(keys, counts))
        for messages, substream in zip(sent, expected):
            whole, tail = divmod(len(substream), chunk)
            assert [len(batch_keys) for batch_keys, _ in messages] == (
                [chunk] * whole + ([tail] if tail else [])
            )
            got = []
            for batch_keys, batch_counts in messages:
                assert (batch_counts is None) is not weighted
                got.extend(
                    zip(
                        batch_keys.tolist(),
                        repeat(1) if batch_counts is None else batch_counts.tolist(),
                    )
                )
            assert got == substream

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    @pytest.mark.parametrize("bad", [0, -2, 2.5, "x", 2**63])
    def test_refuses_a_count_no_shard_can_apply(self, tmp_path, durable, bad):
        # The parent applies the sketch's count rule before routing, so
        # no worker dies on it; accepted counts, numpy ints included,
        # travel as int64 arrays, which durable workers journal as they
        # arrive.  The expected error is the rule's own (``insert``
        # applies it too, after a type check under the sanitizer).
        with pytest.raises(ConfigurationError) as scalar:
            checked_count(bad)
        config = small_config()
        pairs = [(k, np.int64(2)) for k in zipfish_keys(3000)]
        with ShardedIngestor(
            config,
            2,
            chunk_items=CHUNK,
            durable_root=str(tmp_path) if durable else None,
        ) as ingestor:
            message = re.escape(str(scalar.value))
            with pytest.raises(ConfigurationError, match=message):
                ingestor.ingest([(2, 1), (1, bad)])
            assert ingestor.items_routed == 0
            ingestor.ingest(pairs)
            merged = ingestor.finalize()
            assert [handle.restarts for handle in ingestor._shards] == [0, 0]
        # the oracle takes Python ints, which the sanitizer requires
        reference, _ = reference_fold(
            config, ShardRouter(2), [(k, 2) for k, _count in pairs], CHUNK
        )
        assert merged.to_state() == reference.to_state()

    def test_numpy_counts_durable_equal_the_in_memory_run(self, tmp_path):
        # np.int64 counts, as pairs and as columns, journal and recover
        # to the state the in-memory workers build
        config = small_config()
        keys = flow_keys(2500) + zipfish_keys(2500, seed=5)
        counts = np.array([1 + i % 5 for i in range(len(keys))], np.int64)
        states = []
        for root in (None, tmp_path / "a", tmp_path / "b"):
            with ShardedIngestor(
                config, 2, chunk_items=CHUNK, durable_root=root
            ) as ingestor:
                ingestor.ingest(zip(keys[:3000], counts[:3000]))
                ingestor.ingest(PairColumns(keys[3000:], counts[3000:]))
                states.append(ingestor.finalize().to_state())
        reference, _ = reference_fold(
            config, ShardRouter(2), list(zip(keys, counts.tolist())), CHUNK
        )
        assert states == [reference.to_state()] * 3
        # a durable root recovers the counts it journaled
        with ShardedIngestor(
            config, 2, chunk_items=CHUNK, durable_root=tmp_path / "a"
        ) as ingestor:
            assert ingestor.units_routed == int(counts.sum())

    def test_refuses_a_lone_surrogate_before_routing(self, tmp_path):
        # UTF-8 cannot encode "\ud800": the slice raises the scalar
        # path's typed error before any of its keys reaches a worker
        with pytest.raises(ConfigurationError) as scalar:
            key_to_int("\ud800")
        config = small_config()
        keys = flow_keys(3000)
        with ShardedIngestor(
            config, 2, chunk_items=CHUNK, durable_root=str(tmp_path)
        ) as ingestor:
            message = re.escape(str(scalar.value))
            with pytest.raises(ConfigurationError, match=message):
                ingestor.ingest_keys(keys[:100] + ["\ud800"] + keys[100:])
            assert (ingestor.items_routed, ingestor.units_routed) == (0, 0)
            ingestor.ingest_keys(keys)
            merged = ingestor.finalize()
            assert [handle.restarts for handle in ingestor._shards] == [0, 0]
        reference, _ = reference_fold(
            config, ShardRouter(2), [(key, 1) for key in keys], CHUNK
        )
        assert merged.to_state() == reference.to_state()

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_refuses_a_slice_whose_units_leave_int64(self, tmp_path, durable):
        # Each count passes the sketch's rule, but their sum would take
        # the shard's (and the merged) total_count out of int64.
        root = str(tmp_path) if durable else None
        with ShardedIngestor(
            small_config(), 1, chunk_items=4, durable_root=root
        ) as ingestor:
            ingestor.ingest([(3, 5)])
            with pytest.raises(ConfigurationError, match="total_count"):
                ingestor.ingest([(1, 2**62), (2, 2**62)])
            assert ingestor.items_routed == 1
            merged = ingestor.finalize()
            assert ingestor._shards[0].restarts == 0
        assert (merged.total_count, merged.query(3)) == (5, 5)

    def test_counts_recovered_units_against_int64(self, tmp_path):
        with ShardedIngestor(
            small_config(), 1, chunk_items=4, durable_root=str(tmp_path)
        ) as ingestor:
            ingestor.ingest([(1, 2**62)])
            ingestor.finalize()
        with ShardedIngestor(
            small_config(), 1, chunk_items=4, durable_root=str(tmp_path)
        ) as ingestor:
            assert ingestor.units_routed == 2**62
            with pytest.raises(ConfigurationError, match="total_count"):
                ingestor.ingest([(2, 2**62)])
            assert ingestor.finalize().total_count == 2**62

    def test_finalize_is_idempotent(self):
        with ShardedIngestor(
            small_config(), 2, chunk_items=CHUNK
        ) as ingestor:
            ingestor.ingest_keys(zipfish_keys(3000))
            first = ingestor.finalize()
            assert ingestor.finalize() is first

    def test_close_is_idempotent_and_blocks_further_ingest(self):
        ingestor = ShardedIngestor(
            small_config(), 2, chunk_items=CHUNK
        )
        ingestor.ingest_keys(zipfish_keys(1000))
        ingestor.close()
        ingestor.close()
        with pytest.raises(ShardFailureError):
            ingestor.ingest_keys([1, 2, 3])

    def test_single_shard_round_trips(self):
        config = small_config()
        keys = zipfish_keys(5000)
        with ShardedIngestor(
            config, 1, chunk_items=CHUNK
        ) as ingestor:
            ingestor.ingest_keys(keys)
            merged = ingestor.finalize()
        reference, _ = reference_fold(
            config, ShardRouter(1), [(k, 1) for k in keys], CHUNK
        )
        assert merged.to_state() == reference.to_state()

    def test_spawn_run_matches_the_fork_run(self):
        """Spawn pickles each worker's ``target=`` and ``args=``, so a
        thread lock or a bound method of a lock-owning object handed to
        a worker fails here, where fork would copy it silently."""
        config = small_config()
        keys = zipfish_keys(5000)
        states = []
        for method in ("fork", "spawn"):
            with ShardedIngestor(
                config, 2, chunk_items=CHUNK,
                mp_context=method,
            ) as ingestor:
                ingestor.ingest_keys(keys)
                states.append(ingestor.finalize().to_state())
        assert states[0] == states[1]

    def test_shard_sketches_are_key_disjoint(self):
        config = small_config()
        with ShardedIngestor(
            config, 4, chunk_items=CHUNK
        ) as ingestor:
            ingestor.ingest_keys(zipfish_keys(20_000))
            ingestor.finalize()
        assert len(ingestor.shard_sketches) == 4
        router = ShardRouter(4)
        for index, shard in enumerate(ingestor.shard_sketches):
            for key, _count in shard.fp.items():
                assert router.shard_of(key) == index

    def test_configuration_validation(self):
        config = small_config()
        for kwargs in (
            {"chunk_items": 0},
            {"queue_depth": 0},
            {"max_restarts": -1},
            {"join_timeout": 0},
        ):
            with pytest.raises(ConfigurationError):
                ShardedIngestor(config, 2, **kwargs)


# --------------------------------------------------------------------- #
# failure semantics
# --------------------------------------------------------------------- #
class TestFaults:
    def _kill_worker(self, ingestor, shard):
        process = ingestor._shards[shard].process
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)

    @pytest.mark.parametrize(
        "make_keys", [zipfish_keys, flow_keys], ids=["int", "str"]
    )
    def test_worker_kill_durable_recovers_to_identical_state(
        self, tmp_path, make_keys
    ):
        """The acceptance fault test: SIGKILL one worker mid-run; the
        respawn recovers from the shard checkpoint, the parent re-sends
        every unacknowledged message whole (each message is one journal
        record, so a replay can no longer start inside a message), and
        the merged state is byte-identical to an uninterrupted run."""
        config = small_config()
        keys = make_keys(24_000)
        common = dict(
            chunk_items=CHUNK,
            checkpoint_every_items=4096,
        )

        with ShardedIngestor(
            config, 4, durable_root=str(tmp_path / "clean"), **common
        ) as ingestor:
            ingestor.ingest_keys(keys)
            clean = ingestor.finalize()

        with ShardedIngestor(
            config,
            4,
            durable_root=str(tmp_path / "faulty"),
            max_restarts=2,
            **common,
        ) as ingestor:
            half = len(keys) // 2
            ingestor.ingest_keys(keys[:half])
            # Let shard 1 journal some of its messages, so the replay
            # after the kill starts past a recovered watermark.
            deadline = time.monotonic() + 10.0
            while (
                ingestor._shards[1].acked_items == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
                ingestor._drain_results()
            self._kill_worker(ingestor, 1)
            ingestor.ingest_keys(keys[half:])
            recovered = ingestor.finalize()
            assert ingestor._shards[1].restarts == 1

        assert recovered.to_state() == clean.to_state()
        # And both match the fully sequential oracle.
        reference, _ = reference_fold(
            config, ShardRouter(4), [(k, 1) for k in keys], CHUNK
        )
        assert recovered.to_state() == reference.to_state()

    def test_kill_during_finalize_recovers(self, tmp_path):
        config = small_config()
        keys = zipfish_keys(10_000)
        with ShardedIngestor(
            config,
            2,
            chunk_items=CHUNK,
            durable_root=str(tmp_path),
            checkpoint_every_items=2048,
            max_restarts=1,
        ) as ingestor:
            ingestor.ingest_keys(keys)
            # Give the workers a moment to drain, then kill one right
            # before collection.
            time.sleep(0.3)
            self._kill_worker(ingestor, 0)
            merged = ingestor.finalize()
        reference, _ = reference_fold(
            config, ShardRouter(2), [(k, 1) for k in keys], CHUNK
        )
        assert merged.to_state() == reference.to_state()

    def test_non_durable_death_fails_fast(self):
        ingestor = ShardedIngestor(
            small_config(), 2, chunk_items=CHUNK
        )
        try:
            self._kill_worker(ingestor, 0)
            with pytest.raises(ShardFailureError):
                # Enough batches to hit the dead worker's queue limit.
                for _ in range(200):
                    ingestor.ingest_keys(zipfish_keys(2000))
                ingestor.finalize()
        finally:
            ingestor.close()

    def test_restart_budget_exhaustion_raises(self, tmp_path):
        ingestor = ShardedIngestor(
            small_config(),
            2,
            chunk_items=CHUNK,
            durable_root=str(tmp_path),
            max_restarts=0,
        )
        try:
            self._kill_worker(ingestor, 1)
            with pytest.raises(ShardFailureError):
                for _ in range(100):
                    ingestor.ingest_keys(zipfish_keys(2000))
                ingestor.finalize()
        finally:
            ingestor.close()


# --------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------- #
class TestShardedMetrics:
    def test_counters_when_enabled(self):
        registry = MetricsRegistry()
        obs_metrics.set_enabled(True)
        try:
            with ShardedIngestor(
                small_config(),
                2,
                chunk_items=CHUNK,
                metrics_registry=registry,
            ) as ingestor:
                ingestor.ingest_keys(zipfish_keys(4000))
                ingestor.finalize()
        finally:
            obs_metrics.set_enabled(False)
        snap = registry.snapshot()
        items = {
            name: value
            for name, value in snap["counters"].items()
            if name.startswith("sharded_shard_items_total")
        }
        assert len(items) == 2
        assert sum(items.values()) == 4000
        merge = [
            name
            for name, data in snap["histograms"].items()
            if name.startswith("sharded_merge_seconds") and data["count"] >= 1
        ]
        assert merge
