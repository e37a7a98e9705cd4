"""The bulk ingestion path: state, reconstruction and chunk routing.

Bulk ingestion is an execution strategy, never a semantic one: states
carry no marker of how they were built, a sketch rebuilt from a state
keeps ingesting exactly as the original would, and the per-item path
(``insert``) and the bulk path (``insert_batch``/``insert_all``) leave
the same bytes for the same chunk totals.
"""

import random
import re
import tracemalloc

import numpy as np
import pytest

from repro.common import invariants
from repro.common.errors import ConfigurationError, InvariantViolation
from repro.common.hashing import canonical_key, key_to_int
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core import kernel, serialization
from repro.core.davinci import PairColumns
from repro.core.kernel import KERNEL_ARRAY, KERNEL_OBJECT, canonical_keys
from repro.observability import metrics as obs_metrics


def make_config(seed: int = 11, fp_buckets: int = 8) -> DaVinciConfig:
    return DaVinciConfig(
        fp_buckets=fp_buckets,
        fp_entries=4,
        ef_level_widths=(128, 32),
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=32,
        filter_threshold=10,
        seed=seed,
    )


def stream(n: int = 600):
    return [(key % 37 + 1, key % 5 + 1) for key in range(n)]


def per_item(sketch: DaVinciSketch, pairs, chunk_size: int) -> DaVinciSketch:
    """``insert(key, total)`` over each chunk's first-seen totals."""
    for start in range(0, len(pairs), chunk_size):
        totals = {}
        for key, count in pairs[start : start + chunk_size]:
            totals[key] = totals.get(key, 0) + count
        for key, total in totals.items():
            sketch.insert(key, total)
    return sketch


class TestCrossKernelReconstruction:
    """States carry no path marker; a rebuilt sketch ingests on exactly."""

    def test_state_has_no_kernel_marker(self):
        sketch = DaVinciSketch(make_config())
        sketch.insert_batch(stream(), chunk_size=64)
        assert "kernel" not in serialization.to_state(sketch)

    def test_object_to_array_to_object_round_trip(self):
        # per-item inserts, then bulk ingestion into the state rebuilt
        # with from_state, then per-item again after a from_wire trip
        first = per_item(DaVinciSketch(make_config()), stream(), 64)

        second = serialization.from_state(first.to_state())
        second.insert_batch(stream(1_200), chunk_size=64)

        third = serialization.from_wire(serialization.to_wire(second))
        per_item(third, stream(300), 64)

        reference = DaVinciSketch(make_config())
        for extra in (600, 1_200, 300):
            per_item(reference, stream(extra), 64)
        assert serialization.to_state(third) == serialization.to_state(
            reference
        )

    def test_empty_like_preserves_kernel(self):
        # the provenance label names the one bulk path
        sketch = DaVinciSketch(make_config())
        assert sketch.kernel == KERNEL_ARRAY
        assert sketch.empty_like().kernel == KERNEL_ARRAY

    def test_wire_bytes_identical_across_kernels(self):
        bulk = DaVinciSketch(make_config())
        bulk.insert_batch(stream(2_000), chunk_size=128)
        oracle = per_item(DaVinciSketch(make_config()), stream(2_000), 128)
        assert serialization.to_wire(bulk) == serialization.to_wire(oracle)


class TestPairColumns:
    """Columns are read as the pairs they hold, arrays as arrays."""

    def test_columns_build_the_state_pairs_build(self):
        pairs = stream(2_000) + [(1 << 40, 2), (0, 1), (-7, 3)] * 50
        keys = [key for key, _count in pairs]
        counts = [count for _key, count in pairs]
        reference = DaVinciSketch(make_config())
        reference.insert_batch(pairs, chunk_size=128)
        for columns in (
            PairColumns(np.array(keys), np.array(counts)),
            PairColumns(keys, counts),
            PairColumns(iter(keys), iter(counts)),
        ):
            sketch = DaVinciSketch(make_config())
            sketch.insert_batch(columns, chunk_size=128)
            assert sketch.to_state() == reference.to_state()
        units = DaVinciSketch(make_config())
        units.insert_all(keys, chunk_size=128)
        for column in (np.array(keys), iter(keys)):
            sketch = DaVinciSketch(make_config())
            sketch.insert_all(column, chunk_size=128)
            assert sketch.to_state() == units.to_state()

    def test_columns_of_unequal_length_raise(self):
        sketch = DaVinciSketch(make_config())
        with pytest.raises(ConfigurationError, match="3 keys but 2 counts"):
            sketch.insert_batch(PairColumns([1, 2, 3], np.array([1, 1])))
        assert sketch.total_count == 0


class TestCounts:
    """Counts are integers, stored as Python ints on both paths."""

    @pytest.mark.parametrize("bad", [1.5, 2.0, None, "3"])
    def test_non_integer_count_raises_before_mutation(self, bad):
        sketch = DaVinciSketch(make_config())
        sketch.insert_batch(stream(), chunk_size=64)
        before = serialization.to_state(sketch)
        # the sanitizer rejects them earlier, with its own error
        errors = (ConfigurationError, InvariantViolation)
        with pytest.raises(errors, match="not an integer|expected int"):
            sketch.insert(5, bad)
        with pytest.raises(errors, match="not an integer|expected int"):
            sketch.insert_batch([(4, 1), (5, bad)])
        assert serialization.to_state(sketch) == before

    def test_integer_like_counts_are_stored_as_ints(self):
        import numpy

        per_item = DaVinciSketch(make_config())
        bulk = DaVinciSketch(make_config())
        if invariants.ENABLED:  # the sanitizer wants Python ints only
            with pytest.raises(InvariantViolation):
                per_item.insert(5, numpy.int64(3))
            with pytest.raises(InvariantViolation):
                bulk.insert_batch([(5, numpy.uint64(3))])
            return
        per_item.insert(5, numpy.int64(3))
        bulk.insert_batch([(5, numpy.uint64(3))])
        assert per_item.fp.as_dict() == bulk.fp.as_dict() == {5: 3}
        assert type(per_item.fp.as_dict()[5]) is int
        assert serialization.to_wire(per_item) == serialization.to_wire(bulk)


class TestInt64Counts:
    """Counts live in int64 buffers; leaving int64 is a typed error."""

    def test_insert_past_int64_raises_before_mutation(self):
        sketch = DaVinciSketch(make_config())
        sketch.insert_batch(stream(), chunk_size=64)
        before = serialization.to_state(sketch)
        for count in (2**63, 2**63 - sketch.total_count):
            with pytest.raises(ConfigurationError, match="int64"):
                sketch.insert(5, count)
        assert serialization.to_state(sketch) == before
        sketch.insert(5, 2**63 - 1 - sketch.total_count)  # the last that fits
        assert sketch.total_count == 2**63 - 1

    def test_chunk_past_int64_raises_before_mutation(self):
        sketch = DaVinciSketch(make_config())
        sketch.insert_batch(stream(), chunk_size=64)
        before = serialization.to_state(sketch)
        with pytest.raises(ConfigurationError, match="int64"):
            sketch.insert_batch([(5, 2**62), (6, 2**62)])
        assert serialization.to_state(sketch) == before

    def test_nonpositive_counts_raise_before_mutation(self):
        sketch = DaVinciSketch(make_config())
        sketch.insert(5, 2**62)
        before = serialization.to_state(sketch)
        # a negative count could otherwise carry one key's FP count past
        # int64 while total_count stays inside it
        for count in (-(2**62), 0):
            with pytest.raises(ConfigurationError, match="positive"):
                sketch.insert(6, count)
            with pytest.raises(ConfigurationError, match="positive"):
                sketch.insert_batch([(5, 3), (6, count)])
        assert serialization.to_state(sketch) == before
        with pytest.raises(ConfigurationError, match="int64"):
            sketch.insert(5, 2**62)
        assert serialization.to_state(sketch) == before

    def test_union_past_int64_is_a_typed_error(self):
        a = DaVinciSketch(make_config())
        a.insert(5, 2**62)
        b = DaVinciSketch(make_config())
        b.insert(6, 2**62)
        with pytest.raises(ConfigurationError, match="int64"):
            a.union(b)


class TestChunkRouting:
    """Which chunks run as arrays, and that the fallback is the oracle."""

    def chunk_counts(self, build):
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_default_registry(registry)
        try:
            with obs_metrics.enabled():
                sketch = build()
        finally:
            obs_metrics.set_default_registry(previous)
        counters = registry.snapshot()["counters"]
        return sketch, *(
            counters.get(f'davinci_kernel_chunks_total{{kernel="{label}"}}', 0)
            for label in (KERNEL_ARRAY, KERNEL_OBJECT)
        )

    def test_int_str_and_bytes_chunks_run_as_arrays(self):
        keys = [1, "flow-a", b"flow-b", 2**40, 0, -3] * 50

        def build():
            sketch = DaVinciSketch(make_config())
            sketch.insert_all(keys, chunk_size=64)
            sketch.insert_batch(stream(), chunk_size=64)
            return sketch

        _sketch, array, fallback = self.chunk_counts(build)
        assert (array, fallback) == (5 + 10, 0)

    @pytest.mark.parametrize(
        "fp_buckets, pairs, fallback",
        [
            # a count past int64: both paths raise
            (1, [(1, 2**63), (2, 1), (1, 3)], None),
            (1, [(1, 1), (2, 2**52)], 1),  # a total past the exact window
            (1, [(key, 1) for key in range(1, 700)], 1),  # 699 sparse rounds
            (8, [(key, 1) for key in range(1, 6000)], 0),  # deep, dense rounds
        ],
        ids=["int64-overflow", "huge-total", "round-blowup", "deep-rounds"],
    )
    def test_chunks_match_the_per_item_oracle(self, fp_buckets, pairs, fallback):
        config = make_config(fp_buckets=fp_buckets)
        if fallback is None:
            bulk = DaVinciSketch(config)
            bulk.insert_batch(stream(), chunk_size=10_000)
            oracle = per_item(DaVinciSketch(config), stream(), 10_000)
            before = serialization.to_state(oracle)
            assert serialization.to_state(bulk) == before
            with pytest.raises(ConfigurationError, match="int64") as bulk_error:
                bulk.insert_batch(pairs, chunk_size=10_000)
            with pytest.raises(ConfigurationError, match="int64") as oracle_error:
                per_item(oracle, pairs, 10_000)
            assert str(bulk_error.value) == str(oracle_error.value)
            assert serialization.to_state(bulk) == before
            assert serialization.to_state(oracle) == before
            return

        def build():
            sketch = DaVinciSketch(config)
            sketch.insert_batch(stream(), chunk_size=10_000)
            sketch.insert_batch(pairs, chunk_size=10_000)
            return sketch

        sketch, array, object_chunks = self.chunk_counts(build)
        assert (array, object_chunks) == (2 - fallback, fallback)
        oracle = per_item(DaVinciSketch(config), stream(), 10_000)
        per_item(oracle, pairs, 10_000)
        assert serialization.to_state(sketch) == serialization.to_state(oracle)
        assert sketch.insertions == len(stream()) + len(pairs)


def flow_strings(n: int, seed: int = 5):
    rng = random.Random(seed)
    return [
        f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}."
        f"{rng.randint(0, 255)}:{rng.randint(0, 65535)}"
        for _ in range(n)
    ]


class TestCanonicalKeys:
    """``canonical_keys`` is ``canonical_key`` over a list, key for key."""

    def check(self, keys):
        out = canonical_keys(keys)
        assert out.dtype == "uint64"
        assert out.tolist() == [canonical_key(k) for k in keys]

    def test_int_edges(self):
        self.check(
            [0, 1, -1, 2**32 - 1, 2**32, 2**63 - 1, -(2**63), 2**63,
             2**64 - 1, 2**64, 2**64 + 5, -(2**64) + 5, 2**100, -(2**100)]
        )

    def test_strings_bytes_and_mixed(self):
        texts = flow_strings(5000) + ["", "é", "流量", "🙂", "x" * 300]
        self.check(texts)
        self.check([text.encode() for text in texts])
        mixed = texts[:200] + [b"", bytearray(b"ab"), 7, 0, -9, 2**70]
        random.Random(3).shuffle(mixed)
        self.check(mixed)
        self.check([])
        assert canonical_keys(iter(["a", 5])).tolist() == [
            canonical_key("a"),
            5,
        ]

    @pytest.mark.parametrize("dtype", ["int64", "uint64", "int32", "uint32", "int8"])
    def test_integer_arrays_equal_the_list_path(self, dtype):
        info = np.iinfo(dtype)
        edges = [0, 1, -1, 5, 2**31 - 1, 2**32 - 1, 2**32, -(2**40), 2**63 - 1]
        edges += [-(2**63), 2**63, 2**64 - 1]
        values = [v for v in edges if info.min <= v <= info.max] * 3
        array = np.array(values, dtype=dtype)
        out = canonical_keys(array)
        assert out.dtype == "uint64"
        assert out.tolist() == [canonical_key(v) for v in values]
        assert array.tolist() == values  # a new array; the input is kept

    def test_other_arrays_take_the_list_path(self):
        assert canonical_keys(np.array(["a", "é"])).tolist() == [
            canonical_key("a"),
            canonical_key("é"),
        ]
        for bad in (np.array([True]), np.array([1.0]), np.array([[1, 2]])):
            with pytest.raises(ConfigurationError):
                canonical_keys(bad)

    @pytest.mark.parametrize("bad", [True, False, 1.5, None, ("a",), "\ud800"])
    def test_rejects_what_the_scalar_path_rejects(self, bad):
        with pytest.raises(ConfigurationError) as scalar:
            key_to_int(bad)
        with pytest.raises(ConfigurationError, match=re.escape(str(scalar.value))):
            canonical_keys(["a", 3, bad, None])

    @pytest.mark.parametrize(
        "keys",
        [
            ["a", "x\udfff", "\ud800"],
            flow_strings(3000) + ["x\udfff", "\ud800"],
            ["a", "b"] * 2000 + ["x\udfff", "\ud800"] * 3,
            ["a", b"b", 7, "x\udfff", True, "\ud800"],
        ],
        ids=["short", "mostly-distinct", "duplicate-heavy", "mixed"],
    )
    def test_lone_surrogate_raises_for_the_first_in_order(self, keys):
        # UTF-8 cannot encode a lone surrogate; both paths raise the same
        # typed error, naming the first such key (not the later bool)
        with pytest.raises(ConfigurationError) as scalar:
            [canonical_key(key) for key in keys]
        assert "'x\\udfff'" in str(scalar.value)
        with pytest.raises(ConfigurationError, match=re.escape(str(scalar.value))):
            canonical_keys(keys)

    def test_lone_surrogate_leaves_the_sketch_untouched(self):
        sketch = DaVinciSketch(make_config())
        sketch.insert_batch(stream(), chunk_size=64)
        before = serialization.to_state(sketch)
        for call in (
            lambda: sketch.insert("\ud800"),
            lambda: sketch.insert_all(["a", "\ud800"]),
            lambda: sketch.insert_batch([("a", 1), ("\ud800", 2)]),
            lambda: sketch.query("\ud800"),
            lambda: sketch.query_many(["a", "\ud800"]),
        ):
            with pytest.raises(ConfigurationError, match="surrogates"):
                call()
        assert serialization.to_state(sketch) == before

    @pytest.mark.parametrize(
        "in_place", [False, True], ids=["distinct-once", "in-place"]
    )
    def test_each_side_of_the_mostly_distinct_cut(self, monkeypatch, in_place):
        # Every stride-th key is sampled; with the sampled share exactly
        # at the cut each distinct key is mixed once, one more distinct
        # sampled key and every key is mixed in place.
        stride, cut = kernel._DISTINCT_STRIDE, kernel._MOSTLY_DISTINCT
        sampled = 256
        distinct_sampled = int(cut * sampled) + in_place
        keys = [f"other-{i}" for i in range(sampled * stride)]
        keys[::stride] = [f"sampled-{j % distinct_sampled}" for j in range(sampled)]
        mixed = []
        real = kernel._mix_bytes

        def counting(joined, lengths):
            mixed.append(len(lengths))
            return real(joined, lengths)

        monkeypatch.setattr(kernel, "_mix_bytes", counting)
        for batch in (keys, [key.encode() for key in keys]):
            self.check(batch)
        unique = len(set(keys))
        expected = len(keys) if in_place else unique
        assert unique < len(keys)
        assert mixed == [expected, expected]

    @pytest.mark.parametrize(
        "chunk",
        [
            [("a", 1), (5, 2), (2.5, 1)],
            # numpy coerces [True, 2] to ints; the array path once
            # accepted the bool key that the per-item path rejects
            [(True, 1), (2, 1)],
        ],
    )
    def test_both_kernels_raise_before_mutation(self, chunk):
        # both bulk entries: weighted pairs and keys-first
        for ingest in (
            lambda sketch: sketch.insert_batch(chunk, chunk_size=64),
            lambda sketch: sketch.insert_all([k for k, _ in chunk]),
        ):
            sketch = DaVinciSketch(make_config())
            sketch.insert_batch(stream(), chunk_size=64)
            before = serialization.to_state(sketch)
            with pytest.raises(ConfigurationError):
                ingest(sketch)
            assert serialization.to_state(sketch) == before

    def test_memory_grows_with_key_bytes_not_keys_times_longest(self):
        # One long key in a 64k-key batch: a keys x longest-key byte
        # matrix would take 64k x 128 KiB = 8 GiB.  (The long key's bytes
        # past the others run in the scalar loop, whose every Python-int
        # step tracemalloc traces, so a 1 MiB key would take a minute
        # here; its correctness is checked untraced below.)
        keys = flow_strings(65535)
        keys.insert(30000, "ab" * (1 << 16))
        total = sum(len(key.encode()) for key in keys)
        tracemalloc.start()
        try:
            out = canonical_keys(keys)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * total
        assert out[30000] == canonical_key(keys[30000])
        assert out[:5].tolist() == [canonical_key(k) for k in keys[:5]]

        keys[30000] = "ab" * (1 << 19)  # 1 MiB
        assert canonical_keys(keys)[30000] == canonical_key(keys[30000])
