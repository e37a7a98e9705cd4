"""Property: bulk ingestion is byte-identical to the per-item oracle.

The oracle is the paper's per-item Algorithms 1/2 over each chunk's
aggregates: ``insert(key, total)`` for every chunk's per-key totals in
first-seen order (``e2ebench.workloads.per_item_oracle`` checks the same
contract end to end).  ``insert_batch``/``insert_all`` must leave exactly
the oracle's ``to_state()`` — FP entry order, eviction counters and
flags, EF counters and IFP residues included — for every key type,
weighted or unit counts, chunk sizes from 1 to 65536, and the chunks
that take the per-item fallback: counts numpy cannot hold as int64
(numpy unsigned integers), totals at or above 2^52 and a bucket pile-up
into more than ``_MAX_FP_ROUNDS`` sparse rank rounds.  Keys near 2^32
with counts up to 2^40 push IFP residues past the prime, on both paths
and through a union.  A chunk with a
bool key or a count that is not an integer raises before it changes
anything.

CI runs this file once more under ``REPRO_DEBUG_INVARIANTS=1``, where
counts that are not Python ints are rejected up front on both sides.
"""

import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import invariants
from repro.common.errors import ConfigurationError, InvariantViolation
from repro.common.hashing import canonical_key
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.kernel import _MAX_FP_ROUNDS, _SCALAR_TAIL, canonical_keys
from repro.core.serialization import from_wire, to_state, to_wire

int_keys = st.integers(min_value=1, max_value=60)
#: every key type canonicalization accepts: ints on both sides of the
#: decodable domain and of 2^64, str, bytes and bytearray
any_keys = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=0, max_value=2**33),
    st.text(),
    st.binary(),
    st.binary().map(bytearray),
)
mixed_keys = st.one_of(
    int_keys, st.text(min_size=0, max_size=6), st.binary(min_size=0, max_size=6)
)
counts = st.integers(min_value=1, max_value=40)
pair_streams = st.lists(st.tuples(int_keys, counts), min_size=0, max_size=250)


def wide_stream(seed: int):
    """400 keys near the top of the 32-bit domain, counts below 2^40.

    One ``count·key`` passes p = 2^61 - 1 while chunk totals stay below
    the 2^52 fallback, so an IFP residue left unreduced anywhere shows;
    400 pairs fill every IFP bucket of ``make_config()``.  Drawn from a
    seed so that a failure shrinks in a few steps.
    """
    rng = random.Random(seed)
    return [
        (rng.randrange(2**31, 2**32), rng.randrange(2**29, 2**40))
        for _ in range(400)
    ]


wide_streams = st.integers(min_value=0, max_value=2**32).map(wide_stream)
#: chunk sizes 1..65536, with the edges and the default drawn often
chunk_sizes = st.one_of(
    st.sampled_from([1, 2, 3, 64, 65536]),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=65536),
)
#: chunks the arrays cannot express: numpy unsigned counts, a total at
#: or above 2^52, or (with one FP bucket) more distinct keys than rounds
fallback_chunks = st.one_of(
    st.lists(
        st.tuples(int_keys, counts.map(numpy.uint64)),
        min_size=1,
        max_size=40,
    ),
    st.lists(
        st.tuples(int_keys, st.integers(min_value=2**50, max_value=2**53)),
        min_size=1,
        max_size=8,
    ),
    st.just([(key, 1) for key in range(1, _MAX_FP_ROUNDS + 3)]),
)

#: one interleaved operation: ("insert", key, count) applies a single
#: weighted insert, ("batch", pairs, chunk) a bulk one, ("query", key) a
#: read (which must not perturb state)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), int_keys, counts),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(int_keys, counts), min_size=0, max_size=60),
            st.integers(min_value=1, max_value=64),
        ),
        st.tuples(st.just("query"), int_keys),
    ),
    min_size=0,
    max_size=25,
)

#: text beyond ASCII: two- to four-byte UTF-8, astral characters included
#: (lone surrogates, which UTF-8 cannot encode, are rejected elsewhere)
wide_text = st.text(
    alphabet=st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
    max_size=12,
)
#: str, bytes and bytearray beside ints, empty ones included
blob_keys = st.one_of(
    st.text(max_size=10),
    wide_text,
    st.binary(max_size=10),
    st.binary(max_size=10).map(bytearray),
    st.integers(min_value=-(2**64), max_value=2**64),
)


def duplicate_heavy(keys):
    """Lists drawn from a pool of at most five keys, so that most keys
    repeat and canonicalization mixes the distinct ones once."""
    return st.lists(keys, min_size=1, max_size=5, unique_by=repr).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=40, max_size=400)
    )


#: mixed lists, and homogeneous ones long enough for the vectorized
#: byte steps (the scalar tail alone covers short lists); lists longer
#: than ``_SCALAR_TAIL`` of non-ASCII text, of blobs mixed with ints, and
#: of a few keys repeated many times
key_lists = st.one_of(
    st.lists(any_keys, max_size=120),
    st.lists(st.text(max_size=40), min_size=30, max_size=200),
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=200),
    st.lists(
        st.one_of(wide_text, st.text(max_size=6)),
        min_size=_SCALAR_TAIL + 1,
        max_size=200,
    ),
    st.lists(blob_keys, min_size=_SCALAR_TAIL + 1, max_size=200),
    duplicate_heavy(st.one_of(st.text(max_size=8), wide_text)),
    duplicate_heavy(blob_keys),
)


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


def oracle_insert(sketch: DaVinciSketch, pairs, chunk_size: int) -> None:
    """The per-item oracle: ``insert(key, total)`` per chunk aggregate."""
    for start in range(0, len(pairs), chunk_size):
        totals = {}
        for key, count in pairs[start : start + chunk_size]:
            key = canonical_key(key)
            totals[key] = totals.get(key, 0) + count
        for key, total in totals.items():
            sketch.insert(key, total)


def assert_matches_oracle(config, pairs, chunk_size, keys_first=False):
    bulk = DaVinciSketch(config)
    if keys_first:
        bulk.insert_all([key for key, _count in pairs], chunk_size=chunk_size)
    else:
        bulk.insert_batch(pairs, chunk_size=chunk_size)
    oracle = DaVinciSketch(config)
    oracle_insert(oracle, pairs, chunk_size)
    assert to_state(bulk) == to_state(oracle)
    assert bulk.memory_accesses == oracle.memory_accesses
    assert bulk.insertions == len(pairs)
    return bulk


def apply_operations(sketch: DaVinciSketch, ops, bulk: bool) -> None:
    for op in ops:
        if op[0] == "insert":
            sketch.insert(op[1], op[2])
        elif op[0] == "batch":
            if bulk:
                sketch.insert_batch(op[1], chunk_size=op[2])
            else:
                oracle_insert(sketch, op[1], op[2])
        else:
            sketch.query(op[1])


class TestKernelParity:
    """``insert_batch``/``insert_all`` ≡ the per-item oracle."""

    @given(pairs=st.one_of(pair_streams, wide_streams), chunk_size=chunk_sizes)
    @settings(max_examples=80, deadline=None)
    def test_insert_batch_state_identical(self, pairs, chunk_size):
        assert_matches_oracle(make_config(), pairs, chunk_size)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=1, max_value=400), counts),
            min_size=80,
            max_size=300,
        ),
        chunk_size=chunk_sizes,
    )
    @settings(max_examples=30, deadline=None)
    def test_colliding_filter_state_identical(self, pairs, chunk_size):
        # one-entry buckets demote nearly every key, and a one-counter
        # level makes every demotion collide: past _MAX_EF_ROUNDS
        # rounds the rest of a chunk finishes one offer at a time
        config = DaVinciConfig(
            fp_buckets=2,
            fp_entries=1,
            ef_level_widths=(3, 1),
            ef_level_bits=(4, 8),
            ifp_rows=3,
            ifp_width=32,
            filter_threshold=10,
            seed=5,
        )
        assert_matches_oracle(config, pairs, chunk_size)

    @given(
        keys=st.lists(mixed_keys, min_size=0, max_size=250),
        chunk_size=chunk_sizes,
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_key_types_state_identical(self, keys, chunk_size):
        pairs = [(key, 1) for key in keys]
        assert_matches_oracle(make_config(), pairs, chunk_size)
        assert_matches_oracle(make_config(), pairs, chunk_size, keys_first=True)

    @given(
        pairs=st.lists(st.tuples(any_keys, counts), min_size=0, max_size=120),
        chunk_size=chunk_sizes,
    )
    @settings(max_examples=60, deadline=None)
    def test_accounting_identical(self, pairs, chunk_size):
        bulk = assert_matches_oracle(make_config(), pairs, chunk_size)
        assert bulk.total_count == sum(count for _key, count in pairs)

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_interleaved_operations_state_identical(self, ops):
        bulk = DaVinciSketch(make_config())
        oracle = DaVinciSketch(make_config())
        apply_operations(bulk, ops, bulk=True)
        apply_operations(oracle, ops, bulk=False)
        assert to_state(bulk) == to_state(oracle)

    @given(
        left=st.one_of(pair_streams, wide_streams),
        right=st.one_of(pair_streams, wide_streams),
        chunk_size=chunk_sizes,
    )
    @settings(max_examples=40, deadline=None)
    def test_union_of_array_built_sketches_identical(
        self, left, right, chunk_size
    ):
        def build(bulk: bool) -> DaVinciSketch:
            a = DaVinciSketch(make_config())
            b = DaVinciSketch(make_config())
            apply_operations(a, [("batch", left, chunk_size)], bulk)
            apply_operations(b, [("batch", right, chunk_size)], bulk)
            return a.union(b)

        union = build(True)
        assert to_state(union) == to_state(build(False))
        # the union adds residues; the wire loader rejects one outside [0, p)
        assert to_state(from_wire(to_wire(union))) == to_state(union)

    @given(
        before=pair_streams,
        fallback=fallback_chunks,
        after=pair_streams,
        chunk_size=st.sampled_from([64, 1_000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fallback_chunks_state_identical(
        self, before, fallback, after, chunk_size
    ):
        # one FP bucket, so a chunk of distinct keys piles up in it
        config = make_config(fp_buckets=1)
        pairs = before + fallback + after
        if invariants.ENABLED and any(
            type(count) is not int for _key, count in fallback
        ):
            # the sanitizer rejects non-int counts up front, on both sides
            with pytest.raises(InvariantViolation):
                DaVinciSketch(config).insert_batch(fallback)
            with pytest.raises(InvariantViolation):
                oracle_insert(DaVinciSketch(config), fallback, chunk_size)
            return
        assert_matches_oracle(config, pairs, chunk_size)

    @given(
        pairs=st.lists(st.tuples(mixed_keys, counts), min_size=1, max_size=60),
        bad=st.one_of(
            st.tuples(st.booleans(), counts),
            st.tuples(
                int_keys, st.sampled_from([None, "x", b"1", [1], 1.5, 2.0])
            ),
        ),
        at=st.integers(min_value=0, max_value=60),
        keys_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bad_chunk_raises_before_mutation(self, pairs, bad, at, keys_first):
        sketch = DaVinciSketch(make_config())
        sketch.insert_batch(pairs)
        before = to_state(sketch)
        chunk = pairs[:at] + [bad] + pairs[at:]
        if keys_first and isinstance(bad[0], bool):
            ingest = lambda: sketch.insert_all([k for k, _ in chunk])  # noqa: E731
        else:
            ingest = lambda: sketch.insert_batch(chunk)  # noqa: E731
        with pytest.raises((ConfigurationError, InvariantViolation)):
            ingest()
        assert to_state(sketch) == before
        assert sketch.insertions == len(pairs)


class TestCanonicalKeys:
    @given(keys=key_lists)
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_scalar(self, keys):
        assert canonical_keys(keys).tolist() == [canonical_key(k) for k in keys]
