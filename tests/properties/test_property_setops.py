"""Properties of union/difference that the sharded merge tree relies on.

Three pins (the third is what makes multi-shard aggregation trustworthy):

1. **Query additivity** — ``union(a, b).query(k)`` equals the sum of the
   per-input queries within the additive-mode tolerance (exactly, when
   decoding completes — the union query literally sums the three parts).
2. **Byte-associativity on disjoint inputs** — for key-disjoint sketches
   (what :class:`~repro.runtime.sharded.ShardRouter` produces), a
   fold-left and a balanced merge tree yield ``to_state()``-identical
   results, for any grouping and shard count.  This is what lets the
   sharded runtime merge in whatever order workers finish.
3. **Difference metadata round-trip** — the ``ecnt``/``flag`` provenance
   that difference writes into each FP bucket survives a wire-format-v2
   round-trip (the signed path exercises serialization's signed-count
   validation).
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.serialization import from_wire, to_wire
from repro.core.setops import difference, union
from repro.runtime.sharded import ShardRouter, merge_tree


def make_config(seed: int = 11) -> DaVinciConfig:
    return DaVinciConfig(
        fp_buckets=8,
        fp_entries=4,
        ef_level_widths=(128, 32),
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=32,
        seed=seed,
    )


keys = st.integers(min_value=1, max_value=400)
counts = st.integers(min_value=1, max_value=30)
pair_streams = st.lists(st.tuples(keys, counts), min_size=0, max_size=200)


def build(config, pairs):
    sketch = DaVinciSketch(config)
    if pairs:
        sketch.insert_batch(pairs, chunk_size=64)
    return sketch


# --------------------------------------------------------------------- #
# 1. query additivity
# --------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(left=pair_streams, right=pair_streams)
def test_union_query_is_sum_of_per_input_queries(left, right):
    config = make_config()
    a, b = build(config, left), build(config, right)
    merged = union(a, b)
    sampled = {key for key, _ in (left + right)[:50]} | {1, 7, 399}
    # The sketch is large relative to these streams, so every part is
    # essentially exact and the additive union query must equal the sum
    # of the per-input queries exactly; the threshold term is the
    # worst-case slack the paper's additive mode allows when the filter
    # saturates (never reached at this load, but pinned as the bound).
    tolerance = 2 * config.filter_threshold
    for key in sampled:
        assert abs(merged.query(key) - (a.query(key) + b.query(key))) <= (
            tolerance
        )


@settings(max_examples=20, deadline=None)
@given(left=pair_streams, right=pair_streams)
def test_union_total_count_and_mode(left, right):
    config = make_config()
    merged = union(build(config, left), build(config, right))
    assert merged.mode == "additive"
    assert merged.total_count == sum(c for _, c in left) + sum(
        c for _, c in right
    )


# --------------------------------------------------------------------- #
# 2. byte-associativity over router-partitioned inputs
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    stream=st.lists(st.tuples(keys, counts), min_size=1, max_size=300),
    num_shards=st.integers(min_value=2, max_value=6),
)
def test_union_fold_left_equals_merge_tree_on_partitions(stream, num_shards):
    config = make_config()
    router = ShardRouter(num_shards)
    shards = [
        build(config, part) for part in router.partition_pairs(stream)
    ]
    fold_left = functools.reduce(union, shards)
    tree = merge_tree(list(shards))
    assert fold_left.to_state() == tree.to_state()


@settings(max_examples=15, deadline=None)
@given(
    stream=st.lists(st.tuples(keys, counts), min_size=1, max_size=300),
)
def test_union_grouping_independent_on_partitions(stream):
    """((a∪b)∪(c∪d)) == (((a∪b)∪c)∪d) byte-for-byte on disjoint inputs."""
    config = make_config()
    router = ShardRouter(4)
    a, b, c, d = [
        build(config, part) for part in router.partition_pairs(stream)
    ]
    balanced = union(union(a, b), union(c, d))
    skewed = union(union(union(a, b), c), d)
    assert balanced.to_state() == skewed.to_state()


# --------------------------------------------------------------------- #
# 3. difference metadata survives wire v2
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(left=pair_streams, right=pair_streams)
def test_difference_bucket_metadata_round_trips_wire_v2(left, right):
    config = make_config()
    delta = difference(build(config, left), build(config, right))
    rebuilt = from_wire(to_wire(delta, "sha256"))
    assert rebuilt.mode == "signed"
    assert rebuilt.to_state() == delta.to_state()
    for mine, theirs in zip(
        delta.fp.bucket_states(), rebuilt.fp.bucket_states()
    ):
        assert theirs["ecnt"] == mine["ecnt"]
        assert theirs["flag"] == mine["flag"]
        assert theirs["entries"] == mine["entries"]
