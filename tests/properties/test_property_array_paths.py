"""Properties: the array paths of Algorithms 3 and 4 equal their per-item
references.

* ``union``/``difference`` merge the frequent parts as arrays and demote
  the leftovers in batches (``ElementFilter.add_batch``,
  ``InfrequentPart.insert_batch``).  Their ``to_state()`` must equal
  :mod:`tests.scalar_reference`, which merges bucket by bucket and
  demotes one leftover at a time, under eviction pressure (tiny frequent
  parts, saturating filters), on wide keys and counts, and along chains
  of set operations.
* ``DaVinciSketch.query_many`` must equal the scalar ``_query_value`` of
  each canonical key in the standard, additive and signed modes, on
  sketches whose decode completes and on ones whose decode stalls.
* ``distribution`` and ``inner_join``, which read through it and reduce
  the filter's counters as arrays, must return exactly what the per-key
  references in :mod:`tests.scalar_reference` return — for a join past
  2^53 (wide streams) up to the rounding of the reference's float
  running sum, which the exact int sum of the array path avoids.

CI runs this file once more under ``REPRO_DEBUG_INVARIANTS=1``, where
the batched filter add checks its saturation bound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.hashing import canonical_key
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.davinci import MODE_ADDITIVE, MODE_SIGNED, MODE_STANDARD
from repro.core.setops import difference, union
from tests import scalar_reference
from tests.properties.test_property_kernel import wide_streams

#: (fp buckets, entries, EF widths, IFP width): a roomy shape, shapes
#: whose merged buckets overflow and whose filters saturate, and one
#: level-0 counter that every key shares (debits past its value clamp)
shapes = st.sampled_from(
    [
        (8, 4, (128, 32), 32),
        (2, 2, (16, 4), 8),
        (1, 1, (8, 2), 4),
        (4, 3, (32, 8), 2),
        (2, 2, (1, 64), 64),
    ]
)
pair_streams = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=300),
    ),
    max_size=150,
)
streams = st.one_of(pair_streams, pair_streams, wide_streams)


def make_config(shape, seed=5) -> DaVinciConfig:
    buckets, entries, widths, ifp_width = shape
    return DaVinciConfig(
        fp_buckets=buckets,
        fp_entries=entries,
        ef_level_widths=widths,
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=ifp_width,
        filter_threshold=10,
        seed=seed,
    )


def build(config, pairs, chunk_size=64) -> DaVinciSketch:
    sketch = DaVinciSketch(config)
    sketch.insert_batch(pairs, chunk_size=chunk_size)
    return sketch


@settings(max_examples=60, deadline=None)
@given(shape=shapes, left=streams, right=streams, third=pair_streams)
def test_set_operations_equal_the_per_item_reference(shape, left, right, third):
    config = make_config(shape)
    a, b, c = build(config, left), build(config, right), build(config, third)
    for operation, reference, x, y in (
        (union, scalar_reference.union, a, b),
        (difference, scalar_reference.difference, a, b),
        (difference, scalar_reference.difference, b, a),
    ):
        assert operation(x, y).to_state() == reference(x, y).to_state()
    # chains: a union's additive counts, a difference's signed ones
    merged, delta = union(a, b), difference(a, b)
    assert union(merged, c).to_state() == scalar_reference.union(merged, c).to_state()
    assert (
        difference(delta, c).to_state()
        == scalar_reference.difference(delta, c).to_state()
    )
    assert (
        difference(c, delta).to_state()
        == scalar_reference.difference(c, delta).to_state()
    )


#: keys to read: resident and absent ints, out-of-domain ints, strings
query_keys = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=220),
        st.integers(min_value=-(2**64), max_value=2**64),
        st.text(max_size=4),
    ),
    max_size=40,
)


def assert_query_many_matches(sketch: DaVinciSketch, extra) -> None:
    keys = list(sketch.fp.as_dict()) + list(sketch.decode_counts()) + extra
    expected = [sketch._query_value(canonical_key(key)) for key in keys]
    assert sketch.query_many(keys) == expected
    assert all(type(value) is int for value in sketch.query_many(keys))


@settings(max_examples=60, deadline=None)
@given(shape=shapes, left=streams, right=pair_streams, extra=query_keys)
def test_query_many_equals_the_scalar_query(shape, left, right, extra):
    config = make_config(shape)
    a, b = build(config, left), build(config, right)
    for sketch in (a, union(a, b), difference(a, b), difference(difference(a, b), b)):
        assert_query_many_matches(sketch, extra)


@pytest.mark.parametrize("mode", [MODE_STANDARD, MODE_ADDITIVE, MODE_SIGNED])
def test_query_many_on_a_stalled_decode(mode):
    """Promoted keys left undecoded take the batched fast query."""
    config = make_config((2, 2, (64, 16), 2))
    a = build(config, [(key, 40 + key % 7) for key in range(1, 120)])
    b = build(config, [(key, 25) for key in range(60, 200)])
    sketch = {
        MODE_STANDARD: a,
        MODE_ADDITIVE: union(a, b),
        MODE_SIGNED: difference(a, b),
    }[mode]
    assert sketch.mode == mode
    assert not sketch.decode_result().complete
    assert_query_many_matches(sketch, list(range(1, 220)))


def test_query_many_of_no_keys():
    assert DaVinciSketch(make_config((8, 4, (128, 32), 32))).query_many([]) == []


def test_query_many_canonicalizes_as_query_does():
    """Keys go through the sketch's own ``canonical_key``, so a sketch
    that re-maps keys reads the same values through both paths, and a
    key ``query`` refuses is refused."""

    class CaseFolding(DaVinciSketch):
        def canonical_key(self, key: object) -> int:
            folded = key.casefold() if isinstance(key, str) else key
            return super().canonical_key(folded)

    sketch = CaseFolding(make_config((8, 4, (128, 32), 32)))
    for key in ["Ab", "ab", "AB", "cd", 7]:
        sketch.insert(key, 3)
    keys = ["ab", "AB", "Cd", "x", 7, 2**40]
    assert sketch.query_many(keys) == [sketch.query(key) for key in keys]
    assert sketch.query_many(["aB"]) == [9]
    with pytest.raises(ConfigurationError):
        sketch.query_many([1, True])


@settings(max_examples=40, deadline=None)
@given(shape=shapes, left=streams, right=pair_streams, em_level=st.sampled_from([0, -1]))
def test_tasks_equal_their_per_key_references(shape, left, right, em_level):
    config = make_config(shape)
    a, b = build(config, left), build(config, right)
    for sketch in (a, union(a, b), difference(a, b)):
        assert sketch.distribution(em_level=em_level) == scalar_reference.distribution(
            sketch, em_level
        )
    for x, y in ((a, b), (b, union(a, b))):
        expected = scalar_reference.inner_join(x, y)
        if expected < 2**53:
            assert x.inner_join(y) == expected
        else:  # the reference's float running sum rounds as it goes
            assert x.inner_join(y) == pytest.approx(expected, rel=1e-12)


def test_distribution_clamps_a_counter_debited_past_zero():
    """Two decoded keys share a saturated level-0 counter (15 < 2T), so
    its debits pass its value: it must read as empty, not negative."""
    config = make_config((2, 2, (8, 64), 64))
    pairs = [(key, 40) for key in range(1, 9)] + [(key, 1) for key in range(100, 140)]
    sketch = build(config, pairs)
    assert sketch.distribution() == scalar_reference.distribution(sketch)
