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
* ``distribution`` (as ordered items, at both EM levels), ``entropy``,
  ``inner_join``, ``known_keys``, ``heavy_hitters``, ``heavy_changers``
  and ``cardinality``, which gather their keys as arrays, read them
  through it and reduce the filter's counters as arrays, must return
  exactly what the per-key references in :mod:`tests.scalar_reference`
  return — for a join past 2^53 (wide streams) up to the rounding of
  the reference's float running sum, which the exact int sum of the
  array path avoids.  Directed cases cover a decoded key that is also
  resident, empty decodes and frequent parts, estimates and join
  products past int64, and keys peeled more than once.

CI runs this file once more under ``REPRO_DEBUG_INVARIANTS=1``, where
the batched filter add checks its saturation bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.hashing import canonical_key
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.davinci import MODE_ADDITIVE, MODE_SIGNED, MODE_STANDARD
from repro.core.infrequent_part import DecodeResult, InfrequentPart, _tally
from repro.core.setops import difference, union
from repro.core.tasks.heavy import heavy_changers
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


def assert_distribution_matches(sketch: DaVinciSketch) -> None:
    """Both EM levels as ordered items, and entropy bit for bit."""
    for em_level in (0, -1):
        expected = scalar_reference.distribution(sketch, em_level)
        assert list(sketch.distribution(em_level=em_level).items()) == list(
            expected.items()
        )
    assert sketch.entropy() == scalar_reference.entropy(sketch)


def assert_keyed_tasks_match(sketch: DaVinciSketch) -> None:
    """Known keys, heavy hitters and cardinality against the per-key
    references, and the distribution through :func:`assert_distribution_matches`."""
    known = scalar_reference.known_keys(sketch)
    assert sketch.known_keys() == known
    for threshold in (1, 30, 2**62):
        assert sketch.heavy_hitters(threshold) == scalar_reference.heavy_hitters(
            sketch, threshold
        )
    assert sketch.cardinality() == scalar_reference.cardinality(sketch)
    assert_distribution_matches(sketch)


@settings(max_examples=40, deadline=None)
@given(shape=shapes, left=streams, right=pair_streams)
def test_tasks_equal_their_per_key_references(shape, left, right):
    config = make_config(shape)
    a, b = build(config, left), build(config, right)
    for sketch in (a, union(a, b), difference(a, b)):
        assert_distribution_matches(sketch)
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


@settings(max_examples=40, deadline=None)
@given(
    shape=shapes,
    left=streams,
    right=pair_streams,
    threshold=st.sampled_from([1, 25, 400]),
)
def test_keyed_tasks_equal_their_per_key_references(shape, left, right, threshold):
    config = make_config(shape)
    a, b = build(config, left), build(config, right)
    merged = union(a, b)
    for sketch in (a, merged, difference(a, b), difference(b, merged)):
        assert_keyed_tasks_match(sketch)
    for x, y in ((a, b), (b, a), (merged, a), (difference(a, b), b)):
        assert heavy_changers(x, y, threshold) == scalar_reference.heavy_changers(
            x, y, threshold
        )


def test_a_decoded_key_that_is_also_resident():
    """Key 5 is promoted (decoded) and later wins its FP entry back: it is
    read once, as a resident, and its filter debit still counts."""
    config = make_config((1, 1, (64, 16), 32))
    sketch = DaVinciSketch(config)
    sketch.insert(5, 40)
    for _ in range(321):  # 6 evicts 5 once its evict counter passes 8 · 40
        sketch.insert(6)
    for _ in range(9):  # and 5 evicts 6 (count 1) in turn
        sketch.insert(5)
    sketch.insert(7, 3)
    assert sketch.fp.as_dict() == {5: 1}
    assert sketch.decode_counts() == {6: 311, 5: 38}
    assert_keyed_tasks_match(sketch)
    other = build(config, [(5, 12), (6, 30), (8, 2)])
    assert sketch.inner_join(other) == scalar_reference.inner_join(sketch, other)
    assert heavy_changers(sketch, other, 1) == scalar_reference.heavy_changers(
        sketch, other, 1
    )


def test_an_empty_decode():
    """Nothing reached the infrequent part, and a part that peels nothing."""
    config = make_config((8, 4, (128, 32), 32))
    quiet = build(config, [(key, 3) for key in range(1, 40)])
    assert quiet.decode_counts() == {}
    assert_keyed_tasks_match(quiet)
    stalled_config = make_config((2, 2, (64, 16), 2))
    stalled = build(stalled_config, [(key, 40) for key in range(1, 60)])
    assert stalled.decode_counts() == {} and not stalled.decode_result().complete
    assert_keyed_tasks_match(stalled)
    assert quiet.inner_join(quiet) == scalar_reference.inner_join(quiet, quiet)


def clear_frequent_part(sketch: DaVinciSketch) -> DaVinciSketch:
    for view in sketch.fp.bucket_arrays():
        view[...] = 0
    return sketch


@pytest.mark.parametrize("mode", [MODE_STANDARD, MODE_ADDITIVE, MODE_SIGNED])
def test_an_empty_frequent_part(mode):
    config = make_config((2, 2, (64, 16), 64))
    a = build(config, [(key, 30 + key % 5) for key in range(1, 25)])
    b = build(config, [(key, 12) for key in range(10, 40)])
    sketch = {
        MODE_STANDARD: a,
        MODE_ADDITIVE: union(a, b),
        MODE_SIGNED: difference(a, b),
    }[mode]
    clear_frequent_part(sketch)
    sketch._decode_cache = None
    assert len(sketch.fp) == 0 and sketch.decode_counts()
    assert_keyed_tasks_match(sketch)
    assert heavy_changers(sketch, b, 1) == scalar_reference.heavy_changers(
        sketch, b, 1
    )
    empty = clear_frequent_part(DaVinciSketch(config))
    assert_keyed_tasks_match(empty)
    assert empty.inner_join(empty) == 0.0


def test_estimates_past_int64_are_summed_exactly():
    """A flagged resident of 2^62 + 7 whose decoded count is 2^62: its
    estimate, 2^63 + 7 + T, needs the exact sum, and the join's keyed
    products need Python ints."""
    config = make_config((8, 4, (128, 32), 32))
    sketch = build(config, [(key, 2) for key in range(1, 30)])
    keys, counts, flags, occupancy, _ecnt, _flag = sketch.fp.bucket_arrays()
    bucket = sketch.fp.bucket_index(77)
    slot = min(occupancy[bucket], config.fp_entries - 1)
    occupancy[bucket] = slot + 1
    keys[bucket, slot], counts[bucket, slot], flags[bucket, slot] = 77, 2**62 + 7, 1
    sketch.ef.offer(77, config.filter_threshold)  # the filter reads T
    sketch.ifp.insert(77, 2**62)
    sketch._decode_cache = None
    expected = 2**62 + 7 + sketch.decode_counts()[77] + config.filter_threshold
    assert sketch.query(77) == expected > 2**63
    assert sketch.query_many([77, 1]) == [expected, sketch.query(1)]
    assert_keyed_tasks_match(sketch)
    assert sketch.inner_join(sketch) == pytest.approx(
        scalar_reference.inner_join(sketch, sketch), rel=1e-12
    )
    assert sketch.inner_join(sketch) >= 2.0**126


def test_a_join_past_int64():
    """Keyed shares that fit int64 but whose products do not take the
    exact sum."""
    config = make_config((8, 4, (128, 32), 32))
    a = build(config, [(1, 2**40), (2, 3), (3, 2**33)])
    b = build(config, [(1, 2**41), (3, 5), (4, 7)])
    expected = scalar_reference.inner_join(a, b)
    assert expected > 2**81
    assert a.inner_join(b) == pytest.approx(expected, rel=1e-12)


def test_a_key_peeled_again_and_again():
    """Crowded buckets make phantoms that peel and unpeel until the visit
    budget: decoded counts go through the running sum, and every task
    still reads them exactly."""
    crowded = InfrequentPart(rows=3, width=8, seed=1)
    for key, count in zip((500, 549, 551, 580, 691), (-2, 1, 2, -1, 1)):
        crowded.insert(key, count)
    config = make_config((2, 2, (64, 16), 8))
    a = build(config, [(key, 5) for key in range(1, 12)])
    b = build(config, [(key, 7) for key in range(6, 20)])
    for sketch in (union(a, b), difference(a, b)):
        sketch.ifp = crowded
        sketch._decode_cache = None
        result = sketch.decode_result()
        assert result.budget_exhausted
        assert list(result.counts.items()) == [(500, -2), (522, 1), (620, 2)]
        assert_decode_arrays(result)
        assert_query_many_matches(sketch, [1, 522, 620, 777])
        assert_keyed_tasks_match(sketch)


def assert_decode_arrays(result: DecodeResult) -> None:
    """The arrays hold the dict in its order, and ``lookup`` reads it."""
    assert result.keys.tolist() == list(result.counts)
    assert result.values.tolist() == list(result.counts.values())
    probe = np.array(list(result.counts) + [0, 3, 2**40], dtype=np.int64)
    found, values = result.lookup(probe)
    assert found.tolist() == [True] * len(result.counts) + [False] * 3
    assert values.tolist() == list(result.counts.values())


def test_a_count_summed_past_int64_stays_exact():
    """Two peels of one key whose sum leaves int64 (the running sum of
    ``_tally``) are held as a Python int, and every read of it is exact."""
    decoded, arrays = _tally(
        [np.array([9, 7], dtype=np.int64), np.array([9], dtype=np.int64)],
        [np.array([2**62 + 5, 3], dtype=np.int64), np.array([2**62], dtype=np.int64)],
    )
    assert decoded == {9: 2**63 + 5, 7: 3}
    result = DecodeResult(decoded, True, 0, arrays=arrays)
    assert result.values.dtype == object
    assert_decode_arrays(result)
    assert_decode_arrays(DecodeResult(decoded, True, 0))

    config = make_config((8, 4, (128, 32), 32))
    a = build(config, [(key, 30) for key in range(1, 40)])
    sketch = union(a, a)
    sketch.decode_result()
    sketch._decode_cache = DecodeResult({9: 2**63 + 5, 12345: -4}, True, 0)
    assert sketch.query(9) > 2**63
    assert_query_many_matches(sketch, [9, 12345])
    assert_keyed_tasks_match(sketch)
    assert sketch.inner_join(a) == pytest.approx(
        scalar_reference.inner_join(sketch, a), rel=1e-12
    )


def test_decode_result_arrays_of_a_real_decode():
    config = make_config((2, 2, (64, 16), 64))
    sketch = build(config, [(key, 30 + key % 5) for key in range(1, 40)])
    result = sketch.decode_result()
    assert len(result.counts) > 10
    assert result.values.dtype == np.int64
    assert_decode_arrays(result)
    assert_decode_arrays(DecodeResult({}, True, 0))
