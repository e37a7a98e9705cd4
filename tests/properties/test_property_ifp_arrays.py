"""Properties: the int64 bucket tables equal per-item Algorithm 2.

The infrequent part and ``FermatSketch`` keep ``ids`` and ``counts`` as
``(rows, width)`` int64 tables: ``insert_batch`` adds each pair's residue
``count · key mod p`` to its bucket in every row as arrays, ``merged``
and ``subtracted`` combine whole tables, and the peel applies each
wave's subtractions as one update.  :mod:`tests.scalar_reference` holds
the same steps in exact Python ints (:func:`~tests.scalar_reference.encode`,
:func:`~tests.scalar_reference.combine_tables`); the tables must equal
them as ``to_state()`` writes them, for

* the default Mersenne prime ``2^61 − 1``, ``SMALL_PRIME`` (``2^31 − 1``),
  a 62-bit prime that is not a Mersenne prime and the largest prime
  below ``2^63``;
* counts anywhere in int64, near ``±2^63`` included.

Where the Python-int result holds an ``icnt`` outside ``±(2^63 − 1)``
the array operation must raise ``ConfigurationError`` and leave its
tables as they were.  Per-item ``insert`` checks every intermediate
``icnt``; ``insert_batch`` and the set operations only each bucket's
final one.

The peel must agree with :func:`tests.scalar_reference.peel` on the
same tables.  Its working counts are int64 too, and a peel raises
``ConfigurationError`` where subtracting a key's share would take one
past the range (``test_a_peel_past_the_range_raises``), so the peel
cases draw counts below ``2^63`` divided by the number of pairs: every
partial sum of a bucket is then one the tables can hold.

CI runs this file once more under ``REPRO_DEBUG_INVARIANTS=1``, where
``check_field_element`` checks every array write and
``check_decode_roundtrip`` every complete peel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.primes import DEFAULT_PRIME, SMALL_PRIME
from repro.common.validation import INT64_MAX
from repro.core.infrequent_part import InfrequentPart
from repro.sketches.fermat import FermatSketch
from tests import scalar_reference
from tests.properties.test_property_decode_waves import assert_agree

#: a 62-bit prime that is not a Mersenne prime
NON_MERSENNE_PRIME = (1 << 62) + 135
#: the largest prime below 2^63: residue sums use the whole uint64 range
LARGEST_PRIME = (1 << 63) - 25

primes = st.sampled_from(
    [DEFAULT_PRIME, SMALL_PRIME, NON_MERSENNE_PRIME, LARGEST_PRIME]
)
edge_counts = st.sampled_from(
    [INT64_MAX, -INT64_MAX, INT64_MAX - 1, 1 << 62, -(1 << 62), 1 << 32, -(1 << 32)]
)
counts = st.one_of(
    st.integers(-3, 3), st.integers(-INT64_MAX, INT64_MAX), edge_counts
)


def make(cls, prime, seed, width=16):
    max_key = min(1 << 32, prime - 1)
    return cls(rows=3, width=width, prime=prime, seed=seed, max_key=max_key)


def pair_lists(prime, count_values=counts, max_size=24):
    keys = st.integers(1, min(1 << 32, prime - 1) - 1)
    return st.lists(st.tuples(keys, count_values), max_size=max_size)


def state(fermat):
    """The tables as ``to_state()`` writes them."""
    return fermat.ids.tolist(), fermat.counts.tolist()


def arrays(pairs):
    keys = np.array([key for key, _count in pairs], dtype=np.int64)
    return keys, np.array([count for _key, count in pairs], dtype=np.int64)


def insert_each(fermat, pairs):
    """Per-item ``insert`` of ``pairs``, each checked against the
    reference; a pair that would leave the range must change nothing."""
    for pair in pairs:
        expected = scalar_reference.encode(fermat, [pair])
        if scalar_reference.fits(expected):
            fermat.insert(*pair)
        else:
            before = state(fermat)
            with pytest.raises(ConfigurationError, match="int64"):
                fermat.insert(*pair)
            expected = before
        assert state(fermat) == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data(), prime=primes, seed=st.integers(1, 40))
def test_insert_batch_equals_per_item_inserts(data, prime, seed):
    ifp = make(InfrequentPart, prime, seed)
    insert_each(ifp, data.draw(pair_lists(prime), label="start"))
    batch = data.draw(pair_lists(prime, max_size=40), label="batch")
    expected = scalar_reference.encode(ifp, batch)
    if scalar_reference.fits(expected):
        ifp.insert_batch(*arrays(batch))
    else:
        expected = state(ifp)
        with pytest.raises(ConfigurationError, match="int64"):
            ifp.insert_batch(*arrays(batch))
    assert state(ifp) == expected


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    cls=st.sampled_from([InfrequentPart, FermatSketch]),
    prime=primes,
    seed=st.integers(1, 40),
    steps=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 2)), max_size=6),
)
def test_merged_and_subtracted_chains(data, cls, prime, seed, steps):
    operands = []
    for index in range(3):
        fermat = make(cls, prime, seed)
        insert_each(fermat, data.draw(pair_lists(prime), label=f"operand {index}"))
        operands.append(fermat)
    result = operands[0]
    for sign, index in steps:
        other = operands[index]
        expected = scalar_reference.combine_tables(
            state(result), state(other), sign, prime
        )
        combine = result.merged if sign > 0 else result.subtracted
        if scalar_reference.fits(expected):
            result = combine(other)
            assert state(result) == expected
        else:
            before = state(result), state(other)
            with pytest.raises(ConfigurationError, match="int64"):
                combine(other)
            assert (state(result), state(other)) == before


def truth_of(pairs):
    truth = {}
    for key, count in pairs:
        truth[key] = truth.get(key, 0) + count
    return {key: count for key, count in truth.items() if count}


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    cls=st.sampled_from([InfrequentPart, FermatSketch]),
    prime=primes,
    seed=st.integers(1, 40),
    size=st.integers(1, 12),
)
def test_peel_of_the_tables(data, cls, prime, seed, size):
    limit = INT64_MAX // (2 * size + 1)
    wide = st.one_of(st.integers(-3, 3), st.integers(-limit, limit))
    pairs = data.draw(pair_lists(prime, wide, max_size=size), label="pairs")
    sketch = make(cls, prime, seed, width=8 * size)
    half = len(pairs) // 2
    insert_each(sketch, pairs[:half])
    rest = make(cls, prime, seed, width=8 * size)
    insert_each(rest, pairs[half:])
    negated = [(key, -count) for key, count in pairs[half:]]
    for fermat, truth in (
        (sketch, truth_of(pairs[:half])),
        (sketch.merged(rest), truth_of(pairs)),
        (sketch.subtracted(rest), truth_of(pairs[:half] + negated)),
    ):
        assert_agree(fermat, truth=truth)


# --------------------------------------------------------------------- #
# directed cases
# --------------------------------------------------------------------- #
@pytest.fixture
def loaded():
    """An infrequent part whose buckets for key 7 hold ``±(2^63 − 2)``."""
    ifp = InfrequentPart(rows=3, width=16, seed=3)
    ifp.insert(7, INT64_MAX - 1)
    return ifp


def test_insert_past_the_range_raises_and_writes_nothing(loaded):
    before = state(loaded)
    with pytest.raises(ConfigurationError, match="int64"):
        loaded.insert(7, 2)
    assert state(loaded) == before


def test_insert_batch_past_the_range_raises_and_writes_nothing(loaded):
    before = state(loaded)
    with pytest.raises(ConfigurationError, match="int64"):
        loaded.insert_batch(*arrays([(9, 5), (7, 1), (7, 1)]))
    assert state(loaded) == before
    # the bucket's final icnt decides, not the order of the pairs
    loaded.insert_batch(*arrays([(7, 1), (7, -1), (7, 1)]))
    loaded.insert_batch(*arrays([(7, -2)]))
    assert loaded.decode().counts == {7: INT64_MAX - 2}


@pytest.mark.parametrize("operation", ["merged", "subtracted"])
def test_set_operation_past_the_range_raises_and_writes_nothing(loaded, operation):
    other = loaded.empty_like()
    other.insert(7, -2 if operation == "subtracted" else 2)
    before = state(loaded), state(other)
    with pytest.raises(ConfigurationError, match="int64"):
        getattr(loaded, operation)(other)
    assert (state(loaded), state(other)) == before


def test_the_range_is_symmetric():
    # -2^63 would make a sign flip (ζ · icnt) leave int64
    ifp = InfrequentPart(rows=3, width=16, seed=3)
    ifp.insert(7, -INT64_MAX)
    with pytest.raises(ConfigurationError, match="int64"):
        ifp.insert(7, -1)
    assert ifp.fast_query(7) == ifp.fast_query_many(np.array([7]))[0] == -INT64_MAX


def test_a_peel_past_the_range_raises():
    # rows 0 and 1 hold {a, b}, {c} and {b, c}, {a}.  b's count is past
    # 2^63 but a's and c's shares keep both of its buckets in range; the
    # first wave peels c, which leaves b alone in row 1: past the range
    ifp = InfrequentPart(rows=2, width=2, seed=1)
    rows = {key: ifp._hashes.indexes(key) for key in range(1, 200)}
    a, b, c = next(
        (a, b, c)
        for a in rows
        for b in rows
        for c in rows
        if rows[a][0] == rows[b][0] != rows[c][0]
        and rows[b][1] == rows[c][1] != rows[a][1]
    )
    sign = ifp._signs.sign
    pairs = [
        (a, -6 * sign(0, a) * sign(0, b)),
        (c, -6 * sign(1, c) * sign(1, b)),
        (b, INT64_MAX + 4),
    ]
    for pair in pairs:
        ifp.insert(*pair)
    with pytest.raises(ConfigurationError, match="int64"):
        ifp.decode()
    # exact Python ints peel it
    reference, _visits = scalar_reference.peel(ifp)
    assert reference.counts == truth_of(pairs)


@pytest.mark.parametrize("prime", [(1 << 63) + 29, (1 << 64) + 13])
def test_oversized_prime_is_refused_at_construction(prime):
    with pytest.raises(ConfigurationError, match="prime"):
        InfrequentPart(rows=3, width=16, prime=prime)
    with pytest.raises(ConfigurationError, match="prime"):
        FermatSketch(rows=3, width=16, prime=prime)


def test_largest_prime_below_two_to_the_63_is_accepted():
    ifp = InfrequentPart(rows=3, width=16, prime=LARGEST_PRIME, seed=2)
    ifp.insert_batch(*arrays([(5, INT64_MAX), (9, -INT64_MAX), (5, -3)]))
    assert state(ifp) == scalar_reference.encode(
        ifp.empty_like(), [(5, INT64_MAX), (9, -INT64_MAX), (5, -3)]
    )
