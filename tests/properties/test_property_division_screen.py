"""Properties: the exact-division purity screen equals one inversion per bucket.

``CountingFermat._pure_in`` finds a bucket's in-domain candidates by
exact int64 division when ``m = |icnt|`` satisfies
``m · (max_key − 1) < p``, and inverts only the larger counts, all of a
wave's together.  :func:`tests.scalar_reference.peel` keeps one Fermat
inversion per bucket.  For every case below, the wave's pure buckets,
their keys and counts must equal the reference's first candidate of each
bucket, and the peel must equal the reference peel:

* the default Mersenne prime, ``SMALL_PRIME`` (with ``max_key`` below
  it, once with ``max_key = p − 1``, where the bound is 1), the 62-bit
  prime ``2^62 + 135`` and the largest prime below ``2^63``;
* ``|icnt|`` exactly at the bound and one above it in one wave;
* negative ``icnt`` (signed differences, negative counts);
* ``iID = 0`` with a non-zero count;
* a key next to ``max_key`` whose product with a count one past the
  bound wraps past ``p``;
* ``FermatSketch`` (unsigned) beside ``InfrequentPart``;
* ``max_key = 2`` with ``icnt = ±p``, the one case where the bound
  ``m · (max_key − 1) < p`` and ``≤ p`` differ for a prime ``p``.

The number of buckets the screen sent to an inversion is the peel's
fifth work figure, and must be the number of occupied buckets past the
bound whose count is not a multiple of ``p``.

CI runs this file once more under ``REPRO_DEBUG_INVARIANTS=1``, where
every complete peel re-encodes its counts to the original arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.primes import DEFAULT_PRIME, SMALL_PRIME
from repro.common.validation import INT64_MAX
from repro.core.infrequent_part import InfrequentPart
from repro.sketches.fermat import FermatSketch
from tests import scalar_reference
from tests.properties.test_property_decode_waves import assert_agree, assert_same
from tests.properties.test_property_ifp_arrays import (
    LARGEST_PRIME,
    NON_MERSENNE_PRIME,
    truth_of,
)

#: (prime, max_key) pairs: each prime with a domain of 32-bit keys where
#: it fits, and SMALL_PRIME also with the widest domain it allows
FIELDS = [
    (DEFAULT_PRIME, 1 << 32),
    (DEFAULT_PRIME, 1 << 20),
    (SMALL_PRIME, 1 << 20),
    (SMALL_PRIME, SMALL_PRIME - 1),
    (NON_MERSENNE_PRIME, 1 << 32),
    (LARGEST_PRIME, 1 << 32),
]
CLASSES = [InfrequentPart, FermatSketch]


def bound(prime: int, max_key: int) -> int:
    """The largest ``m`` with ``m · (max_key − 1) < prime``."""
    m = (prime - 1) // (max_key - 1)
    assert m * (max_key - 1) < prime <= (m + 1) * (max_key - 1)
    return m


def near(value: int):
    """``value`` and its neighbours, both signs, within ``±(2^63 − 1)``."""
    values = {sign * (value + step) for sign in (1, -1) for step in (-1, 0, 1)}
    return sorted(v for v in values if v and abs(v) <= INT64_MAX)


def count_values(prime: int, max_key: int, limit: int = INT64_MAX):
    """Counts around the bound, small ones and any others up to
    ``±limit``."""
    edges = near(bound(prime, max_key)) + near(1) + near(prime)
    return st.one_of(
        st.sampled_from([count for count in edges if abs(count) <= limit]),
        st.integers(-limit, limit).filter(bool),
    )


def key_values(max_key: int):
    """Keys next to both ends of the domain, and any in it."""
    return st.one_of(
        st.sampled_from([1, 2, max_key - 2, max_key - 1]),
        st.integers(1, max_key - 1),
    )


def make(cls, prime, max_key, seed, rows=3, width=32):
    return cls(rows=rows, width=width, prime=prime, seed=seed, max_key=max_key)


def place(fermat, key: int, count: int, row: int) -> None:
    """Write one bucket as ``key`` alone with ``count`` would leave it,
    in ``row`` only."""
    col = fermat._hashes.index(row, key)
    fermat.ids[row, col] = count * key % fermat.prime
    fermat.counts[row, col] = fermat._sign(row, key) * count


def wave_pure(fermat):
    """``_pure_in`` over every occupied bucket: ``{bucket: (key, count)}``
    and the number of buckets it inverted."""
    ids, counts = fermat.ids.ravel(), fermat.counts.ravel()
    wave = np.flatnonzero(ids | counts)
    at, keys, own, _spots, _signs, vetoed, inverted = fermat._pure_in(
        wave, ids.astype(np.uint64), counts, None
    )
    assert vetoed == 0
    found = zip(keys.tolist(), (own * counts[at]).tolist())
    return dict(zip(at.tolist(), found)), inverted


def reference_pure(fermat):
    """Each occupied bucket's first candidate, one inversion per bucket."""
    pure = {}
    for row, col in zip(*np.nonzero(fermat.ids | fermat.counts)):
        found = scalar_reference._candidates(
            fermat, row, col, int(fermat.ids[row, col]), int(fermat.counts[row, col])
        )
        if found:
            pure[int(row) * fermat.width + int(col)] = found[0]
    return pure


def past_the_bound(fermat) -> int:
    """Occupied buckets whose count the screen cannot divide and the
    field can invert."""
    limit = bound(fermat.prime, fermat.max_key)
    counts = [int(icnt) for icnt in fermat.counts.ravel()]
    return sum(1 for icnt in counts if abs(icnt) > limit and icnt % fermat.prime)


def assert_screen_matches(fermat) -> None:
    pure, inverted = wave_pure(fermat)
    assert pure == reference_pure(fermat)
    assert inverted == past_the_bound(fermat)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    cls=st.sampled_from(CLASSES),
    field=st.sampled_from(FIELDS),
    seed=st.integers(1, 40),
)
def test_every_bucket_of_a_table(data, cls, field, seed):
    prime, max_key = field
    fermat = make(cls, prime, max_key, seed)
    keys, counts = key_values(max_key), count_values(prime, max_key)
    for key, count, row in data.draw(
        st.lists(st.tuples(keys, counts, st.integers(0, 2)), max_size=40),
        label="pure buckets",
    ):
        place(fermat, key, count, row)
    residues = st.one_of(
        st.sampled_from([0, 1, prime - 1]), st.integers(0, prime - 1)
    )
    for row, col, iid, icnt in data.draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 31), residues, counts),
            max_size=12,
        ),
        label="other buckets",
    ):
        fermat.ids[row, col], fermat.counts[row, col] = iid, icnt
    assert_screen_matches(fermat)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    cls=st.sampled_from(CLASSES),
    field=st.sampled_from(FIELDS),
    seed=st.integers(1, 40),
    size=st.integers(1, 10),
)
def test_peel_around_the_bound(data, cls, field, seed, size):
    prime, max_key = field
    # every partial sum of a bucket fits int64, so no peel leaves the range
    limit = INT64_MAX // (2 * size + 1)
    pairs = data.draw(
        st.lists(
            st.tuples(key_values(max_key), count_values(prime, max_key, limit)),
            max_size=size,
            unique_by=lambda pair: pair[0],
        ),
        label="pairs",
    )
    fermat = make(cls, prime, max_key, seed, width=16 * size)
    for pair in pairs:
        fermat.insert(*pair)
    assert_screen_matches(fermat)
    assert_agree(fermat, truth=truth_of(pairs))


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("prime, max_key", FIELDS)
def test_counts_at_and_one_past_the_bound_in_one_wave(cls, prime, max_key):
    limit = bound(prime, max_key)
    top = max_key - 1
    # the top key times limit + 1 wraps past p; times limit it does not
    assert top * limit < prime <= top * (limit + 1)
    pairs = [(top, limit), (top - 1, -limit), (2, limit + 1), (3, -(limit + 1))]
    if max_key > 4:
        pairs.append((top - 2, limit + 1))
    for seed in range(1, 40):
        fermat = make(cls, prime, max_key, seed, width=64)
        columns = {tuple(fermat._hashes.indexes(key)) for key, _count in pairs}
        rows = zip(*columns)
        if all(len(set(row)) == len(pairs) for row in rows):
            break  # every key alone in its bucket of every row
    else:
        pytest.fail("no seed below 40 keeps the keys apart")
    for pair in pairs:
        fermat.insert(*pair)
    assert_screen_matches(fermat)
    result, work = fermat._peel()
    assert result.counts == truth_of(pairs)
    assert result.complete
    # wave 0 holds every bucket: 3 per key past the bound
    assert work[4] == 3 * sum(1 for _key, count in pairs if abs(count) > limit)
    assert_same(result, scalar_reference.peel(fermat)[0])


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("icnt", [1, -1, 2, -2, 7, (1 << 29) + 1, -(1 << 40)])
def test_a_zero_residue_with_a_count_is_not_pure(cls, icnt):
    fermat = make(cls, DEFAULT_PRIME, 1 << 32, seed=3)
    fermat.ids[1, 5], fermat.counts[1, 5] = 0, icnt
    assert wave_pure(fermat)[0] == reference_pure(fermat) == {}
    result, _work = fermat._peel()
    assert result.counts == {}
    assert result.residual_buckets == 1


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("count", [DEFAULT_PRIME, -DEFAULT_PRIME, 2, -2, 1])
def test_the_one_key_domain_at_counts_of_p(cls, count):
    # max_key = 2 admits key 1 alone and sets the bound to p − 1: a count
    # of ±p leaves iID = 0 and icnt ≡ 0, which nothing inverts, although
    # (p − 0) / p = 1 is an exact quotient
    fermat = make(cls, DEFAULT_PRIME, 2, seed=5, rows=1, width=4)
    assert bound(DEFAULT_PRIME, 2) == DEFAULT_PRIME - 1
    fermat.insert(1, count)
    assert_screen_matches(fermat)
    expected = {} if abs(count) == DEFAULT_PRIME else {1: count}
    result, work = fermat._peel()
    assert result.counts == expected
    assert work[4] == 0
    assert_same(result, scalar_reference.peel(fermat)[0])
