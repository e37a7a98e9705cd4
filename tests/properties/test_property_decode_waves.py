"""Properties: the wave peel of Algorithm 5 equals the sequential peel.

``CountingFermat._peel`` decodes in waves: one batch inversion, one array
re-hash and one validator call per wave.  :func:`tests.scalar_reference.peel`
is the sequential recipe — a FIFO queue, one Fermat inversion and one
scalar re-hash per visited bucket.  For every case below the two must
agree on ``counts`` (as a mapping), ``complete`` and ``residual_buckets``:

* standard DaVinci sketches across seeds and shapes, cross-validated
  against the element filter (``query_many`` for the waves, the scalar
  ``query`` for the reference), with their additive unions and signed
  differences;
* a 128 KB sketch of the canonical 1M-item Zipf(1.1) stream, whose
  decode stalls, with its additive union and signed difference against a
  second window (both incomplete);
* a ``FermatSketch`` (unsigned);
* a tiny overloaded infrequent part, with and without the validator that
  keeps its phantoms out;
* a validator that vetoes a bucket's first candidate, which must fall
  through to the second;
* a key pure in several rows of one wave, which must peel once.

Peels of truly pure buckets reach one fixpoint in any order.  Two things
make a decode depend on its order, and the generated cases of tiny
structures over small keys hit both: a *false peel*, where a crowded
bucket passes every purity check (two keys of count 1 whose mean hashes
back to their bucket with a +1 sign read as that mean with count 2), and
a ping-pong between such peels that stops where the visit budget cuts
it.  Either answer is wrong then, so those cases are not compared (see
:func:`assert_agree`); the full-size cases are compared unconditionally.

CI runs this file once more under ``REPRO_DEBUG_INVARIANTS=1``, where
every complete wave peel re-encodes its counts to the original arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.primes import SMALL_PRIME
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.davinci import MODE_STANDARD
from repro.core.infrequent_part import InfrequentPart
from repro.core.setops import difference, union
from repro.sketches.fermat import FermatSketch
from repro.workloads.zipf import generate_keys, zipf_trace
from tests import scalar_reference
from tests.properties.test_property_array_paths import make_config, shapes, streams


def assert_same(wave, reference) -> None:
    assert dict(wave.counts) == dict(reference.counts)
    assert wave.complete == reference.complete
    assert wave.residual_buckets == reference.residual_buckets


def exact(result, truth) -> bool:
    """Whether every decoded pair is a key's whole true count."""
    return all(truth.get(key) == count for key, count in result.counts.items())


def assert_agree(fermat, validator=None, predicate=None, truth=None) -> None:
    """The wave peel (array ``validator``) against the reference (per-key
    ``predicate``), unless either ran out of visits or, where the true
    content ``truth`` is known, either made a false peel."""
    wave, (visits, *_work) = fermat._peel(validator)
    reference, reference_visits = scalar_reference.peel(fermat, predicate)
    budget = max(64, 8 * fermat.rows * fermat.width)
    if visits >= budget or reference_visits >= budget:
        return
    if truth is not None and not (exact(wave, truth) and exact(reference, truth)):
        return
    assert_same(wave, reference)


def davinci_hooks(sketch: DaVinciSketch):
    """The cross-validation hook of ``sketch``'s decode, array and per-key."""
    if sketch.mode != MODE_STANDARD:
        return None, None
    ef, threshold = sketch.ef, sketch.ef.threshold
    return (
        lambda keys: ef.query_many(keys) >= threshold,
        lambda key: ef.query(key) >= threshold,
    )


@settings(max_examples=60, deadline=None)
@given(
    shape=shapes,
    seed=st.integers(min_value=1, max_value=50),
    left=streams,
    right=streams,
)
def test_standard_and_set_operation_sketches(shape, seed, left, right):
    config = make_config(shape, seed=seed)
    a, b = DaVinciSketch(config), DaVinciSketch(config)
    a.insert_batch(left)
    b.insert_batch(right)
    for sketch in (a, b, union(a, b), difference(a, b)):
        validator, predicate = davinci_hooks(sketch)
        # the sketch decodes through the same peel and hook
        assert_same(sketch.decode_result(), sketch.ifp._peel(validator)[0])
        assert_agree(sketch.ifp, validator, predicate)


@pytest.fixture(scope="module")
def windows():
    """Two 128 KB windows of the canonical stream over the same flows."""
    config = DaVinciConfig.from_memory_kb(128, seed=1)
    flows = generate_keys(100_000, seed=2)
    built = []
    for stream_seed in (1, 2):
        sketch = DaVinciSketch(config)
        sketch.insert_all(
            zipf_trace(1_000_000, 100_000, 1.1, seed=stream_seed, keys=flows)
        )
        built.append(sketch)
    return built


def assert_peels_like_the_reference(sketch: DaVinciSketch) -> None:
    _validator, predicate = davinci_hooks(sketch)
    reference, _visits = scalar_reference.peel(sketch.ifp, predicate)
    assert_same(sketch.decode_result(), reference)


def test_stalled_128kb_sketch(windows):
    a, _b = windows
    assert not a.decode_result().complete
    assert_peels_like_the_reference(a)


def test_additive_union_and_signed_difference(windows):
    a, b = windows
    signed = difference(a, b)
    assert not signed.decode_result().complete
    assert_peels_like_the_reference(signed)
    assert_peels_like_the_reference(union(a, b))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=50),
    width=st.integers(min_value=4, max_value=64),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5000),
            st.integers(min_value=-50, max_value=50),
        ),
        max_size=120,
    ),
)
def test_fermat_sketch(seed, width, pairs):
    sketch = FermatSketch(rows=3, width=width, seed=seed)
    truth = {}
    for key, count in pairs:
        sketch.insert(key, count)
        truth[key] = truth.get(key, 0) + count
    assert_agree(sketch, truth=truth)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=50),
    inserted=st.sets(st.integers(min_value=500, max_value=700), max_size=120),
)
def test_tiny_overloaded_ifp_with_the_phantom_rejecting_validator(seed, inserted):
    tiny = InfrequentPart(rows=3, width=8, seed=seed)
    for key in inserted:
        tiny.insert(key, 1)
    truth = dict.fromkeys(inserted, 1)
    members = np.array(sorted(inserted), dtype=np.int64)

    def validator(keys):
        return np.isin(keys, members)

    assert set(tiny.decode(validator=validator).counts) <= inserted
    assert_agree(tiny, validator, inserted.__contains__, truth=truth)
    assert_agree(tiny, truth=truth)


def fall_through_case():
    """A one-row signed part holding key ``e`` alone, whose first
    candidate ``p − e`` passes every purity check."""
    p = SMALL_PRIME
    ifp = InfrequentPart(rows=1, width=4, prime=p, seed=3, max_key=p - 1)
    for key in range(1, 10_000):
        first = p - key
        if (
            ifp._sign(0, key) == -1
            and ifp._hashes.index(0, first) == ifp._hashes.index(0, key)
            and ifp._sign(0, first) == 1
        ):
            return ifp, key, first
    raise AssertionError("no fall-through key below 10,000")


def test_a_vetoed_first_candidate_falls_through_to_the_second():
    ifp, key, first = fall_through_case()
    ifp.insert(key, 3)
    assert ifp.decode().counts == {first: -3}  # unvetoed, the first wins
    seen = []

    def veto_first(keys):
        seen.extend(keys.tolist())
        return keys != first

    result = ifp.decode(validator=veto_first)
    assert seen == [first, key]
    assert result.counts == {key: 3}
    assert result.complete
    reference, _visits = scalar_reference.peel(ifp, lambda other: other != first)
    assert_same(result, reference)


def test_a_key_pure_in_every_row_of_one_wave_peels_once():
    ifp = InfrequentPart(rows=3, width=64, seed=5)
    ifp.insert(12345, 7)
    result, work = ifp._peel()
    assert result.counts == {12345: 7}
    assert result.complete
    # wave 0 holds the key's bucket in each of the three rows, all pure;
    # the first peel empties the other two, so there is no second wave
    assert work == (3, 1, 0, 0)
    assert_same(result, scalar_reference.peel(ifp)[0])
