"""Properties: the array EM equals the per-counter EM.

``CounterArrayEM.estimate`` builds its value histogram with one
``bincount`` and runs the E-step over a flat index of the ``(value,
split)`` pairs.  :func:`tests.scalar_reference.em_estimate` is the loop
it replaced: one counter and one split at a time.  Both must return the
same sizes with the same counts, on

* generated counter arrays, with and without ``max_value``;
* level 0 and the top level of a 256 KB sketch of the canonical 1M-item
  Zipf(1.1) stream, and of its union with a 10k-item delta (the inputs
  of ``distribution`` and ``entropy``);
* the counters MRAC, Elastic and FCM pass to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.setops import union
from repro.core.tasks.distribution import CounterArrayEM
from repro.sketches.elastic import _LIGHT_CAP, ElasticSketch
from repro.sketches.fcm import FCMSketch
from repro.sketches.mrac import MRAC
from repro.workloads.zipf import generate_keys, zipf_trace
from tests.scalar_reference import em_estimate


def assert_same_estimate(em: CounterArrayEM, counters) -> None:
    # the array EM adds its floats in the loop's order, so not even the
    # last bit may differ
    assert em.estimate(counters) == em_estimate(em, list(counters))


@settings(max_examples=150, deadline=None)
@given(
    counters=st.lists(
        st.one_of(st.integers(0, 16), st.integers(0, 300)), max_size=300
    ),
    iterations=st.integers(1, 9),
    max_value=st.sampled_from([None, 14, 254]),
    as_array=st.booleans(),
)
def test_generated_counters(counters, iterations, max_value, as_array):
    em = CounterArrayEM(iterations=iterations, max_value=max_value)
    if as_array:
        counters = np.array(counters, dtype=np.int64)
    assert_same_estimate(em, counters)


@pytest.fixture(scope="module")
def canonical():
    """A 256 KB sketch of the canonical stream, and its union with a
    10k-item delta."""
    config = DaVinciConfig.from_memory_kb(256, seed=1)
    flows = generate_keys(100_000, seed=2)
    window = DaVinciSketch(config)
    window.insert_all(zipf_trace(1_000_000, 100_000, 1.1, seed=1, keys=flows))
    delta = DaVinciSketch(config)
    delta.insert_all(zipf_trace(10_000, 10_000, 1.1, seed=3, keys=flows[:10_000]))
    return window, union(window, delta)


@pytest.mark.parametrize("level", [0, -1])
def test_filter_levels_of_the_canonical_sketch(canonical, level):
    for sketch in canonical:
        cap = sketch.ef.level_caps[level]
        counters = sketch.ef.counter_arrays()[level]
        assert_same_estimate(CounterArrayEM(max_value=cap - 1), counters)


def zipf_items(count: int, seed: int):
    flows = generate_keys(5_000, seed=seed)
    return zipf_trace(count, 5_000, 1.1, seed=seed, keys=flows)


def test_mrac_counters():
    mrac = MRAC.from_memory(16 * 1024, seed=4)
    for key in zipf_items(60_000, 4):
        mrac.insert(key)
    assert_same_estimate(CounterArrayEM(iterations=mrac.em_iterations), mrac.counters)


def test_elastic_light_part():
    elastic = ElasticSketch.from_memory(16 * 1024, seed=5)
    for key in zipf_items(60_000, 5):
        elastic.insert(key)
    assert_same_estimate(CounterArrayEM(max_value=_LIGHT_CAP - 1), elastic.light)


def test_fcm_leaf_stage():
    fcm = FCMSketch.from_memory(16 * 1024, seed=6)
    for key in zipf_items(60_000, 6):
        fcm.insert(key)
    cap = fcm.trees[0].caps[0]
    assert_same_estimate(CounterArrayEM(max_value=cap - 1), fcm.trees[0].stages[0])
