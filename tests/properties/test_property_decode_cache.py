"""Algorithm 5's decode cache never answers for a sketch that has changed.

DaVinci and the invertible baselines cache their peeled decode until the
next mutation.  After each insert (per item or bulk) and after a merge,
``decode()`` and ``query()`` of a sketch that decoded before the step
must equal those of a cold copy, which never decoded: a wire round trip
for DaVinci, and for a baseline a fresh instance fed the same steps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.serialization import from_wire, to_wire
from repro.sketches import FermatSketch, FlowRadar, LossRadar

#: two four-entry FP buckets: most keys go through the EF into the IFP
TINY = DaVinciConfig(
    fp_buckets=2,
    fp_entries=4,
    ef_level_widths=(64, 16),
    ef_level_bits=(4, 8),
    ifp_rows=3,
    ifp_width=32,
    filter_threshold=10,
    seed=5,
)
#: name -> (an empty sketch, its merge method)
KINDS = {
    "davinci": (lambda: DaVinciSketch(TINY), "union"),
    "fermat": (lambda: FermatSketch(rows=3, width=64, seed=3), "merge"),
    "flowradar": (lambda: FlowRadar(cells=128, filter_bits=4096, seed=4), "merge"),
    "lossradar": (lambda: LossRadar(cells=128, seed=4), "merge"),
}
#: (key, count, bulk): a bulk step goes through ``insert_all``
steps = st.lists(
    st.tuples(st.integers(1, 40), st.integers(1, 30), st.booleans()),
    min_size=1,
    max_size=10,
)


def _step(sketch, key, count, bulk):
    if bulk:
        sketch.insert_all([key] * count)
    else:
        sketch.insert(key, count)


def _fed(kind, done):
    sketch = KINDS[kind][0]()
    for step in done:
        _step(sketch, *step)
    return sketch


def _cold(kind, warm, rebuild):
    """A copy of ``warm`` that never decoded."""
    return from_wire(to_wire(warm)) if kind == "davinci" else rebuild()


def _assert_answers_like(warm, cold, keys):
    if isinstance(warm, DaVinciSketch):
        assert warm.decode_counts() == cold.decode_counts()
    else:
        assert warm.decode() == cold.decode()
    for key in sorted(keys) + [41]:
        assert warm.query(key) == cold.query(key), key


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(done=steps, other=steps)
@settings(max_examples=25, deadline=None)
def test_answers_after_each_step_match_a_cold_copy(kind, done, other):
    make, merge = KINDS[kind]
    keys = {key for key, _count, _bulk in done + other}
    warm = make()
    for taken, step in enumerate(done, 1):
        _step(warm, *step)
        cold = _cold(kind, warm, lambda: _fed(kind, done[:taken]))
        _assert_answers_like(warm, cold, keys)
    merged = getattr(warm, merge)(_fed(kind, other))
    cold = _cold(
        kind, merged, lambda: getattr(_fed(kind, done), merge)(_fed(kind, other))
    )
    _assert_answers_like(merged, cold, keys)
