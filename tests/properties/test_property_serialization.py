"""Property-based tests for sketch serialization: lossless round trips."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DaVinciConfig, DaVinciSketch, from_state, setops, to_state
from repro.core.serialization import DIGEST_ALGOS, from_wire, to_wire

streams = st.lists(
    st.integers(min_value=1, max_value=200), min_size=0, max_size=400
)


def make_sketch(seed: int = 5) -> DaVinciSketch:
    config = DaVinciConfig(
        fp_buckets=8,
        fp_entries=4,
        ef_level_widths=(128, 32),
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=32,
        filter_threshold=10,
        seed=seed,
    )
    return DaVinciSketch(config)


class TestSerializationProperties:
    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_queries_identical_after_roundtrip(self, stream):
        sketch = make_sketch()
        sketch.insert_all(stream)
        twin = from_state(json.loads(json.dumps(to_state(sketch))))
        for key in set(stream) | {9999}:
            assert twin.query(key) == sketch.query(key)

    @given(stream=streams)
    @settings(max_examples=30, deadline=None)
    def test_state_is_json_stable(self, stream):
        """Serializing the deserialized sketch reproduces the same state."""
        sketch = make_sketch()
        sketch.insert_all(stream)
        once = to_state(sketch)
        twice = to_state(from_state(once))
        assert json.dumps(once, sort_keys=True) == json.dumps(
            twice, sort_keys=True
        )

    @given(left=streams, right=streams)
    @settings(max_examples=25, deadline=None)
    def test_setops_commute_with_serialization(self, left, right):
        """union(deser(a), deser(b)) answers like union(a, b)."""
        a, b = make_sketch(), make_sketch()
        a.insert_all(left)
        b.insert_all(right)
        direct = a.union(b)
        via_wire = from_state(to_state(a)).union(from_state(to_state(b)))
        for key in (set(left) | set(right)) or {1}:
            assert via_wire.query(key) == direct.query(key)


class TestWireRoundtrip:
    @example(left=[key for key in range(1, 100) for _ in range(12)], right=[])
    @given(
        left=st.lists(st.integers(min_value=1, max_value=5000), max_size=400),
        right=st.lists(st.integers(min_value=1, max_value=5000), max_size=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_wire_v3_and_v2_blobs_restore_the_state(self, left, right):
        """A plain, a union, a signed (difference), a chained difference
        and an empty sketch survive a v3 round trip under both digests;
        their v2 JSON blob loads the same."""
        a, b = make_sketch(), make_sketch()
        a.insert_all(left)
        b.insert_all(right)
        # a chained difference takes element-filter counters past -cap
        chained = setops.difference(setops.difference(make_sketch(), a), a)
        sketches = (a, setops.union(a, b), setops.difference(a, b), chained)
        for sketch in (*sketches, make_sketch()):
            state = sketch.to_state()
            for algo in DIGEST_ALGOS:
                assert from_wire(to_wire(sketch, algo)).to_state() == state
                v2_blob = json.dumps(to_state(sketch, algo)).encode("utf-8")
                assert from_wire(v2_blob).to_state() == state
