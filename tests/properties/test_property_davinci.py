"""Property-based tests for DaVinci Sketch invariants.

These encode the structural guarantees the paper's design rests on:
mass conservation across the three parts, exactness on small inputs,
linearity of the set operations, and the antisymmetry of differences.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DaVinciConfig, DaVinciSketch

small_keys = st.integers(min_value=1, max_value=50)
streams = st.lists(small_keys, min_size=0, max_size=300)


def make_config(seed: int = 3) -> DaVinciConfig:
    return DaVinciConfig(
        fp_buckets=8,
        fp_entries=4,
        ef_level_widths=(128, 32),
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=32,
        filter_threshold=10,
        seed=seed,
    )


class TestConservation:
    @given(stream=streams)
    @settings(max_examples=60, deadline=None)
    def test_total_count_conserved(self, stream):
        sketch = DaVinciSketch(make_config())
        sketch.insert_all(stream)
        assert sketch.total_count == len(stream)

    @given(stream=streams)
    @settings(max_examples=60, deadline=None)
    def test_mass_conserved_across_parts(self, stream):
        """FP counts + EF level counters + IFP mass == stream length.

        The element filter records each demoted unit at level 0 exactly
        once below saturation; we verify the weaker but exact invariant
        that FP mass plus all *encoded* lower mass equals the stream size.
        """
        sketch = DaVinciSketch(make_config())
        sketch.insert_all(stream)
        fp_mass = sum(count for _key, count in sketch.fp.items())
        decoded = sketch.ifp.decode()
        ifp_mass = sum(decoded.counts.values()) if decoded.complete else None
        if ifp_mass is None:
            return  # undecodable IFP: invariant not checkable this run
        # level-0 may saturate; use the top (widest-counter) level instead
        top = sketch.ef.levels[-1]
        cap = sketch.ef.level_caps[-1]
        if any(value >= cap for value in top):
            return
        ef_mass = sum(top)
        assert fp_mass + ef_mass + ifp_mass == len(stream)


class TestExactnessOnTinyInputs:
    @given(stream=st.lists(small_keys, min_size=0, max_size=24))
    @settings(max_examples=80, deadline=None)
    def test_small_streams_are_exact(self, stream):
        """With fewer distinct keys than FP capacity, queries are exact."""
        sketch = DaVinciSketch(make_config())
        sketch.insert_all(stream)
        truth = Counter(stream)
        if len(sketch.fp) + 0 < sketch.fp.capacity and not any(
            sketch.fp.flagged_items()
        ):
            for key, count in truth.items():
                assert sketch.query(key) == count

    @given(stream=streams)
    @settings(max_examples=60, deadline=None)
    def test_queries_are_non_negative(self, stream):
        sketch = DaVinciSketch(make_config())
        sketch.insert_all(stream)
        for key in set(stream) | {999}:
            assert sketch.query(key) >= 0


class TestSetOperationProperties:
    @given(left=streams, right=streams)
    @settings(max_examples=40, deadline=None)
    def test_union_total(self, left, right):
        a, b = DaVinciSketch(make_config()), DaVinciSketch(make_config())
        a.insert_all(left)
        b.insert_all(right)
        assert a.union(b).total_count == len(left) + len(right)

    @given(left=streams, right=streams)
    @settings(max_examples=40, deadline=None)
    def test_difference_antisymmetry_on_totals(self, left, right):
        a, b = DaVinciSketch(make_config()), DaVinciSketch(make_config())
        a.insert_all(left)
        b.insert_all(right)
        assert a.difference(b).total_count == -b.difference(a).total_count

    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_self_difference_is_zero(self, stream):
        a, b = DaVinciSketch(make_config()), DaVinciSketch(make_config())
        a.insert_all(stream)
        b.insert_all(stream)
        delta = a.difference(b)
        for key in set(stream):
            assert delta.query(key) == 0

    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_union_with_empty_preserves_queries(self, stream):
        a, b = DaVinciSketch(make_config()), DaVinciSketch(make_config())
        a.insert_all(stream)
        merged = a.union(b)
        truth = Counter(stream)
        for key, count in truth.items():
            # additive union query may differ from Alg-4 by collision noise
            # only; on the empty union it must not lose mass
            assert merged.query(key) >= min(count, 1)


class TestCanonicalization:
    @given(key=st.one_of(st.integers(), st.text(max_size=20), st.binary(max_size=20)))
    @settings(max_examples=80, deadline=None)
    def test_any_key_type_insertable_and_queryable(self, key):
        sketch = DaVinciSketch(make_config())
        sketch.insert(key)
        assert sketch.query(key) >= 1

    @given(key=st.integers())
    def test_canonical_key_in_domain(self, key):
        sketch = DaVinciSketch(make_config())
        canon = sketch.canonical_key(key)
        assert 1 <= canon < sketch.ifp.max_key
