"""Property-based tests for baseline-sketch invariants."""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketches import (
    CountMinSketch,
    CUSketch,
    FermatSketch,
    FlowRadar,
    LossRadar,
    TowerSketch,
)

def peelable(cell_sets):
    """Whether peeling the hypergraph of ``cell_sets`` removes every
    edge, i.e. it has no 2-core: some cell of each round's remaining
    edges belongs to that edge alone."""
    remaining = [set(cells) for cells in cell_sets]
    while remaining:
        degree = Counter(cell for cells in remaining for cell in cells)
        rest = [cells for cells in remaining if all(degree[c] > 1 for c in cells)]
        if len(rest) == len(remaining):
            return False
        remaining = rest
    return True


small_keys = st.integers(min_value=1, max_value=60)
streams = st.lists(small_keys, min_size=0, max_size=200)


class TestOverestimationInvariants:
    @given(stream=streams)
    @settings(max_examples=50, deadline=None)
    def test_cm_never_underestimates(self, stream):
        sketch = CountMinSketch(rows=3, width=32, seed=1)
        sketch.insert_all(stream)
        truth = Counter(stream)
        for key, count in truth.items():
            assert sketch.query(key) >= count

    @given(stream=streams)
    @settings(max_examples=50, deadline=None)
    def test_cu_never_underestimates_and_dominates_cm(self, stream):
        cm = CountMinSketch(rows=3, width=32, seed=1)
        cu = CUSketch(rows=3, width=32, seed=1)
        cm.insert_all(stream)
        cu.insert_all(stream)
        truth = Counter(stream)
        for key, count in truth.items():
            assert count <= cu.query(key) <= cm.query(key)

    @given(stream=streams)
    @settings(max_examples=50, deadline=None)
    def test_tower_never_underestimates_below_saturation(self, stream):
        tower = TowerSketch((64, 16), (8, 16), seed=2)
        tower.insert_all(stream)
        truth = Counter(stream)
        for key, count in truth.items():
            if count < 255:
                assert tower.query(key) >= count


class TestInvertibleRoundtrips:
    @given(
        counts=st.dictionaries(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=100),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fermat_roundtrip(self, counts):
        sketch = FermatSketch(rows=3, width=128, seed=3)
        for key, count in counts.items():
            sketch.insert(key, count)
        assert sketch.decode() == counts

    @given(
        counts=st.dictionaries(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=100),
            max_size=20,
        )
    )
    # all three hashes of 10365 hit one cell of a flat 128-cell table
    @example({10365: 1})
    # 8438 and 19698 map to the same three cells: no peel separates them
    @example({8438: 1, 19698: 1})
    @settings(max_examples=50, deadline=None)
    def test_lossradar_roundtrip(self, counts):
        """Every decoded count is exact; decode is complete unless two
        keys share a cell set, which stalls any peel."""
        sketch = LossRadar(cells=128, seed=4)
        for key, count in counts.items():
            sketch.insert(key, count)
        decoded = sketch.decode()
        assert all(counts.get(key) == count for key, count in decoded.items())
        cell_sets = {frozenset(sketch._cells_of(key)) for key in counts}
        if len(cell_sets) == len(counts):
            assert decoded == counts

    @given(
        counts=st.dictionaries(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=100),
            max_size=20,
        )
    )
    # all three hashes of 22641 hit one cell of a flat 128-cell table,
    # where the odd XOR count leaves a cell that never reads as pure
    @example({22641: 3})
    # 44 and 5469 map to the same cells (37, 47, 86): no cell is pure
    @example({44: 1, 5469: 1})
    @settings(max_examples=50, deadline=None)
    def test_flowradar_roundtrip(self, counts):
        """Every decoded count is exact; decode is complete unless the
        keys' cell sets leave a 2-core, where any peel stalls."""
        # 4096 filter bits keep Bloom false positives (a new flow taken
        # for a seen one) out of reach for 20 flows
        sketch = FlowRadar(cells=128, filter_bits=4096, seed=4)
        for key, count in counts.items():
            sketch.insert(key, count)
        decoded = sketch.decode()
        assert all(counts.get(key) == count for key, count in decoded.items())
        if peelable([sketch._cells_of(key) for key in counts]):
            assert decoded == counts

    @given(
        shared=st.dictionaries(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=50),
            max_size=15,
        ),
        extra=st.dictionaries(
            st.integers(min_value=10**7, max_value=2 * 10**7),
            st.integers(min_value=1, max_value=50),
            max_size=10,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_fermat_difference_cancels_shared_mass(self, shared, extra):
        a = FermatSketch(rows=3, width=128, seed=5)
        b = FermatSketch(rows=3, width=128, seed=5)
        for key, count in shared.items():
            a.insert(key, count)
            b.insert(key, count)
        for key, count in extra.items():
            a.insert(key, count)
        assert a.subtract(b).decode() == extra

    @given(
        counts=st.dictionaries(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=50),
            max_size=15,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_fermat_merge_doubles_self(self, counts):
        a = FermatSketch(rows=3, width=128, seed=6)
        for key, count in counts.items():
            a.insert(key, count)
        doubled = a.merge(a).decode()
        assert doubled == {key: 2 * count for key, count in counts.items()}
