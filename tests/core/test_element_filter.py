"""Unit tests for the element filter (TowerSketch + promotion threshold)."""

import random

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.element_filter import ElementFilter
from tests.substrate_contracts import (
    TowerConstructionContract,
    TowerCounterContract,
    TowerMemoryContract,
)


class _Filter:
    def make(self, level_widths, level_bits):
        return ElementFilter(level_widths, level_bits, threshold=3, seed=3)


@pytest.fixture
def filter_() -> ElementFilter:
    return ElementFilter(
        level_widths=(128, 32), level_bits=(4, 8), threshold=10, seed=3
    )


class TestConstruction(_Filter, TowerConstructionContract):
    def test_threshold_must_fit(self):
        with pytest.raises(ConfigurationError):
            ElementFilter((8,), (4,), threshold=15)


class TestAddAndQuery(_Filter, TowerCounterContract):
    def test_query_of_absent_key_without_collision(self, filter_):
        filter_.add(5, 7)
        # Most other keys map elsewhere; find one reading zero.
        zeros = [k for k in range(100, 200) if filter_.query(k) == 0]
        assert zeros


class TestOffer:
    def test_below_threshold_fully_absorbed(self, filter_):
        assert filter_.offer(1, 4) == 0
        assert filter_.query(1) == 4

    def test_crossing_threshold_overflows_excess(self, filter_):
        assert filter_.offer(1, 25) == 15  # keeps T=10, overflows 15
        assert filter_.query(1) == 10

    def test_already_promoted_overflows_everything(self, filter_):
        filter_.offer(1, 25)
        assert filter_.offer(1, 7) == 7
        assert filter_.query(1) == 10

    def test_incremental_promotion(self, filter_):
        total_overflow = 0
        for _ in range(30):
            total_overflow += filter_.offer(2, 1)
        assert filter_.query(2) == 10
        assert total_overflow == 20

    def test_is_promoted(self, filter_):
        assert not filter_.is_promoted(3)
        filter_.offer(3, 50)
        assert filter_.is_promoted(3)


class TestBatchForms:
    """``add_batch`` and ``query_many`` equal ``add`` and ``query`` /
    ``query_signed`` key for key."""

    def test_add_batch_saturates_like_add(self):
        rng = random.Random(4)
        batched, per_item = (ElementFilter((16, 4), (4, 8), 10, seed=3) for _ in "ab")
        keys = [rng.randrange(1, 2**32) for _ in range(300)]
        counts = [rng.randrange(0, 12) for _ in keys]
        batched.add_batch(np.array(keys), np.array(counts))
        for key, count in zip(keys, counts):
            per_item.add(key, count)
        assert batched.levels == per_item.levels
        assert batched.levels[0].count(15) > 0  # some counters saturated

    @pytest.mark.parametrize("seed", range(5))
    def test_query_many_on_signed_counters_with_ties(self, seed):
        # counters in a narrow signed band, so levels often tie in
        # magnitude with opposite signs and some pass their cap
        rng = random.Random(seed)
        ef = ElementFilter((8, 4, 2), (2, 4, 8), threshold=2, seed=seed)
        for level in ef.levels:
            for j in range(len(level)):
                level[j] = rng.randrange(-5, 6)
        keys = list(range(1, 200))
        array = np.array(keys)
        assert ef.query_many(array).tolist() == [ef.query(k) for k in keys]
        signed = ef.query_many(array, signed=True).tolist()
        assert signed == [ef.query_signed(k) for k in keys]


class TestLinearity:
    def test_merged_adds_counters(self, filter_):
        other = filter_.empty_like()
        filter_.add(1, 3)
        other.add(1, 4)
        merged = filter_.merged(other)
        assert merged.query(1) == 7

    def test_merged_saturates(self):
        a = ElementFilter((16,), (4,), threshold=10, seed=1)
        b = a.empty_like()
        a.add(1, 12)
        b.add(1, 12)
        assert a.merged(b).query(1) == 15

    def test_subtracted_gives_signed_deltas(self, filter_):
        other = filter_.empty_like()
        filter_.add(1, 3)
        other.add(1, 8)
        delta = filter_.subtracted(other)
        assert delta.query_signed(1) == -5

    def test_merge_leaves_inputs_untouched(self, filter_):
        other = filter_.empty_like()
        filter_.add(1, 3)
        other.add(1, 4)
        filter_.merged(other)
        assert filter_.query(1) == 3
        assert other.query(1) == 4


class TestIntrospection(_Filter, TowerMemoryContract):
    def test_empty_like_same_hashing(self, filter_):
        clone = filter_.empty_like()
        for key in range(1, 50):
            filter_.add(key, key % 7 + 1)
            clone.add(key, key % 7 + 1)
        assert clone.levels == filter_.levels
        assert clone.query(42) == filter_.query(42)
