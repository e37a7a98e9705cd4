"""Unit tests for TowerSketch and Elastic Sketch."""

import pytest

from repro.sketches import ElasticSketch, TowerSketch
from tests.substrate_contracts import (
    TowerConstructionContract,
    TowerCounterContract,
    TowerMemoryContract,
)


class TestTowerSketch(
    TowerConstructionContract, TowerCounterContract, TowerMemoryContract
):
    def make(self, level_widths, level_bits):
        return TowerSketch(level_widths, level_bits, seed=3)

    def test_exact_small_values(self):
        tower = TowerSketch((512, 128), (4, 8), seed=1)
        tower.insert(5, 7)
        assert tower.query(5) == 7
        assert tower.insertions == 1
        assert tower.memory_accesses == tower.num_levels

    def test_large_value_falls_through_to_big_counters(self):
        tower = TowerSketch((512, 128), (4, 16), seed=1)
        tower.insert(5, 1000)
        assert tower.query(5) == 1000

    def test_never_underestimates_below_saturation(self):
        tower = TowerSketch((64, 16), (8, 16), seed=2)
        truth = {}
        for key in range(150):
            tower.insert(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert tower.query(key) >= count

    def test_from_memory_ratio(self):
        tower = TowerSketch.from_memory(8 * 1024)
        assert tower.memory_bytes() <= 8 * 1024 * 1.01
        assert tower.level_widths[0] > tower.level_widths[1]

    def test_counter_arrays_view_the_levels(self):
        tower = TowerSketch((64, 16), (8, 16), seed=2)
        views = tower.counter_arrays()
        views[0][3] = 9
        assert tower.levels[0][3] == 9
        tower.add(7, 2)
        assert [view.tolist() for view in views] == [
            list(level) for level in tower.levels
        ]


class TestElasticInsertQuery:
    def test_heavy_flow_stays_in_heavy_part(self):
        elastic = ElasticSketch(heavy_buckets=64, light_width=256, seed=1)
        elastic.insert_all([7] * 100)
        assert elastic.query(7) == 100

    def test_eviction_moves_mouse_to_light(self):
        elastic = ElasticSketch(heavy_buckets=1, light_width=256, lambda_evict=2, seed=1)
        elastic.insert(1)  # resident with 1 packet
        for _ in range(5):
            elastic.insert(2)  # contender: negative votes mount, evicts 1
        assert elastic.query(1) >= 1
        assert elastic.query(2) >= 1

    def test_estimates_never_below_light_query(self):
        elastic = ElasticSketch.from_memory(4 * 1024, seed=3)
        stream = [key % 300 for key in range(5000)]
        elastic.insert_all(stream)
        for key in range(0, 300, 17):
            assert elastic.query(key) >= 1


class TestElasticTasks:
    @pytest.fixture
    def loaded(self):
        elastic = ElasticSketch.from_memory(8 * 1024, seed=2)
        stream = [key for key in range(200) for _ in range(key % 9 + 1)]
        elastic.insert_all(stream)
        return elastic, stream

    def test_heavy_hitters(self, loaded):
        elastic, _stream = loaded
        heavy = elastic.heavy_hitters(8)
        assert heavy
        assert all(estimate >= 8 for estimate in heavy.values())

    def test_cardinality(self, loaded):
        elastic, stream = loaded
        distinct = len(set(stream))
        assert elastic.cardinality() == pytest.approx(distinct, rel=0.15)

    def test_distribution_and_entropy(self, loaded):
        import math

        elastic, stream = loaded
        histogram = elastic.distribution()
        assert histogram
        entropy = elastic.entropy(len(stream))
        truth = {}
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
        total = len(stream)
        true_entropy = -sum(
            (v / total) * math.log(v / total) for v in truth.values()
        )
        assert entropy == pytest.approx(true_entropy, rel=0.3)


class TestElasticMerge:
    def test_merge_adds_counts(self):
        a = ElasticSketch(heavy_buckets=32, light_width=128, seed=5)
        b = ElasticSketch(heavy_buckets=32, light_width=128, seed=5)
        a.insert_all([1] * 10 + [2] * 3)
        b.insert_all([1] * 5 + [3] * 4)
        merged = a.merge(b)
        assert merged.query(1) == pytest.approx(15, abs=2)
        assert merged.query(3) == pytest.approx(4, abs=2)

    def test_memory_model(self):
        elastic = ElasticSketch(heavy_buckets=10, light_width=100, seed=1)
        assert elastic.memory_bytes() == pytest.approx(
            10 * ElasticSketch.HEAVY_BUCKET_BYTES + 100
        )
