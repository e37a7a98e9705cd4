"""Unit tests for the extension baselines: HyperLogLog, HeavyKeeper,
MV-Sketch (related-work algorithms added beyond the paper's evaluated set).
"""

import random

import pytest

from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.sketches import HeavyKeeper, HyperLogLog, MVSketch


def skewed(seed=1, keys=800, items=15000, skew=1.2):
    rng = random.Random(seed)
    population = list(range(1, keys + 1))
    weights = [1 / (k**skew) for k in population]
    return rng.choices(population, weights=weights, k=items)


class TestHyperLogLog:
    def test_accuracy(self):
        hll = HyperLogLog(precision=12, seed=1)
        hll.insert_all(range(1, 50_001))
        assert hll.cardinality() == pytest.approx(50_000, rel=0.05)

    def test_small_range_correction(self):
        hll = HyperLogLog(precision=12, seed=1)
        hll.insert_all(range(1, 101))
        assert hll.cardinality() == pytest.approx(100, rel=0.1)

    def test_duplicates_free(self):
        hll = HyperLogLog(precision=10, seed=2)
        hll.insert_all([7] * 10_000)
        assert hll.cardinality() == pytest.approx(1, abs=1)

    def test_merge_is_union(self):
        a = HyperLogLog(precision=10, seed=3)
        b = HyperLogLog(precision=10, seed=3)
        a.insert_all(range(1, 2001))
        b.insert_all(range(1001, 3001))
        assert a.merge(b).cardinality() == pytest.approx(3000, rel=0.1)

    def test_merge_rejects_mismatch(self):
        with pytest.raises(IncompatibleSketchError):
            HyperLogLog(10, seed=1).merge(HyperLogLog(11, seed=1))

    def test_precision_bounds(self):
        with pytest.raises(ConfigurationError):
            HyperLogLog(precision=3)
        with pytest.raises(ConfigurationError):
            HyperLogLog(precision=19)

    def test_from_memory(self):
        hll = HyperLogLog.from_memory(3072)  # 3 KB → 4096 registers (6 bits)
        assert hll.num_registers == 4096
        assert hll.memory_bytes() == 3072


class TestHeavyKeeper:
    def test_elephant_counted_accurately(self):
        keeper = HeavyKeeper(rows=2, width=512, heap_size=16, seed=1)
        keeper.insert_all([9] * 1000 + list(range(100, 400)))
        assert keeper.query(9) == pytest.approx(1000, rel=0.02)

    def test_mice_decay_out(self):
        keeper = HeavyKeeper(rows=2, width=8, heap_size=8, seed=2)
        keeper.insert_all(list(range(1, 200)))  # 199 mice through 16 slots
        survivors = sum(1 for key in range(1, 200) if keeper.query(key) > 0)
        assert survivors <= 16

    def test_heavy_hitters_f1(self):
        stream = skewed(seed=4)
        truth = {}
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
        keeper = HeavyKeeper.from_memory(4096, seed=5)
        keeper.insert_all(stream)
        correct = {key for key, value in truth.items() if value >= 100}
        reported = set(keeper.heavy_hitters(100))
        assert len(reported & correct) / len(correct) > 0.8

    def test_top_k(self):
        keeper = HeavyKeeper(rows=2, width=256, heap_size=16, seed=6)
        keeper.insert_all([1] * 300 + [2] * 200 + [3] * 100 + list(range(50, 90)))
        top = keeper.top_k(2)
        assert [key for key, _ in top] == [1, 2]

    def test_memory_budget(self):
        keeper = HeavyKeeper.from_memory(8 * 1024)
        assert keeper.memory_bytes() <= 8 * 1024 * 1.01


class TestMVSketch:
    def test_single_heavy_flow(self):
        sketch = MVSketch(rows=2, width=128, seed=1)
        sketch.insert_all([5] * 200)
        assert sketch.query(5) == 200

    def test_never_underestimates_majority_key(self):
        sketch = MVSketch(rows=2, width=32, seed=2)
        stream = skewed(seed=7, keys=200, items=5000)
        truth = {}
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
        sketch.insert_all(stream)
        top = sorted(truth, key=truth.get, reverse=True)[:5]
        for key in top:
            assert sketch.query(key) >= truth[key] * 0.8

    def test_heavy_hitters(self):
        stream = skewed(seed=8)
        truth = {}
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
        sketch = MVSketch.from_memory(4096, seed=9)
        sketch.insert_all(stream)
        correct = {key for key, value in truth.items() if value >= 100}
        reported = set(sketch.heavy_hitters(100))
        assert len(reported & correct) / len(correct) > 0.8

    def test_subtract_for_heavy_changers(self):
        a = MVSketch(rows=2, width=128, seed=3)
        b = MVSketch(rows=2, width=128, seed=3)
        a.insert_all([1] * 500 + [2] * 100)
        b.insert_all([1] * 100 + [2] * 100)
        delta = a.subtract(b)
        assert delta.query(1) == pytest.approx(400, abs=20)
        changed = delta.heavy_hitters(200)
        assert 1 in changed and 2 not in changed

    def test_memory_model(self):
        sketch = MVSketch(rows=2, width=100)
        assert sketch.memory_bytes() == 2 * 100 * 12
