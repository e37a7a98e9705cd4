"""Unit tests for the join-size estimators: F-AGMS, JoinSketch, Skimmed."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.sketches import FastAGMS, JoinSketch, SkimmedSketch


def correlated_streams(seed=3, keys=200, items=3000, skew=1.2):
    rng = random.Random(seed)
    population = list(range(1, keys + 1))
    weights = [1 / (k**skew) for k in population]
    left = rng.choices(population, weights=weights, k=items)
    right = rng.choices(population, weights=weights, k=items)
    return left, right


def exact_join(left, right):
    from collections import Counter

    freq_left, freq_right = Counter(left), Counter(right)
    return sum(count * freq_right[key] for key, count in freq_left.items())


class TestFastAGMS:
    def test_join_estimate_close(self):
        left, right = correlated_streams()
        a = FastAGMS.from_memory(8 * 1024, seed=1)
        b = FastAGMS.from_memory(8 * 1024, seed=1)
        a.insert_all(left)
        b.insert_all(right)
        true = exact_join(left, right)
        assert a.inner_product(b) == pytest.approx(true, rel=0.1)

    def test_disjoint_near_zero(self):
        a = FastAGMS.from_memory(8 * 1024, seed=1)
        b = FastAGMS.from_memory(8 * 1024, seed=1)
        a.insert_all(range(100))
        b.insert_all(range(1000, 1100))
        true_magnitude = 100  # ‖f‖·‖g‖/√w scale noise bound
        assert abs(a.inner_product(b)) < true_magnitude

    def test_point_query(self):
        agms = FastAGMS.from_memory(8 * 1024, seed=2)
        agms.insert(5, 30)
        assert agms.query(5) == 30


class TestJoinSketch:
    def test_heavy_keys_exact(self):
        a = JoinSketch.from_memory(8 * 1024, seed=1)
        b = JoinSketch.from_memory(8 * 1024, seed=1)
        a.insert_all([1] * 500 + [2] * 100)
        b.insert_all([1] * 300 + [2] * 50)
        true = 500 * 300 + 100 * 50
        assert a.inner_product(b) == pytest.approx(true, rel=0.02)

    def test_skewed_join(self):
        left, right = correlated_streams(seed=9)
        a = JoinSketch.from_memory(8 * 1024, seed=2)
        b = JoinSketch.from_memory(8 * 1024, seed=2)
        a.insert_all(left)
        b.insert_all(right)
        assert a.inner_product(b) == pytest.approx(
            exact_join(left, right), rel=0.1
        )

    def test_query_combines_parts(self):
        sketch = JoinSketch.from_memory(8 * 1024, seed=3)
        sketch.insert_all([7] * 40)
        assert sketch.query(7) == pytest.approx(40, abs=2)

    def test_mismatched_configs_rejected(self):
        a = JoinSketch.from_memory(8 * 1024, seed=1)
        b = JoinSketch.from_memory(4 * 1024, seed=1)
        with pytest.raises(ValueError):
            a.inner_product(b)

    @pytest.mark.parametrize("key", [2**63, 2**64 - 1])
    def test_key_outside_int64_leaves_the_sketch_unchanged(self, key):
        sketch = JoinSketch(fp_buckets=1, fp_entries=2, rows=3, width=16)
        sketch.insert_all([1] * 50 + [2] * 40 + [3] * 5)  # a full bucket

        def snapshot():
            return (
                sketch.insertions,
                sketch.memory_accesses,
                sketch.frequent.bucket_states(),
                [list(row) for row in sketch.residual.counters],
            )

        before = snapshot()
        with pytest.raises(ConfigurationError, match="int64"):
            sketch.insert(key)
        assert snapshot() == before


class TestSkimmedSketch:
    def test_skew_join(self):
        left, right = correlated_streams(seed=4)
        a = SkimmedSketch.from_memory(8 * 1024, seed=2)
        b = SkimmedSketch.from_memory(8 * 1024, seed=2)
        a.insert_all(left)
        b.insert_all(right)
        assert a.inner_product(b) == pytest.approx(
            exact_join(left, right), rel=0.2
        )

    def test_skim_removes_heavy_mass(self):
        sketch = SkimmedSketch.from_memory(8 * 1024, seed=5)
        sketch.insert_all([1] * 1000 + list(range(10, 60)))
        heavy, residual = sketch._skim()
        assert 1 in heavy
        # after skimming, the residual's estimate of key 1 is near zero
        assert abs(residual.query(1)) < 100

    def test_shape_mismatch_rejected(self):
        a = SkimmedSketch.from_memory(8 * 1024, seed=1)
        b = SkimmedSketch.from_memory(2 * 1024, seed=1)
        with pytest.raises(ValueError):
            a.inner_product(b)

    def test_point_query(self):
        sketch = SkimmedSketch.from_memory(8 * 1024, seed=6)
        sketch.insert(3, 17)
        assert sketch.query(3) == 17
