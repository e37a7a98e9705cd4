"""Behaviour the DaVinci parts share with the baselines they are built on.

``InfrequentPart`` and ``FermatSketch`` are both counting Fermat sketches
over one ``CountingFermat`` core; ``ElementFilter`` is a ``TowerSketch``.
Each contract class below states one shared behaviour once; a test class
inherits it and names the concrete class, so the same checks run against
both implementations.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.primes import DEFAULT_PRIME


class _FermatFactory:
    """Builds and reads one counting Fermat class (set ``cls``)."""

    cls: type

    def make(self, width=64, seed=5):
        return self.cls(rows=3, width=width, seed=seed)

    @staticmethod
    def decoded(sketch):
        """``{key: count}`` from either decode (dict or ``DecodeResult``)."""
        result = sketch.decode()
        return getattr(result, "counts", result)


class FermatDecodeContract(_FermatFactory):
    """Encode and peel (Algorithms 2 and 5)."""

    def test_many_elements_roundtrip_under_low_load(self):
        sketch = self.make()
        truth = {key: key % 5 + 1 for key in range(1000, 1040)}
        for key, count in truth.items():
            sketch.insert(key, count)
        assert self.decoded(sketch) == truth

    def test_repeated_inserts_accumulate(self):
        sketch = self.make()
        sketch.insert(99, 3)
        sketch.insert(99, 4)
        assert self.decoded(sketch) == {99: 7}

    def test_decode_is_non_destructive(self):
        sketch = self.make()
        sketch.insert(7, 2)
        before = sketch.ids.tolist(), sketch.counts.tolist()
        assert self.decoded(sketch) == self.decoded(sketch) == {7: 2}
        assert (sketch.ids.tolist(), sketch.counts.tolist()) == before
        assert sketch.nonzero_buckets() == 3

    def test_out_of_domain_keys_rejected(self):
        sketch = self.make()
        for key in (0, sketch.max_key, 1 << 40):
            with pytest.raises(ConfigurationError):
                sketch.insert(key, 3)

    def test_rejected_insert_changes_nothing(self):
        sketch = self.make()
        sketch.insert(11, 2)
        decoded = self.decoded(sketch)
        before = (
            sketch.ids.tolist(),
            sketch.counts.tolist(),
            getattr(sketch, "insertions", None),
            getattr(sketch, "memory_accesses", None),
        )
        with pytest.raises(ConfigurationError):
            sketch.insert(0, 5)
        after = (
            sketch.ids.tolist(),
            sketch.counts.tolist(),
            getattr(sketch, "insertions", None),
            getattr(sketch, "memory_accesses", None),
        )
        assert after == before
        assert self.decoded(sketch) == decoded

    def test_count_multiple_of_prime_is_not_decodable(self):
        # icnt ≡ 0 (mod p) has no inverse: the bucket stays undecoded
        # instead of the decode raising out of the modular inverse.
        sketch = self.make()
        sketch.insert(5, DEFAULT_PRIME)
        assert self.decoded(sketch) == {}
        sketch.insert(9, 4)
        assert self.decoded(sketch) == {9: 4}


class FermatLinearityContract(_FermatFactory):
    """Bucket-wise union and difference."""

    def test_merged_is_multiset_sum(self):
        a, b = self.make(), self.make()
        a.insert(1, 2)
        b.insert(1, 3)
        b.insert(2, 5)
        assert self.decoded(a.merged(b)) == {1: 5, 2: 5}

    def test_subtracted_gives_signed_difference(self):
        a, b = self.make(), self.make()
        a.insert(1, 2)
        a.insert(3, 9)
        b.insert(1, 6)
        b.insert(3, 9)  # cancels entirely
        assert self.decoded(a.subtracted(b)) == {1: -4}

    def test_merge_preserves_inputs(self):
        a, b = self.make(), self.make()
        a.insert(1, 2)
        b.insert(2, 3)
        a.merged(b)
        assert self.decoded(a) == {1: 2}
        assert self.decoded(b) == {2: 3}


class _TowerFactory:
    """Builds one tower class (override ``make``)."""

    def make(self, level_widths, level_bits):
        raise NotImplementedError


class TowerConstructionContract(_TowerFactory):
    def test_caps_derived_from_bits(self):
        assert self.make((128, 32), (4, 8)).level_caps == (15, 255)

    def test_mismatched_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make((8, 8), (4,))


class TowerCounterContract(_TowerFactory):
    """Saturating CM-style update, min over unsaturated counters."""

    def test_single_element_exact_below_cap(self):
        tower = self.make((128, 32), (4, 8))
        tower.add(5, 7)
        assert tower.query(5) == 7

    def test_min_combining_ignores_saturated_levels(self):
        tower = self.make((128, 32), (4, 8))
        tower.add(5, 100)  # level 0 saturates at 15; level 1 holds 100
        assert tower.query(5) == 100

    def test_all_levels_saturated_returns_max_cap(self):
        tower = self.make((4,), (4,))
        tower.add(1, 500)
        assert tower.query(1) == 15

    def test_saturated_counters_stay_saturated(self):
        tower = self.make((128, 32), (4, 8))
        tower.add(5, 300)
        tower.add(5, 10)
        assert tower.query(5) == 255  # level-1 saturated too
        assert max(tower.levels[1]) == 255


class TowerMemoryContract(_TowerFactory):
    def test_memory_bytes(self):
        tower = self.make((128, 32), (4, 8))
        assert tower.memory_bytes() == 128 * 0.5 + 32 * 1.0
