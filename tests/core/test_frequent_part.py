"""Unit tests for the frequent part (Algorithm 1)."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.frequent_part import FrequentPart


@pytest.fixture
def single_bucket() -> FrequentPart:
    """One bucket of two entries — forces every Algorithm-1 case."""
    return FrequentPart(buckets=1, entries_per_bucket=2, lambda_evict=2.0, seed=1)


class TestInsertCases:
    def test_case2_fills_empty_entries(self, single_bucket):
        outcome = single_bucket.insert(10)
        assert outcome.case == 2
        assert outcome.demoted is None
        assert single_bucket.lookup(10) == (1, True, False)

    def test_case1_increments_resident(self, single_bucket):
        single_bucket.insert(10)
        outcome = single_bucket.insert(10, count=5)
        assert outcome.case == 1
        assert single_bucket.lookup(10)[0] == 6

    def test_case4_demotes_newcomer(self, single_bucket):
        single_bucket.insert(10, count=100)
        single_bucket.insert(11, count=100)
        outcome = single_bucket.insert(12)  # bucket full, ecnt=1 <= λ·100
        assert outcome.case == 4
        assert outcome.demoted == (12, 1)
        assert single_bucket.lookup(12) == (0, False, True)

    def test_case3_evicts_minimum(self, single_bucket):
        single_bucket.insert(10, count=100)
        single_bucket.insert(11, count=1)  # the eviction victim
        # λ=2 and min count 1: the 3rd failed probe crosses 2·1.
        assert single_bucket.insert(12).case == 4
        assert single_bucket.insert(12).case == 4
        outcome = single_bucket.insert(12)
        assert outcome.case == 3
        assert outcome.demoted == (11, 1)
        count, present, flag = single_bucket.lookup(12)
        assert (count, present, flag) == (1, True, True)
        # the survivor keeps its exact count and exactness flag
        assert single_bucket.lookup(10) == (100, True, False)

    def test_case3_resets_evict_counter(self, single_bucket):
        single_bucket.insert(10, count=100)
        single_bucket.insert(11, count=1)
        for _ in range(3):
            single_bucket.insert(12)
        assert single_bucket.bucket_states()[0]["ecnt"] == 0

    def test_accesses_reported(self, single_bucket):
        assert single_bucket.insert(10).accesses == 1  # case 2, empty scan
        assert single_bucket.insert(10).accesses == 1  # case 1, position 0
        assert single_bucket.insert(11).accesses == 2  # case 2 after 1 entry
        assert single_bucket.insert(11).accesses == 2  # case 1, position 1
        # full bucket: entries + ecnt + flag
        assert single_bucket.insert(12).accesses == 2 + 2


class TestInt64Domain:
    """Keys and counts live in int64 buffers; leaving int64 writes nothing."""

    @staticmethod
    def full_bucket() -> FrequentPart:
        """One full bucket whose next miss would take case 3."""
        fp = FrequentPart(buckets=1, entries_per_bucket=2, lambda_evict=2.0, seed=1)
        fp.insert(10, count=100)
        fp.insert(11, count=1)
        fp.insert(12)
        fp.insert(12)
        return fp

    @pytest.mark.parametrize("key", [2**63, 2**64 - 1, -(2**63) - 1])
    @pytest.mark.parametrize("full", [False, True], ids=["case2", "case3"])
    def test_key_outside_int64_raises_before_any_write(self, key, full):
        fp = self.full_bucket() if full else FrequentPart(1, 2, 2.0, seed=1)
        before = fp.bucket_states()
        with pytest.raises(ConfigurationError, match="int64"):
            fp.insert(key)
        assert fp.bucket_states() == before
        assert fp.lookup(key) == (0, False, True)

    def test_count_outside_int64_raises_before_any_write(self):
        fp = self.full_bucket()
        before = fp.bucket_states()
        for key, count in ((12, 2**63), (10, 2**63 - 100)):  # case 3, case 1
            with pytest.raises(ConfigurationError, match="int64"):
                fp.insert(key, count)
        assert fp.bucket_states() == before
        fp.insert(10, 2**63 - 101)  # the last that fits
        assert fp.lookup(10) == (2**63 - 1, True, False)

    def test_keys_at_the_int64_edges_are_exact(self):
        fp = FrequentPart(buckets=4, entries_per_bucket=2, lambda_evict=2.0, seed=1)
        for key in (2**63 - 1, -(2**63)):
            fp.insert(key, 3)
            assert fp.lookup(key) == (3, True, False)


class TestLookupAndIteration:
    def test_absent_key(self, single_bucket):
        assert single_bucket.lookup(99) == (0, False, True)

    def test_items_and_as_dict(self):
        fp = FrequentPart(buckets=8, entries_per_bucket=4, lambda_evict=8, seed=2)
        for key in range(20):
            fp.insert(key, count=key + 1)
        resident = fp.as_dict()
        assert resident  # something landed
        for key, count in fp.items():
            assert resident[key] == count

    def test_len_and_capacity(self):
        fp = FrequentPart(buckets=4, entries_per_bucket=3, lambda_evict=8, seed=2)
        assert fp.capacity == 12
        assert len(fp) == 0
        fp.insert(1)
        assert len(fp) == 1

    def test_flagged_items_only_reports_replacements(self, single_bucket):
        single_bucket.insert(10, count=100)
        single_bucket.insert(11, count=1)
        for _ in range(3):
            single_bucket.insert(12)
        flagged = dict(single_bucket.flagged_items())
        assert set(flagged) == {12}


class TestViews:
    def test_views_share_memory_with_the_buffers_across_a_bulk_call(self):
        sketch = DaVinciSketch(DaVinciConfig.from_memory_kb(2, seed=4))
        fp = sketch.fp
        keys, counts, flags, occupancy, ecnt, flag = fp.bucket_arrays()
        sketch.insert_all([key % 3000 + 1 for key in range(20_000)], chunk_size=500)
        sketch.insert(7, 3)  # a per-item write lands in the views too
        resident = np.arange(keys.shape[1]) < occupancy[:, None]
        flagged = resident & (flags == 1)
        assert flagged.any() and ecnt.any()
        assert list(zip(keys[resident].tolist(), counts[resident].tolist())) == (
            list(fp.items())
        )
        assert list(zip(keys[flagged].tolist(), counts[flagged].tolist())) == (
            list(fp.flagged_items())
        )
        states = fp.bucket_states()
        assert ecnt.tolist() == [state["ecnt"] for state in states]
        assert flag.tolist() == [int(state["flag"]) for state in states]
        assert fp.flagged_buckets() == int(flag.sum())
        mass = sum(fp.as_dict().values())
        counts[resident] += 1  # writes through a view land in the table
        assert sum(fp.as_dict().values()) == mass + len(fp)


class TestExactness:
    def test_counts_exact_without_eviction(self):
        fp = FrequentPart(buckets=64, entries_per_bucket=8, lambda_evict=8, seed=3)
        truth = {}
        for key in range(100):
            for _ in range(key % 7 + 1):
                fp.insert(key)
                truth[key] = truth.get(key, 0) + 1
        # 100 keys into 512 slots: no bucket overflows w.h.p. at this seed
        for key, count in truth.items():
            stored, present, flag = fp.lookup(key)
            if present:
                assert stored <= count  # never overestimates
            if present and not flag:
                assert stored == count


class TestStructureOps:
    def test_empty_like_preserves_shape_and_seed(self):
        fp = FrequentPart(buckets=4, entries_per_bucket=3, lambda_evict=5, seed=9)
        clone = fp.empty_like()
        assert clone.num_buckets == 4
        assert clone.entries_per_bucket == 3
        assert len(clone) == 0
        for key in range(50):
            assert fp.bucket_index(key) == clone.bucket_index(key)

    def test_check_compatible_rejects_different_seed(self):
        a = FrequentPart(buckets=4, entries_per_bucket=3, lambda_evict=5, seed=1)
        b = FrequentPart(buckets=4, entries_per_bucket=3, lambda_evict=5, seed=2)
        with pytest.raises(IncompatibleSketchError):
            a.check_compatible(b)

    def test_check_compatible_rejects_different_shape(self):
        a = FrequentPart(buckets=4, entries_per_bucket=3, lambda_evict=5, seed=1)
        b = FrequentPart(buckets=8, entries_per_bucket=3, lambda_evict=5, seed=1)
        with pytest.raises(IncompatibleSketchError):
            a.check_compatible(b)

    def test_accepts_identical(self):
        a = FrequentPart(buckets=4, entries_per_bucket=3, lambda_evict=5, seed=1)
        b = FrequentPart(buckets=4, entries_per_bucket=3, lambda_evict=5, seed=1)
        a.check_compatible(b)
