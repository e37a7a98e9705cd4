"""Unit tests for union and difference of DaVinci sketches."""

import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.davinci import MODE_ADDITIVE, MODE_SIGNED
from repro.core.setops import difference, union


def build_pair(small_config):
    return DaVinciSketch(small_config), DaVinciSketch(small_config)


class TestUnion:
    def test_mode_and_total(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all([1, 2, 3])
        b.insert_all([3, 4])
        merged = union(a, b)
        assert merged.mode == MODE_ADDITIVE
        assert merged.total_count == 5

    def test_counts_add(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all([1] * 5 + [2] * 2)
        b.insert_all([1] * 3 + [4] * 7)
        merged = union(a, b)
        assert merged.query(1) == 8
        assert merged.query(2) == 2
        assert merged.query(4) == 7

    def test_inputs_untouched(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all([1] * 5)
        b.insert_all([1] * 3)
        union(a, b)
        assert a.query(1) == 5
        assert b.query(1) == 3

    def test_union_of_a_signed_sketch_raises(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all([1] * 5 + [2] * 3)
        signed = difference(b, a)
        for left, right in ((signed, a), (a, signed), (signed, signed)):
            with pytest.raises(ConfigurationError, match="signed"):
                union(left, right)

    def test_union_is_commutative_on_queries(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all(range(50))
        b.insert_all(range(25, 75))
        ab, ba = union(a, b), union(b, a)
        for key in range(75):
            assert ab.query(key) == ba.query(key)

    def test_union_under_eviction_pressure(self, small_config):
        """Merged bucket overflow routes leftovers into the lower parts."""
        a, b = build_pair(small_config)
        # Different key ranges so merged buckets exceed capacity c=4.
        a.insert_all([k for k in range(300) for _ in range(3)])
        b.insert_all([k for k in range(300, 600) for _ in range(3)])
        merged = union(a, b)
        estimates = [merged.query(k) for k in range(0, 600, 7)]
        # 600 flows through a 64-entry FP: heavy collision noise is
        # expected at this starved size, but the additive union query must
        # stay non-negative and in the right ballpark on average.
        assert all(estimate >= 0 for estimate in estimates)
        errors = [abs(estimate - 3) for estimate in estimates]
        assert sum(errors) / len(errors) < 12.0


class TestDifference:
    def test_mode_and_total(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all([1, 2, 3])
        b.insert_all([3])
        delta = difference(a, b)
        assert delta.mode == MODE_SIGNED
        assert delta.total_count == 2

    def test_paper_example(self, small_config):
        """A = {a,a,b,d}, B = {a,b,b,c} → A−B = {a, −b, d, −c}."""
        a, b = build_pair(small_config)
        key_a, key_b, key_c, key_d = 11, 22, 33, 44
        a.insert_all([key_a, key_a, key_b, key_d])
        b.insert_all([key_a, key_b, key_b, key_c])
        delta = difference(a, b)
        assert delta.query(key_a) == 1
        assert delta.query(key_b) == -1
        assert delta.query(key_c) == -1
        assert delta.query(key_d) == 1

    def test_identical_sets_cancel(self, small_config):
        a, b = build_pair(small_config)
        stream = [k for k in range(100) for _ in range(2)]
        a.insert_all(stream)
        b.insert_all(stream)
        delta = difference(a, b)
        for key in range(0, 100, 9):
            assert delta.query(key) == 0

    def test_antisymmetry(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all([1] * 9 + [2] * 4)
        b.insert_all([1] * 2 + [3] * 6)
        ab, ba = difference(a, b), difference(b, a)
        for key in (1, 2, 3):
            assert ab.query(key) == -ba.query(key)

    def test_inclusion_difference(self, small_config):
        """B ⊂ A: the delta is exactly A's extra occurrences."""
        a, b = build_pair(small_config)
        whole = [k for k in range(80) for _ in range(3)]
        half = whole[: len(whole) // 2]
        a.insert_all(whole)
        b.insert_all(half)
        delta = difference(a, b)
        from collections import Counter

        truth = Counter(whole)
        truth.subtract(Counter(half))
        errors = [abs(delta.query(k) - truth[k]) for k in range(80)]
        assert sum(errors) / len(errors) < 2.0


class TestChaining:
    def test_union_then_query_tasks_still_work(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all([k for k in range(50) for _ in range(k % 4 + 1)])
        b.insert_all([k for k in range(25, 75) for _ in range(2)])
        merged = union(a, b)
        assert merged.cardinality() > 0
        assert merged.heavy_hitters(3)

    def test_heavy_changer_via_difference(self, small_config):
        a, b = build_pair(small_config)
        a.insert_all([7] * 50 + [8] * 5)
        b.insert_all([7] * 5 + [8] * 5)
        delta = difference(a, b)
        changes = delta.heavy_hitters(30)
        assert 7 in changes
        assert 8 not in changes


def set_fp_count(sketch, key, count):
    """Overwrite the resident count of ``key`` in place."""
    keys, counts, *_rest = sketch.fp.bucket_arrays()
    bucket = sketch.fp.bucket_index(key)
    counts[bucket, list(keys[bucket]).index(key)] = count


class TestInt64Overflow:
    """A frequent-part count or ``ecnt`` sum past int64 raises the typed
    error before anything is written, and both operands stay as they were."""

    def assert_raises(self, operation, a, b):
        before = pickle.dumps(a), pickle.dumps(b)
        with pytest.raises(ConfigurationError, match="leaves the int64 range"):
            operation(a, b)
        assert (pickle.dumps(a), pickle.dumps(b)) == before

    def test_union_count_sum(self, small_config):
        # only an edited state gets here: a loaded unsigned sketch's counts
        # are bounded by its total_count, whose sum is checked first
        a, b = build_pair(small_config)
        for sketch in (a, b):
            sketch.insert(1, 5)
            set_fp_count(sketch, 1, 2**62)
        self.assert_raises(union, a, b)

    def test_difference_count_sum(self, small_config):
        x, y = build_pair(small_config)
        x.insert(2, 2**62)
        y.insert(1, 2**62 + 1)
        signed = difference(x, y)  # key 1 at -(2^62 + 1), total -1
        z = DaVinciSketch(small_config)
        z.insert(1, 2**62)
        self.assert_raises(difference, signed, z)

    def test_difference_negating_int64_min(self, small_config):
        x = DaVinciSketch(small_config)
        for count in (2**62, 2**62):
            y = DaVinciSketch(small_config)
            y.insert(1, count)
            x = difference(x, y)  # key 1 at -2^63, total -2^63
        z = DaVinciSketch(small_config)
        z.insert(2, 1)
        signed = difference(DaVinciSketch(small_config), z)  # total -1
        self.assert_raises(difference, signed, x)

    @pytest.mark.parametrize("operation", [union, difference])
    def test_ecnt_sum(self, small_config, operation):
        a, b = build_pair(small_config)
        for sketch in (a, b):
            sketch.insert(1, 5)
            sketch.fp._ecnt[3] = 2**62
        self.assert_raises(operation, a, b)
