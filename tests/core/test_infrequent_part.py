"""Unit tests for the infrequent part (counting Fermat sketch)."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.common.hashing import HashFamily, SignFamily
from repro.common.primes import SMALL_PRIME
from repro.core.infrequent_part import InfrequentPart
from repro.observability import metrics as obs_metrics
from tests.substrate_contracts import FermatDecodeContract, FermatLinearityContract


@pytest.fixture
def ifp() -> InfrequentPart:
    return InfrequentPart(rows=3, width=64, seed=5)


class TestInsertAndDecode(FermatDecodeContract):
    cls = InfrequentPart

    def test_single_element_roundtrip(self, ifp):
        ifp.insert(12345, 7)
        result = ifp.decode()
        assert result.counts == {12345: 7}
        assert result.complete

    def test_overloaded_structure_reports_incomplete(self):
        tiny = InfrequentPart(rows=3, width=8, seed=5)
        for key in range(2000, 2100):
            tiny.insert(key, 1)
        result = tiny.decode()
        assert not result.complete
        assert result.residual_buckets > 0

    def test_decode_empty(self, ifp):
        result = ifp.decode()
        assert result.counts == {}
        assert result.complete
        assert result.residual_buckets == 0


class TestValidator:
    """The validator maps an int64 key array to one bool per key."""

    def test_validator_can_reject_everything(self, ifp):
        ifp.insert(42, 5)
        result = ifp.decode(validator=lambda keys: np.zeros(len(keys), dtype=bool))
        assert result.counts == {}
        assert not result.complete

    def test_validator_passes_known_keys(self, ifp):
        ifp.insert(42, 5)
        result = ifp.decode(validator=lambda keys: keys == 42)
        assert result.counts == {42: 5}

    def test_validator_keeps_phantoms_out_of_an_overloaded_decode(self):
        # With ±1 signs a crowded bucket can look pure for a key that was
        # never inserted; the cross-validator is what rejects it.
        tiny = InfrequentPart(rows=3, width=8, seed=5)
        inserted = set(range(500, 600))
        for key in inserted:
            tiny.insert(key, 1)
        assert not set(tiny.decode().counts) <= inserted
        members = np.array(sorted(inserted), dtype=np.int64)
        result = tiny.decode(validator=lambda keys: np.isin(keys, members))
        assert set(result.counts) <= inserted

    def test_validator_must_answer_every_key(self, ifp):
        ifp.insert(42, 5)
        with pytest.raises(ConfigurationError):
            ifp.decode(validator=lambda keys: False)


class TestFastQuery:
    def test_isolated_key_exact(self, ifp):
        ifp.insert(77, 9)
        assert ifp.fast_query(77) == 9

    def test_absent_key_near_zero(self, ifp):
        ifp.insert(77, 9)
        # an absent key reads 0 from at least two of three rows w.h.p.
        assert abs(ifp.fast_query(123456)) <= 9

    def test_median_is_robust_to_one_collision(self):
        ifp = InfrequentPart(rows=3, width=128, seed=11)
        for key in range(500, 520):
            ifp.insert(key, 2)
        for key in range(500, 520):
            assert abs(ifp.fast_query(key) - 2) <= 2

    @pytest.mark.parametrize("rows", [2, 3, 4, 5])
    def test_many_equals_the_scalar_median(self, rows):
        # narrow rows collide, so the row estimates differ; odd counts
        # keep them odd, and an even row count takes the floored mean of
        # the middle two (-3 and 4 give 0, -4 and 1 give -2)
        ifp = InfrequentPart(rows=rows, width=8, seed=13)
        for key in range(1, 40):
            ifp.insert(key, 2 * (key % 5) - 3)
        keys = np.arange(1, 60, dtype=np.int64)
        many = ifp.fast_query_many(keys)
        assert isinstance(many, np.ndarray) and many.dtype == np.int64
        medians, odd_middles = [], 0
        for key in keys.tolist():
            reads = sorted(
                ifp._sign(row, key) * int(ifp.counts[row, column])
                for row, column in enumerate(ifp._hashes.indexes(key))
            )
            middle = reads[(rows - 1) // 2 : rows // 2 + 1]
            medians.append(sum(middle) // len(middle))
            odd_middles += len(middle) == 2 and sum(middle) % 2
        assert many.tolist() == medians
        assert [ifp.fast_query(key) for key in keys.tolist()] == medians
        assert odd_middles or rows % 2  # the floor was exercised


class TestSigns:
    def test_negative_counts_decode(self, ifp):
        ifp.insert(31, -4)
        assert ifp.decode().counts == {31: -4}

    def test_cancellation_removes_key(self, ifp):
        ifp.insert(31, 4)
        ifp.insert(31, -4)
        result = ifp.decode()
        assert result.counts == {}
        assert result.complete


class TestLinearity(FermatLinearityContract):
    cls = InfrequentPart

    def test_merge_rejects_different_prime(self, ifp):
        other = InfrequentPart(
            rows=3, width=64, prime=SMALL_PRIME, seed=5, max_key=1 << 30
        )
        with pytest.raises(IncompatibleSketchError):
            ifp.subtracted(other)

    def test_max_key_must_fit_field(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            InfrequentPart(rows=3, width=64, prime=SMALL_PRIME, seed=5)


class TestIntrospection:
    def test_nonzero_buckets_counts(self, ifp):
        assert ifp.nonzero_buckets() == 0
        ifp.insert(9, 1)
        assert ifp.nonzero_buckets() == 3  # one bucket per row

    def test_memory_bytes(self, ifp):
        assert ifp.memory_bytes() == 3 * 64 * 8.0

    def test_small_prime_field_works(self):
        small = InfrequentPart(
            rows=3, width=32, prime=SMALL_PRIME, seed=2, max_key=1 << 30
        )
        truth = {key: 3 for key in range(10, 20)}
        for key, count in truth.items():
            small.insert(key, count)
        assert small.decode().counts == truth


class TestCrowdedBuckets:
    """Decodes of one tiny structure, as recorded before the tables became
    int64 arrays: a crowded bucket passes the re-hash and sign tests when
    its quotient is an in-domain key, and nothing else rejects it without
    a validator."""

    KEYS = (500, 549, 551, 580, 691)

    def decode(self, counts):
        ifp = InfrequentPart(rows=3, width=8, seed=1)
        for key, count in zip(self.KEYS, counts):
            ifp.insert(key, count)
        return ifp._peel()

    def test_count_one_keys_decode_completely(self):
        result, work = self.decode((1, 1, 1, 1, 1))
        assert list(result.counts.items()) == [
            (500, 1), (551, 1), (580, 1), (691, 1), (549, 1)
        ]
        assert (result.complete, result.residual_buckets) == (True, 0)
        assert not result.budget_exhausted
        assert work == (21, 9, 6, 0, 0)

    def test_a_phantom_mean_is_peeled_and_undone_until_the_budget(self):
        # (549 + 691) / 2 = 620 reads as one key of count 2, and 522 is a
        # second phantom; neither was inserted
        result, work = self.decode((-2, 1, 2, -1, 1))
        assert list(result.counts.items()) == [(500, -2), (522, 1), (620, 2)]
        assert (result.complete, result.residual_buckets) == (False, 7)
        assert result.budget_exhausted
        assert work == (192, 107, 31, 0, 0)


class TestEmptyBatch:
    def test_an_empty_batch_hashes_nothing_and_changes_nothing(self, monkeypatch):
        ifp = InfrequentPart(rows=3, width=64, seed=5)
        ifp._obs_registry = registry = obs_metrics.MetricsRegistry()
        keys = np.array([12, 345, 6789], dtype=np.int64)
        with obs_metrics.enabled():
            ifp.insert_batch(keys, np.array([1, 4, 2], dtype=np.int64))
        before = ifp.ids.copy(), ifp.counts.copy(), registry.snapshot()

        def no_hashing(*args, **kwargs):
            raise AssertionError("an empty batch hashed")

        monkeypatch.setattr(HashFamily, "index_arrays", no_hashing)
        monkeypatch.setattr(SignFamily, "sign_arrays", no_hashing)
        empty = np.empty(0, dtype=np.int64)
        with obs_metrics.enabled():
            ifp.insert_batch(empty, empty)
        ids, counts, snapshot = before
        assert np.array_equal(ifp.ids, ids) and np.array_equal(ifp.counts, counts)
        assert registry.snapshot() == snapshot
        assert snapshot["counters"]["davinci_ifp_inserts_total"] == 3
