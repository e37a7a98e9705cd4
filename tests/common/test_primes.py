"""Unit tests for the prime-field helpers."""

import random

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.primes import (
    DEFAULT_PRIME,
    MAX_ARRAY_PRIME,
    SMALL_PRIME,
    add_mod_at,
    from_field_signed,
    is_prime,
    mod_inverse,
    mod_inverses,
    to_field,
    validate_prime,
)
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.setops import union


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101):
            assert is_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 6, 9, 15, 100, 561, 1105):  # incl. Carmichael
            assert not is_prime(n)

    def test_mersenne_primes(self):
        assert is_prime((1 << 31) - 1)
        assert is_prime((1 << 61) - 1)

    def test_mersenne_composite(self):
        assert not is_prime((1 << 32) - 1)

    def test_negative(self):
        assert not is_prime(-7)


class TestIsPrimeMemo:
    def test_two_unions_over_one_config_run_miller_rabin_at_most_once(self):
        # every union and empty_like builds sketches, each validating the
        # same modulus; a cache miss is one Miller–Rabin run
        config = DaVinciConfig.from_memory_kb(8, seed=3)
        a, b = DaVinciSketch(config), DaVinciSketch(config)
        a.insert_batch([(key, key % 7 + 1) for key in range(1, 500)])
        b.insert_batch([(key, 2) for key in range(300, 900)])
        is_prime.cache_clear()
        union(a, b)
        union(b, a)
        assert is_prime.cache_info().misses <= 1
        assert is_prime.cache_info().hits >= 1


class TestValidatePrime:
    def test_accepts_defaults(self):
        assert validate_prime(DEFAULT_PRIME) == DEFAULT_PRIME
        assert validate_prime(SMALL_PRIME) == SMALL_PRIME

    def test_rejects_composite(self):
        with pytest.raises(ConfigurationError):
            validate_prime(10)

    def test_rejects_too_small(self):
        with pytest.raises(ConfigurationError):
            validate_prime(3)


class TestModInverse:
    @pytest.mark.parametrize("p", [7, 101, SMALL_PRIME, DEFAULT_PRIME])
    def test_inverse_property(self, p):
        for a in (1, 2, 3, p - 1, 12345 % p or 1):
            assert (a * mod_inverse(a, p)) % p == 1

    def test_negative_argument(self):
        p = 101
        assert (-5 * mod_inverse(-5, p)) % p == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ConfigurationError):
            mod_inverse(0, 7)

    def test_multiple_of_p_has_no_inverse(self):
        with pytest.raises(ConfigurationError):
            mod_inverse(14, 7)


class TestModInverses:
    @pytest.mark.parametrize("p", [SMALL_PRIME, DEFAULT_PRIME])
    def test_equals_mod_inverse_elementwise(self, p):
        rng = random.Random(p)
        values = [1, p - 1] + [rng.randrange(1, p) for _ in range(200)]
        values += [-3, p + 5, 2 * p - 1]  # residues of other representatives
        assert mod_inverses(values, p) == [mod_inverse(a, p) for a in values]

    def test_single_value(self):
        assert mod_inverses([5], 101) == [mod_inverse(5, 101)]

    def test_empty_input(self):
        assert mod_inverses([], DEFAULT_PRIME) == []

    @pytest.mark.parametrize("zero", [0, 7, -14])
    def test_a_multiple_of_p_has_no_inverse(self, zero):
        with pytest.raises(ConfigurationError):
            mod_inverses([3, zero, 5], 7)


#: every size class of prime the int64 tables accept, the largest included
ARRAY_PRIMES = [5, 1_000_003, SMALL_PRIME, DEFAULT_PRIME, (1 << 62) + 135]
ARRAY_PRIMES.append(
    max(n for n in range(MAX_ARRAY_PRIME - 100, MAX_ARRAY_PRIME) if is_prime(n))
)


def residues(rng, p, count):
    values = [rng.randrange(p) for _ in range(count)] + [0, 1, p - 1]
    return np.array(values, dtype=np.uint64)


class TestArrayFieldArithmetic:
    @pytest.mark.parametrize("p", ARRAY_PRIMES)
    def test_add_mod_at_with_repeated_indexes(self, p):
        rng = random.Random(p + 1)
        target = residues(rng, p, 5)
        at = np.array([rng.randrange(len(target)) for _ in range(40)])
        values = residues(rng, p, 37)
        expected = target.tolist()
        for j, value in zip(at.tolist(), values.tolist()):
            expected[j] = (expected[j] + value) % p
        add_mod_at(target, at, values, p)
        assert target.tolist() == expected

    def test_add_mod_at_with_nothing_to_add(self):
        target = np.array([3, 4], dtype=np.uint64)
        add_mod_at(target, np.array([], dtype=np.int64), target[:0], 7)
        assert target.tolist() == [3, 4]


class TestFieldConversions:
    def test_to_field_wraps_negative(self):
        assert to_field(-1, 7) == 6

    def test_from_field_signed_small_positive(self):
        assert from_field_signed(3, 101) == 3

    def test_from_field_signed_wraps_large(self):
        assert from_field_signed(100, 101) == -1
        assert from_field_signed(101 - 17, 101) == -17

    def test_roundtrip(self):
        p = SMALL_PRIME
        for value in (-1000, -1, 0, 1, 999999):
            assert from_field_signed(to_field(value, p), p) == value
