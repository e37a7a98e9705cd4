"""Pins for ``ElementFilter.offer``.

These tests pin its behaviour to the reference semantics ("estimate via
:meth:`query`, absorb via :meth:`add`") across saturation and threshold
corners.
"""

import random

from repro.core.element_filter import ElementFilter


def reference_offer(ef: ElementFilter, key: int, count: int) -> int:
    """The unoptimized offer semantics, built from the public primitives."""
    current = ef.query(key)
    if current >= ef.threshold:
        return count
    absorbed = min(count, ef.threshold - current)
    ef.add(key, absorbed)
    return count - absorbed


class TestOfferEquivalence:
    def test_random_streams_agree_with_reference(self):
        rng = random.Random(3)
        fast = ElementFilter((64, 16), (4, 8), threshold=12, seed=5)
        slow = ElementFilter((64, 16), (4, 8), threshold=12, seed=5)
        for _ in range(3000):
            key = rng.randrange(1, 120)
            count = rng.randrange(1, 5)
            assert fast.offer(key, count) == reference_offer(slow, key, count)
        assert fast.levels == slow.levels

    def test_saturated_base_level_still_promotes(self):
        ef = ElementFilter((4, 64), (4, 8), threshold=12, seed=1)
        # level 0 has only 4 counters: saturate them all
        for key in range(1, 40):
            ef.offer(key, 1)
        # a key whose level-0 counter is saturated must still be readable
        # (and promotable) through level 1
        overflow = ef.offer(200, 20)
        assert overflow >= 0
        assert ef.query(200) <= ef.threshold + 0  # held mass capped at T

    def test_offer_on_single_level_filter(self):
        ef = ElementFilter((32,), (8,), threshold=20, seed=2)
        assert ef.offer(1, 5) == 0
        assert ef.offer(1, 30) == 15
        assert ef.query(1) == 20

    def test_exact_threshold_boundary(self):
        ef = ElementFilter((64, 16), (4, 8), threshold=10, seed=3)
        assert ef.offer(7, 10) == 0  # lands exactly on T
        assert ef.query(7) == 10
        assert ef.offer(7, 1) == 1  # everything after T overflows

    def test_zero_headroom_after_collisions(self):
        ef = ElementFilter((1, 1), (4, 8), threshold=10, seed=4)
        ef.add(999, 10)  # the single shared counter reads >= T already
        assert ef.offer(1, 3) == 3  # nothing absorbed
