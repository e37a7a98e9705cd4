"""CircuitBreaker state machine on a virtual clock."""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import ConfigurationError
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


def make_breaker(clock, **overrides):
    kwargs = dict(
        failure_threshold=0.5,
        window=8,
        min_samples=4,
        open_seconds=1.0,
        half_open_probes=1,
        clock=clock,
    )
    kwargs.update(overrides)
    return CircuitBreaker(**kwargs)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0.0},
            {"failure_threshold": 1.5},
            {"window": 0},
            {"min_samples": 0},
            {"min_samples": 99, "window": 8},
            {"open_seconds": 0.0},
            {"half_open_probes": 0},
        ],
    )
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(**kwargs)


class TestStateMachine:
    def test_starts_closed_and_allows(self, clock):
        breaker = make_breaker(clock)
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_stays_closed_below_min_samples(self, clock):
        breaker = make_breaker(clock, min_samples=4)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED

    def test_opens_at_the_failure_rate_threshold(self, clock):
        breaker = make_breaker(clock, min_samples=4)
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/3 below threshold
        breaker.record_failure()  # 2/4 = 0.5 >= threshold
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_half_open_after_cooldown_with_probe_budget(self, clock):
        breaker = make_breaker(clock, min_samples=1, failure_threshold=1.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert not breaker.allow()
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # consumes the single probe slot
        assert not breaker.allow()  # budget exhausted

    def test_probe_success_closes_and_resets_the_window(self, clock):
        breaker = make_breaker(clock, min_samples=1, failure_threshold=1.0)
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        # the old failure window is gone: one new failure below
        # min_samples=1? threshold trips immediately at min_samples=1,
        # so check the snapshot cleared instead
        assert breaker.snapshot()["window_samples"] == 0

    def test_probe_failure_reopens_and_restarts_cooldown(self, clock):
        breaker = make_breaker(clock, min_samples=1, failure_threshold=1.0)
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(0.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_full_cycle_is_counted_and_broadcast(self, clock):
        breaker = make_breaker(clock, min_samples=2, failure_threshold=0.5)
        seen = []
        breaker.subscribe(lambda prev, new: seen.append((prev, new)))
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_success()
        assert seen == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]
        snapshot = breaker.snapshot()
        assert snapshot["transitions"] == {
            CLOSED: 1,
            OPEN: 1,
            HALF_OPEN: 1,
        }
        assert snapshot["state"] == CLOSED

    def test_listener_may_call_back_into_the_breaker(self, clock):
        """Listeners run after the lock is released: one that reads the
        breaker sees the new state instead of deadlocking on the lock."""
        breaker = make_breaker(clock, min_samples=2, failure_threshold=0.5)
        seen = []
        breaker.subscribe(
            lambda prev, new: seen.append((new, breaker.snapshot()["state"]))
        )

        def fail_twice():
            breaker.record_failure()
            breaker.record_failure()

        worker = threading.Thread(target=fail_twice, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert seen == [(OPEN, OPEN)]

    def test_multi_probe_half_open_needs_every_probe(self, clock):
        breaker = make_breaker(
            clock, min_samples=1, failure_threshold=1.0, half_open_probes=2
        )
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # one probe still out
        breaker.record_success()
        assert breaker.state == CLOSED
