"""The runtime lock checker catches each hazard it claims to.

Every test provokes one violation on purpose, asserts the checker saw
it, then clears it so the autouse fixture's teardown stays green.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.observability.tracing import TraceSink
from repro.service.breaker import CircuitBreaker
from repro.service.server import SketchServer, _Aggregate
from tests.service.lockcheck import LockCheckError


def take(lock_checker):
    seen, lock_checker.violations = lock_checker.violations, []
    return seen


def test_listener_reentering_the_breaker_fails_at_once(lock_checker):
    # what a listener run under the breaker's lock used to do
    breaker = CircuitBreaker()
    with breaker._lock:
        with pytest.raises(LockCheckError, match="self-deadlock"):
            breaker.snapshot()
    (violation,) = take(lock_checker)
    assert "CircuitBreaker" in violation and "at breaker.py" in violation


def test_opposite_acquisition_orders_form_a_cycle_naming_both_sites(
    lock_checker,
):
    left, right = _Aggregate(), _Aggregate()
    with left.lock:
        with right.lock:  # site A
            pass
    with right.lock:
        with left.lock:  # site B
            pass
    with pytest.raises(AssertionError, match="lock-order cycle") as excinfo:
        lock_checker.verify()
    report = str(excinfo.value)
    sites = [line for line in report.splitlines() if "test_lockcheck.py:" in line]
    assert len(sites) == 2 and sites[0] != sites[1]


def test_sleep_and_emit_under_a_leaf_lock_are_reported(lock_checker):
    breaker = CircuitBreaker()
    with breaker._lock:
        time.sleep(0)
        TraceSink().emit("probe")
    assert [v.split(" at ")[0] for v in take(lock_checker)] == [
        "time.sleep",
        "TraceSink.emit",
    ]


def test_recording_under_an_aggregate_lock_is_exempt(lock_checker):
    with _Aggregate().lock:
        TraceSink().emit("probe")
    assert take(lock_checker) == []


def test_wait_holding_a_second_lock_is_reported(lock_checker):
    server = SketchServer()
    try:
        with _Aggregate().lock, server._admission:
            server._admission.wait(timeout=0.001)
    finally:
        server.close()
    (violation,) = take(lock_checker)
    assert violation.startswith("Condition.wait")


def test_unguarded_write_from_a_thread_is_reported(lock_checker):
    breaker = CircuitBreaker()

    def write():
        with breaker._lock:
            breaker._opened_at = 1.0
        breaker._opened_at = 2.0

    worker = threading.Thread(target=write)
    worker.start()
    worker.join(timeout=5.0)
    (violation,) = take(lock_checker)
    assert violation.startswith("unguarded write CircuitBreaker._opened_at")
