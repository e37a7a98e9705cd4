"""Shared helpers for the aggregation-service tests.

Everything runs on loopback with ephemeral ports and deterministic
retry schedules (injected RNGs, recorded sleeps), so the suite is
parallel-safe and timing-insensitive except where a test is *about*
time (deadlines, breaker cool-downs) — those use generous margins.

Every test here runs under the runtime lock checker
(:mod:`tests.service.lockcheck`), armed by the autouse
``lock_checker`` fixture: lock-order cycles, blocking or recording
under a lock, and unguarded writes from service threads fail the test
at teardown.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

import pytest

from repro.core import DaVinciConfig, DaVinciSketch
from repro.service import SketchServer
from tests.service.lockcheck import LockChecker


@pytest.fixture(autouse=True)
def lock_checker(monkeypatch: pytest.MonkeyPatch) -> Iterator[LockChecker]:
    """Watch every lock the service creates during the test."""
    checker = LockChecker()
    checker.install(monkeypatch)
    yield checker
    checker.verify()


@pytest.fixture
def sketch_factory(
    small_config: DaVinciConfig,
) -> Callable[[List[Tuple[int, int]]], DaVinciSketch]:
    """Build a small sketch from ``(key, count)`` pairs."""

    def build(pairs: List[Tuple[int, int]]) -> DaVinciSketch:
        sketch = DaVinciSketch(small_config)
        for key, count in pairs:
            sketch.insert(key, count)
        return sketch

    return build


@pytest.fixture
def server() -> Iterator[SketchServer]:
    """A started loopback server, drained and closed on teardown."""
    instance = SketchServer(read_deadline_seconds=10.0)
    instance.start()
    yield instance
    instance.close()


class VirtualClock:
    """A manually advanced clock for deadline/breaker tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()
