"""Per-endpoint circuit breaker: closed → open → half-open → closed.

A retrying client pointed at a dead or drowning endpoint makes things
worse: every call burns its full deadline budget rediscovering the same
failure, and the retries themselves are load.  The breaker watches the
recent outcome window per endpoint and fails *locally* (no bytes sent)
once the failure rate crosses the threshold:

``CLOSED``
    Normal operation.  Outcomes are recorded into a sliding window of
    the last ``window`` calls; once at least ``min_samples`` outcomes
    exist and the failure fraction reaches ``failure_threshold``, the
    breaker opens.
``OPEN``
    Every :meth:`allow` is refused until ``open_seconds`` elapse on the
    injected clock, then the breaker moves to half-open.
``HALF_OPEN``
    Up to ``half_open_probes`` in-flight probes are allowed through.
    If every probe succeeds the breaker closes (window reset); any
    probe failure reopens it and restarts the cool-down.

The breaker is thread-safe (the client may be shared) and purely local:
it never talks to the network itself.  State transitions invoke the
registered listeners — the client uses that to emit
``service.breaker.transition`` trace events and transition counters, so
the closed→open→half-open→closed cycle is observable in a metrics
snapshot (the chaos suite pins exactly that).  Listeners run after the
breaker's lock is released, so they may call back into the breaker.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: listener signature: (previous_state, new_state)
TransitionListener = Callable[[str, str], None]


class CircuitBreaker:
    """Failure-rate breaker over a sliding outcome window."""

    def __init__(
        self,
        *,
        failure_threshold: float = 0.5,
        window: int = 16,
        min_samples: int = 4,
        open_seconds: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError(
                "failure_threshold must be in (0, 1], got "
                f"{failure_threshold!r}"
            )
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 1 <= min_samples <= window:
            raise ConfigurationError(
                "min_samples must be in [1, window]"
            )
        if open_seconds <= 0:
            raise ConfigurationError("open_seconds must be positive")
        if half_open_probes < 1:
            raise ConfigurationError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_samples = min_samples
        self.open_seconds = open_seconds
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        #: recent outcomes, True = failure
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._listeners: List[TransitionListener] = []
        #: transitions made under the lock, for the listeners to see
        #: once it is released
        self._fired: List[Tuple[str, str]] = []
        #: lifetime transition counts, keyed by the state entered
        self.transitions: Dict[str, int] = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}

    # ------------------------------------------------------------------ #
    # state machine (callers hold self._lock)
    # ------------------------------------------------------------------ #
    def _transition(self, new_state: str) -> None:
        previous = self._state
        if previous == new_state:
            return
        self._state = new_state
        self.transitions[new_state] += 1
        if new_state == OPEN:
            self._opened_at = self._clock()
        if new_state == HALF_OPEN:
            self._probes_in_flight = 0
            self._probe_successes = 0
        if new_state == CLOSED:
            self._outcomes.clear()
        self._fired.append((previous, new_state))

    def _failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #
    def _notify(self) -> None:
        """Run the listeners for queued transitions; call without the lock.

        Every public method calls this after releasing the lock, so a
        listener may call back into the breaker.  Whichever thread swaps
        the queue out delivers its transitions, each exactly once.
        """
        if not self._fired:
            return
        with self._lock:
            fired, self._fired = self._fired, []
            listeners = tuple(self._listeners)
        for previous, new_state in fired:
            for listener in listeners:
                listener(previous, new_state)

    def subscribe(self, listener: TransitionListener) -> None:
        """Register a transition listener (run after the lock is released)."""
        with self._lock:
            self._listeners.append(listener)

    @property
    def state(self) -> str:
        """Current state, with the open→half-open timer applied."""
        try:
            with self._lock:
                self._maybe_half_open()
                return self._state
        finally:
            self._notify()

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.open_seconds
        ):
            self._transition(HALF_OPEN)

    def allow(self) -> bool:
        """May a call go out right now?  (Half-open consumes a probe.)"""
        try:
            with self._lock:
                self._maybe_half_open()
                if self._state == CLOSED:
                    return True
                if self._state == OPEN:
                    return False
                # HALF_OPEN: admit up to the probe budget concurrently
                if self._probes_in_flight >= self.half_open_probes:
                    return False
                self._probes_in_flight += 1
                return True
        finally:
            self._notify()

    def record_success(self) -> None:
        try:
            with self._lock:
                if self._state == HALF_OPEN:
                    self._probes_in_flight = max(0, self._probes_in_flight - 1)
                    self._probe_successes += 1
                    if self._probe_successes >= self.half_open_probes:
                        self._transition(CLOSED)
                    return
                self._outcomes.append(False)
        finally:
            self._notify()

    def record_failure(self) -> None:
        try:
            with self._lock:
                if self._state == HALF_OPEN:
                    self._probes_in_flight = max(0, self._probes_in_flight - 1)
                    self._transition(OPEN)
                    return
                if self._state == OPEN:
                    return
                self._outcomes.append(True)
                if (
                    len(self._outcomes) >= self.min_samples
                    and self._failure_rate() >= self.failure_threshold
                ):
                    self._transition(OPEN)
        finally:
            self._notify()

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view: state, window stats, transition counts."""
        try:
            with self._lock:
                self._maybe_half_open()
                return {
                    "state": self._state,
                    "window_samples": len(self._outcomes),
                    "failure_rate": self._failure_rate(),
                    "transitions": dict(self.transitions),
                }
        finally:
            self._notify()
