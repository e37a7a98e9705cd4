"""Windowed measurement: rotating DaVinci sketches over a stream.

The heavy-changer task (and most operational monitoring) is defined over
*time windows*: compare the current epoch against the previous one.  This
utility owns the window lifecycle so applications don't have to:

* :meth:`WindowedDaVinci.insert` feeds the current window and rotates it
  automatically every ``window_size`` units of **stream mass** (occupancy
  is weighted by ``count``, so a weighted insert advances the window by
  its full weight; an insert larger than a window is split across
  consecutive windows) — or on explicit :meth:`rotate`, e.g. from a timer;
* :meth:`insert_batch` / :meth:`insert_all` feed the same lifecycle
  through :meth:`DaVinciSketch.insert_batch`'s amortized fast path, with
  batches cut at window boundaries so window contents match the
  equivalent per-pair loop exactly;
* :meth:`heavy_changers` compares the two most recent *closed* windows;
* :meth:`merged_view` folds all retained windows into one additive-mode
  union sketch for long-horizon queries;
* per-window sketches remain accessible for any other task.

All windows share one :class:`~repro.core.config.DaVinciConfig`, so every
pairwise operation (difference for changers, union for the merged view)
is well-defined.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.core.config import DaVinciConfig
from repro.core.davinci import DEFAULT_BATCH_CHUNK, MODE_ADDITIVE, DaVinciSketch
from repro.core.serialization import from_wire, to_wire
from repro.core.tasks.heavy import heavy_changers


class WindowedDaVinci:
    """A ring of DaVinci sketches over consecutive stream windows."""

    def __init__(
        self,
        config: DaVinciConfig,
        window_size: int,
        retain: int = 2,
    ) -> None:
        if window_size <= 0:
            raise ConfigurationError("window_size must be positive")
        if retain < 1:
            raise ConfigurationError("must retain at least one closed window")
        self.config = config
        self.window_size = window_size
        self.retain = retain
        self.current: DaVinciSketch = DaVinciSketch(config)
        #: stream mass (sum of inserted counts) in the current window
        self._in_current: int = 0
        #: most recent closed windows, newest last
        self.closed: Deque[DaVinciSketch] = deque(maxlen=retain)
        #: total windows closed since construction
        self.windows_closed: int = 0
        #: memoized fold of the *closed* windows for :meth:`merged_view`,
        #: as ``(windows_closed at fold time, folded sketch)``
        self._merged_closed_cache: Optional[Tuple[int, DaVinciSketch]] = None

    # ------------------------------------------------------------------ #
    # stream side
    # ------------------------------------------------------------------ #
    def insert(self, key: object, count: int = 1) -> None:
        """Feed the current window; rotate on every ``window_size`` of mass.

        Occupancy is weighted by ``count`` — a count-1000 insert fills ten
        100-unit windows, not 1/100 of one.  An insert larger than the
        remaining window capacity is split: the current window receives
        exactly its remaining capacity, rotates, and the rest spills into
        the following window(s).
        """
        if count < 1:
            raise ConfigurationError(
                "windowed insert count must be a positive integer"
            )
        window_size = self.window_size
        remaining = count
        while remaining > 0:
            room = window_size - self._in_current
            take = remaining if remaining < room else room
            self.current.insert(key, take)
            self._in_current += take
            remaining -= take
            if self._in_current >= window_size:
                self.rotate()

    def insert_all(
        self, keys: Iterable[object], chunk_size: int = DEFAULT_BATCH_CHUNK
    ) -> None:
        """Insert a stream of single occurrences via the batched fast path."""
        self.insert_batch(((key, 1) for key in keys), chunk_size=chunk_size)

    def insert_batch(
        self,
        pairs: Iterable[Tuple[object, int]],
        chunk_size: int = DEFAULT_BATCH_CHUNK,
    ) -> None:
        """Feed many ``(key, count)`` pairs through the batched fast path.

        Pairs are split at window boundaries by cumulative count, so each
        window receives exactly the mass the per-pair :meth:`insert` loop
        would have given it; within a window the sub-pairs are forwarded
        to :meth:`DaVinciSketch.insert_batch` (aggregation never crosses a
        window boundary).
        """
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        window_size = self.window_size
        buffer: List[Tuple[object, int]] = []
        buffered = 0
        for key, count in pairs:
            if count < 1:
                raise ConfigurationError(
                    "windowed insert count must be a positive integer"
                )
            remaining = count
            while remaining > 0:
                room = window_size - self._in_current - buffered
                take = remaining if remaining < room else room
                buffer.append((key, take))
                buffered += take
                remaining -= take
                if self._in_current + buffered >= window_size:
                    self._flush(buffer, buffered, chunk_size)
                    buffer = []
                    buffered = 0
            if len(buffer) >= chunk_size:
                self._flush(buffer, buffered, chunk_size)
                buffer = []
                buffered = 0
        if buffer:
            self._flush(buffer, buffered, chunk_size)

    def _flush(
        self, buffer: List[Tuple[object, int]], buffered: int, chunk_size: int
    ) -> None:
        """Ingest one window-bounded slice and rotate if the window filled."""
        self.current.insert_batch(buffer, chunk_size=chunk_size)
        self._in_current += buffered
        if self._in_current >= self.window_size:
            self.rotate()

    def rotate(self) -> DaVinciSketch:
        """Close the current window and start a fresh one.

        Returns the closed window (also retained in :attr:`closed`).
        Rotating an empty window is a no-op returning the newest closed
        window (or the empty current one if nothing was ever closed).
        """
        if self._in_current == 0:
            return self.closed[-1] if self.closed else self.current
        closed = self.current
        self.closed.append(closed)
        self.windows_closed += 1
        self.current = DaVinciSketch(self.config)
        self._in_current = 0
        return closed

    # ------------------------------------------------------------------ #
    # query side
    # ------------------------------------------------------------------ #
    def latest(self) -> Optional[DaVinciSketch]:
        """The newest closed window (None before the first rotation)."""
        return self.closed[-1] if self.closed else None

    def previous(self) -> Optional[DaVinciSketch]:
        """The window before the newest closed one."""
        return self.closed[-2] if len(self.closed) >= 2 else None

    def heavy_changers(self, threshold: int) -> Dict[int, int]:
        """Keys whose count changed by >= ``threshold`` across the two most
        recent closed windows (positive = grew); empty before two windows
        have closed."""
        newest, older = self.latest(), self.previous()
        if newest is None or older is None:
            return {}
        return heavy_changers(newest, older, threshold)

    def merged_view(self) -> DaVinciSketch:
        """Union of every retained closed window plus the live one.

        Gives a long-horizon sketch for frequency/HH/cardinality queries
        spanning the retention period.  Always returns a fresh
        *additive-mode* sketch — never an alias of a live window (or of the
        internal cache), and with a consistent mode even when nothing was
        ever inserted (an empty union is still a union).

        The fold over the *closed* windows is memoized, keyed on
        :attr:`windows_closed` (closed windows are immutable once rotated
        in, and the deque's content is a pure function of the rotation
        count): repeated calls between rotations pay for at most one union
        — the half-filled live window on top — instead of re-unioning every
        retained window from scratch.
        """
        cached = self._merged_closed_cache
        if cached is None or cached[0] != self.windows_closed:
            folded = DaVinciSketch(self.config)
            folded.mode = MODE_ADDITIVE
            for window in self.closed:
                if window.total_count == 0:
                    continue
                folded = folded.union(window)
            cached = (self.windows_closed, folded)
            self._merged_closed_cache = cached
        if self.current.total_count == 0:
            # Nothing live to union on top; clone so callers never hold a
            # reference into the cache.
            return from_wire(to_wire(cached[1]))
        return cached[1].union(self.current)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowedDaVinci(window_size={self.window_size}, "
            f"closed={len(self.closed)}/{self.retain}, "
            f"in_current={self._in_current})"
        )
