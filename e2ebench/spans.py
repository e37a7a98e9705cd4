"""Span recording for the traced run.

The traced run wraps public library functions from this file (spans inside
the library are a later change), so the per-layer numbers come from the
same calls a user makes.  Each wrapper records one span per call: name,
start, duration and the span that was open when it began.  A layer's
*self time* is its span time minus the time of the spans it caused.

Threads: the aggregation server answers on its own threads while the one
closed-loop client waits inside ``client.push`` / ``client.query``.  A span
that starts on a thread with no open span of its own is therefore charged
to the innermost span open on the main thread (the waiting client call).
With a single outstanding request that parent is exact.

Only main-thread top-level spans count towards covered wall time, so
``unattributed_fraction`` is the share of the measured wall time no span
explains.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["CLIENT_CALLS", "SpanStats", "Tracer", "layer_wrap_targets"]

#: the spans of a client call that waits on the server
CLIENT_CALLS = ("client.push", "client.query")


class SpanStats:
    """Accumulated calls, inclusive seconds and self seconds of one span."""

    __slots__ = ("calls", "total", "self_time", "under_client", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        #: inclusive seconds of the calls made directly inside a client
        #: push or query on the main thread (the client's own share of it)
        self.under_client = 0.0
        #: optional per-call payload size (bytes for wire encode)
        self.units = 0


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    """Install span wrappers, record spans while armed, then uninstall."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, SpanStats] = {}
        self.armed = False
        self.covered = 0.0
        self._stacks: Dict[int, List[_Frame]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # span bookkeeping
    # ------------------------------------------------------------------ #
    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, units: int = 0) -> None:
        duration = self.clock() - frame.start
        ident = threading.get_ident()
        stack = self._stacks[ident]
        stack.pop()
        with self._lock:
            stats = self.spans.get(frame.name)
            if stats is None:
                stats = self.spans[frame.name] = SpanStats()
            stats.calls += 1
            stats.total += duration
            stats.self_time += duration - frame.children
            stats.units += units
            if ident == self._main and stack and stack[-1].name in CLIENT_CALLS:
                stats.under_client += duration
            if stack:
                stack[-1].children += duration
            elif ident == self._main:
                self.covered += duration
            else:
                main_stack = self._stacks.get(self._main)
                if main_stack:
                    main_stack[-1].children += duration

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _wrapper(
        self,
        original: Callable[..., Any],
        name: str,
        size_of: Optional[Callable[[Any], int]],
    ) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.armed:
                return original(*args, **kwargs)
            frame = tracer.enter(name)
            units = 0
            try:
                result = original(*args, **kwargs)
                if size_of is not None:
                    units = size_of(result)
                return result
            finally:
                tracer.exit(frame, units)

        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace ``cls.attr`` (a plain method) with a traced version."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, size_of))

    def wrap_function(
        self,
        original: Callable[..., Any],
        name: str,
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace a module-level function under every name bound to it.

        ``from x import f`` copies the binding, so every loaded ``repro``
        module that holds the function object is rebound.
        """
        traced = self._wrapper(original, name, size_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def uninstall(self) -> None:
        """Restore every wrapped binding (idempotent)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_wrap_targets(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Span names are the per-layer metric prefixes in ``BENCHMARK.json``.
    """
    from repro.core import serialization, setops
    from repro.core.davinci import DaVinciSketch
    from repro.core.element_filter import ElementFilter
    from repro.core.frequent_part import FrequentPart
    from repro.core.infrequent_part import InfrequentPart
    from repro.core.tasks.distribution import CounterArrayEM
    from repro.core.tasks.heavy import heavy_changers
    from repro.runtime import sharded
    from repro.service.client import AggregationClient

    tracer.wrap_method(DaVinciSketch, "canonical_key", "canonical")
    tracer.wrap_method(sharded.ShardRouter, "canonical_key", "canonical")
    tracer.wrap_method(DaVinciSketch, "insert_batch", "davinci.insert_batch")
    tracer.wrap_method(FrequentPart, "insert_batch", "fp.insert_batch")
    tracer.wrap_method(ElementFilter, "offer_batch", "ef.offer_batch")
    tracer.wrap_method(InfrequentPart, "insert_batch", "ifp.insert_batch")
    tracer.wrap_method(InfrequentPart, "decode", "ifp.decode")
    for task in (
        "query",
        "heavy_hitters",
        "cardinality",
        "distribution",
        "entropy",
        "inner_join",
    ):
        tracer.wrap_method(DaVinciSketch, task, f"task.{task}")
    tracer.wrap_function(heavy_changers, "task.heavy_changers")
    tracer.wrap_method(CounterArrayEM, "estimate", "em")
    tracer.wrap_function(setops.union, "setops.union")
    tracer.wrap_function(setops.difference, "setops.difference")
    tracer.wrap_function(serialization.to_wire, "wire.encode", size_of=len)
    tracer.wrap_function(serialization.from_wire, "wire.decode")
    tracer.wrap_method(sharded.ShardedIngestor, "ingest_keys", "sharded.dispatch")
    tracer.wrap_method(sharded.ShardedIngestor, "finalize", "sharded.finalize")
    tracer.wrap_function(sharded.merge_tree, "sharded.merge_tree")
    tracer.wrap_method(AggregationClient, "push", "client.push")
    tracer.wrap_method(AggregationClient, "query", "client.query")
