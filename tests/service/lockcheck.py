"""A runtime lock checker for the service tests, in the manner of lockdep.

While a test runs, the ``threading`` attribute of the checked modules is
replaced so that ``Lock``, ``RLock`` and ``Condition`` return recording
wrappers.  Each wrapper knows its owner (the ``self`` of the frame that
created it) and every thread keeps a stack of the checked locks it
holds.  The real code's acquisitions then feed four checks -- lock
order, blocking under a lock, recording under a lock, and guarded
writes -- which ``docs/CONCURRENCY.md`` specifies, with the
``_Aggregate.lock`` recording exemption.

Violations are collected and fail the test at teardown.  A blocking
re-acquisition of a held non-reentrant lock also raises
:class:`LockCheckError` at once, instead of hanging.  The checker is
installed with ``monkeypatch`` only; the library has no hook for it.
"""

from __future__ import annotations

import itertools
import os
import socket
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.service import breaker as _breaker
from repro.service import server as _server
from repro.testing import chaos as _chaos
from tests.recordertrap import RECORDERS as METRIC_RECORDERS

CHECKED_MODULES = (_server, _breaker, _chaos, _metrics)
GUARDED_CLASSES = (
    _server.SketchServer,
    _server._Aggregate,
    _breaker.CircuitBreaker,
    _chaos.ChaosProxy,
)
BLOCKING_SOCKET_OPS = ("sendall", "recv", "recv_into", "accept", "connect")
RECORDERS = ((_tracing.TraceSink, "emit"),) + METRIC_RECORDERS
_OWN_FILES = {os.path.abspath(__file__), os.path.abspath(threading.__file__)}


class _HeldStacks(threading.local):
    def __init__(self) -> None:
        self.stack: List["_CheckedLock"] = []


class LockCheckError(AssertionError):
    """An acquisition that would deadlock, raised instead of hanging."""


def _site() -> str:
    """``file:line in function`` of the nearest frame outside the checker."""
    frame: Any = sys._getframe(1)
    while os.path.abspath(frame.f_code.co_filename) in _OWN_FILES:
        frame = frame.f_back
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{frame.f_lineno} in {code.co_name}"


class _CheckedLock:
    def __init__(self, checker: "LockChecker", real: Any, reentrant: bool) -> None:
        self._checker = checker
        self._real = real
        self.reentrant = reentrant
        creator: Any = sys._getframe(2)  # the caller of the patched factory
        self.owner = creator.f_locals.get("self")
        if self.owner is not None:
            checker.owners[id(self.owner)] = self.owner
        kind = type(self.owner).__name__ if self.owner is not None else "module"
        self.name = f"{kind}#{next(checker.serials)} (made at {_site()})"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._checker.before_acquire(self, blocking)
        if not self._real.acquire(blocking, timeout):
            return False
        self._checker.held().append(self)
        return True

    __enter__ = acquire

    def release(self) -> None:
        self._real.release()
        held = self._checker.held()
        if self in held:  # a plain Lock may be released by another thread
            held.remove(self)

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def _is_owned(self) -> bool:  # what threading.Condition.wait asks
        return self in self._checker.held()


class _CheckedCondition(threading.Condition):
    def __init__(self, checker: "LockChecker", lock: _CheckedLock) -> None:
        super().__init__(lock)  # type: ignore[arg-type]
        self._checker = checker

    def wait(self, timeout: Optional[float] = None) -> bool:
        for lock in self._checker.held():
            if lock is not self._lock:
                self._checker.fail(f"Condition.wait at {_site()} holding {lock.name}")
                break
        return super().wait(timeout)


class _CheckedThreading:
    """Stands in for the ``threading`` module inside the checked modules."""

    def __init__(self, checker: "LockChecker") -> None:
        self._checker = checker

    def __getattr__(self, name: str) -> Any:
        return getattr(threading, name)

    def Lock(self) -> _CheckedLock:
        return _CheckedLock(self._checker, threading.Lock(), reentrant=False)

    def RLock(self) -> _CheckedLock:
        return _CheckedLock(self._checker, threading.RLock(), reentrant=True)

    def Condition(self, lock: Optional[_CheckedLock] = None) -> _CheckedCondition:
        if lock is None:
            lock = _CheckedLock(self._checker, threading.RLock(), reentrant=True)
        return _CheckedCondition(self._checker, lock)


class LockChecker:
    """The violations and lock-order edges seen during one test."""

    def __init__(self) -> None:
        self.armed = True
        self.violations: List[str] = []
        #: (held, acquired) -> the site of the first such acquisition
        self.edges: Dict[Tuple[_CheckedLock, _CheckedLock], str] = {}
        #: every instance that owns a checked lock, by id
        self.owners: Dict[int, object] = {}
        self.serials = itertools.count(1)
        self._stacks = _HeldStacks()

    def held(self) -> List[_CheckedLock]:
        return self._stacks.stack

    def fail(self, message: str) -> None:
        if self.armed and message not in self.violations:
            self.violations.append(message)

    def install(self, monkeypatch: Any) -> None:
        for module in CHECKED_MODULES:
            monkeypatch.setattr(module, "threading", _CheckedThreading(self))
        monkeypatch.setattr(time, "sleep", self._forbid("time.sleep", time.sleep))
        for op in BLOCKING_SOCKET_OPS:
            real = getattr(socket.socket, op)
            monkeypatch.setattr(socket.socket, op, self._forbid(f"socket.{op}", real))
        # Library code runs under _Aggregate.lock by design (the PUSH fold,
        # every QUERY task) and records its own metrics there.
        for cls, method in RECORDERS:
            what, real = f"{cls.__name__}.{method}", getattr(cls, method)
            checked = self._forbid(what, real, exempt=(_server._Aggregate,))
            monkeypatch.setattr(cls, method, checked)
        for cls in GUARDED_CLASSES:
            monkeypatch.setattr(cls, "__setattr__", self._guarding())

    def before_acquire(self, lock: _CheckedLock, blocking: bool) -> None:
        held = self.held()
        if lock in held:
            if blocking and not lock.reentrant:
                message = f"self-deadlock: {lock.name} re-acquired at {_site()}"
                self.fail(message)
                raise LockCheckError(message)
            return
        for outer in held:
            if (outer, lock) not in self.edges:
                self.edges[(outer, lock)] = _site()

    def _forbid(
        self, what: str, real: Callable[..., Any], exempt: Tuple[type, ...] = ()
    ) -> Callable[..., Any]:
        """``real``, failing when called under a lock not owned by ``exempt``."""

        def checked(*args: Any, **kwargs: Any) -> Any:
            for lock in self.held():
                if not isinstance(lock.owner, exempt):
                    self.fail(f"{what} at {_site()} holding {lock.name}")
                    break
            return real(*args, **kwargs)

        return checked

    def _guarding(self) -> Callable[[object, str, object], None]:
        def checked(obj: object, name: str, value: object) -> None:
            if (
                id(obj) in self.owners
                and threading.current_thread() is not threading.main_thread()
            ):
                writer = sys._getframe(1).f_code.co_name
                exempt = writer in ("__init__", "_observe", "_sink") or (
                    writer.startswith("_record")
                )
                if not exempt and not any(h.owner is obj for h in self.held()):
                    where = f"{type(obj).__name__}.{name} at {_site()}"
                    self.fail(f"unguarded write {where}")
            object.__setattr__(obj, name, value)

        return checked

    def cycle(self) -> List[Tuple[_CheckedLock, _CheckedLock]]:
        """The edges of one cycle in the order graph (empty if acyclic)."""
        graph: Dict[_CheckedLock, List[_CheckedLock]] = {}
        for outer, inner in list(self.edges):
            graph.setdefault(outer, []).append(inner)
        finished = set()

        def visit(path: List[_CheckedLock]) -> List[Tuple[_CheckedLock, _CheckedLock]]:
            for nxt in graph.get(path[-1], ()):
                if nxt in path:
                    loop = path[path.index(nxt):] + [nxt]
                    return list(zip(loop, loop[1:]))
                if nxt not in finished:
                    found = visit(path + [nxt])
                    if found:
                        return found
            finished.add(path[-1])
            return []

        for start in list(graph):
            found = visit([start])
            if found:
                return found
        return []

    def verify(self) -> None:
        """Fail with every violation seen; the checker is spent after."""
        edges = [
            f"{a.name} -> {b.name} at {self.edges[(a, b)]}" for a, b in self.cycle()
        ]
        if edges:
            self.fail("lock-order cycle:\n    " + "\n    ".join(edges))
        problems, self.violations = self.violations, []
        self.armed = False
        assert not problems, "lock checker:\n  " + "\n  ".join(problems)
