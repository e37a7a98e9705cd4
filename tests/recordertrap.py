"""A recorder trap: a metric recorded while collection is off fails the test.

Library code guards every record behind ``if _obs.ENABLED:``, so with
collection off no ``Counter``, ``Gauge`` or ``Histogram`` is touched.
While a test runs, their recording methods note each call made while
``ENABLED`` is false, with the library line that made it, and the test
fails at teardown.  Calls are noted, not raised, because service and
worker threads swallow their own exceptions.  ``TraceSink.emit`` is not
trapped: the service and the fault injectors emit traces unguarded by
design.  What an armed guard costs is pinned by
``tests/observability/test_overhead.py``.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Callable, List

import repro
from repro.observability import metrics as _metrics

RECORDERS = (
    (_metrics.Counter, "inc"),
    (_metrics.Gauge, "set"),
    (_metrics.Gauge, "inc"),
    (_metrics.Gauge, "dec"),
    (_metrics.Histogram, "observe"),
)
_LIBRARY = os.path.dirname(os.path.abspath(repro.__file__))


def _library_site() -> str:
    """``file:line in function`` of the innermost library frame."""
    inside = [f for f in traceback.extract_stack() if f.filename.startswith(_LIBRARY)]
    if not inside:
        return "outside the library"
    where = inside[-1]
    return f"{os.path.relpath(where.filename, _LIBRARY)}:{where.lineno} in {where.name}"


class RecorderTrap:
    """The recorder calls made with metrics collection off during one test."""

    def __init__(self) -> None:
        self.calls: List[str] = []

    def install(self, monkeypatch: Any) -> None:
        for cls, method in RECORDERS:
            what, real = f"{cls.__name__}.{method}", getattr(cls, method)
            monkeypatch.setattr(cls, method, self._trapped(what, real))

    def _trapped(self, what: str, real: Callable[..., Any]) -> Callable[..., Any]:
        def trapped(*args: Any, **kwargs: Any) -> Any:
            if not _metrics.ENABLED:
                self.calls.append(f"{what} at {_library_site()}")
            return real(*args, **kwargs)

        return trapped

    def verify(self) -> None:
        """Fail with every distinct call seen."""
        calls, self.calls = list(dict.fromkeys(self.calls)), []
        assert not calls, "recorded with metrics off:\n  " + "\n  ".join(calls)
