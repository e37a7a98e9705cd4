"""Opt-in runtime invariant sanitizer (zero-cost when disabled).

The sketch hot paths maintain structural invariants that are cheap to state
but expensive to re-derive from a corrupted result: field residues stay
reduced mod ``p``, tower counters stay within their level caps, the element
filter never retains more than the first ``T`` units of a promoted element,
and a complete Fermat decode reproduces the encoded arrays exactly.

This module makes those invariants *executable* without taxing production
runs.  Checks are guarded at every call site by the module-level
:data:`ENABLED` flag::

    from repro.common import invariants as _inv

    def insert(self, key, count):
        ...
        if _inv.ENABLED:
            _inv.check_field_element(iid, p, "IFP.insert iID")

When the flag is ``False`` (the default) the only cost on the hot path is
one attribute load and a falsy branch — no function call, no argument
evaluation.  Set the environment variable ``REPRO_DEBUG_INVARIANTS=1``
before importing (or call :func:`set_enabled` / :func:`refresh` at runtime)
to arm the checks.  A failed check raises
:class:`~repro.common.errors.InvariantViolation`.

The checks back contracts that the test suite verifies at run time
(``docs/CONTRACTS.md``):

* :func:`check_field_element` re-verifies that every ``iID`` write is a
  residue reduced ``% p``, against the live value;
* :func:`check` replaces bare ``assert`` statements, which library code
  may not use — unlike ``assert`` it survives ``python -O`` and raises
  into the package's exception hierarchy;
* :func:`check_saturation` and :func:`check_bounded` police the counter
  ranges that the merge paths rely on once both operands are compatible.
"""

from __future__ import annotations

import os

import numpy

from repro.common.errors import InvariantViolation

#: environment variable that arms the sanitizer at import time
ENV_VAR = "REPRO_DEBUG_INVARIANTS"

#: master switch — read *by name* at each call site (``_inv.ENABLED``) so
#: that :func:`set_enabled` takes effect without re-importing call sites
ENABLED: bool = os.environ.get(ENV_VAR, "").strip() not in ("", "0", "false", "False")


def set_enabled(flag: bool) -> bool:
    """Arm or disarm the sanitizer at runtime; returns the previous state."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(flag)
    return previous


def refresh() -> bool:
    """Re-read :data:`ENV_VAR` from the environment; returns the new state."""
    set_enabled(
        os.environ.get(ENV_VAR, "").strip() not in ("", "0", "false", "False")
    )
    return ENABLED


def check(condition: bool, message: str) -> None:
    """Raise :class:`InvariantViolation` unless ``condition`` holds.

    The drop-in replacement for ``assert condition, message`` in library
    code (which the repo gate rejects): it cannot be stripped by
    ``python -O`` and it raises into the
    :class:`~repro.common.errors.ReproError` hierarchy.
    """
    if not condition:
        raise InvariantViolation(message)


def check_field_element(value: int, prime: int, where: str) -> None:
    """``value`` must be a reduced residue in ``[0, prime)``."""
    if not isinstance(value, int) or not 0 <= value < prime:
        raise InvariantViolation(
            f"{where}: field element {value!r} not reduced into [0, {prime})"
        )


def check_counter_int(value: object, where: str) -> None:
    """Counters must stay exact Python ints (no float contamination)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvariantViolation(
            f"{where}: counter {value!r} is {type(value).__name__}, expected int"
        )


def check_non_negative(value: int, where: str) -> None:
    """``value`` must be >= 0 (e.g. unsigned counters, overflow amounts)."""
    if value < 0:
        raise InvariantViolation(f"{where}: expected non-negative, got {value}")


def check_bounded(value: int, low: int, high: int, where: str) -> None:
    """``value`` must lie in the inclusive range ``[low, high]``."""
    if not low <= value <= high:
        raise InvariantViolation(
            f"{where}: {value} outside expected range [{low}, {high}]"
        )


def check_saturation(value: int, cap: int, where: str) -> None:
    """A saturating counter must never exceed its level cap."""
    if value > cap:
        raise InvariantViolation(
            f"{where}: counter {value} exceeds saturation cap {cap}"
        )


def check_decode_roundtrip(ifp: object, decoded: object, where: str) -> None:
    """A *complete* decode must re-encode to the original arrays.

    ``ifp`` is the :class:`~repro.core.infrequent_part.CountingFermat`
    that was decoded, ``decoded`` its recovered ``{key: signed count}``
    map.  Re-inserting every pair into an empty clone must reproduce both
    the ``iID`` and ``icnt`` arrays bucket-for-bucket; any mismatch means
    a phantom element survived the purity checks.  O(rows x width + rows x
    |decoded|), so it only ever runs under the debug flag.
    """
    scratch = ifp.empty_like()  # type: ignore[attr-defined]
    for key, count in decoded.items():  # type: ignore[attr-defined]
        scratch._apply(key, count)
    if not (
        numpy.array_equal(scratch.ids, ifp.ids)  # type: ignore[attr-defined]
        and numpy.array_equal(scratch.counts, ifp.counts)  # type: ignore[attr-defined]
    ):
        raise InvariantViolation(
            f"{where}: complete decode does not re-encode to the original "
            "arrays (phantom or dropped element)"
        )
