"""Graceful decode degradation: explicit policies instead of silent guesses.

The infrequent part's peeling decode (Algorithm 5) can stall — overloaded
buckets, hostile merges, or plain bad luck leave residual buckets that no
longer peel.  Every IFP decode consumer (frequency, heavy hitters/changers,
cardinality, distribution, entropy, inner join, union, difference) then
faces the same choice: raise, silently fall back to the EF/fast-query
estimates, or answer with an explicit quality flag.  Before this module the
package silently fell back; now the caller picks a
:class:`DegradationPolicy` and gets a :class:`DegradedResult` whose
``degraded``/``reason`` fields say exactly what happened:

``STRICT``
    Only act on fully-decoded state.  A stalled peel raises
    :class:`~repro.common.errors.DecodeError` carrying the partial counts
    (:attr:`DecodeError.partial`), even for tasks whose estimator would
    not have consulted the decoded keys — conservative by design, so a
    collector can quarantine a measurement point uniformly.
``DEGRADE``
    Compute with the documented fallbacks (``DecodeError.partial`` + the
    element-filter/fast-query estimates) and return the result flagged
    ``degraded=True`` with a human-readable ``reason``.
``BEST_EFFORT``
    Like ``DEGRADE``, but guaranteed to return: a
    :class:`~repro.common.errors.DecodeError` escaping the computation is
    converted into the task's neutral fallback value, and non-finite
    floats are clamped to the fallback.  For dashboards that must render
    *something* under any fault.

:func:`run_task` is the one place the policy is applied: the task
functions, the set operations and the :class:`DaVinciSketch` facades
return plain values, and ``run_task(sketch, task, policy=...)`` wraps
them.  Passing ``policy=None`` (the default) preserves the historical
behavior: plain values, silent fallbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generic,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.common.errors import ConfigurationError, DecodeError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.davinci import DaVinciSketch

T = TypeVar("T")


class DegradationPolicy(Enum):
    """How a task should react to an incomplete infrequent-part decode."""

    STRICT = "strict"
    DEGRADE = "degrade"
    BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class DegradedResult(Generic[T]):
    """A task answer with an explicit quality flag.

    Attributes
    ----------
    value:
        The task's answer (same type the un-wrapped task returns).
    degraded:
        ``True`` when any involved sketch's decode was incomplete or a
        fallback value was substituted; ``False`` means the answer is
        exactly what a clean run would have produced.
    reason:
        Human-readable description of the degradation (``None`` when
        ``degraded`` is ``False``).
    """

    value: T
    degraded: bool = False
    reason: Optional[str] = None

    def unwrap(self) -> T:
        """The raw value (convenience for call sites that ignore flags)."""
        return self.value


def stall_reason(sketches: Sequence["DaVinciSketch"]) -> Optional[str]:
    """Describe every stalled decode among ``sketches`` (None = all clean)."""
    reasons = []
    for index, sketch in enumerate(sketches):
        result = sketch.decode_result()
        if not result.complete:
            cut = "; its visit budget ran out" if result.budget_exhausted else ""
            reasons.append(
                f"sketch[{index}]: {result.residual_buckets} residual IFP "
                f"buckets undecoded ({len(result.counts)} keys recovered{cut})"
            )
    if not reasons:
        return None
    return "; ".join(reasons)


def merged_partial(sketches: Sequence["DaVinciSketch"]) -> Dict[int, int]:
    """Union of the partial decode payloads of ``sketches``."""
    partial: Dict[int, int] = {}
    for sketch in sketches:
        partial.update(sketch.decode_result().counts)
    return partial


def finite_or(fallback: float) -> Callable[[float], float]:
    """A sanitizer replacing NaN/inf floats with ``fallback``."""

    def sanitize(value: float) -> float:
        return value if math.isfinite(value) else fallback

    return sanitize


def execute(
    sketches: Sequence["DaVinciSketch"],
    compute: Callable[[], T],
    policy: DegradationPolicy,
    fallback: Callable[[], T],
    sanitize: Optional[Callable[[T], T]] = None,
) -> DegradedResult[T]:
    """Run ``compute`` under ``policy``; the single degradation choke point.

    ``sketches`` are the inputs whose decode completeness defines whether
    the answer is degraded.  ``fallback`` provides the neutral value
    ``BEST_EFFORT`` substitutes when ``compute`` itself raises
    :class:`DecodeError`; ``sanitize`` (optional) repairs non-finite
    values under ``BEST_EFFORT``.
    """
    reason = stall_reason(sketches)
    if policy is DegradationPolicy.STRICT and reason is not None:
        raise DecodeError(
            f"decode incomplete under STRICT policy: {reason}",
            partial=merged_partial(sketches),
        )
    degraded = reason is not None
    try:
        value = compute()
    except DecodeError as error:
        if policy is not DegradationPolicy.BEST_EFFORT:
            raise
        value = fallback()
        degraded = True
        reason = (reason + "; " if reason else "") + f"decode error: {error}"
    if sanitize is not None and policy is DegradationPolicy.BEST_EFFORT:
        repaired = sanitize(value)
        if repaired is not value and repaired != value:
            degraded = True
            reason = (reason + "; " if reason else "") + (
                "non-finite value replaced by fallback"
            )
        value = repaired
    return DegradedResult(value=value, degraded=degraded, reason=reason)


#: tasks over one sketch
SINGLE_TASKS = (
    "query",
    "heavy_hitters",
    "cardinality",
    "distribution",
    "entropy",
)

#: tasks needing a second sketch (``other=``)
PAIR_TASKS = ("inner_join", "heavy_changers", "union", "difference")

TASKS = SINGLE_TASKS + PAIR_TASKS

#: tasks whose result is itself a sketch, flagged by its own decode
SKETCH_TASKS = ("union", "difference")


def _drop_bad_mass(histogram: Dict[int, float]) -> Dict[int, float]:
    """Drop non-finite or negative mass (BEST_EFFORT repair)."""
    return {
        size: count
        for size, count in histogram.items()
        if math.isfinite(count) and count >= 0.0
    }


#: per value-returning task: the neutral value BEST_EFFORT substitutes
#: when the task cannot run at all, and its BEST_EFFORT repair
_NEUTRAL: Dict[str, Tuple[Callable[[], Any], Optional[Callable[[Any], Any]]]] = {
    "query": (int, None),
    "heavy_hitters": (dict, None),
    "heavy_changers": (dict, None),
    "cardinality": (float, finite_or(0.0)),
    "distribution": (dict, _drop_bad_mass),
    "entropy": (float, finite_or(0.0)),
    "inner_join": (float, finite_or(0.0)),
}


def neutral_fallback(task: str) -> object:
    """BEST_EFFORT's zero-data answer; raises for sketch-valued tasks."""
    entry = _NEUTRAL.get(task)
    if entry is None:
        raise ConfigurationError(
            f"task {task!r} has no neutral fallback (its result is a "
            "sketch); at least one shard must be reachable"
        )
    return entry[0]()


def check_task(task: object, other: object = None) -> None:
    """Raise unless ``task`` is a task name and a pair task has ``other``."""
    if task not in TASKS:
        raise ConfigurationError(
            f"unknown task {task!r}; expected one of {list(TASKS)}"
        )
    if task in PAIR_TASKS and other is None:
        raise ConfigurationError(f"task {task!r} needs an 'other' aggregate")


def apply_policy(
    task: str,
    inputs: Sequence["DaVinciSketch"],
    compute: Callable[[], T],
    policy: DegradationPolicy,
) -> DegradedResult[T]:
    """:func:`execute` with ``task``'s fallback and repair from the table."""
    fallback, sanitize = _NEUTRAL[task]
    return execute(inputs, compute, policy, fallback, sanitize)


def _require_int(args: Dict[str, Any], name: str, task: str) -> int:
    value = args.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(
            f"task {task!r} needs an integer {name!r} argument, got "
            f"{value!r}"
        )
    return value


def _optional_max_size(args: Dict[str, Any]) -> Optional[int]:
    value = args.get("max_size")
    if value is not None and (
        not isinstance(value, int) or isinstance(value, bool) or value < 1
    ):
        raise ConfigurationError(
            f"task 'distribution' needs 'max_size' to be null or an integer "
            f">= 1, got {value!r}"
        )
    return value


def run_task(
    sketch: "DaVinciSketch",
    task: str,
    *,
    other: Optional["DaVinciSketch"] = None,
    policy: Optional[DegradationPolicy] = None,
    **args: Any,
) -> Union[object, DegradedResult[Any]]:
    """Run the named ``task`` on ``sketch`` (and ``other`` for pair tasks).

    With ``policy=None`` this returns the task's plain value; with a
    policy it returns a :class:`DegradedResult`.  Value tasks are flagged
    by the decode state of their inputs, ``union`` and ``difference`` by
    that of the sketch they return.  Arguments: ``key`` (``query``),
    ``threshold`` (``heavy_hitters``, ``heavy_changers``) and an optional
    ``max_size`` (``distribution``).

    Each task runs through the :class:`DaVinciSketch` method of the same
    name (``heavy_changers`` through
    :func:`repro.core.tasks.heavy.heavy_changers`), looked up at call
    time, so wrappers installed on those names see every call.
    """
    check_task(task, other)
    partner = cast("DaVinciSketch", other)  # set for every pair task
    if task == "heavy_changers":
        from repro.core.tasks import heavy

        threshold = _require_int(args, "threshold", task)
        # It also checks the difference sketch it derives, so it applies
        # the policy itself rather than deriving that sketch twice.
        return heavy.heavy_changers(sketch, partner, threshold, policy=policy)
    operands: Tuple[Any, ...] = ()
    if task == "query":
        operands = (_require_int(args, "key", task),)
    elif task == "heavy_hitters":
        operands = (_require_int(args, "threshold", task),)
    elif task == "distribution":
        operands = (_optional_max_size(args),)
    elif task in PAIR_TASKS:
        operands = (partner,)
    compute = partial(getattr(sketch, task), *operands)
    if policy is None:
        return compute()
    if task in SKETCH_TASKS:
        result = compute()
        return execute((result,), lambda: result, policy, lambda: result)
    inputs = (sketch, partner) if task == "inner_join" else (sketch,)
    return apply_policy(task, inputs, compute, policy)
