"""Named-task dispatch shared by the server QUERY op and cluster queries.

The nine task consumers of the degradation contract (frequency query,
heavy hitters, heavy changers, cardinality, distribution, entropy,
inner join, union, difference) are exposed remotely under stable string
names.  Both ends use this table: the server runs a task against a
stored aggregate; the cluster querier runs the same task against a
locally merged fold of fetched shards.  ``encode_value`` /
``decode_value`` round-trip each task's result through JSON (sketch
results travel as wire-v3 blobs instead).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.core import setops
from repro.core.davinci import DaVinciSketch
from repro.core.degrade import DegradationPolicy, DegradedResult
from repro.core.tasks import heavy_changers

__all__ = [
    "SINGLE_TASKS",
    "PAIR_TASKS",
    "TASKS",
    "SKETCH_TASKS",
    "run_task",
    "neutral_fallback",
    "encode_value",
    "decode_value",
    "parse_policy",
]

#: tasks over one aggregate
SINGLE_TASKS = (
    "query",
    "heavy_hitters",
    "cardinality",
    "distribution",
    "entropy",
)

#: tasks needing a second aggregate (``other=``)
PAIR_TASKS = ("inner_join", "heavy_changers", "union", "difference")

TASKS = SINGLE_TASKS + PAIR_TASKS

#: tasks whose result is itself a sketch (travels as a wire blob)
SKETCH_TASKS = ("union", "difference")

#: tasks whose result dict is keyed by canonical element keys
_KEYED_TASKS = ("heavy_hitters", "heavy_changers")

#: neutral values BEST_EFFORT substitutes when a task cannot run at all
_FALLBACKS: Dict[str, Callable[[], object]] = {
    "query": lambda: 0,
    "heavy_hitters": dict,
    "heavy_changers": dict,
    "cardinality": lambda: 0.0,
    "distribution": dict,
    "entropy": lambda: 0.0,
    "inner_join": lambda: 0.0,
}


def _require_int(kwargs: Dict[str, Any], name: str, task: str) -> int:
    value = kwargs.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(
            f"task {task!r} needs an integer {name!r} argument, got "
            f"{value!r}"
        )
    return value


def parse_policy(name: Optional[str]) -> Optional[DegradationPolicy]:
    """A policy enum from its wire name (``None`` passes through)."""
    if name is None:
        return None
    try:
        return DegradationPolicy(name)
    except ValueError:
        raise ConfigurationError(
            f"unknown degradation policy {name!r}; expected one of "
            f"{[p.value for p in DegradationPolicy]}"
        ) from None


def run_task(
    sketch: DaVinciSketch,
    task: str,
    *,
    other: Optional[DaVinciSketch] = None,
    policy: Optional[DegradationPolicy] = None,
    **kwargs: Any,
) -> Union[object, DegradedResult[Any]]:
    """Run ``task`` against ``sketch`` (and ``other`` for pair tasks).

    With ``policy=None`` this returns the task's plain value (historical
    behavior); with a policy it returns the task's
    :class:`~repro.core.degrade.DegradedResult`.
    """
    if task not in TASKS:
        raise ConfigurationError(
            f"unknown task {task!r}; expected one of {list(TASKS)}"
        )
    if task in PAIR_TASKS and other is None:
        raise ConfigurationError(f"task {task!r} needs a second aggregate")

    if task == "query":
        key = _require_int(kwargs, "key", task)
        if policy is not None:
            return sketch.query(key, policy=policy)
        return sketch.query(key)
    if task == "heavy_hitters":
        threshold = _require_int(kwargs, "threshold", task)
        if policy is not None:
            return sketch.heavy_hitters(threshold, policy=policy)
        return sketch.heavy_hitters(threshold)
    if task == "cardinality":
        if policy is not None:
            return sketch.cardinality(policy=policy)
        return sketch.cardinality()
    if task == "distribution":
        max_size = kwargs.get("max_size")
        if policy is not None:
            return sketch.distribution(max_size=max_size, policy=policy)
        return sketch.distribution(max_size=max_size)
    if task == "entropy":
        if policy is not None:
            return sketch.entropy(policy=policy)
        return sketch.entropy()
    if task == "inner_join":
        if policy is not None:
            return sketch.inner_join(other, policy=policy)
        return sketch.inner_join(other)
    if task == "heavy_changers":
        threshold = _require_int(kwargs, "threshold", task)
        if policy is not None:
            return heavy_changers(sketch, other, threshold, policy=policy)
        return heavy_changers(sketch, other, threshold)
    if task == "union":
        if policy is not None:
            return setops.union(sketch, other, policy=policy)
        return setops.union(sketch, other)
    # difference (the task table above is exhaustive)
    if policy is not None:
        return setops.difference(sketch, other, policy=policy)
    return setops.difference(sketch, other)


def neutral_fallback(task: str) -> object:
    """BEST_EFFORT's zero-data answer; raises for sketch-valued tasks."""
    factory = _FALLBACKS.get(task)
    if factory is None:
        raise ConfigurationError(
            f"task {task!r} has no neutral fallback (its result is a "
            "sketch); at least one shard must be reachable"
        )
    return factory()


def encode_value(task: str, value: Any) -> Any:
    """JSON-safe encoding of a task value (sketches are *not* handled
    here — the caller ships them as wire blobs)."""
    if task in _KEYED_TASKS or task == "distribution":
        return {str(key): entry for key, entry in value.items()}
    return value


def decode_value(task: str, value: Any) -> Any:
    """Invert :func:`encode_value` after a JSON round-trip."""
    if task in _KEYED_TASKS:
        return {int(key): int(entry) for key, entry in value.items()}
    if task == "distribution":
        return {int(key): float(entry) for key, entry in value.items()}
    return value


def split_degraded(
    result: Union[object, DegradedResult[Any]],
) -> Tuple[Any, bool, Optional[str]]:
    """Normalize a task return to ``(value, degraded, reason)``."""
    if isinstance(result, DegradedResult):
        return result.value, result.degraded, result.reason
    return result, False, None
