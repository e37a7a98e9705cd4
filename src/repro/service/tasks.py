"""Task names and result encoding for the server QUERY op and cluster queries.

The nine task consumers of the degradation contract (frequency query,
heavy hitters, heavy changers, cardinality, distribution, entropy,
inner join, union, difference) are exposed remotely under stable string
names.  The server runs a task against a stored aggregate and the
cluster querier against a locally merged fold of fetched shards, both
through :func:`repro.core.degrade.run_task` (re-exported here).
``encode_value`` / ``decode_value`` round-trip each task's result
through JSON (sketch results travel as wire-v3 blobs instead).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.core.degrade import (
    PAIR_TASKS,
    SINGLE_TASKS,
    SKETCH_TASKS,
    TASKS,
    DegradationPolicy,
    DegradedResult,
    check_task,
    neutral_fallback,
    run_task,
)

__all__ = [
    "SINGLE_TASKS",
    "PAIR_TASKS",
    "TASKS",
    "SKETCH_TASKS",
    "check_task",
    "run_task",
    "neutral_fallback",
    "encode_value",
    "decode_value",
    "parse_policy",
    "split_degraded",
]

#: tasks whose result dict is keyed by canonical element keys
_KEYED_TASKS = ("heavy_hitters", "heavy_changers")


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
