"""Small argument-validation helpers shared across the package.

Every sketch validates its shape eagerly at construction.  Collecting the
checks here keeps constructor bodies readable and the error messages
uniform.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.common.errors import ConfigurationError

#: the range of the int64 buffers that hold frequent-part counts, evict
#: counters and a sketch's ``total_count``
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def require_positive(name: str, value: object) -> int:
    """Return ``value`` if it is a positive int, else raise."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def require_non_negative(name: str, value: object) -> int:
    """Return ``value`` if it is a non-negative int, else raise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigurationError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return value


def require_int64(name: str, value: int) -> int:
    """Return ``value`` if it fits a signed 64-bit integer, else raise."""
    if not INT64_MIN <= value <= INT64_MAX:
        raise ConfigurationError(
            f"{name} {value} leaves the int64 range [-2^63, 2^63)"
        )
    return value


def require_fraction(
    name: str, value: "Union[int, float, str]", *, inclusive: bool = False
) -> float:
    """Return ``value`` if it lies in (0, 1) — or [0, 1] when inclusive."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    low_ok = value >= 0.0 if inclusive else value > 0.0
    high_ok = value <= 1.0 if inclusive else value < 1.0
    if not (low_ok and high_ok):
        bounds = "[0, 1]" if inclusive else "(0, 1)"
        raise ConfigurationError(f"{name} must be in {bounds}, got {value!r}")
    return value


def require_memory_budget(name: str, budget_bytes: int, needed_bytes: int) -> None:
    """Raise when a structure cannot fit its minimum shape into a budget."""
    if needed_bytes > budget_bytes:
        raise ConfigurationError(
            f"{name}: memory budget of {budget_bytes} B cannot fit the "
            f"minimum structure ({needed_bytes} B); increase the budget or "
            f"shrink rows/entries"
        )


def check_same_type(left: object, right: object) -> None:
    """Mergeable sketches must be the exact same class."""
    if type(left) is not type(right):
        raise ConfigurationError(
            f"cannot combine {type(left).__name__} with {type(right).__name__}"
        )
