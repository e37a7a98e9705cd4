"""Heavy-hitter and heavy-changer detection.

Heavy hitters are read off the keys the structure tracks exactly — the
frequent-part residents (where a genuine heavy hitter lives with
overwhelming probability, by the eviction discipline) plus the decoded
infrequent-part elements (which matter after merges and for borderline
thresholds).  The candidates are gathered as int64 arrays, and each is
re-estimated with the full Algorithm-4 query, all in one array read,
before thresholding.

Heavy changers follow the paper's recipe: subtract the sketches of two
time windows and run heavy-hitter detection on the signed result, ranking
by the magnitude of the change.  Candidates additionally include the
frequent-part residents of *both* windows, so a flow that crashed from
heavy to absent (living only in window 1's FP) is still examined.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union, overload

from repro.common.errors import ConfigurationError
from repro.core.degrade import DegradationPolicy, DegradedResult, apply_policy
from repro.core.kernel import np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.davinci import DaVinciSketch


def heavy_hitters(sketch: "DaVinciSketch", threshold: int) -> Dict[int, int]:
    """Keys whose estimated |frequency| is at least ``threshold``."""
    if threshold <= 0:
        raise ConfigurationError("threshold must be positive")
    keys, estimates = sketch.known_estimates()
    heavy = np.abs(estimates) >= threshold
    return dict(zip(keys[heavy].tolist(), estimates[heavy].tolist()))


@overload
def heavy_changers(
    window_a: "DaVinciSketch", window_b: "DaVinciSketch", threshold: int
) -> Dict[int, int]: ...


@overload
def heavy_changers(
    window_a: "DaVinciSketch",
    window_b: "DaVinciSketch",
    threshold: int,
    *,
    policy: DegradationPolicy,
) -> DegradedResult[Dict[int, int]]: ...


def heavy_changers(
    window_a: "DaVinciSketch",
    window_b: "DaVinciSketch",
    threshold: int,
    *,
    policy: Optional[DegradationPolicy] = None,
) -> Union[Dict[int, int], DegradedResult[Dict[int, int]]]:
    """Keys whose frequency changed by at least ``threshold`` across windows.

    Returns ``{key: signed change}`` with positive values meaning the key
    grew from window ``b`` to window ``a``... more precisely the value is
    ``f_a(key) − f_b(key)`` as estimated on the difference sketch.

    With a :class:`~repro.core.degrade.DegradationPolicy`, both windows
    *and* the derived difference sketch are checked for decode stalls and
    the change map is wrapped in a
    :class:`~repro.core.degrade.DegradedResult`.
    """
    if threshold <= 0:
        raise ConfigurationError("threshold must be positive")
    delta = window_a.difference(window_b)
    if policy is not None:
        return apply_policy(
            "heavy_changers",
            (window_a, window_b, delta),
            lambda: _heavy_changers_value(window_a, window_b, delta, threshold),
            policy,
        )
    return _heavy_changers_value(window_a, window_b, delta, threshold)


def _heavy_changers_value(
    window_a: "DaVinciSketch",
    window_b: "DaVinciSketch",
    delta: "DaVinciSketch",
    threshold: int,
) -> Dict[int, int]:
    from repro.core.davinci import exact_sum, union_keys

    candidates = union_keys(
        delta.fp.residents()[0],
        delta.decode_result().keys,
        window_a.fp.residents()[0],
        window_b.fp.residents()[0],
    )
    keys = candidates.tolist()

    # The difference sketch discovers the candidates; each candidate's
    # change is then re-estimated from the windows' own (Algorithm-4)
    # point queries, which are immune to the two artifacts of counter
    # subtraction — saturated small counters and unpeeled infrequent
    # buckets — that would otherwise report phantom changes.  (An
    # estimate negates exactly: see ``exact_sum``.)
    change = exact_sum(window_a.estimates(keys), -window_b.estimates(keys))
    changed = np.abs(change) >= threshold
    return dict(zip(candidates[changed].tolist(), change[changed].tolist()))
