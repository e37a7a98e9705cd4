"""Entropy estimation: apply the frequency results to the entropy formula.

``H(F) = − Σ_i (f_i / S) · ln(f_i / S)`` where ``S`` is the stream length
(tracked exactly by the sketch as a single scalar).  The per-size counts
come from the distribution estimator, so the exact frequent/decoded parts
contribute exactly and the filter residents through the EM deconvolution —
precisely the paper's "calculated by applying the frequency results to the
entropy formula".
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.davinci import DaVinciSketch


def entropy_of_distribution(histogram: Dict[int, float], total: float) -> float:
    """Entropy (nats) of a ``{size: #flows}`` histogram with stream size S.

    Sizes <= 0 and non-positive counts are ignored; an empty histogram or
    non-positive ``total`` yields 0 (the entropy of an empty stream).
    """
    if total <= 0:
        return 0.0
    result = 0.0
    for size, count in histogram.items():
        if size <= 0 or count <= 0:
            continue
        probability = size / total
        if probability <= 0:
            continue
        result -= count * probability * math.log(probability)
    return result


def entropy(sketch: "DaVinciSketch") -> float:
    """Estimated entropy of the multiset summarized by ``sketch``.

    Uses the distribution estimate with the EM run over the filter's *top*
    level: its wide counters are never truncated by the 4-bit cap, so the
    total probability mass — which dominates the entropy sum — is
    preserved, at the cost of per-size resolution the entropy formula does
    not need.
    """
    histogram = sketch.distribution(em_level=-1)
    return entropy_of_distribution(histogram, float(sketch.total_count))
