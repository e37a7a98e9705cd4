"""Cardinality estimation for the DaVinci sketch.

The paper's recipe (Section III-B2): obtain the frequent part's cardinality
directly, apply **linear counting** [Whang et al.] to the other parts, and
de-duplicate using the frequent part's flags.

Our concrete realization exploits the insertion discipline:

* every element that ever left the frequent part passed through the element
  filter (and only through it into the infrequent part), so *linear
  counting over the filter's level-0 counters* covers the EF **and** IFP
  populations at once;
* a frequent-part resident that never visited the filter reads **zero**
  there (CM-style filters have no false negatives), so the number of extra
  distinct elements contributed by the FP is exactly the count of residents
  with a zero filter estimate.  Residents with a non-zero estimate are
  either genuine filter alumni (already covered by linear counting) or
  collision false positives — the small undercount this heuristic causes is
  the flag-based de-duplication error the paper accepts.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.core.kernel import np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.davinci import DaVinciSketch


def linear_counting_estimate(num_counters: int, num_zero: int) -> float:
    """Whang's linear counting: ``n̂ = −m · ln(z/m)``.

    When no counter is empty the load exceeded the structure's range; the
    standard convention of half an empty counter keeps the estimate finite
    (and signals "at least ~m·ln(2m)" to the caller).
    """
    if num_counters <= 0:
        return 0.0
    if num_zero <= 0:
        num_zero = 0.5
    return -num_counters * math.log(num_zero / num_counters)


def linear_counting_over(counters: Sequence[int]) -> float:
    """Linear counting applied to a raw counter array (zeros = empty).

    Zeros are counted in C: ``count(0)`` on a list, ``np.count_nonzero``
    on a numpy array (converting a list would cost more than it saves).
    """
    if isinstance(counters, np.ndarray):
        zero = len(counters) - int(np.count_nonzero(counters))
    else:
        zero = counters.count(0)
    return linear_counting_estimate(len(counters), zero)


def cardinality(sketch: "DaVinciSketch") -> float:
    """Estimated number of distinct elements in the sketch.

    For signed (difference) sketches, "cardinality" means the number of
    elements whose counts differ between the two inputs; that is derived
    from the exactly-tracked keys instead of linear counting (the
    subtracted filter's zeros no longer witness emptiness).
    """
    from repro.core.davinci import MODE_SIGNED

    if sketch.mode == MODE_SIGNED:
        return float(np.count_nonzero(sketch.known_estimates()[1]))

    lower_parts = linear_counting_over(sketch.ef.counter_arrays()[0])
    fp_keys = sketch.fp.residents()[0]
    fp_only = len(fp_keys) - int(np.count_nonzero(sketch.ef.query_many(fp_keys)))
    return lower_parts + fp_only
