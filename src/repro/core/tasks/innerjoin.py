"""Cardinality of the inner join: ``J = f ⊙ g = Σ_e f(e)·g(e)``.

Following the paper's Section III-B2, each frequency vector is decomposed
by part, ``f = f_F + f_I + f_E``, and the nine cross terms are estimated.
Our implementation groups them into the *keyed* terms and the *array* term:

* ``f_K = f_F + f_I`` — the keyed portion: frequent-part residents are
  stored exactly, and the infrequent part decodes to exact keyed counts
  (with the unbiased Count-Sketch-style fast query as a fallback for
  undecoded keys).  This covers J_FF, J_FI, J_IF and J_II.
* ``f_E`` — the element-filter share of any key: exactly ``T`` for a
  promoted element, the filter estimate otherwise.  Iterating the keyed
  elements against the other side's filter share covers J_FE, J_EF, J_IE
  and J_EI.
* J_EE — the remaining filter×filter term, estimated from the level-0
  counter arrays with the standard collision-corrected dot product
  ``(w·Σ A[j]B[j] − ΣA·ΣB) / (w − 1)`` (the paper's "dot product at
  corresponding positions"; we add the correction because the filter's
  counters are unsigned CM-style, whose raw dot product is biased upward
  by ``ΣA·ΣB/w``).

The paper's alternative of folding the raw signed infrequent arrays
against the unsigned filter is not used for J_IE/J_EI: the ±1 ζ signs make
the expectation of such a product zero; decoding (the structure's designed
capability) sidesteps this entirely.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any

from repro.core.kernel import np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.davinci import DaVinciSketch


def _filter_dot_product(a: "DaVinciSketch", b: "DaVinciSketch") -> float:
    """Collision-corrected J_EE estimate from the level-0 arrays.

    The sums are exact ints rounded once to floats, which equals a float
    running sum while every partial sum stays below 2^53.
    """
    left, right = a.ef.counter_arrays()[0], b.ef.counter_arrays()[0]
    width = len(left)
    largest = [max(int(side.max()), -int(side.min()), 1) for side in (left, right)]
    if largest[0] * largest[1] * width < 1 << 63:
        raw = float(int(left @ right))
    else:  # an int64 dot product could wrap
        raw = float(sum(map(operator.mul, left.tolist(), right.tolist())))
    if width <= 1:
        return raw
    sum_left, sum_right = float(int(left.sum())), float(int(right.sum()))
    corrected = (width * raw - sum_left * sum_right) / (width - 1)
    return max(0.0, corrected)


def _keyed_cross(f_keyed: Any, f_filter: Any, g_keyed: Any, g_filter: Any) -> int:
    """``Σ f_K·g_K + f_K·g_E + f_E·g_K`` over the keys, exactly: in int64
    when the largest magnitudes bound every partial sum below 2^63, else
    in Python ints."""
    from repro.core.davinci import largest_magnitude

    terms = (f_keyed, f_filter, g_keyed, g_filter)
    f, fe, g, ge = (largest_magnitude(term) for term in terms)
    wide = len(f_keyed) * (f * g + f * ge + fe * g) >= 1 << 63
    if wide or any(term.dtype != np.int64 for term in terms):
        f_keyed, f_filter, g_keyed, g_filter = (term.astype(object) for term in terms)
    return int((f_keyed * g_keyed + f_keyed * g_filter + f_filter * g_keyed).sum())


def inner_join(a: "DaVinciSketch", b: "DaVinciSketch") -> float:
    """Estimate ``Σ_e f(e)·g(e)`` between two standard-mode sketches."""
    from repro.core.davinci import MODE_ADDITIVE, exact_sum, union_keys

    a.check_compatible(b)

    canonical = union_keys(
        a.fp.residents()[0],
        a.decode_result().keys,
        b.fp.residents()[0],
        b.decode_result().keys,
    )

    # Per key ``f_K = f_F + f_I`` (the additive read's IFP share) and
    # ``f_E = min(EF estimate, T)``: a promoted key deposited exactly
    # ``T`` units before overflowing, a non-promoted key's whole mass is
    # its filter estimate.
    shares = []
    for sketch in (a, b):
        fp, ef, ifp = sketch._query_parts(canonical, MODE_ADDITIVE)
        shares.append((exact_sum(fp, ifp), np.minimum(ef, sketch.ef.threshold)))
    (f_keyed, f_filter), (g_keyed, g_filter) = shares
    # J_KK + J_KE + J_EK per key; J_EE is the arrays'.
    keyed_cross = _keyed_cross(f_keyed, f_filter, g_keyed, g_filter)
    return float(keyed_cross) + _filter_dot_product(a, b)
