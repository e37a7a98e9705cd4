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

from typing import TYPE_CHECKING, Set

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.davinci import DaVinciSketch


def _keyed_part(sketch: "DaVinciSketch", key: int) -> int:
    """``f_F(key) + f_I(key)``: the exactly-tracked share of a key."""
    fp_count, _, _ = sketch.fp.lookup(key)
    decoded = sketch.decode_counts()
    ifp = decoded.get(key)
    if ifp is None:
        ifp = 0
        if not sketch.decode_result().complete and sketch.ef.is_promoted(key):
            ifp = max(0, sketch.ifp.fast_query(key))
    return fp_count + ifp


def _filter_share(sketch: "DaVinciSketch", key: int) -> int:
    """``f_E(key)``: the share of a key's mass held by the element filter.

    A promoted key deposited exactly ``T`` units before overflowing; a
    non-promoted key's entire mass is its filter estimate.
    """
    estimate = sketch.ef.query(key)
    return min(estimate, sketch.ef.threshold)


def _filter_dot_product(a: "DaVinciSketch", b: "DaVinciSketch") -> float:
    """Collision-corrected J_EE estimate from the level-0 arrays."""
    left = a.ef.base_level()
    right = b.ef.base_level()
    width = len(left)
    if width <= 1:
        return float(sum(x * y for x, y in zip(left, right)))
    raw = 0.0
    sum_left = 0.0
    sum_right = 0.0
    for x, y in zip(left, right):
        raw += x * y
        sum_left += x
        sum_right += y
    corrected = (width * raw - sum_left * sum_right) / (width - 1)
    return max(0.0, corrected)


def inner_join(a: "DaVinciSketch", b: "DaVinciSketch") -> float:
    """Estimate ``Σ_e f(e)·g(e)`` between two standard-mode sketches."""
    a.check_compatible(b)

    keys: Set[int] = set(a.fp.as_dict())
    keys.update(a.decode_counts())
    keys.update(b.fp.as_dict())
    keys.update(b.decode_counts())

    keyed_cross = 0.0
    for key in keys:
        f_keyed = _keyed_part(a, key)
        g_keyed = _keyed_part(b, key)
        f_filter = _filter_share(a, key)
        g_filter = _filter_share(b, key)
        # J_KK + J_KE + J_EK for this key; J_EE is handled by the arrays.
        keyed_cross += (
            f_keyed * g_keyed + f_keyed * g_filter + f_filter * g_keyed
        )

    return keyed_cross + _filter_dot_product(a, b)
