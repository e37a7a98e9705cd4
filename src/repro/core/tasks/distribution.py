"""Flow-size distribution estimation (paper: MRAC-style EM refinement).

The estimate combines three sources:

1. **Exact keys** — frequent-part residents and decoded infrequent-part
   elements are read as one array (``DaVinciSketch.estimates``) and
   histogrammed in order of first appearance.
2. **Filter residents** — elements that still live (entirely) in the
   element filter are invisible as keys; their size distribution is
   recovered from the filter's level-0 counter *values* with the
   expectation-maximization deconvolution of Kumar et al. [47], the same
   machinery behind the MRAC baseline (which is why
   :class:`CounterArrayEM` lives here and is imported by
   :mod:`repro.sketches.mrac`, :mod:`repro.sketches.elastic` and
   :mod:`repro.sketches.fcm`).
3. **Cleaning** — a promoted element deposits (up to) ``T`` units in the
   filter before overflowing; that mass would masquerade as a size-``T``
   flow, so the counters of decoded elements are debited before the EM
   pass.

The EM model: counters receive a Poisson(λ) number of flows (λ = load
factor from linear counting); a counter of value ``v`` is explained as one
flow of size ``v`` or a pair ``(a, v−a)``.  Pair explanations dominate
residual collisions at the sub-1 load factors sketches operate at;
higher-order collisions are folded into the pair term (a documented
simplification of the full partition enumeration, which is exponential).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.common.errors import ConfigurationError
from repro.core.infrequent_part import DecodeResult, find_sorted
from repro.core.kernel import np
from repro.core.tasks.cardinality import linear_counting_over

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.davinci import DaVinciSketch


class CounterArrayEM:
    """EM deconvolution of a counter array into a flow-size distribution.

    Parameters
    ----------
    iterations:
        EM rounds; the estimate typically stabilizes within 5-10.
    max_value:
        Counter values above this are excluded (saturated counters carry no
        size information; their flows are accounted for elsewhere).
    """

    def __init__(self, iterations: int = 8, max_value: Optional[int] = None) -> None:
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        self.iterations = iterations
        self.max_value = max_value

    def estimate(self, counters: Any) -> Dict[int, float]:
        """Expected number of flows of each size hidden in ``counters``
        (a sequence or an integer array).

        The E-step runs over a flat index of the pairs ``(value, split)``,
        ``1 ≤ split ≤ value / 2``, of the observed values, never a dense
        grid.  Each sum adds its terms in the order of the per-value loop
        it replaces (values in order of first appearance; a value's own
        share, then its splits' two shares each), so both round alike.
        """
        counters = np.asarray(counters, dtype=np.int64)
        limit = np.inf if self.max_value is None else self.max_value
        kept = counters[(counters > 0) & (counters <= limit)]
        if not len(kept):
            return {}
        histogram = np.bincount(kept)
        first = np.full(len(histogram), len(kept))  # first appearance of each value
        np.minimum.at(first, kept, np.arange(len(kept)))
        values = np.flatnonzero(histogram)
        values = values[np.argsort(first[values])]
        multiplicity = histogram[values].astype(float)

        load = linear_counting_over(counters) / len(counters)
        # Poisson weights for 1 vs 2 flows in a counter, conditioned on the
        # counter being non-empty.  p2/p1 = λ/2.
        pair_prior = max(1e-12, load / 2.0)

        # pair i explains values[owner[i]] as split[i] + other[i]; shares
        # sit in a value's own slot, then in two slots per split
        halves = values // 2
        owner = np.repeat(np.arange(len(values)), halves)
        before = np.cumsum(halves) - halves
        split = np.arange(len(owner)) - before[owner] + 1
        other = values[owner] - split
        coefficient = pair_prior * np.where(split == other, 1.0, 2.0)
        own_slot = np.arange(len(values)) + 2 * before
        pair_slots = own_slot[owner] + 2 * split - 1 + np.arange(2)[:, None]
        target = np.empty(len(values) + 2 * len(owner), dtype=np.int64)
        target[own_slot] = values
        target[pair_slots] = np.stack((split, other))
        summands = np.concatenate((np.arange(len(values)), owner))
        shares = np.empty(len(target))

        # Collision-free start, φ_v ∝ observed counter values, with a tiny
        # floor that lets EM discover sizes absent from the raw counters
        # (e.g. a size only present inside collided counters).
        phi = np.zeros(len(histogram))
        phi[values] = multiplicity / np.cumsum(multiplicity)[-1]
        phi = np.maximum(phi, 1e-6)
        phi[0] = 0.0
        phi /= np.cumsum(phi[1:])[-1]

        for _ in range(self.iterations):
            single = phi[values]
            pair = coefficient * phi[split] * phi[other]
            total = np.bincount(summands, np.concatenate((single, pair)))
            explained = total > 0.0
            scale = multiplicity / np.where(explained, total, 1.0)
            shares[own_slot] = np.where(explained, single * scale, multiplicity)
            shares[pair_slots] = np.where(explained[owner], pair * scale[owner], 0.0)
            expected = np.bincount(target, shares, len(histogram))
            total_flows = np.cumsum(expected)[-1]
            if total_flows <= 0.0:
                break
            phi = expected / total_flows

        sizes = np.flatnonzero(expected[1:] > 1e-9) + 1
        return dict(zip(sizes.tolist(), expected[sizes].tolist()))


def distribution(
    sketch: "DaVinciSketch",
    max_size: Optional[int] = None,
    em_level: int = 0,
) -> Dict[int, float]:
    """Estimated flow-size distribution ``{size: #flows}`` of the sketch.

    ``em_level`` selects which filter level feeds the EM deconvolution.
    Level 0 (many small counters) resolves the per-size histogram best and
    is the default; the top level (larger counters, no truncation at the
    4-bit cap) preserves total mass better, which is what the entropy task
    cares about — :func:`repro.core.tasks.entropy.entropy` passes the top
    level explicitly.
    """
    residents, _counts, flagged = sketch.fp.residents()
    decoded = sketch.decode_result()
    # residents, then decoded keys not resident (their IFP share is
    # already in a resident's query)
    resident, _at = find_sorted(np.sort(residents), decoded.keys)
    keys = np.concatenate((residents, decoded.keys[~resident]))
    estimates = sketch.estimates(keys.tolist())
    histogram = _first_seen_histogram(estimates[estimates > 0])

    em_histogram = _filter_resident_distribution(
        sketch, decoded, residents[flagged], level=em_level
    )
    for size, count in em_histogram.items():
        histogram[size] = histogram.get(size, 0.0) + count

    if max_size is not None:
        histogram = {s: c for s, c in histogram.items() if s <= max_size}
    return histogram


def _first_seen_histogram(sizes: Any) -> Dict[int, float]:
    """``{size: #occurrences}`` of an int array, as floats, listing the
    sizes in order of first appearance (the order a dict counting them
    one by one would have)."""
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order]
    first = np.ones(len(sizes), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    occurrences = np.diff(np.append(starts, len(sizes)))
    # the stable sort starts each run at the size's first appearance
    by_first = np.argsort(order[starts])
    return dict(
        zip(
            ordered[starts][by_first].tolist(),
            occurrences[by_first].astype(float).tolist(),
        )
    )


def _filter_resident_distribution(
    sketch: "DaVinciSketch",
    decoded: DecodeResult,
    flagged: Any,
    level: int = 0,
) -> Dict[int, float]:
    """EM over one filter level's counters, after debiting known mass
    (``flagged``: the keys of the flagged frequent-part entries)."""
    level = level % sketch.ef.num_levels
    counters = sketch.ef.counter_arrays()[level]
    threshold = sketch.ef.threshold
    cap = sketch.ef.level_caps[level]

    # Debit the <= T units every promoted (decoded) element left behind,
    # and the filter mass of frequent-part alumni (flagged entries only —
    # unflagged entries never visited the filter).  Each debit clamps at
    # 0, so a counter's debits sum before one clamp.
    alumni = flagged[~decoded.lookup(flagged)[0]]
    residue = sketch.ef.query_many(alumni)
    kept = (0 < residue) & (residue < cap)
    debits = np.concatenate(
        (
            np.full(len(decoded.keys), threshold, dtype=np.int64),
            np.minimum(residue[kept], threshold),
        )
    )
    debited_keys = np.concatenate((decoded.keys, alumni[kept]))
    at, inverse = np.unique(
        sketch.ef._hashes.index_arrays(debited_keys)[level], return_inverse=True
    )
    debited = np.zeros(len(at), dtype=np.int64)
    np.add.at(debited, inverse, debits)
    base = counters.copy()
    base[at] = np.maximum(0, counters[at] - debited)

    em = CounterArrayEM(max_value=cap - 1)
    return em.estimate(base)
