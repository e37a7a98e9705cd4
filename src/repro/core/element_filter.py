"""The element filter (EF): a TowerSketch with a promotion threshold.

The EF has two jobs in the DaVinci design:

1. **Filter** — absorb the mass of infrequent elements so they never touch
   the (expensive, invertible) infrequent part.  It is an ``m``-level
   TowerSketch: level 0 has many small counters, higher levels fewer but
   larger ones, exploiting that set frequencies are skewed.
2. **Gate** — once an element's filter estimate reaches the threshold
   ``T``, its *overflow* is promoted to the infrequent part while the first
   ``T`` units stay here.  This discipline makes Algorithm 4's ``+T`` query
   correction exact: a promoted element always has exactly ``T`` units of
   its mass resident in the filter.

The counters, their CM-style saturating update and the min-over-unsaturated
query are :class:`~repro.sketches.tower.TowerSketch`'s; this class adds the
threshold gate and the linear set operations.

The structure is linear, so union/difference of two sketches reduce to
counter-wise add/subtract; after a difference, counters may be negative and
:meth:`ElementFilter.query_signed` returns the minimum-absolute-value
counter (the signed generalization of the CM minimum).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.common import invariants as _inv
from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.common.validation import require_positive
from repro.core.kernel import _MAX_EF_ROUNDS, first_occurrences, np
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import ElementFilterMetrics
from repro.observability.metrics import MetricsRegistry
from repro.sketches.tower import TowerSketch


class ElementFilter(TowerSketch):
    """An ``m``-level TowerSketch with promotion threshold ``T``."""

    #: lazily-created metrics bundle (class-level default; see
    #: repro.observability — collection is free while disabled)
    _obs_metrics: Optional[ElementFilterMetrics] = None
    #: injectable registry override (None → the process-global default)
    _obs_registry: Optional[MetricsRegistry] = None

    def __init__(
        self,
        level_widths: Sequence[int],
        level_bits: Sequence[int],
        threshold: int,
        seed: int = 1,
    ) -> None:
        super().__init__(level_widths, level_bits, seed=seed)
        require_positive("threshold", threshold)
        self.threshold = int(threshold)
        if self.threshold >= max(self.level_caps):
            raise ConfigurationError(
                "threshold must be below the largest level's saturation value"
            )

    def query_signed(self, key: int) -> int:
        """Minimum-absolute-value mapped counter (for difference sketches)."""
        best = None
        for level, counters in enumerate(self.levels):
            value = counters[self._hashes.index(level, key)]
            if abs(value) >= self.level_caps[level]:
                continue
            if best is None or abs(value) < abs(best):
                best = value
        if best is None:
            return max(self.level_caps)
        return best

    # ------------------------------------------------------------------ #
    # observability (free while disabled)
    # ------------------------------------------------------------------ #
    def _observe(self) -> ElementFilterMetrics:
        """The lazily-bound metrics bundle (armed paths only)."""
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.element_filter_metrics(
                self._obs_registry, self
            )
            self._obs_metrics = bundle
        return bundle

    def _record_offers(
        self, offers: int, absorbed: int, overflow: int, crossings: int
    ) -> None:
        """Count offered pairs and their absorb/overflow split (armed only)."""
        bundle = self._observe()
        bundle.offers.inc(offers)
        if absorbed:
            bundle.absorbed_units.inc(absorbed)
        if overflow:
            bundle.overflow_units.inc(overflow)
        if crossings:
            bundle.crossings.inc(crossings)

    # ------------------------------------------------------------------ #
    # filtering with the promotion threshold
    # ------------------------------------------------------------------ #
    def offer(self, key: int, count: int) -> int:
        """Insert ``count`` of ``key``; return the overflow to promote.

        Keeps the invariant that the filter retains at most the first ``T``
        units of any element's mass:

        * estimate already >= ``T`` — the element was promoted earlier; the
          whole ``count`` overflows.
        * estimate + count <= ``T`` — fully absorbed, no overflow.
        * otherwise — absorb up to ``T`` and overflow the rest.
        """
        current = self.query(key)
        if current >= self.threshold:
            if _obs.ENABLED:
                self._record_offers(1, 0, count, 0)
            return count
        absorbed = min(count, self.threshold - current)
        self.add(key, absorbed)
        overflow = count - absorbed
        if _inv.ENABLED:
            _inv.check_bounded(
                overflow, 0, count, "ElementFilter.offer overflow"
            )
            _inv.check_bounded(
                current + absorbed,
                0,
                self.threshold,
                "ElementFilter.offer retained mass (first-T invariant)",
            )
        if _obs.ENABLED:
            crossed = 1 if current + absorbed >= self.threshold else 0
            self._record_offers(1, absorbed, overflow, crossed)
        return overflow

    def offer_batch(self, keys: Any, counts: Any) -> Tuple[Any, Any]:
        """Offer many demotions in arrival order; return the overflow.

        ``keys``/``counts`` are int64 arrays.  The state afterwards equals
        calling :meth:`offer` once per pair in order.  The absorb
        arithmetic is order-sensitive under counter collisions, so the
        pairs are applied in *first-occurrence rounds*: an offer is ready
        once it is the earliest unprocessed offer at every counter it
        maps to, so a round's offers touch disjoint counters and each
        sees exactly the sequential state.  After ``_MAX_EF_ROUNDS``
        rounds the rest go through :meth:`offer`, which writes the same
        counters.

        Returns ``(keys, overflow)`` arrays for the pairs whose overflow
        is positive, in arrival order: the promotions the caller must
        forward to the infrequent part.
        """
        n = len(keys)
        caps = self.level_caps
        threshold = self.threshold
        levels = self.counter_arrays()
        positions = self._hashes.index_arrays(keys)
        observing = _obs.ENABLED
        absorbed_total = 0
        crossings = 0
        overflow = np.zeros(n, dtype=np.int64)

        remaining = np.arange(n, dtype=np.int64)  # stays in arrival order
        rounds = 0
        while remaining.size and rounds < _MAX_EF_ROUNDS:
            rounds += 1
            ready_mask = np.ones(remaining.size, dtype=bool)
            for pos in positions:
                earliest = np.zeros(remaining.size, dtype=bool)
                earliest[first_occurrences(pos[remaining])[2]] = True
                ready_mask &= earliest
            ready = remaining[ready_mask]
            remaining = remaining[~ready_mask]

            offered = counts[ready]
            mapped = [pos[ready] for pos in positions]
            values = [level[at] for level, at in zip(levels, mapped)]
            saturated = [value >= cap for value, cap in zip(values, caps)]
            current = np.full(len(ready), max(caps), dtype=np.int64)
            for value, full in zip(values, saturated):
                np.minimum(current, np.where(full, current, value), out=current)
            promoted = current >= threshold
            absorbed = np.where(
                promoted, 0, np.minimum(offered, threshold - current)
            )
            for level, at, value, full, cap in zip(
                levels, mapped, values, saturated, caps
            ):
                write = ~promoted & ~full
                level[at[write]] = np.minimum(value[write] + absorbed[write], cap)
            overflow[ready] = offered - absorbed
            if observing:
                absorbed_total += int(absorbed.sum())
                crossings += int(
                    (~promoted & (current + absorbed >= threshold)).sum()
                )

        if observing:  # the rounds' share; offer() records the rest
            self._record_offers(
                n - remaining.size, absorbed_total, int(overflow.sum()), crossings
            )
        for i in remaining.tolist():  # pathological collisions: per item
            overflow[i] = self.offer(int(keys[i]), int(counts[i]))
        over = overflow > 0
        return keys[over], overflow[over]

    def is_promoted(self, key: int) -> bool:
        """Whether the filter estimate says ``key`` crossed the threshold."""
        return self.query(key) >= self.threshold

    # ------------------------------------------------------------------ #
    # linearity (union / difference)
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "ElementFilter") -> None:
        """Raise unless ``other`` has identical geometry/threshold/seed."""
        same = (
            self.level_widths == other.level_widths
            and self.level_bits == other.level_bits
            and self.threshold == other.threshold
            and self._seed == other._seed
        )
        if not same:
            raise IncompatibleSketchError(
                "element filters differ in shape, threshold or seed"
            )

    def merged(self, other: "ElementFilter") -> "ElementFilter":
        """Counter-wise saturating sum (the union of filters)."""
        self.check_compatible(other)
        result = self.empty_like()
        for mine, theirs, out, cap in zip(
            self.counter_arrays(),
            other.counter_arrays(),
            result.counter_arrays(),
            self.level_caps,
        ):
            np.add(mine, theirs, out=out)
            np.minimum(out, cap, out=out)
        return result

    def subtracted(self, other: "ElementFilter") -> "ElementFilter":
        """Counter-wise signed difference (may go negative)."""
        self.check_compatible(other)
        result = self.empty_like()
        for mine, theirs, out in zip(
            self.counter_arrays(), other.counter_arrays(), result.counter_arrays()
        ):
            np.subtract(mine, theirs, out=out)
        return result

    def empty_like(self) -> "ElementFilter":
        """A fresh filter with identical shape, threshold and seed."""
        return ElementFilter(
            self.level_widths, self.level_bits, self.threshold, seed=self._seed
        )
