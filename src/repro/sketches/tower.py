"""TowerSketch (Yang et al., SketchINT) — the element filter's substrate.

A stack of counter arrays where lower levels have many small counters and
higher levels few large ones; inserts update one counter per level
(CM-style) with saturation, queries take the minimum over unsaturated
mapped counters.  The configuration exploits skew: the numerous small
flows are resolved by the numerous small counters, while the rare large
flows fall through to the large counters.

The standalone class is an evaluated baseline; the DaVinci element filter
(:class:`repro.core.element_filter.ElementFilter`) subclasses it and adds
the promotion threshold.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.common import invariants as _inv
from repro.common.errors import ConfigurationError
from repro.common.hashing import HashFamily
from repro.sketches.base import FrequencySketch


class TowerSketch(FrequencySketch):
    """A multi-level saturating counter sketch."""

    def __init__(
        self,
        level_widths: Sequence[int],
        level_bits: Sequence[int],
        seed: int = 1,
    ) -> None:
        super().__init__()
        if len(level_widths) != len(level_bits) or not level_widths:
            raise ConfigurationError(
                "level widths/bits must match and be non-empty"
            )
        self.level_widths: Tuple[int, ...] = tuple(int(w) for w in level_widths)
        self.level_bits: Tuple[int, ...] = tuple(int(b) for b in level_bits)
        #: saturation value of each level's counters
        self.level_caps: Tuple[int, ...] = tuple(
            (1 << bits) - 1 for bits in self.level_bits
        )
        self.num_levels = len(self.level_widths)
        self._seed = seed
        self._hashes = HashFamily(self.num_levels, self.level_widths, seed=seed)
        #: one int64 buffer per level: indexing yields plain ints, and
        #: the bulk paths view it in place (:meth:`counter_arrays`)
        self.levels: List["array[int]"] = [
            array("q", [0]) * width for width in self.level_widths
        ]

    @classmethod
    def from_memory(
        cls,
        memory_bytes: float,
        level_bits: Sequence[int] = (8, 16),
        level_ratio: Sequence[float] = (0.75, 0.25),
        seed: int = 1,
    ):
        """Split a byte budget across levels (default 3:1 low:high)."""
        if len(level_bits) != len(level_ratio):
            raise ConfigurationError("level_bits and level_ratio must match")
        widths = [
            max(8, int(memory_bytes * share * 8 / bits))
            for share, bits in zip(level_ratio, level_bits)
        ]
        return cls(widths, list(level_bits), seed=seed)

    def insert(self, key: int, count: int = 1) -> None:
        self.insertions += 1
        self.memory_accesses += self.num_levels
        self.add(key, count)

    def add(self, key: int, count: int) -> None:
        """CM-style update: add ``count`` at every level, saturating."""
        for level, counters in enumerate(self.levels):
            cap = self.level_caps[level]
            j = self._hashes.index(level, key)
            if counters[j] >= cap:
                continue  # saturated counters stay saturated
            counters[j] = min(counters[j] + count, cap)
            if _inv.ENABLED:
                _inv.check_saturation(counters[j], cap, "tower level counter")

    def add_batch(self, keys: Any, counts: Any) -> None:
        """:meth:`add` once per pair of the int64 ``keys``/``counts``.

        For counters in ``[0, cap]`` and non-negative counts, a counter's
        saturating adds sum before they saturate, in any order: each
        level sums the adds per touched counter and clips once.
        """
        for level, positions, cap in zip(
            self.counter_arrays(), self._hashes.index_arrays(keys), self.level_caps
        ):
            at, inverse = np.unique(positions, return_inverse=True)
            added = np.zeros(len(at), dtype=np.int64)
            np.add.at(added, inverse, np.minimum(counts, cap))
            values = level[at]
            level[at] = np.where(values < cap, np.minimum(values + added, cap), values)
            if _inv.ENABLED and len(at):
                _inv.check_saturation(int(level[at].max()), cap, "tower level counter")

    def query(self, key: int) -> int:
        """Minimum over unsaturated mapped counters (saturated => +inf).

        When every mapped counter is saturated the element's frequency
        exceeds every level's range; the largest saturation value is the
        best available lower bound.
        """
        best = None
        for level, counters in enumerate(self.levels):
            value = counters[self._hashes.index(level, key)]
            if value >= self.level_caps[level]:
                continue
            if best is None or value < best:
                best = value
        return best if best is not None else max(self.level_caps)

    def query_many(self, keys: Any, signed: bool = False) -> Any:
        """:meth:`query` of each of the int64 ``keys``, as an int64 array.

        ``signed`` reads a subtracted tower instead: the mapped value of
        least magnitude below its cap, the first level winning a tie
        (``ElementFilter.query_signed``).
        """
        best = np.zeros(len(keys), dtype=np.int64)
        found = np.zeros(len(keys), dtype=bool)
        for level, at, cap in zip(
            self.counter_arrays(), self._hashes.index_arrays(keys), self.level_caps
        ):
            value = level[at]
            size = np.abs(value) if signed else value
            usable = size < cap
            better = usable & ~(found & (size >= (np.abs(best) if signed else best)))
            best = np.where(better, value, best)
            found |= usable
        return np.where(found, best, max(self.level_caps))

    def counter_arrays(self) -> List[Any]:
        """The level counters as int64 numpy arrays viewing ``levels``.

        Writes through a view land in the counters themselves; the bulk
        paths use these instead of copying the levels.
        """
        return [np.frombuffer(level, dtype=np.int64) for level in self.levels]

    def memory_bytes(self) -> float:
        """Logical size: Σ widthᵢ × bitsᵢ / 8."""
        return sum(
            width * bits / 8.0
            for width, bits in zip(self.level_widths, self.level_bits)
        )
