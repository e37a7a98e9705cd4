"""CU Sketch — Count-Min with Conservative Update (Estan & Varghese).

Identical read path to CM, but an insertion only raises the counters that
*must* rise to stay consistent: those equal to the current row minimum.
This strictly reduces the upward bias at the cost of losing linearity
(CU sketches cannot be merged or subtracted), which is exactly why the
paper only evaluates CU on the single-set frequency task.
"""

from __future__ import annotations

from typing import List

from repro.common.hashing import HashFamily
from repro.common.validation import require_positive
from repro.sketches.base import FrequencySketch, MemoryModel


class CUSketch(FrequencySketch):
    """Conservative-update Count-Min."""

    def __init__(self, rows: int, width: int, seed: int = 1) -> None:
        super().__init__()
        require_positive("rows", rows)
        require_positive("width", width)
        self.rows = rows
        self.width = width
        self._hashes = HashFamily(rows, width, seed=seed)
        self.counters: List[List[int]] = [[0] * width for _ in range(rows)]

    @classmethod
    def from_memory(cls, memory_bytes: float, rows: int = 3, seed: int = 1):
        """Size the sketch to a byte budget (32-bit counters)."""
        width = max(1, int(memory_bytes / (rows * MemoryModel.COUNTER_BYTES)))
        return cls(rows=rows, width=width, seed=seed)

    def insert(self, key: int, count: int = 1) -> None:
        self.insertions += 1
        self.memory_accesses += self.rows
        # One shared hash pass and an explicit min scan, with no per-item
        # comprehension allocation.
        positions = self._hashes.indexes(key)
        target = self.counters[0][positions[0]]
        for row in range(1, self.rows):
            value = self.counters[row][positions[row]]
            if value < target:
                target = value
        target += count
        for row in range(self.rows):
            col = positions[row]
            if self.counters[row][col] < target:
                self.counters[row][col] = target

    def query(self, key: int) -> int:
        return min(
            self.counters[row][self._hashes.index(row, key)]
            for row in range(self.rows)
        )

    def memory_bytes(self) -> float:
        return self.rows * self.width * MemoryModel.COUNTER_BYTES
