"""HyperLogLog (Flajolet et al.; HLL-in-practice variant of Heule et al.).

The cardinality-estimation classic from the paper's related work
(Section II-B cites HLL [53] among the dedicated cardinality line).  Not
part of the paper's evaluated competitor set — included as an extension so
the cardinality panel can be compared against the specialist as well.

``m = 2^p`` registers; each key's hash selects a register with its low
``p`` bits and the register keeps the maximum leading-zero rank of the
remaining bits.  The harmonic-mean estimator with the standard small-range
(linear counting) correction is implemented; large-range correction is
unnecessary for 64-bit hashes.
"""

from __future__ import annotations

import math
from typing import List

from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.common.hashing import hash64
from repro.sketches.base import CardinalitySketch


def _alpha(m: int) -> float:
    """The bias-correction constant α_m of the HLL estimator."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog(CardinalitySketch):
    """The 2^p-register cardinality estimator."""

    def __init__(self, precision: int = 12, seed: int = 1) -> None:
        super().__init__()
        if not 4 <= precision <= 18:
            raise ConfigurationError("precision must be in [4, 18]")
        self.precision = precision
        self.num_registers = 1 << precision
        self._seed = seed
        self.registers: List[int] = [0] * self.num_registers

    @classmethod
    def from_memory(cls, memory_bytes: float, seed: int = 1):
        """Largest power-of-two register file fitting the budget.

        Registers are charged 6 bits each (they hold ranks ≤ 64), per the
        usual dense-HLL accounting.
        """
        best = 4
        for precision in range(4, 19):
            if (1 << precision) * 6 / 8 <= memory_bytes:
                best = precision
        return cls(precision=best, seed=seed)

    def insert(self, key: int, count: int = 1) -> None:
        """Duplicates are free: only the first occurrence can matter."""
        self.insertions += 1
        self.memory_accesses += 1
        value = hash64(key, self._seed)
        register = value & (self.num_registers - 1)
        remaining = value >> self.precision
        # rank = position of the leftmost 1 in the remaining 64−p bits
        rank = (64 - self.precision) - remaining.bit_length() + 1
        if rank > self.registers[register]:
            self.registers[register] = rank

    def cardinality(self) -> float:
        m = self.num_registers
        harmonic = sum(2.0 ** (-register) for register in self.registers)
        raw = _alpha(m) * m * m / harmonic
        if raw <= 2.5 * m:
            zeros = self.registers.count(0)
            if zeros:
                return m * math.log(m / zeros)  # linear-counting correction
        return raw

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Register-wise max: the union of the observed sets."""
        if (
            self.precision != other.precision
            or self._seed != other._seed
        ):
            raise IncompatibleSketchError("HLLs differ in precision or seed")
        result = HyperLogLog(self.precision, self._seed)
        result.registers = [
            max(a, b) for a, b in zip(self.registers, other.registers)
        ]
        return result

    def memory_bytes(self) -> float:
        return self.num_registers * 6 / 8.0
