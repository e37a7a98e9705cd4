"""JoinSketch (Wang et al., SIGMOD'23) — frequency-separated join sizing.

JoinSketch's insight mirrors DaVinci's rationale: collisions *between
frequent elements* dominate inner-product error (a type-(a) collision
squares), so frequent elements are kept exactly in a keyed table and only
the residual tail is sketched with signed arrays.  The join estimate is
assembled per part:

    J = Σ_{e ∈ Hₐ∪H_b} [fH·gH + fH·gR(e) + fR(e)·gH] + Rₐ ⊙ R_b

where ``H`` is the exact frequent table, ``R`` the residual Count-Sketch,
``gR(e)`` a point query and ``Rₐ ⊙ R_b`` the median row dot product.

The frequent table uses the same bucketed, vote-evicted mechanics as the
DaVinci frequent part (an eviction pushes the loser's full count into the
residual sketch, keeping ``f = fH + fR`` exact).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.common.errors import IncompatibleSketchError
from repro.core.frequent_part import FrequentPart
from repro.sketches.base import InnerProductSketch, MemoryModel
from repro.sketches.count_sketch import CountSketch


class JoinSketch(InnerProductSketch):
    """Exact frequent table + signed residual sketch."""

    def __init__(
        self,
        fp_buckets: int,
        fp_entries: int,
        rows: int,
        width: int,
        lambda_evict: float = 8.0,
        seed: int = 1,
    ) -> None:
        super().__init__()
        self.frequent = FrequentPart(
            buckets=fp_buckets,
            entries_per_bucket=fp_entries,
            lambda_evict=lambda_evict,
            seed=seed,
        )
        self.residual = CountSketch(rows=rows, width=width, seed=seed + 17)
        self._config = (fp_buckets, fp_entries, rows, width, lambda_evict, seed)

    @classmethod
    def from_memory(
        cls,
        memory_bytes: float,
        frequent_fraction: float = 0.25,
        fp_entries: int = 7,
        rows: int = 3,
        lambda_evict: float = 8.0,
        seed: int = 1,
    ):
        """Split the budget between the frequent table and the residual."""
        bucket_bytes = fp_entries * 2 * MemoryModel.KEY_BYTES + 4.5
        fp_buckets = max(1, int(memory_bytes * frequent_fraction / bucket_bytes))
        residual_bytes = memory_bytes - fp_buckets * bucket_bytes
        width = max(1, int(residual_bytes / (rows * MemoryModel.COUNTER_BYTES)))
        return cls(
            fp_buckets=fp_buckets,
            fp_entries=fp_entries,
            rows=rows,
            width=width,
            lambda_evict=lambda_evict,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # stream operations
    # ------------------------------------------------------------------ #
    def insert(self, key: int, count: int = 1) -> None:
        outcome = self.frequent.insert(key, count)  # raises before any write
        self.insertions += 1
        self.memory_accesses += outcome.accesses
        if outcome.demoted is not None:
            demoted_key, demoted_count = outcome.demoted
            self.memory_accesses += self.residual.rows
            self.residual.insert(demoted_key, demoted_count)
            self.residual.insertions -= 1

    def query(self, key: int) -> int:
        """Frequency estimate: exact table + residual median."""
        fp_count, present, flag = self.frequent.lookup(key)
        if present and not flag:
            return fp_count
        return fp_count + max(0, self.residual.query(key))

    # ------------------------------------------------------------------ #
    # join estimation
    # ------------------------------------------------------------------ #
    def _heavy_keys(self) -> Dict[int, int]:
        return self.frequent.as_dict()

    def inner_product(self, other: "JoinSketch") -> float:
        if self._config != other._config:
            raise IncompatibleSketchError(
                "join sketches must share a configuration"
            )
        heavy_a = self._heavy_keys()
        heavy_b = other._heavy_keys()
        keys: Set[int] = set(heavy_a) | set(heavy_b)
        keyed = 0.0
        for key in keys:
            f_heavy = heavy_a.get(key, 0)
            g_heavy = heavy_b.get(key, 0)
            f_resid = self.residual.query(key)
            g_resid = other.residual.query(key)
            keyed += (
                f_heavy * g_heavy + f_heavy * g_resid + f_resid * g_heavy
            )
        return keyed + self.residual.inner_product(other.residual)

    def memory_bytes(self) -> float:
        fp_buckets, fp_entries, _, _, _, _ = self._config
        bucket_bytes = fp_entries * 2 * MemoryModel.KEY_BYTES + 4.5
        return fp_buckets * bucket_bytes + self.residual.memory_bytes()
