"""FermatSketch (from ChameleMon, Yang et al.) — the standalone invertible
counting sketch the DaVinci infrequent part builds on.

``d`` rows × ``w`` buckets of ``(iID, icnt)``: ``iID += cnt·e (mod p)``,
``icnt += cnt`` (no ±1 signs in the standalone version).  A pure bucket
satisfies ``iID ≡ icnt·e (mod p)``, so ``e = iID · icnt^{p−2} mod p``
(Fermat's little theorem); decoding peels pure buckets until the structure
drains.  Because both fields are linear, set union is bucket-wise addition
and set difference bucket-wise subtraction — the difference decodes
directly to signed per-element deltas, which is the packet-loss /
set-reconciliation use the paper evaluates (Figs. 4g-4i).

The buckets, purity test and peel are the infrequent part's
(:class:`~repro.core.infrequent_part.CountingFermat`), unsigned.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.primes import DEFAULT_PRIME
from repro.core.infrequent_part import CountingFermat
from repro.sketches.base import InvertibleSketch


class FermatSketch(CountingFermat, InvertibleSketch):
    """The plain (sign-free) counting Fermat sketch."""

    HASH_SALT = 0xFE12

    _decode_cache: Optional[Dict[int, int]] = None

    @classmethod
    def from_memory(
        cls,
        memory_bytes: float,
        rows: int = 3,
        prime: int = DEFAULT_PRIME,
        seed: int = 1,
    ):
        """Size the sketch to a byte budget."""
        width = max(1, int(memory_bytes / (rows * cls.BUCKET_BYTES)))
        return cls(rows=rows, width=width, prime=prime, seed=seed)

    def insert(self, key: int, count: int = 1) -> None:
        self._check_key(key)
        self._apply(key, count)
        self.insertions += 1
        self.memory_accesses += self.rows
        self._decode_cache = None

    def query(self, key: int) -> int:
        """Point query via full decode (Fermat sketches have no fast path)."""
        return self.decode().get(key, 0)

    def decode(self) -> Dict[int, int]:
        """Peel every pure bucket; returns ``{key: signed count}``.

        Non-destructive.  With load below the peeling threshold
        (≈ 1.2 buckets per element at d = 3) decoding is complete with
        high probability; beyond it, only the recoverable part returns.
        """
        if self._decode_cache is None:
            self._decode_cache = self._peel()[0].counts
        return self._decode_cache

    def merge(self, other: "FermatSketch") -> "FermatSketch":
        """Bucket-wise sum (multiset union)."""
        return self.merged(other)

    def subtract(self, other: "FermatSketch") -> "FermatSketch":
        """Bucket-wise difference (signed multiset difference)."""
        return self.subtracted(other)
