"""The infrequent part (IFP): a counting Fermat sketch.

``d`` rows × ``w`` buckets; each bucket stores

* ``iID``  — the field residue ``Σ cnt(e) · e  (mod p)`` over the elements
  hashed there (Algorithm 2, line 3), and
* ``icnt`` — the signed sum ``Σ ζᵢ(e) · cnt(e)`` with a ±1 sign function
  ζᵢ per row (Algorithm 2, line 4).

The ±1 signs give the structure a Count-Sketch flavour: an *unbiased* fast
query (median over rows of ``ζᵢ(e) · icnt``) exists alongside the full
decode.  Decoding (Algorithm 5) peels *pure* buckets — buckets holding a
single element — by inverting ``icnt`` with Fermat's little theorem:
``e = iID · icnt^{p−2} mod p``.  A bucket holding element ``e`` with a
negative sign decodes to ``p − e``, which is why both candidates are
validated (Algorithm 5, line 3).

Purity is verified three ways, strongest first:

1. field consistency — the recovered ``(e, cnt)`` must reproduce the
   stored ``iID`` exactly (a 1-in-``p`` coincidence otherwise);
2. re-hash — ``e`` must map back to the bucket's own column;
3. (optional) cross-validation against the element filter — a promoted
   element must read at least ``T`` there (the paper's ``canDecode``).

The structure is linear over the field, so union and difference are
bucket-wise add/subtract; counts are kept as signed Python ints so that
difference sketches decode to signed per-element deltas.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common import invariants as _inv
from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.common.hashing import HashFamily, SignFamily
from repro.common.primes import DEFAULT_PRIME, mod_inverse, validate_prime
from repro.common.validation import require_positive
from repro.core.kernel import _premix, hash_mod, np, signs_of
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import InfrequentPartMetrics
from repro.observability.metrics import MetricsRegistry


class DecodeResult:
    """Outcome of a full decode: the keyed counts plus leftovers."""

    __slots__ = ("counts", "complete", "residual_buckets")

    def __init__(
        self, counts: Dict[int, int], complete: bool, residual_buckets: int
    ) -> None:
        #: recovered ``{key: signed count}``
        self.counts = counts
        #: True when every bucket peeled down to zero
        self.complete = complete
        #: number of non-empty buckets left undecoded
        self.residual_buckets = residual_buckets


class InfrequentPart:
    """The counting Fermat sketch (Algorithms 2 and 5)."""

    #: lazily-created metrics bundle (class-level default; see
    #: repro.observability — collection is free while disabled)
    _obs_metrics: Optional[InfrequentPartMetrics] = None
    #: injectable registry override (None → the process-global default)
    _obs_registry: Optional[MetricsRegistry] = None

    def __init__(
        self,
        rows: int,
        width: int,
        prime: int = DEFAULT_PRIME,
        seed: int = 1,
        max_key: int = 1 << 32,
    ) -> None:
        require_positive("rows", rows)
        require_positive("width", width)
        self.rows = rows
        self.width = width
        self.prime = validate_prime(prime)
        #: decodable key domain [1, max_key); matches the paper's 32-bit
        #: flow keys (fingerprint longer keys first, per Section III-B2).
        #: With p = 2^61−1 this makes an accidental pure-looking bucket
        #: decode to an in-domain key with probability ~2^-29.
        self.max_key = max_key
        if max_key >= self.prime:
            raise ConfigurationError("max_key must be below the field prime")
        self._seed = seed
        self._hashes = HashFamily(rows, width, seed=seed ^ 0x1F1F)
        self._signs = SignFamily(rows, seed=seed ^ 0x2E2E)
        self.ids: List[List[int]] = [[0] * width for _ in range(rows)]
        self.counts: List[List[int]] = [[0] * width for _ in range(rows)]

    # ------------------------------------------------------------------ #
    # observability (free while disabled)
    # ------------------------------------------------------------------ #
    def _observe(self) -> InfrequentPartMetrics:
        """The lazily-bound metrics bundle (armed paths only)."""
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.infrequent_part_metrics(
                self._obs_registry, self
            )
            self._obs_metrics = bundle
        return bundle

    def _record_inserts(self, pairs: int, units: int) -> None:
        """Count encoded pairs/units (called only when armed)."""
        bundle = self._observe()
        bundle.inserts.inc(pairs)
        if units >= 0:  # difference paths may legally encode negatives
            bundle.inserted_units.inc(units)

    def _record_decode(
        self,
        complete: bool,
        residual: int,
        visits: int,
        peeled: int,
        failures: int,
    ) -> None:
        """Record one full Algorithm-5 peel (called only when armed)."""
        bundle = self._observe()
        bundle.decodes.inc()
        if complete:
            bundle.decode_complete.inc()
        else:
            bundle.decode_incomplete.inc()
        bundle.peel_rounds.inc(visits)
        bundle.peeled_buckets.inc(peeled)
        bundle.peel_failures.inc(failures)
        bundle.residual_buckets.set(residual)

    # ------------------------------------------------------------------ #
    # insertion (Algorithm 2)
    # ------------------------------------------------------------------ #
    def insert(self, key: int, count: int) -> None:
        """Encode ``count`` occurrences of ``key`` into every row."""
        if not 1 <= key < self.max_key:
            raise ConfigurationError(
                f"key {key} outside the decodable domain [1, {self.max_key}); "
                "fingerprint longer keys first"
            )
        if _inv.ENABLED:
            _inv.check_counter_int(count, "InfrequentPart.insert count")
        if _obs.ENABLED:
            self._record_inserts(1, count)
        p = self.prime
        for row in range(self.rows):
            j = self._hashes.index(row, key)
            self.ids[row][j] = (self.ids[row][j] + count * key) % p
            self.counts[row][j] += self._signs.sign(row, key) * count
            if _inv.ENABLED:
                _inv.check_field_element(
                    self.ids[row][j], p, "InfrequentPart.insert iID"
                )
                _inv.check_counter_int(
                    self.counts[row][j], "InfrequentPart.insert icnt"
                )

    def insert_batch(self, keys: Any, counts: Any) -> None:
        """Encode many ``(key, count)`` pairs (bulk Algorithm 2).

        ``keys``/``counts`` are int64 arrays.  The field updates commute,
        so this equals calling :meth:`insert` per pair.  Row positions and
        ±1 signs are hashed as arrays; the residues stay exact Python
        ints, since ``count·key`` exceeds 64 bits.
        """
        if len(keys) and not (
            int(keys.min()) >= 1 and int(keys.max()) < self.max_key
        ):
            raise ConfigurationError(
                f"keys outside the decodable domain [1, {self.max_key}); "
                "fingerprint longer keys first"
            )
        keys_u64 = keys.astype(np.uint64)
        positions = [
            hash_mod(keys_u64, premix, self.width).tolist()
            for premix in self._hashes._premixed
        ]
        signs = [
            signs_of(keys_u64, _premix(seed)).tolist()
            for seed in self._signs._seeds
        ]
        keys_list = keys.tolist()
        counts_list = counts.tolist()
        p = self.prime
        for row in range(self.rows):
            ids = self.ids[row]
            icnts = self.counts[row]
            for key, count, j, sign in zip(
                keys_list, counts_list, positions[row], signs[row]
            ):
                ids[j] = (ids[j] + count * key) % p
                icnts[j] += sign * count
        if _obs.ENABLED:
            self._record_inserts(len(keys_list), sum(counts_list))

    # ------------------------------------------------------------------ #
    # fast (non-inverting) query — Count-Sketch style
    # ------------------------------------------------------------------ #
    def fast_query(self, key: int) -> int:
        """Median over rows of ``ζᵢ(key) · icnt`` (unbiased, Lemma 1)."""
        estimates = sorted(
            self._signs.sign(row, key)
            * self.counts[row][self._hashes.index(row, key)]
            for row in range(self.rows)
        )
        mid = len(estimates) // 2
        if len(estimates) % 2 == 1:
            return estimates[mid]
        return (estimates[mid - 1] + estimates[mid]) // 2

    # ------------------------------------------------------------------ #
    # full decode (Algorithm 5)
    # ------------------------------------------------------------------ #
    def _try_decode_bucket(
        self, row: int, col: int, validator: Optional[Callable[[int], bool]]
    ) -> Optional[Tuple[int, int]]:
        """If bucket (row, col) is pure, return its ``(key, signed count)``.

        A sign of −1 makes the raw quotient come out as ``p − e``; both
        candidates are tested, and the recovered pair must reproduce the
        stored residue exactly before it is accepted.
        """
        p = self.prime
        icnt = self.counts[row][col]
        iid = self.ids[row][col]
        if icnt == 0:
            return None
        observing = _obs.ENABLED
        quotient = (iid * mod_inverse(icnt, p)) % p
        for candidate in (quotient, (p - quotient) % p):
            if not 1 <= candidate < self.max_key:
                continue  # outside the key domain: not a real element
            if self._hashes.index(row, candidate) != col:
                continue
            count = self._signs.sign(row, candidate) * icnt
            if count == 0:
                continue
            if (count * candidate) % p != iid % p:
                continue
            if validator is not None and not validator(candidate):
                if observing:
                    self._observe().crossval_rejections.inc()
                continue
            return candidate, count
        return None

    def _remove(self, key: int, count: int) -> List[Tuple[int, int]]:
        """Peel ``(key, count)`` out of every row; return touched buckets."""
        p = self.prime
        touched = []
        for row in range(self.rows):
            j = self._hashes.index(row, key)
            self.ids[row][j] = (self.ids[row][j] - count * key) % p
            self.counts[row][j] -= self._signs.sign(row, key) * count
            touched.append((row, j))
        return touched

    def decode(
        self,
        validator: Optional[Callable[[int], bool]] = None,
        strict: bool = False,
    ) -> DecodeResult:
        """Peel all pure buckets; non-destructive (works on a copy).

        ``validator`` is the optional cross-validation hook — the DaVinci
        sketch passes ``lambda e: EF.query(e) >= T`` so that a coincidental
        pure-looking bucket for a never-promoted key is rejected (the
        paper's ``canDecode`` double verification).

        With ``strict=True`` an incomplete peel raises
        :class:`~repro.common.errors.DecodeError` carrying the partial
        counts, for callers that must not silently act on partial data.
        """
        snapshot_ids = [row[:] for row in self.ids]
        snapshot_counts = [row[:] for row in self.counts]
        try:
            result = self._decode_in_place(validator)
        finally:
            self.ids = snapshot_ids
            self.counts = snapshot_counts
        if _inv.ENABLED and result.complete:
            # A complete peel removed exactly what it reported: by field
            # linearity the recovered counts must re-encode to the original
            # arrays bucket-for-bucket (validator or not).
            _inv.check_decode_roundtrip(
                self, result.counts, "InfrequentPart.decode"
            )
        if strict and not result.complete:
            from repro.common.errors import DecodeError

            raise DecodeError(
                f"{result.residual_buckets} buckets undecodable "
                f"(recovered {len(result.counts)} elements)",
                partial=result.counts,
            )
        return result

    def _decode_in_place(
        self, validator: Optional[Callable[[int], bool]]
    ) -> DecodeResult:
        counts: Dict[int, int] = {}
        queue = deque(
            (row, col)
            for row in range(self.rows)
            for col in range(self.width)
            if self.counts[row][col] != 0 or self.ids[row][col] != 0
        )
        # Each bucket may be re-enqueued every time a peel touches it; the
        # visit budget below bounds pathological ping-ponging.
        initial_budget = max(64, 8 * self.rows * self.width)
        budget = initial_budget
        observing = _obs.ENABLED
        peeled = 0
        failures = 0
        while queue and budget > 0:
            budget -= 1
            row, col = queue.popleft()
            decoded = self._try_decode_bucket(row, col, validator)
            if decoded is None:
                if observing and (
                    self.counts[row][col] != 0 or self.ids[row][col] != 0
                ):
                    failures += 1
                continue
            if observing:
                peeled += 1
            key, count = decoded
            counts[key] = counts.get(key, 0) + count
            if counts[key] == 0:
                del counts[key]
            for touched in self._remove(key, count):
                if (
                    self.counts[touched[0]][touched[1]] != 0
                    or self.ids[touched[0]][touched[1]] != 0
                ):
                    queue.append(touched)
        residual = sum(
            1
            for row in range(self.rows)
            for col in range(self.width)
            if self.counts[row][col] != 0 or self.ids[row][col] != 0
        )
        if observing:
            self._record_decode(
                residual == 0,
                residual,
                initial_budget - budget,
                peeled,
                failures,
            )
        return DecodeResult(counts, complete=residual == 0, residual_buckets=residual)

    # ------------------------------------------------------------------ #
    # linearity (union / difference)
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "InfrequentPart") -> None:
        """Raise unless ``other`` has identical shape, prime and seeds."""
        same = (
            self.rows == other.rows
            and self.width == other.width
            and self.prime == other.prime
            and self.max_key == other.max_key
            and self._seed == other._seed
        )
        if not same:
            raise IncompatibleSketchError(
                "infrequent parts differ in shape, prime or seed"
            )

    def merged(self, other: "InfrequentPart") -> "InfrequentPart":
        """Bucket-wise sum: summarizes the multiset union."""
        self.check_compatible(other)
        result = self.empty_like()
        p = self.prime
        for row in range(self.rows):
            for col in range(self.width):
                result.ids[row][col] = (
                    self.ids[row][col] + other.ids[row][col]
                ) % p
                result.counts[row][col] = (
                    self.counts[row][col] + other.counts[row][col]
                )
        return result

    def subtracted(self, other: "InfrequentPart") -> "InfrequentPart":
        """Bucket-wise difference: decodes to signed per-element deltas."""
        self.check_compatible(other)
        result = self.empty_like()
        p = self.prime
        for row in range(self.rows):
            for col in range(self.width):
                result.ids[row][col] = (
                    self.ids[row][col] - other.ids[row][col]
                ) % p
                result.counts[row][col] = (
                    self.counts[row][col] - other.counts[row][col]
                )
        return result

    def empty_like(self) -> "InfrequentPart":
        """A fresh IFP with identical shape, prime and seeds."""
        return InfrequentPart(
            self.rows, self.width, self.prime, seed=self._seed, max_key=self.max_key
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def nonzero_buckets(self) -> int:
        """Number of buckets currently holding anything."""
        return sum(
            1
            for row in range(self.rows)
            for col in range(self.width)
            if self.counts[row][col] != 0 or self.ids[row][col] != 0
        )

    def row_zero_fraction(self, row: int = 0) -> float:
        """Fraction of empty buckets in ``row`` (for linear counting)."""
        counters = self.counts[row]
        ids = self.ids[row]
        zero = sum(
            1 for col in range(self.width) if counters[col] == 0 and ids[col] == 0
        )
        return zero / self.width

    def memory_bytes(self) -> float:
        """Logical size: rows × width × (4-byte iID + 4-byte icnt)."""
        return self.rows * self.width * 8.0
