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

The bucket arrays, purity test and peel live in :class:`CountingFermat`,
which the standalone :class:`~repro.sketches.fermat.FermatSketch` shares;
:class:`InfrequentPart` adds the ±1 signs, the fast query, the bulk
encode and the metrics.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro.common import invariants as _inv
from repro.common.errors import (
    ConfigurationError,
    DecodeError,
    IncompatibleSketchError,
)
from repro.common.hashing import HashFamily, SignFamily
from repro.common.primes import DEFAULT_PRIME, mod_inverse, validate_prime
from repro.common.validation import require_positive
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import InfrequentPartMetrics
from repro.observability.metrics import MetricsRegistry

_F = TypeVar("_F", bound="CountingFermat")


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


def _occupied(ids: List[List[int]], counts: List[List[int]]) -> int:
    """Number of buckets with a nonzero ``iID`` or ``icnt``."""
    return sum(
        1
        for id_row, count_row in zip(ids, counts)
        for iid, icnt in zip(id_row, count_row)
        if icnt != 0 or iid != 0
    )


def _median(values: Iterable[int]) -> int:
    """The median of ints; the floored mean of the middle two for an even
    count."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) // 2


def _unsigned(row: int, key: int) -> int:
    """The sign of every key in every row of an unsigned sketch."""
    return 1


class CountingFermat:
    """``rows × width`` buckets of ``(iID, icnt)`` over the prime field.

    The mechanism both counting Fermat sketches share: the key-domain
    check, the field encode, the purity test, the peel and the
    bucket-wise linear algebra.  A subclass picks its hash salt and may
    replace ``_sign``; the base is unsigned (every sign +1).
    """

    #: xored into the seed of the bucket hash family
    HASH_SALT = 0
    #: logical bucket size: 4-byte iID + 4-byte icnt, as in the paper
    BUCKET_BYTES = 8.0

    def __init__(
        self,
        rows: int,
        width: int,
        prime: int = DEFAULT_PRIME,
        seed: int = 1,
        max_key: int = 1 << 32,
    ) -> None:
        super().__init__()
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
        self._hashes = HashFamily(rows, width, seed=seed ^ self.HASH_SALT)
        #: the sign ``key`` carries in ``row``, as ``_sign(row, key)``
        self._sign: Callable[[int, int], int] = _unsigned
        self.ids: List[List[int]] = [[0] * width for _ in range(rows)]
        self.counts: List[List[int]] = [[0] * width for _ in range(rows)]

    def _check_key(self, key: int) -> None:
        if not 1 <= key < self.max_key:
            raise ConfigurationError(
                f"key {key} outside the decodable domain [1, {self.max_key}); "
                "fingerprint longer keys first"
            )

    def _apply(
        self, ids: List[List[int]], counts: List[List[int]], key: int, count: int
    ) -> List[int]:
        """Add ``count`` of ``key`` to one bucket per row; return the columns."""
        p = self.prime
        columns: List[int] = []
        for row in range(self.rows):
            j = self._hashes.index(row, key)
            ids[row][j] = (ids[row][j] + count * key) % p
            counts[row][j] += self._sign(row, key) * count
            if _inv.ENABLED:
                _inv.check_field_element(ids[row][j], p, "counting Fermat iID")
                _inv.check_counter_int(counts[row][j], "counting Fermat icnt")
            columns.append(j)
        return columns

    # ------------------------------------------------------------------ #
    # decoding (Algorithm 5)
    # ------------------------------------------------------------------ #
    def _candidates(
        self, row: int, col: int, iid: int, icnt: int
    ) -> List[Tuple[int, int]]:
        """The ``(key, signed count)`` pairs bucket (row, col) may hold alone.

        A count that is a multiple of ``p`` (zero included) has no inverse,
        so the bucket is not decodable.  A sign of −1 makes the raw
        quotient come out as ``p − e``; both candidates are tested, and
        the recovered pair must reproduce the stored residue exactly.
        """
        p = self.prime
        if icnt % p == 0:
            return []
        quotient = (iid * mod_inverse(icnt, p)) % p
        found: List[Tuple[int, int]] = []
        for candidate in (quotient, (p - quotient) % p):
            if not 1 <= candidate < self.max_key:
                continue  # outside the key domain: not a real element
            if self._hashes.index(row, candidate) != col:
                continue
            count = self._sign(row, candidate) * icnt
            if (count * candidate) % p == iid % p:
                found.append((candidate, count))
        return found

    def _peel(
        self, validator: Optional[Callable[[int], bool]] = None
    ) -> Tuple[DecodeResult, Tuple[int, int, int, int]]:
        """Peel every pure bucket of a copy of the arrays.

        ``validator`` may veto a candidate key; a vetoed candidate moves
        on to the bucket's other candidate.  Returns the result and the
        peel's work: queue visits, peeled buckets, failed (non-empty,
        impure) visits and vetoed candidates.
        """
        ids = [row[:] for row in self.ids]
        counts = [row[:] for row in self.counts]
        decoded: Dict[int, int] = {}
        queue = deque(
            (row, col)
            for row in range(self.rows)
            for col in range(self.width)
            if counts[row][col] != 0 or ids[row][col] != 0
        )
        # Each bucket may be re-enqueued every time a peel touches it; the
        # visit budget below bounds pathological ping-ponging.
        initial_budget = max(64, 8 * self.rows * self.width)
        budget = initial_budget
        peeled = 0
        failures = 0
        rejections = 0
        while queue and budget > 0:
            budget -= 1
            row, col = queue.popleft()
            pure: Optional[Tuple[int, int]] = None
            iid, icnt = ids[row][col], counts[row][col]
            for candidate in self._candidates(row, col, iid, icnt):
                if validator is None or validator(candidate[0]):
                    pure = candidate
                    break
                rejections += 1
            if pure is None:
                if icnt != 0 or iid != 0:
                    failures += 1
                continue
            peeled += 1
            key, count = pure
            decoded[key] = decoded.get(key, 0) + count
            if decoded[key] == 0:
                del decoded[key]
            for peel_row, j in enumerate(self._apply(ids, counts, key, -count)):
                if counts[peel_row][j] != 0 or ids[peel_row][j] != 0:
                    queue.append((peel_row, j))
        residual = _occupied(ids, counts)
        if _inv.ENABLED and residual == 0:
            # A complete peel removed exactly what it reported: by field
            # linearity the recovered counts must re-encode to the original
            # arrays bucket-for-bucket (validator or not).
            _inv.check_decode_roundtrip(
                self, decoded, f"{type(self).__name__}.decode"
            )
        result = DecodeResult(decoded, residual == 0, residual)
        return result, (initial_budget - budget, peeled, failures, rejections)

    # ------------------------------------------------------------------ #
    # linearity (union / difference)
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "CountingFermat") -> None:
        """Raise unless ``other`` has identical shape, prime and seeds."""
        same = (
            type(self) is type(other)
            and self.rows == other.rows
            and self.width == other.width
            and self.prime == other.prime
            and self.max_key == other.max_key
            and self._seed == other._seed
        )
        if not same:
            raise IncompatibleSketchError(
                f"{type(self).__name__}s differ in shape, prime or seed"
            )

    def merged(self: _F, other: _F) -> _F:
        """Bucket-wise sum: summarizes the multiset union."""
        return self._combine(other, operator.add)

    def subtracted(self: _F, other: _F) -> _F:
        """Bucket-wise difference: decodes to signed per-element deltas."""
        return self._combine(other, operator.sub)

    def _combine(self: _F, other: _F, op: Callable[[int, int], int]) -> _F:
        self.check_compatible(other)
        result = self.empty_like()
        p = self.prime
        result.ids = [
            [op(mine, theirs) % p for mine, theirs in zip(own, their)]
            for own, their in zip(self.ids, other.ids)
        ]
        result.counts = [
            [op(mine, theirs) for mine, theirs in zip(own, their)]
            for own, their in zip(self.counts, other.counts)
        ]
        return result

    def empty_like(self: _F) -> _F:
        """A fresh structure with identical shape, prime and seeds."""
        return type(self)(
            self.rows, self.width, self.prime, seed=self._seed, max_key=self.max_key
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def nonzero_buckets(self) -> int:
        """Number of buckets currently holding anything."""
        return _occupied(self.ids, self.counts)

    def memory_bytes(self) -> float:
        """Logical size: rows × width × (4-byte iID + 4-byte icnt)."""
        return self.rows * self.width * self.BUCKET_BYTES


class InfrequentPart(CountingFermat):
    """The counting Fermat sketch with ±1 signs (Algorithms 2 and 5)."""

    HASH_SALT = 0x1F1F
    #: xored into the seed of the ±1 sign family
    SIGN_SALT = 0x2E2E

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
        super().__init__(rows, width, prime, seed, max_key)
        self._signs = SignFamily(rows, seed=seed ^ self.SIGN_SALT)
        self._sign = self._signs.sign

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
        self, result: DecodeResult, work: Tuple[int, int, int, int]
    ) -> None:
        """Record one full Algorithm-5 peel (called only when armed)."""
        visits, peeled, failures, rejections = work
        bundle = self._observe()
        bundle.decodes.inc()
        if result.complete:
            bundle.decode_complete.inc()
        else:
            bundle.decode_incomplete.inc()
        bundle.peel_rounds.inc(visits)
        bundle.peeled_buckets.inc(peeled)
        bundle.peel_failures.inc(failures)
        if rejections:
            bundle.crossval_rejections.inc(rejections)
        bundle.residual_buckets.set(result.residual_buckets)

    # ------------------------------------------------------------------ #
    # insertion (Algorithm 2)
    # ------------------------------------------------------------------ #
    def insert(self, key: int, count: int) -> None:
        """Encode ``count`` occurrences of ``key`` into every row."""
        self._check_key(key)
        if _inv.ENABLED:
            _inv.check_counter_int(count, "InfrequentPart.insert count")
        if _obs.ENABLED:
            self._record_inserts(1, count)
        self._apply(self.ids, self.counts, key, count)

    def insert_batch(self, keys: Any, counts: Any) -> None:
        """Encode many ``(key, count)`` pairs (bulk Algorithm 2).

        ``keys``/``counts`` are int64 arrays.  The field updates commute,
        so this equals calling :meth:`insert` per pair.  Row positions and
        ±1 signs are hashed as arrays; the residues stay exact Python
        ints, since ``count·key`` exceeds 64 bits.
        """
        if len(keys):
            self._check_key(int(keys.min()))
            self._check_key(int(keys.max()))
        positions = [row.tolist() for row in self._hashes.index_arrays(keys)]
        signs = [row.tolist() for row in self._signs.sign_arrays(keys)]
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
            # as per-pair inserts count them: a negative count adds no units
            self._record_inserts(
                len(keys_list), sum(count for count in counts_list if count > 0)
            )

    # ------------------------------------------------------------------ #
    # fast (non-inverting) query — Count-Sketch style
    # ------------------------------------------------------------------ #
    def fast_query(self, key: int) -> int:
        """Median over rows of ``ζᵢ(key) · icnt`` (unbiased, Lemma 1)."""
        return _median(
            self._signs.sign(row, key)
            * self.counts[row][self._hashes.index(row, key)]
            for row in range(self.rows)
        )

    def fast_query_many(self, keys: Any) -> List[int]:
        """:meth:`fast_query` of each of the int64 ``keys``."""
        rows = [
            [sign * icnts[j] for j, sign in zip(at.tolist(), signs.tolist())]
            for icnts, at, signs in zip(
                self.counts,
                self._hashes.index_arrays(keys),
                self._signs.sign_arrays(keys),
            )
        ]
        return [_median(estimates) for estimates in zip(*rows)]

    # ------------------------------------------------------------------ #
    # full decode (Algorithm 5)
    # ------------------------------------------------------------------ #
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
        result, work = self._peel(validator)
        if _obs.ENABLED:
            self._record_decode(result, work)
        if strict and not result.complete:
            raise DecodeError(
                f"{result.residual_buckets} buckets undecodable "
                f"(recovered {len(result.counts)} elements)",
                partial=result.counts,
            )
        return result
