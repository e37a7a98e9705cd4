"""The infrequent part (IFP): a counting Fermat sketch.

``d`` rows × ``w`` buckets; each bucket stores

* ``iID``  — the field residue ``Σ cnt(e) · e  (mod p)`` over the elements
  hashed there (Algorithm 2, line 3), and
* ``icnt`` — the signed sum ``Σ ζᵢ(e) · cnt(e)`` with a ±1 sign function
  ζᵢ per row (Algorithm 2, line 4).

The ±1 signs give the structure a Count-Sketch flavour: an *unbiased* fast
query (median over rows of ``ζᵢ(e) · icnt``) exists alongside the full
decode.  Decoding (Algorithm 5) peels *pure* buckets — buckets holding a
single element.  The paper recovers the element by inverting ``icnt``
with Fermat's little theorem: ``e = iID · icnt^{p−2} mod p``.  A bucket
holding element ``e`` with a negative sign decodes to ``p − e``, which is
why both candidates are validated (Algorithm 5, line 3).  Only the
candidates in the key domain ``[1, max_key)`` matter, and while
``m = |icnt|`` keeps ``m · (max_key − 1) < p`` no product ``m · e``
wraps, so they are exact int64 quotients: ``iID / m`` and
``(p − iID) / m`` where ``m`` divides them.  Only buckets with larger
counts take a field inversion (no bucket of the benchmark's 256 KB
stream does).

The peel runs in waves: wave 0 is every occupied bucket, each later wave
the occupied buckets the previous wave's peels touched.  A wave screens
all its counts by exact division and inverts the rest together (one
``pow``), re-hashes all its candidates as one array, calls the validator
once, then peels its pure buckets in wave order as one array update.
``DecodeResult.counts`` lists the keys in that order.

A candidate ``e`` is pure when it hashes back to the bucket's column
and carries the sign its quotient implies there: ``q = iID · icnt⁻¹``
needs ``+1``, ``p − q`` needs ``−1`` (all that the field identity
``ζ · icnt · e ≡ iID`` tests, as ``q`` satisfies it by construction);
and, with a validator, when the element filter reads at least ``T``
for it (the paper's ``canDecode``).  A crowded bucket can pass the
first two: count-1 keys ``a``, ``b`` with an even sum give the
in-domain quotient ``(a + b) / 2``.  Merged, signed and Fermat
sketches have no validator to reject such a phantom.

The structure is linear over the field, so union and difference are
bucket-wise add/subtract.  ``ids``/``counts`` are ``(rows, width)``
int64 tables: residues of a prime below ``2^63``, and signed counts in
``±(2^63 − 1)``, so every sign flip is exact.  A write that would take
an ``icnt`` out of that range raises ``ConfigurationError`` first.

The bucket arrays, purity test and peel live in :class:`CountingFermat`,
which the standalone :class:`~repro.sketches.fermat.FermatSketch` shares;
:class:`InfrequentPart` adds the ±1 signs, the fast query, the bulk
encode and the metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.common import invariants as _inv
from repro.common.errors import (
    ConfigurationError,
    DecodeError,
    IncompatibleSketchError,
)
from repro.common.hashing import HashFamily, SignFamily, np
from repro.common.primes import (
    DEFAULT_PRIME,
    MAX_ARRAY_PRIME,
    add_mod_at,
    mod_inverses,
    validate_prime,
)
from repro.common.validation import INT64_MAX, require_positive
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import InfrequentPartMetrics
from repro.observability.metrics import MetricsRegistry

_F = TypeVar("_F", bound="CountingFermat")

#: a decode's cross-validation hook: int64 key array → bool array
Validator = Callable[[Any], Any]

_LOW = 0xFFFFFFFF
_LEAVES_RANGE = "an infrequent-part icnt leaves ±(2^63 − 1), its int64 table's range"


class DecodeResult:
    """Outcome of a full decode: the keyed counts plus leftovers."""

    __slots__ = ("counts", "complete", "residual_buckets", "budget_exhausted")

    def __init__(
        self, counts: Dict[int, int], complete: bool, residual_buckets: int,
        budget_exhausted: bool = False,
    ) -> None:
        #: recovered ``{key: signed count}``
        self.counts = counts
        #: True when every bucket peeled down to zero
        self.complete = complete
        #: number of non-empty buckets left undecoded
        self.residual_buckets = residual_buckets
        #: True when the visit budget, not a stall, ended an incomplete
        #: peel (e.g. one ping-ponging between a phantom and its undo)
        self.budget_exhausted = budget_exhausted


def _add_exact(base: Any, at: Any, values: Any, signs: Any = 1) -> Any:
    """A copy of int64 ``base`` plus ``signs · values`` at each index
    ``at`` (repeats accumulate, as in ``np.add.at``), summed exactly as
    32-bit halves; raises where a result leaves ``±(2^63 − 1)``."""
    hi, lo = base >> 32, base & _LOW
    np.add.at(hi, at, signs * (values >> 32))
    np.add.at(lo, at, signs * (values & _LOW))
    hi += lo >> 32
    if hi.size and (hi.min() < -(1 << 31) or hi.max() >= 1 << 31):
        raise ConfigurationError(_LEAVES_RANGE)
    hi <<= 32
    hi |= lo & _LOW
    if hi.size and hi.min() == -INT64_MAX - 1:
        raise ConfigurationError(_LEAVES_RANGE)
    return hi


def _first_untouched(at: Any, spots: Any, size: int) -> Any:
    """Which of a wave's pure buckets ``at`` peel, as a bool array: in
    order, each one that no earlier peeling bucket's key touches
    (``spots``, ``rows × n``, holds each key's flat bucket in every row;
    ``size`` is the number of buckets)."""
    peels = len(at)
    peel_of = np.full(size, -1, dtype=np.int64)
    peel_of[at] = np.arange(peels)
    # edge src → dst: the key of pure bucket src touches the later dst
    src = np.tile(np.arange(peels), len(spots))
    dst = peel_of[spots.ravel()]
    later = dst > src
    src, dst = src[later], dst[later]
    kept = np.ones(peels, dtype=bool)
    unsettled = np.zeros(peels, dtype=bool)
    unsettled[dst] = True
    kept[dst] = False
    # each round settles at least the first unsettled bucket: it is left
    # once a kept peel touches it, kept once every peel touching it is left
    while unsettled.any():
        blocked = np.zeros(peels, dtype=bool)
        blocked[dst[kept[src]]] = True
        waiting = np.zeros(peels, dtype=bool)
        waiting[dst[unsettled[src]]] = True
        settled = unsettled & (blocked | ~waiting)
        kept |= settled & ~blocked
        unsettled &= ~settled
    return kept


def _tally(keys: List[Any], amounts: List[Any]) -> Dict[int, int]:
    """The ``{key: count}`` of a peel's waves of ``keys`` and signed
    ``amounts``, as a dict updated peel by peel leaves it: a key's count
    is the sum of its amounts, a key whose sum returns to 0 is dropped,
    and keys are listed where they last (re)appeared."""
    if not keys:
        return {}
    flat_keys = np.concatenate(keys)
    flat_amounts = np.concatenate(amounts).tolist()
    # sorted rather than np.unique, whose hash-based path left about
    # 1.5 MB more resident memory behind on the query workload
    ordered = np.sort(flat_keys)
    if not np.any(ordered[1:] == ordered[:-1]):
        return dict(zip(flat_keys.tolist(), flat_amounts))
    decoded: Dict[int, int] = {}
    for key, amount in zip(flat_keys.tolist(), flat_amounts):
        total = decoded.get(key, 0) + amount
        if total:
            decoded[key] = total
        else:
            del decoded[key]
    return decoded


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
        if self.prime > MAX_ARRAY_PRIME:
            raise ConfigurationError(f"prime {prime} leaves the int64 tables")
        #: decodable key domain [1, max_key); matches the paper's 32-bit
        #: flow keys (fingerprint longer keys first, per Section III-B2).
        #: A random residue lands in it with probability max_key / p
        #: (~2^-29 at p = 2^61 − 1), but a crowded bucket's quotient is
        #: not random: two count-1 keys with an even sum give their mean.
        self.max_key = max_key
        if max_key >= self.prime:
            raise ConfigurationError("max_key must be below the field prime")
        #: the largest ``|icnt|`` whose products with every key stay below
        #: ``p``: the purity test divides such counts instead of inverting
        self._exact_counts = (self.prime - 1) // max(1, max_key - 1)
        self._seed = seed
        self._hashes = HashFamily(rows, width, seed=seed ^ self.HASH_SALT)
        #: the sign ``key`` carries in ``row``, as ``_sign(row, key)``
        self._sign: Callable[[int, int], int] = _unsigned
        self._offsets = np.arange(rows, dtype=np.int64)[:, None] * width  # row starts
        #: ``iID`` residues and signed ``icnt``, ``(rows, width)`` int64
        self.ids = np.zeros((rows, width), dtype=np.int64)
        self.counts = np.zeros((rows, width), dtype=np.int64)

    def _check_key(self, key: int) -> None:
        if not 1 <= key < self.max_key:
            raise ConfigurationError(
                f"key {key} outside the decodable domain [1, {self.max_key}); "
                "fingerprint longer keys first"
            )

    def _apply(self, key: int, count: int) -> None:
        """Add ``count`` of ``key`` to one bucket per row (Algorithm 2) in
        Python ints; raises, writing nothing, if an ``icnt`` leaves range."""
        p = self.prime
        rows = range(self.rows)
        spots = self._hashes.indexes(key)
        ids = [(int(self.ids[r, j]) + count * key) % p for r, j in zip(rows, spots)]
        counts = [
            int(self.counts[r, j]) + self._sign(r, key) * count
            for r, j in zip(rows, spots)
        ]
        if not all(-INT64_MAX <= icnt <= INT64_MAX for icnt in counts):
            raise ConfigurationError(_LEAVES_RANGE)
        if _inv.ENABLED:
            for iid, icnt in zip(ids, counts):
                _inv.check_field_element(iid, p, "counting Fermat iID")
                _inv.check_counter_int(icnt, "counting Fermat icnt")
        self.ids[rows, spots] = ids
        self.counts[rows, spots] = counts

    def _check_tables(self, where: str) -> None:
        """Sanitizer: every ``iID`` is a reduced residue (armed only)."""
        for iid in (self.ids.min(), self.ids.max()):
            _inv.check_field_element(int(iid), self.prime, where)

    # ------------------------------------------------------------------ #
    # decoding (Algorithm 5)
    # ------------------------------------------------------------------ #
    def _sign_arrays(self, keys: Any) -> List[Any]:
        """:attr:`_sign` of each of the int64 ``keys`` in every row, one
        int64 array per row."""
        return [np.ones(len(keys), dtype=np.int64)] * self.rows

    def _pure_in(
        self, wave: Any, ids: Any, counts: Any, validator: Optional[Validator]
    ) -> Tuple[Any, Any, Any, Any, Any, int, int]:
        """The pure buckets of ``wave`` (flat indexes into ``ids``/``counts``).

        Returns, for the pure buckets in wave order, their flat indexes,
        keys, own-row signs, and each key's flat bucket and sign in every
        row (``rows × n``), then the number of vetoed candidates and the
        number of buckets whose candidates took a field inversion.

        A bucket's candidates are ``q = iID · icnt⁻¹`` and ``p − q``; only
        their values in the key domain matter.  With ``m = |icnt|`` and
        ``m · (max_key − 1) < p`` (:attr:`_exact_counts`), every product
        ``m · key`` is below ``p``, so those values are exact quotients:
        ``iID / m`` where ``m`` divides ``iID``, ``(p − iID) / m`` where
        ``m`` divides ``p − iID`` (``q`` and ``p − q`` for ``icnt > 0``,
        swapped for ``icnt < 0``).  Only a larger count is inverted, all
        of a wave's together (:func:`~repro.common.primes.mod_inverses`);
        a count ``≡ 0 (mod p)`` has no inverse.  ``q`` and ``p − q`` must
        be in the key domain, hash home and carry sign ``+1`` and ``−1``.
        The validator sees every survivor at once; a bucket takes its
        first accepted candidate, ``q`` first.
        """
        p = self.prime
        icnt = counts[wave]
        m = np.abs(icnt)
        wide = m > self._exact_counts
        exact = np.flatnonzero((m != 0) & ~wide)
        inverted = np.flatnonzero(wide)
        inverted = inverted[icnt[inverted] % p != 0]
        # candidate slot 2i is bucket i's q, slot 2i + 1 its p − q; 0 is no key
        slots = np.zeros((len(wave), 2), dtype=np.int64)
        iid, m = ids[wave[exact]].astype(np.int64), m[exact]
        whole = np.where(iid % m == 0, iid // m, 0)
        rest = np.where((p - iid) % m == 0, (p - iid) // m, 0)
        negative = icnt[exact] < 0
        slots[exact, 0] = np.where(negative, rest, whole)
        slots[exact, 1] = np.where(negative, whole, rest)
        if len(inverted):
            inverses = mod_inverses((icnt[inverted] % p).tolist(), p)
            pairs = zip(ids[wave[inverted]].tolist(), inverses)
            quotients = np.array([a * b % p for a, b in pairs], dtype=np.int64)
            slots[inverted, 0] = quotients
            slots[inverted, 1] = p - quotients
        slots = slots.ravel()
        chosen = np.flatnonzero((0 < slots) & (slots < self.max_key))
        keys = slots[chosen]
        owners = wave[chosen // 2]
        columns = np.stack(self._hashes.index_arrays(keys))
        signs = np.stack(self._sign_arrays(keys))
        own_row, own_column = np.divmod(owners, self.width)
        picks = np.arange(len(keys))
        homed = columns[own_row, picks] == own_column
        homed &= signs[own_row, picks] == 1 - 2 * (chosen % 2)
        survivors = np.flatnonzero(homed)
        accepted = np.ones(len(survivors), dtype=bool)
        if validator is not None and len(keys):
            accepted = np.asarray(validator(keys[survivors]), dtype=bool)
            if accepted.shape != (len(survivors),):
                raise ConfigurationError("a validator returns one bool per key")
        # per bucket and candidate: -1 none, 0 vetoed, 1 accepted
        verdict = np.full((len(wave), 2), -1, dtype=np.int64)
        verdict.ravel()[chosen[survivors]] = accepted
        first = verdict[:, 0] == 1  # then p − q is never consulted
        vetoed = np.count_nonzero(verdict[:, 0] == 0) + np.count_nonzero(
            (verdict[:, 1] == 0) & ~first
        )
        pure = np.flatnonzero(first | (verdict[:, 1] == 1))
        candidate = np.empty(2 * len(wave), dtype=np.int64)
        candidate[chosen] = picks
        taken = candidate[2 * pure + ~first[pure]]
        spots = columns[:, taken] + self._offsets
        own = signs[own_row[taken], taken]
        return (
            wave[pure], keys[taken], own, spots, signs[:, taken], int(vetoed),
            len(inverted),
        )

    def _peel(
        self, validator: Optional[Validator] = None
    ) -> Tuple[DecodeResult, Tuple[int, int, int, int, int]]:
        """Peel every pure bucket of a copy of the arrays, in waves.

        Wave 0 is every occupied bucket in ``(row, col)`` order.  A wave
        is tested as one batch (:meth:`_pure_in`) on the arrays as the
        wave found them; a pure bucket that an earlier peel of the same
        wave touched is left for the next wave, so a key pure in two rows
        peels once, and the rest are subtracted as one array update.  The
        next wave is the occupied buckets the wave left, in wave order,
        then the other occupied buckets its peels touched, in the order
        they were touched: the order a FIFO queue would revisit them in.
        ``validator`` maps an int64 key array to a bool array.  Returns
        the result and the work: bucket visits, peeled buckets, visits
        that found no pure content, vetoed candidates and buckets whose
        purity test took a field inversion.  Raises
        ``ConfigurationError`` where a peel would take a working ``icnt``
        out of range.
        """
        p = self.prime
        ids = self.ids.ravel().astype(np.uint64)
        counts = self.counts.ravel().copy()
        peeled_keys: List[Any] = []
        peeled_amounts: List[Any] = []
        wave = np.flatnonzero(self.ids.ravel() | counts)
        # A peel re-queues every bucket it touches; the visit budget bounds
        # pathological ping-ponging.
        budget = max(64, 8 * self.rows * self.width)
        visits = peeled = failures = rejections = inversions = unvisited = 0
        while len(wave) and visits < budget:
            unvisited = max(0, len(wave) - (budget - visits))
            wave = wave[: budget - visits]
            visits += len(wave)
            at, keys, own_signs, spots, signs, vetoed, inverted = self._pure_in(
                wave, ids, counts, validator
            )
            failures += len(wave) - len(at)
            rejections += vetoed
            inversions += inverted
            position = np.full(len(ids), -1, dtype=np.int64)
            position[wave] = np.arange(len(wave))
            kept = np.flatnonzero(_first_untouched(at, spots, len(ids)))
            peeled += len(kept)
            keys, spots = keys[kept], spots[:, kept]
            amounts = own_signs[kept] * counts[at[kept]]
            peeled_keys.append(keys)
            peeled_amounts.append(amounts)
            counts = _add_exact(counts, spots, amounts, -signs[:, kept])
            add_mod_at(ids, spots.ravel(), self._residues(keys, -amounts), p)
            # each touched bucket once, in the order the kept peels touch
            # them, with the wave position of the peel that first did
            touches = spots.T.ravel()
            firsts = np.sort(np.unique(touches, return_index=True)[1])
            touched = touches[firsts]
            toucher = position[at[kept]][firsts // self.rows]
            left = position[touched] > toucher
            wave = np.concatenate(
                (wave[np.sort(position[touched[left]])], touched[~left])
            )
            wave = wave[(ids[wave] != 0) | (counts[wave] != 0)]
        decoded = _tally(peeled_keys, peeled_amounts)
        residual = int(np.count_nonzero((ids != 0) | (counts != 0)))
        if _inv.ENABLED and residual == 0:
            # A complete peel removed exactly what it reported: by linearity
            # the recovered counts re-encode to the original arrays.
            _inv.check_decode_roundtrip(
                self, decoded, f"{type(self).__name__}.decode"
            )
        cut = residual != 0 and bool(unvisited or len(wave))
        result = DecodeResult(decoded, residual == 0, residual, cut)
        return result, (visits, peeled, failures, rejections, inversions)

    def _residues(self, keys: Any, amounts: Any) -> Any:
        """``amount · key mod p`` of each pair, as uint64: in int64 where
        ``|amount| · key < p`` (:attr:`_exact_counts`), else in Python ints."""
        p = self.prime
        residues = amounts * keys % p
        wide = np.flatnonzero(np.abs(amounts) > self._exact_counts)
        if len(wide):
            pairs = zip(amounts[wide].tolist(), keys[wide].tolist())
            residues[wide] = [amount * key % p for amount, key in pairs]
        return np.tile(residues.astype(np.uint64), self.rows)

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
        return self._combine(other, 1)

    def subtracted(self: _F, other: _F) -> _F:
        """Bucket-wise difference: decodes to signed per-element deltas."""
        return self._combine(other, -1)

    def _combine(self: _F, other: _F, sign: int) -> _F:
        """``self + sign · other`` bucket by bucket: residues in the field,
        ``icnt`` exactly (raises where one would leave ``±(2^63 − 1)``)."""
        self.check_compatible(other)
        result = self.empty_like()
        p = self.prime
        result.counts = _add_exact(self.counts, slice(None), other.counts, sign)
        theirs = other.ids if sign > 0 else (p - other.ids) % p
        result.ids = (
            (self.ids.astype(np.uint64) + theirs.astype(np.uint64)) % np.uint64(p)
        ).astype(np.int64)
        if _inv.ENABLED:
            result._check_tables(f"{type(self).__name__} set operation iID")
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
        return int(np.count_nonzero(self.ids | self.counts))

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

    def _sign_arrays(self, keys: Any) -> List[Any]:
        return self._signs.sign_arrays(keys)

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
        self, result: DecodeResult, work: Tuple[int, int, int, int, int]
    ) -> None:
        """Record one full Algorithm-5 peel (called only when armed)."""
        visits, peeled, failures, rejections, inversions = work
        bundle = self._observe()
        bundle.decodes.inc()
        if result.complete:
            bundle.decode_complete.inc()
        else:
            bundle.decode_incomplete.inc()
        if result.budget_exhausted:
            bundle.decode_budget_exhausted.inc()
        if inversions:
            bundle.decode_inversions.inc(inversions)
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
        self._apply(key, count)
        if _obs.ENABLED:
            self._record_inserts(1, count)

    def insert_batch(self, keys: Any, counts: Any) -> None:
        """Encode many ``(key, count)`` pairs (bulk Algorithm 2).

        ``keys``/``counts`` are int64 arrays.  The field updates commute,
        so this equals :meth:`insert` per pair, except that only each
        bucket's final ``icnt`` is range-checked (before any write).  Each
        residue ``count · key mod p`` is computed once for all rows.
        """
        if len(keys):
            self._check_key(int(keys.min()))
            self._check_key(int(keys.max()))
        p = self.prime
        pairs = zip(keys.tolist(), counts.tolist())
        residues = np.array([count * key % p for key, count in pairs], np.uint64)
        at = np.stack(self._hashes.index_arrays(keys)) + self._offsets
        signs = np.stack(self._sign_arrays(keys))
        icnt = self.counts.reshape(-1)
        icnt[...] = _add_exact(icnt, at, counts, signs)
        # in place, through a uint64 view: residues stay below p < 2^63
        ids = self.ids.reshape(-1).view(np.uint64)
        add_mod_at(ids, at.ravel(), np.tile(residues, self.rows), p)
        if _inv.ENABLED:
            self._check_tables("InfrequentPart.insert_batch iID")
        if _obs.ENABLED:
            # as per-pair inserts count them: a negative count adds no units
            self._record_inserts(len(keys), sum(counts[counts > 0].tolist()))

    # ------------------------------------------------------------------ #
    # fast (non-inverting) query — Count-Sketch style
    # ------------------------------------------------------------------ #
    def fast_query(self, key: int) -> int:
        """Median over rows of ``ζᵢ(key) · icnt`` (unbiased, Lemma 1); the
        floored mean of the middle two for an even row count."""
        return self.fast_query_many(np.array([key], dtype=np.int64))[0]

    def fast_query_many(self, keys: Any) -> List[int]:
        """:meth:`fast_query` of each of the int64 ``keys``."""
        columns = np.stack(self._hashes.index_arrays(keys))
        estimates = np.stack(self._sign_arrays(keys))
        estimates *= self.counts[np.arange(self.rows)[:, None], columns]
        estimates.sort(axis=0)
        mid = self.rows // 2
        if self.rows % 2:
            return estimates[mid].tolist()
        low, high = estimates[mid - 1], estimates[mid]
        # the floored mean, without the sum leaving int64
        return ((low >> 1) + (high >> 1) + ((low & 1) + (high & 1) >> 1)).tolist()

    # ------------------------------------------------------------------ #
    # full decode (Algorithm 5)
    # ------------------------------------------------------------------ #
    def decode(
        self,
        validator: Optional[Validator] = None,
        strict: bool = False,
    ) -> DecodeResult:
        """Peel all pure buckets; non-destructive (works on a copy).

        ``validator`` is the optional cross-validation hook, called once
        per peel wave on an int64 array of candidate keys and returning a
        bool array — the DaVinci sketch passes
        ``lambda keys: EF.query_many(keys) >= T`` so that a coincidental
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
