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

The peel runs in waves: wave 0 is every occupied bucket, each later wave
the occupied buckets the previous wave's peels touched.  A wave inverts
all its counts with one batch inversion (one ``pow``), re-hashes all its
candidates as one array and calls the validator once, then peels its
pure buckets in wave order.  For truly pure buckets the order does not
change what is recovered, but ``DecodeResult.counts`` lists the keys in
the order the waves peeled them.

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
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro.common import invariants as _inv
from repro.common.errors import (
    ConfigurationError,
    DecodeError,
    IncompatibleSketchError,
)
from repro.common.hashing import HashFamily, SignFamily, np
from repro.common.primes import DEFAULT_PRIME, mod_inverses, validate_prime
from repro.common.validation import require_positive
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import InfrequentPartMetrics
from repro.observability.metrics import MetricsRegistry

_F = TypeVar("_F", bound="CountingFermat")

#: a decode's cross-validation hook: int64 key array → bool array
Validator = Callable[[Any], Any]

#: a pure bucket's content: key, signed count, and the key's flat bucket
#: and sign in every row
_Pure = Tuple[int, int, List[int], List[int]]


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


def _occupied(ids: Iterable[int], counts: Iterable[int]) -> int:
    """Number of buckets with a nonzero ``iID`` or ``icnt``."""
    return sum(1 for iid, icnt in zip(ids, counts) if icnt != 0 or iid != 0)


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
    ) -> None:
        """Add ``count`` of ``key`` to one bucket per row."""
        p = self.prime
        for row in range(self.rows):
            j = self._hashes.index(row, key)
            ids[row][j] = (ids[row][j] + count * key) % p
            counts[row][j] += self._sign(row, key) * count
            if _inv.ENABLED:
                _inv.check_field_element(ids[row][j], p, "counting Fermat iID")
                _inv.check_counter_int(counts[row][j], "counting Fermat icnt")

    # ------------------------------------------------------------------ #
    # decoding (Algorithm 5)
    # ------------------------------------------------------------------ #
    def _sign_arrays(self, keys: Any) -> List[Any]:
        """:attr:`_sign` of each of the int64 ``keys`` in every row, one
        int64 array per row."""
        return [np.ones(len(keys), dtype=np.int64)] * self.rows

    def _pure_in(
        self,
        wave: List[int],
        ids: List[int],
        counts: List[int],
        validator: Optional[Validator],
    ) -> Tuple[Dict[int, _Pure], int]:
        """The pure buckets of ``wave`` (flat indexes into ``ids``/``counts``).

        Maps each pure bucket to ``(key, signed count, the key's flat
        bucket in every row, its sign in every row)`` and also returns
        the number of vetoed candidates.  A count that is a multiple of
        ``p`` (zero included) has no inverse, so its bucket is not
        decodable; the rest are inverted together.  A sign of −1 makes
        the raw quotient ``q`` come out as ``p − e``, so both ``q`` and
        ``p − q`` are tested: in the key domain, hashed back to the
        bucket's own column, and reproducing the stored residue exactly.
        The validator sees every survivor at once; a bucket takes its
        first accepted candidate, ``q`` before ``p − q``.
        """
        p = self.prime
        width = self.width
        max_key = self.max_key
        decodable = [at for at in wave if counts[at] % p != 0]
        inverses = mod_inverses([counts[at] for at in decodable], p)
        candidates: List[Tuple[int, int]] = []
        for at, inverse in zip(decodable, inverses):
            quotient = ids[at] * inverse % p
            for candidate in (quotient, p - quotient):
                if 0 < candidate < max_key:
                    candidates.append((at, candidate))
        pure: Dict[int, _Pure] = {}
        if not candidates:
            return pure, 0
        owners = [at for at, _key in candidates]
        keys = [key for _at, key in candidates]
        key_array = np.array(keys, dtype=np.int64)
        owner_array = np.array(owners, dtype=np.int64)
        columns = np.stack(self._hashes.index_arrays(key_array))
        signs = np.stack(self._sign_arrays(key_array))
        own_row = owner_array // width
        picks = np.arange(len(keys))
        homed = np.flatnonzero(columns[own_row, picks] == owner_array % width)
        own_sign = signs[own_row, picks].tolist()
        survivors = [
            i
            for i in homed.tolist()
            if (own_sign[i] * counts[owners[i]] * keys[i] - ids[owners[i]]) % p == 0
        ]
        accepted = [True] * len(survivors)
        if validator is not None:
            verdicts = np.asarray(validator(key_array[survivors]), dtype=bool)
            if verdicts.shape != (len(survivors),):
                raise ConfigurationError("a validator returns one bool per key")
            accepted = verdicts.tolist()
        offsets = np.arange(self.rows, dtype=np.int64)[:, None] * width
        spots = (columns[:, survivors] + offsets).T.tolist()
        sign_rows = signs[:, survivors].T.tolist()
        vetoed = 0
        for i, ok, spot, sign_row in zip(survivors, accepted, spots, sign_rows):
            at = owners[i]
            if at in pure:
                continue  # its first candidate was accepted
            if not ok:
                vetoed += 1
                continue
            pure[at] = (keys[i], own_sign[i] * counts[at], spot, sign_row)
        return pure, vetoed

    def _peel(
        self, validator: Optional[Validator] = None
    ) -> Tuple[DecodeResult, Tuple[int, int, int, int]]:
        """Peel every pure bucket of a copy of the arrays, in waves.

        Wave 0 is every occupied bucket in ``(row, col)`` order.  A wave
        is tested as one batch (:meth:`_pure_in`) on the arrays as the
        wave found them, then its pure buckets are peeled in wave order.
        A bucket that an earlier peel of the same wave touched is left for
        the next wave, so a key pure in two rows peels once.  The next
        wave is the occupied buckets the wave left, in wave order, then
        the other occupied buckets its peels touched, in the order they
        were touched: the order a FIFO queue would revisit them in.  For
        truly pure buckets the order does not change what is recovered.
        ``validator`` maps an int64 key array to a bool array and may veto
        candidates.  Returns the result and the peel's work: bucket
        visits, peeled buckets, visits that found no pure content and
        vetoed candidates.
        """
        p = self.prime
        ids = list(chain.from_iterable(self.ids))
        counts = list(chain.from_iterable(self.counts))
        decoded: Dict[int, int] = {}
        wave = [at for at, (iid, icnt) in enumerate(zip(ids, counts)) if iid or icnt]
        # A peel re-queues every bucket it touches; the visit budget bounds
        # pathological ping-ponging.
        budget = max(64, 8 * self.rows * self.width)
        visits = peeled = failures = rejections = 0
        while wave and visits < budget:
            wave = wave[: budget - visits]
            visits += len(wave)
            pure, vetoed = self._pure_in(wave, ids, counts, validator)
            failures += len(wave) - len(pure)
            rejections += vetoed
            touched: Dict[int, None] = {}
            left: List[int] = []
            for at in wave:
                if at in touched:
                    left.append(at)
                    continue
                found = pure.get(at)
                if found is None:
                    continue
                peeled += 1
                key, count, spots, signs = found
                total = decoded.get(key, 0) + count
                if total:
                    decoded[key] = total
                else:
                    del decoded[key]
                residue = count * key
                for j, sign in zip(spots, signs):
                    ids[j] = (ids[j] - residue) % p
                    counts[j] -= sign * count
                    touched[j] = None
            for at in left:
                del touched[at]
            wave = [at for at in chain(left, touched) if ids[at] or counts[at]]
        residual = _occupied(ids, counts)
        if _inv.ENABLED and residual == 0:
            # A complete peel removed exactly what it reported: by field
            # linearity the recovered counts must re-encode to the original
            # arrays bucket-for-bucket (validator or not).
            _inv.check_decode_roundtrip(
                self, decoded, f"{type(self).__name__}.decode"
            )
        result = DecodeResult(decoded, residual == 0, residual)
        return result, (visits, peeled, failures, rejections)

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
        return _occupied(
            chain.from_iterable(self.ids), chain.from_iterable(self.counts)
        )

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
