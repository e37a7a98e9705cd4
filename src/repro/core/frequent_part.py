"""The frequent part (FP): an exact hash table for the heaviest elements.

Implements the paper's Algorithm 1.  The FP is ``k`` buckets of ``c``
entries; each entry holds ``(eID, fcnt)`` exactly.  A per-bucket evict
counter ``ecnt`` implements the Elastic-Sketch-style probabilistic
replacement: once ``ecnt`` exceeds ``λ ×`` the bucket's smallest ``fcnt``,
that smallest entry is deemed infrequent and evicted downwards, making room
for the (presumed growing) newcomer.

The table lives in fixed-shape int64 buffers: entry slot ``b·c + j`` is
bucket ``b``'s ``j``-th entry, and a bucket's first ``occupancy[b]`` slots
are resident (the rest stay zero: entries fill slots in order and never
leave them).  Each entry carries a flag marking it installed by a case-3
replacement: the newcomer may have earlier mass in the lower parts, so its
queries must consult them (the paper defines one flag per bucket; we keep
it per entry — the granularity Elastic Sketch uses — because an entry that
has lived in the bucket since a case-2 insertion is provably exact, and
charging it the filter's collision noise would scatter the
distribution/entropy estimates).  The per-bucket flag remains as "any
entry was ever evicted", which the set operations and Algorithm 3 use.
Per-item inserts index the buffers; the bulk path views them in place as
numpy arrays (:meth:`FrequentPart.bucket_arrays`).

The FP never talks to the other parts directly; :meth:`FrequentPart.insert`
returns an :class:`FPOutcome` describing what, if anything, must be pushed
down into the element filter, and :meth:`FrequentPart.combined` returns
the entries a set operation must demote.  This keeps the part
unit-testable in isolation and its layout private to this module.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common import invariants as _inv
from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.common.hashing import _MASK64, _premix, hash64, hash_mod, mix64, np
from repro.common.validation import INT64_MAX, INT64_MIN, require_positive
from repro.core.kernel import (
    _EXACT_LIMIT,
    _MAX_FP_ROUNDS,
    _MIN_ROUND_PAIRS,
    stable_order,
)
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import FrequentPartMetrics
from repro.observability.metrics import MetricsRegistry


@dataclass
class FPOutcome:
    """Result of one FP insertion.

    ``demoted`` is the ``(key, count)`` pair the caller must insert into the
    element filter: in case 3 it is the evicted resident, in case 4 the
    incoming element itself.  ``None`` means the FP absorbed the insertion
    (cases 1 and 2).  ``case`` records which Algorithm-1 branch ran, which
    the tests assert on directly.  ``accesses`` is the number of logical
    memory words the insertion touched (entry slots scanned, plus the evict
    counter and flag when the bucket was full) — the AMA numerator.
    """

    case: int
    demoted: Optional[Tuple[int, int]] = None
    accesses: int = 0


#: the table's buffers: per entry slot the key, count and flag (1 when
#: installed by a case-3 replacement), then per bucket the occupancy, the
#: evict counter and the flag (1 once any entry was evicted)
_BUFFERS = ("_keys", "_counts", "_flags", "_occupancy", "_ecnt", "_flag")


class FrequentPart:
    """The FP hash table (Algorithm 1)."""

    #: lazily-created metrics bundle (class-level default; see
    #: repro.observability — collection is free while disabled)
    _obs_metrics: Optional[FrequentPartMetrics] = None
    #: injectable registry override (None → the process-global default)
    _obs_registry: Optional[MetricsRegistry] = None

    def __init__(
        self,
        buckets: int,
        entries_per_bucket: int,
        lambda_evict: float,
        seed: int = 1,
    ) -> None:
        require_positive("buckets", buckets)
        require_positive("entries_per_bucket", entries_per_bucket)
        self.num_buckets = buckets
        self.entries_per_bucket = entries_per_bucket
        self.lambda_evict = float(lambda_evict)
        self._seed = hash64(0xF9, seed)
        #: ``hash64(key, seed) == mix64(key ^ premixed)``: half the hash
        self._premixed = _premix(self._seed)
        slots = buckets * entries_per_bucket
        self._keys, self._counts, self._flags = (
            array("q", [0]) * slots for _ in range(3)
        )
        self._occupancy, self._ecnt, self._flag = (
            array("q", [0]) * buckets for _ in range(3)
        )

    # ------------------------------------------------------------------ #
    # hashing
    # ------------------------------------------------------------------ #
    def bucket_index(self, key: int) -> int:
        """H(e): the bucket a key maps to."""
        return mix64((key & _MASK64) ^ self._premixed) % self.num_buckets

    # ------------------------------------------------------------------ #
    # observability (see repro.observability; free while disabled)
    # ------------------------------------------------------------------ #
    def _observe(self) -> FrequentPartMetrics:
        """The lazily-bound metrics bundle (armed paths only)."""
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.frequent_part_metrics(
                self._obs_registry, self
            )
            self._obs_metrics = bundle
        return bundle

    def _record_case(self, case: int) -> None:
        """Count one Algorithm-1 outcome (called only when armed)."""
        bundle = self._observe()
        bundle.inserts.inc()
        bundle.cases.counter_child(str(case)).inc()
        if case == 3:
            bundle.evictions.inc()
            bundle.demotions.inc()
        elif case == 4:
            bundle.demotions.inc()

    def _record_batch(
        self, total: int, case2: int, case3: int, demoted: int
    ) -> None:
        """Count one batch's outcome tallies (called only when armed)."""
        bundle = self._observe()
        bundle.inserts.inc(total)
        case4 = demoted - case3
        case1 = total - case2 - demoted
        cases = bundle.cases
        if case1:
            cases.counter_child("1").inc(case1)
        if case2:
            cases.counter_child("2").inc(case2)
        if case3:
            cases.counter_child("3").inc(case3)
            bundle.evictions.inc(case3)
        if case4:
            cases.counter_child("4").inc(case4)
        if demoted:
            bundle.demotions.inc(demoted)

    # ------------------------------------------------------------------ #
    # insertion (Algorithm 1)
    # ------------------------------------------------------------------ #
    def insert(self, key: int, count: int = 1) -> FPOutcome:
        """Insert ``count`` occurrences of ``key``; maybe demote something.

        Returns which of the four Algorithm-1 cases ran and the pair to push
        into the element filter, if any.  The caller is responsible for the
        AMA accounting and for actually routing the demoted pair.  A key or
        count leaving int64 raises ``ConfigurationError`` with no write.
        """
        if _inv.ENABLED:
            _inv.check_counter_int(count, "FrequentPart.insert count")
            _inv.check(count >= 1, "FrequentPart.insert: count must be >= 1")
        bucket = self.bucket_index(key)
        start = bucket * self.entries_per_bucket
        occupied = self._occupancy[bucket]
        end = start + occupied
        keys = self._keys
        counts = self._counts
        slot = self._find(start, end, key)
        stored = counts[slot] + count if slot >= 0 else count
        if not (INT64_MIN <= key <= INT64_MAX and INT64_MIN <= stored <= INT64_MAX):
            raise ConfigurationError(
                f"frequent-part key {key} or count {stored} leaves int64"
            )

        if slot >= 0:  # case 1: already resident
            counts[slot] = stored
            if _inv.ENABLED:
                _inv.check_non_negative(stored, "FrequentPart entry count after case 1")
            if _obs.ENABLED:
                self._record_case(1)
            return FPOutcome(case=1, accesses=slot - start + 1)

        if occupied < self.entries_per_bucket:  # case 2: room
            keys[end] = key
            counts[end] = count
            self._flags[end] = 0
            self._occupancy[bucket] = occupied + 1
            if _obs.ENABLED:
                self._record_case(2)
            return FPOutcome(case=2, accesses=occupied + 1)

        full_scan = self.entries_per_bucket + 2  # entries + ecnt + flag
        ecnt = self._ecnt[bucket] + 1
        resident_counts = counts[start:end]
        smallest = min(resident_counts)  # the eviction candidate
        if ecnt > self.lambda_evict * smallest:  # case 3: evict
            victim = start + resident_counts.index(smallest)
            demoted = (keys[victim], smallest)
            if _inv.ENABLED:
                _inv.check(
                    smallest >= 1,
                    "FrequentPart case 3: demoted count must be >= 1",
                )
            keys[victim] = key
            counts[victim] = count
            self._flags[victim] = 1  # the newcomer may have prior mass below
            self._flag[bucket] = 1
            self._ecnt[bucket] = 0
            if _obs.ENABLED:
                self._record_case(3)
            return FPOutcome(case=3, demoted=demoted, accesses=full_scan)

        # case 4: the newcomer itself is deemed infrequent
        self._ecnt[bucket] = ecnt
        if _obs.ENABLED:
            self._record_case(4)
        return FPOutcome(case=4, demoted=(key, count), accesses=full_scan)

    # ------------------------------------------------------------------ #
    # bulk insertion (Algorithm 1 in rank rounds)
    # ------------------------------------------------------------------ #
    def bucket_arrays(self) -> Tuple[Any, ...]:
        """The buffers as int64 numpy arrays viewing them in place.

        ``(keys, counts, flags, occupancy, ecnt, flag)``: the entry
        buffers shaped ``(buckets, c)``, whose first ``occupancy[b]``
        columns in row ``b`` are resident, then the per-bucket ones.
        Writes through a view land in the table itself.
        """
        shape = (self.num_buckets, self.entries_per_bucket)
        views = [
            np.frombuffer(getattr(self, name), dtype=np.int64) for name in _BUFFERS
        ]
        return (*(view.reshape(shape) for view in views[:3]), *views[3:])

    def insert_batch(
        self, keys: Any, counts: Any
    ) -> Optional[Tuple[Any, Any, int]]:
        """Insert distinct keys with positive counts.

        ``keys``/``counts`` are int64 arrays.  The resulting buckets equal
        calling :meth:`insert` once per pair in order.  Pairs are grouped
        by bucket and applied in *rank rounds*: round ``r`` applies each
        bucket's ``r``-th pair, so a round's writes touch distinct buckets
        and each sees exactly the sequential state.  Buckets are
        independent, so only the order within a bucket matters.

        Returns ``(demoted keys, demoted counts, accesses)`` with the
        demotions in arrival order (the element filter's absorb
        arithmetic depends on it) and the summed logical memory words the
        sequential loop would have touched — or None, before any write,
        when a count or evict counter lies outside ``[0, 2^52)`` (where
        numpy's int64/float64 comparisons stop being exact), or when a
        bucket would need more than ``_MAX_FP_ROUNDS`` rounds that average
        fewer than ``_MIN_ROUND_PAIRS`` pairs.
        """
        keys2d, counts2d, flags2d, occupancy, ecnt, bflag = self.bucket_arrays()
        for values in (counts2d, ecnt):
            if int(values.min()) < 0 or int(values.max()) >= _EXACT_LIMIT:
                return None
        n = len(keys)
        buckets = hash_mod(
            keys.astype(np.uint64), self._premixed, self.num_buckets
        )
        by_bucket = stable_order(buckets, self.num_buckets)
        sorted_buckets = buckets[by_bucket]
        group_starts = np.flatnonzero(
            np.concatenate(([True], sorted_buckets[1:] != sorted_buckets[:-1]))
        )
        ranks = np.arange(n) - np.repeat(
            group_starts, np.diff(np.append(group_starts, n))
        )
        max_rank = int(ranks.max())
        if max_rank >= _MAX_FP_ROUNDS and max_rank * _MIN_ROUND_PAIRS > n:
            return None

        cap = self.entries_per_bucket
        lam = self.lambda_evict
        by_rank = stable_order(ranks, max_rank + 1)
        round_order = by_bucket[by_rank]
        bounds = np.searchsorted(ranks[by_rank], np.arange(max_rank + 2))

        observing = _obs.ENABLED
        entries_before = int(occupancy.sum()) if observing else 0
        accesses = 0
        evictions = 0
        demoted_at: List[Any] = []
        demoted_keys: List[Any] = []
        demoted_counts: List[Any] = []
        full_scan = cap + 2  # entries + ecnt + flag
        for r in range(max_rank + 1):
            items = round_order[bounds[r] : bounds[r + 1]]
            kk = keys[items]
            cc = counts[items]
            bb = buckets[items]
            occ = occupancy[bb]
            eq = keys2d[bb] == kk[:, None]  # empty slots hold key 0
            resident = eq.any(axis=1)

            if resident.any():  # case 1: already resident
                pos = eq[resident].argmax(axis=1)
                b1 = bb[resident]
                counts2d[b1, pos] += cc[resident]
                accesses += int(pos.sum()) + len(b1)

            rest = ~resident
            room = rest & (occ < cap)
            if room.any():  # case 2: room for a fresh entry
                b2 = bb[room]
                o2 = occ[room]
                keys2d[b2, o2] = kk[room]
                counts2d[b2, o2] = cc[room]
                flags2d[b2, o2] = 0
                occupancy[b2] = o2 + 1
                accesses += int(o2.sum()) + len(b2)

            full = rest & (occ >= cap)
            if full.any():
                bf = bb[full]
                items_f = items[full]
                kf = kk[full]
                cf = cc[full]
                accesses += full_scan * len(bf)
                ec = ecnt[bf] + 1
                ecnt[bf] = ec
                crows = counts2d[bf]
                victim = crows.argmin(axis=1)  # first minimum, like min()
                vcnt = crows[np.arange(len(bf)), victim]
                evict = ec > lam * vcnt
                if evict.any():  # case 3: replace the smallest resident
                    b3 = bf[evict]
                    v3 = victim[evict]
                    demoted_at.append(items_f[evict])
                    demoted_keys.append(keys2d[b3, v3].copy())
                    demoted_counts.append(vcnt[evict])
                    keys2d[b3, v3] = kf[evict]
                    counts2d[b3, v3] = cf[evict]
                    flags2d[b3, v3] = 1  # the newcomer may have mass below
                    bflag[b3] = 1
                    ecnt[b3] = 0
                    evictions += len(b3)
                keep = ~evict
                if keep.any():  # case 4: the newcomer is deemed infrequent
                    demoted_at.append(items_f[keep])
                    demoted_keys.append(kf[keep])
                    demoted_counts.append(cf[keep])

        if demoted_at:
            arrival = np.argsort(np.concatenate(demoted_at))
            out_keys = np.concatenate(demoted_keys)[arrival]
            out_counts = np.concatenate(demoted_counts)[arrival]
        else:
            out_keys = np.empty(0, dtype=np.int64)
            out_counts = np.empty(0, dtype=np.int64)
        if observing:
            self._record_batch(
                n,
                int(occupancy.sum()) - entries_before,
                evictions,
                len(out_keys),
            )
        return out_keys, out_counts, accesses

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def lookup(self, key: int) -> Tuple[int, bool, bool]:
        """Return ``(count, present, flag)`` for ``key``.

        ``count`` is 0 when absent.  The flag tells the caller whether
        Algorithm 4 must also consult the lower parts: for a resident it is
        the entry's own flag, for an absent key trivially True (the lower
        parts are the only place it can live).
        """
        bucket = self.bucket_index(key)
        start = bucket * self.entries_per_bucket
        slot = self._find(start, start + self._occupancy[bucket], key)
        if slot < 0:
            return 0, False, True
        return self._counts[slot], True, self._flags[slot] == 1

    def lookup_many(self, keys: Any) -> Tuple[Any, Any, Any]:
        """:meth:`lookup` of each of the int64 ``keys``, as arrays."""
        keys2d, counts2d, flags2d, occupancy, _ecnt, _flag = self.bucket_arrays()
        buckets = hash_mod(keys.astype(np.uint64), self._premixed, self.num_buckets)
        hits = (keys2d[buckets] == keys[:, None]) & (
            np.arange(self.entries_per_bucket) < occupancy[buckets, None]
        )
        present = hits.any(axis=1)
        slots = hits.argmax(axis=1)
        counts = np.where(present, counts2d[buckets, slots], 0)
        return counts, present, ~present | (flags2d[buckets, slots] == 1)

    def _find(self, start: int, end: int, key: int) -> int:
        """The slot in ``[start, end)`` holding ``key``, or -1 (a slice:
        ``array.index`` takes no bounds before Python 3.10)."""
        resident = self._keys[start:end]
        return start + resident.index(key) if key in resident else -1

    def residents(self) -> Tuple[Any, Any, Any]:
        """Resident keys and counts (int64) and flags (bool), as arrays
        in bucket order."""
        keys, counts, flags, occupancy, _ecnt, _flag = self.bucket_arrays()
        mask = np.arange(self.entries_per_bucket) < occupancy[:, None]
        return keys[mask], counts[mask], flags[mask] == 1

    def _entries(self) -> Tuple[List[int], List[int], List[bool]]:
        """Resident keys, counts and flags, in bucket order, as lists."""
        keys, counts, flags = self.residents()
        return keys.tolist(), counts.tolist(), flags.tolist()

    def items(self) -> Iterator[Tuple[int, int]]:
        """All resident ``(key, count)`` pairs."""
        keys, counts, _flags = self._entries()
        return zip(keys, counts)

    def flagged_items(self) -> Iterator[Tuple[int, int]]:
        """Resident ``(key, count)`` pairs that may have mass below."""
        entries = zip(*self._entries())
        return ((key, count) for key, count, flag in entries if flag)

    def as_dict(self) -> Dict[int, int]:
        """Resident entries as ``{key: count}``."""
        return dict(self.items())

    def __len__(self) -> int:
        return sum(self._occupancy)

    def flagged_buckets(self) -> int:
        """Buckets that have ever evicted an entry."""
        return sum(self._flag)

    @property
    def capacity(self) -> int:
        """Maximum number of resident entries."""
        return self.num_buckets * self.entries_per_bucket

    # ------------------------------------------------------------------ #
    # state (the ``frequent_part`` section of the wire format)
    # ------------------------------------------------------------------ #
    def bucket_states(self) -> List[Dict[str, Any]]:
        """Per bucket ``{"entries": [[key, count, flag], ...], "ecnt", "flag"}``.

        Flags are bools.
        """
        entries = list(map(list, zip(*self._entries())))
        states: List[Dict[str, Any]] = []
        end = 0
        for used, ecnt, flag in zip(self._occupancy, self._ecnt, self._flag):
            states.append(
                {"entries": entries[end : end + used], "ecnt": ecnt, "flag": flag == 1}
            )
            end += used
        return states

    # ------------------------------------------------------------------ #
    # structure checks / set operations
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "FrequentPart") -> None:
        """Raise unless ``other`` has identical geometry and hash seed."""
        same = (
            self.num_buckets == other.num_buckets
            and self.entries_per_bucket == other.entries_per_bucket
            and self._seed == other._seed
        )
        if not same:
            raise IncompatibleSketchError(
                "frequent parts differ in shape or hash seed"
            )

    def empty_like(self) -> "FrequentPart":
        """A fresh FP with the same geometry and seed (for set-op results)."""
        clone = FrequentPart(
            self.num_buckets, self.entries_per_bucket, self.lambda_evict
        )
        clone._seed, clone._premixed = self._seed, self._premixed
        return clone

    def combined(
        self, other: "FrequentPart", sign: int
    ) -> Tuple["FrequentPart", Any, Any]:
        """Bucket-wise merge of ``self`` and ``sign ×`` ``other``.

        Per bucket the entries of both inputs are summed by key, zero sums
        dropped, and the rest ranked by ``(-|count|, key)``.  The top ``c``
        stay in the result, conservatively flagged: either input may hold
        more of the key's mass in its lower parts.  The result's ``ecnt``
        is the sum of the inputs', its flag their OR, also set when the
        bucket had leftovers.  Returns the result and the leftovers' keys
        and counts as int64 arrays, in bucket order, for the caller to
        demote.  Raises :class:`~repro.common.errors.ConfigurationError`,
        before writing anything, when a count or ``ecnt`` would leave int64.
        """
        self.check_compatible(other)
        c = self.entries_per_bucket
        slots = np.arange(c)
        my_keys, my_counts, _flags, my_occupancy, my_ecnt, my_flag = self.bucket_arrays()
        keys, counts, _flags, occupancy, ecnt, flag = other.bucket_arrays()
        mine = slots < my_occupancy[:, None]
        theirs = slots < occupancy[:, None]
        if sign < 0:
            if (counts[theirs] == INT64_MIN).any():
                raise ConfigurationError(_LEAVES_INT64)
            counts = -counts
        # match[b, i, j]: my slot i and their slot j of bucket b hold one key
        match = (my_keys[:, :, None] == keys[:, None, :]) & mine[:, :, None]
        match &= theirs[:, None, :]
        summed = _exact_sum(
            np.concatenate(
                (my_counts[:, :, None], np.where(match, counts[:, None, :], 0)),
                axis=2,
            ),
            axis=2,
        )
        ecnt = _exact_sum(np.stack((my_ecnt, ecnt)), axis=0)
        # per bucket: my entries with their matches summed, then their
        # unmatched ones; ranked by (-|count|, key), empties last
        keys = np.concatenate((my_keys, keys), axis=1)
        counts = np.concatenate((summed, counts), axis=1)
        live = np.concatenate((mine, theirs & ~match.any(axis=1)), axis=1)
        live &= counts != 0
        # -|INT64_MIN| wraps to INT64_MIN, which still sorts first
        order = np.lexsort((keys, -np.abs(counts), ~live), axis=1)
        keys, counts = (np.take_along_axis(v, order, axis=1) for v in (keys, counts))
        entries = live.sum(axis=1)
        result = self.empty_like()
        out_keys, out_counts, out_flags, out_occupancy, out_ecnt, out_flag = (
            result.bucket_arrays()
        )
        out_occupancy[:] = np.minimum(entries, c)
        kept = slots < out_occupancy[:, None]
        out_keys[kept] = keys[:, :c][kept]
        out_counts[kept] = counts[:, :c][kept]
        out_flags[kept] = 1
        out_ecnt[:] = ecnt
        out_flag[:] = my_flag | flag | (entries > c)
        rest = slots < (entries - c)[:, None]
        return result, keys[:, c:][rest], counts[:, c:][rest]


_LEAVES_INT64 = "a frequent-part count or ecnt leaves the int64 range"


def _exact_sum(values: Any, axis: int) -> Any:
    """``values.sum(axis)`` over int64, raising
    :class:`~repro.common.errors.ConfigurationError` where a sum leaves
    int64 instead of wrapping: the 32-bit halves are summed apart."""
    high = (values >> 32).sum(axis=axis)
    low = (values & 0xFFFFFFFF).sum(axis=axis)
    high += low >> 32
    if ((high < -(1 << 31)) | (high >= 1 << 31)).any():
        raise ConfigurationError(_LEAVES_INT64)
    return (high << 32) | (low & 0xFFFFFFFF)
