"""The frequent part (FP): an exact hash table for the heaviest elements.

Implements the paper's Algorithm 1.  The FP is ``k`` buckets of ``c``
entries; each entry holds ``(eID, fcnt)`` exactly.  A per-bucket evict
counter ``ecnt`` implements the Elastic-Sketch-style probabilistic
replacement: once ``ecnt`` exceeds ``λ ×`` the bucket's smallest ``fcnt``,
that smallest entry is deemed infrequent and evicted downwards, making room
for the (presumed growing) newcomer.

The FP never talks to the other parts directly; :meth:`FrequentPart.insert`
returns an :class:`FPOutcome` describing what, if anything, must be pushed
down into the element filter.  This keeps the part unit-testable in
isolation and lets the set operations reuse the same bucket mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common import invariants as _inv
from repro.common.errors import IncompatibleSketchError
from repro.common.hashing import hash64
from repro.common.validation import require_positive
from repro.core.kernel import (
    _EXACT_LIMIT,
    _MAX_FP_ROUNDS,
    _MIN_ROUND_PAIRS,
    _premix,
    hash_mod,
    np,
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


class Bucket:
    """One FP bucket: up to ``c`` exact entries plus eviction bookkeeping.

    Each entry is ``[key, count, flag]``.  The flag marks entries installed
    by a case-3 replacement: the newcomer may have earlier mass in the
    lower parts, so its queries must consult them (the paper defines one
    flag per bucket; we keep it per entry — the granularity Elastic Sketch
    uses — because an entry that has lived in the bucket since a case-2
    insertion is provably exact, and charging it the filter's collision
    noise would scatter the distribution/entropy estimates).  ``flag`` on
    the bucket remains as "any entry was ever evicted", which the set
    operations and Algorithm 3 use.
    """

    __slots__ = ("entries", "ecnt", "flag")

    def __init__(self) -> None:
        #: list of ``[key, count, flag]`` triples, at most ``c`` of them
        self.entries: List[List[Any]] = []
        #: evictions attempted against this bucket since the last eviction
        self.ecnt: int = 0
        #: True once any entry was evicted from this bucket
        self.flag: bool = False

    def find(self, key: int) -> Optional[List[Any]]:
        """The entry holding ``key``, or None."""
        for entry in self.entries:
            if entry[0] == key:
                return entry
        return None

    def min_entry(self) -> List[Any]:
        """The entry with the smallest count (eviction candidate)."""
        return min(self.entries, key=lambda entry: entry[1])


@dataclass
class BucketArrays:
    """The FP's buckets as arrays, for the span of one bulk call.

    ``keys``/``counts``/``flags`` are ``(buckets, c)`` arrays whose first
    ``occupancy[b]`` columns are bucket ``b``'s entries in order;
    ``ecnt``/``flag`` are the per-bucket eviction counter and flag;
    ``loaded`` is the occupancy the mirror was taken at.
    """

    keys: Any
    counts: Any
    flags: Any
    occupancy: Any
    ecnt: Any
    flag: Any
    loaded: Any = field(init=False)

    def __post_init__(self) -> None:
        self.loaded = self.occupancy.copy()

    def slots(self, low: Any, high: Any) -> Any:
        """Mask of each bucket's slots ``low <= j < high`` (row-major)."""
        columns = np.arange(self.keys.shape[1])[None, :]
        return (columns >= low[:, None]) & (columns < high[:, None])


class FrequentPart:
    """The FP hash table (Algorithm 1)."""

    #: lazily-created metrics bundle (class-level default so structures
    #: built via ``__new__`` in :meth:`empty_like` stay valid)
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
        self.buckets: List[Bucket] = [Bucket() for _ in range(buckets)]

    # ------------------------------------------------------------------ #
    # hashing
    # ------------------------------------------------------------------ #
    def bucket_index(self, key: int) -> int:
        """H(e): the bucket a key maps to."""
        return hash64(key, self._seed) % self.num_buckets

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
        AMA accounting and for actually routing the demoted pair.
        """
        if _inv.ENABLED:
            _inv.check_counter_int(count, "FrequentPart.insert count")
            _inv.check(count >= 1, "FrequentPart.insert: count must be >= 1")
        bucket = self.buckets[self.bucket_index(key)]

        for position, entry in enumerate(bucket.entries):
            if entry[0] == key:  # case 1: already resident
                entry[1] += count
                if _inv.ENABLED:
                    _inv.check_non_negative(
                        entry[1], "FrequentPart entry count after case 1"
                    )
                if _obs.ENABLED:
                    self._record_case(1)
                return FPOutcome(case=1, accesses=position + 1)

        if len(bucket.entries) < self.entries_per_bucket:  # case 2: room
            scanned = len(bucket.entries) + 1
            bucket.entries.append([key, count, False])
            if _obs.ENABLED:
                self._record_case(2)
            return FPOutcome(case=2, accesses=scanned)

        full_scan = self.entries_per_bucket + 2  # entries + ecnt + flag
        bucket.ecnt += 1
        victim = bucket.min_entry()
        if bucket.ecnt > self.lambda_evict * victim[1]:  # case 3: evict
            demoted = (victim[0], victim[1])
            if _inv.ENABLED:
                _inv.check(
                    demoted[1] >= 1,
                    "FrequentPart case 3: demoted count must be >= 1",
                )
            victim[0] = key
            victim[1] = count
            victim[2] = True  # the newcomer may have prior mass below
            bucket.flag = True
            bucket.ecnt = 0
            if _obs.ENABLED:
                self._record_case(3)
            return FPOutcome(case=3, demoted=demoted, accesses=full_scan)

        # case 4: the newcomer itself is deemed infrequent
        if _obs.ENABLED:
            self._record_case(4)
        return FPOutcome(case=4, demoted=(key, count), accesses=full_scan)

    # ------------------------------------------------------------------ #
    # bulk insertion (Algorithm 1 in rank rounds)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> Optional[BucketArrays]:
        """Mirror the buckets into arrays; None when they cannot be exact.

        Counts and eviction counters must be ints inside the exact
        window of numpy's int64/float64 comparisons.
        """
        buckets = self.buckets
        entries = list(chain.from_iterable(bucket.entries for bucket in buckets))
        keys, counts, flags = list(zip(*entries)) or [(), (), ()]
        ecnt = [bucket.ecnt for bucket in buckets]
        for values in (counts, ecnt):
            if values and not (
                set(map(type, values)) == {int}
                and min(values) >= 0
                and max(values) < _EXACT_LIMIT
            ):
                return None
        occupancy = np.fromiter(
            map(len, (bucket.entries for bucket in buckets)),
            dtype=np.int64,
            count=self.num_buckets,
        )
        shape = (self.num_buckets, self.entries_per_bucket)
        table = BucketArrays(
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=bool),
            occupancy,
            np.array(ecnt, dtype=np.int64),
            np.array([bucket.flag for bucket in buckets], dtype=bool),
        )
        resident = table.slots(np.zeros_like(occupancy), occupancy)
        table.keys[resident] = keys
        table.counts[resident] = counts
        table.flags[resident] = flags
        return table

    def store_arrays(self, table: BucketArrays) -> None:
        """Write a :meth:`to_arrays` mirror back into the buckets.

        Entries only ever fill free slots, so the entry lists the mirror
        was taken from are updated in place and new slots appended: no
        per-entry allocation.
        """
        old = table.slots(np.zeros_like(table.loaded), table.loaded)
        for entry, key, count, flag in zip(
            chain.from_iterable(bucket.entries for bucket in self.buckets),
            table.keys[old].tolist(),
            table.counts[old].tolist(),
            table.flags[old].tolist(),
        ):
            entry[0] = key
            entry[1] = count
            entry[2] = flag
        new = table.slots(table.loaded, table.occupancy)
        buckets = self.buckets
        for index, key, count, flag in zip(
            np.nonzero(new)[0].tolist(),
            table.keys[new].tolist(),
            table.counts[new].tolist(),
            table.flags[new].tolist(),
        ):
            buckets[index].entries.append([key, count, flag])
        for bucket, ecnt, flag in zip(
            buckets, table.ecnt.tolist(), table.flag.tolist()
        ):
            bucket.ecnt = ecnt
            bucket.flag = flag

    def insert_batch(
        self, table: BucketArrays, keys: Any, counts: Any
    ) -> Optional[Tuple[Any, Any, int]]:
        """Insert distinct keys with positive counts into ``table``.

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
        when a bucket would need more than ``_MAX_FP_ROUNDS`` rounds that
        average fewer than ``_MIN_ROUND_PAIRS`` pairs.
        """
        n = len(keys)
        buckets = hash_mod(
            keys.astype(np.uint64), _premix(self._seed), self.num_buckets
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
        keys2d, counts2d, flags2d = table.keys, table.counts, table.flags
        occupancy, ecnt, bflag = table.occupancy, table.ecnt, table.flag
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
            eq = keys2d[bb] == kk[:, None]
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
                flags2d[b2, o2] = False
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
                    flags2d[b3, v3] = True  # the newcomer may have mass below
                    bflag[b3] = True
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
        bucket = self.buckets[self.bucket_index(key)]
        entry = bucket.find(key)
        if entry is None:
            return 0, False, True
        return entry[1], True, entry[2]

    def items(self) -> Iterator[Tuple[int, int]]:
        """All resident ``(key, count)`` pairs."""
        for bucket in self.buckets:
            for key, count, _flag in bucket.entries:
                yield key, count

    def flagged_items(self) -> Iterator[Tuple[int, int]]:
        """Resident ``(key, count)`` pairs that may have mass below."""
        for bucket in self.buckets:
            for key, count, flag in bucket.entries:
                if flag:
                    yield key, count

    def as_dict(self) -> Dict[int, int]:
        """Resident entries as ``{key: count}``."""
        return dict(self.items())

    def __len__(self) -> int:
        return sum(len(bucket.entries) for bucket in self.buckets)

    @property
    def capacity(self) -> int:
        """Maximum number of resident entries."""
        return self.num_buckets * self.entries_per_bucket

    # ------------------------------------------------------------------ #
    # structure checks / construction helpers for set operations
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
        clone = FrequentPart.__new__(FrequentPart)
        clone.num_buckets = self.num_buckets
        clone.entries_per_bucket = self.entries_per_bucket
        clone.lambda_evict = self.lambda_evict
        clone._seed = self._seed
        clone.buckets = [Bucket() for _ in range(self.num_buckets)]
        return clone
