"""Bulk ingestion: one chunk at a time, as arrays.

:meth:`DaVinciSketch.insert_batch` and :meth:`DaVinciSketch.insert_all`
run every chunk through :func:`ingest_chunk`.  Its contract is the
batching contract of ``insert_batch``: the state it leaves is
byte-identical to aggregating each chunk into per-key totals and calling
``insert(key, total)`` for them in first-seen order (the *per-item
oracle*).  It gets there by group-applying the exact sequential
recurrences, never by approximating them:

* keys are canonicalized as one array (:func:`canonical_keys`; a
  chunk's strings are encoded as one, and a chunk with many repeats
  mixes each distinct string once) and summed per key in first-seen
  order;
* the frequent part applies the totals in *rank rounds*
  (:meth:`FrequentPart.insert_batch`): round ``r`` applies each bucket's
  ``r``-th arrival, so every write in a round touches a distinct bucket
  and sees exactly the state the sequential loop would have seen;
* the element filter applies the demotions in *first-occurrence rounds*
  (:meth:`ElementFilter.offer_batch`): an offer is ready once it is the
  earliest unprocessed offer at all of its counters, so ready offers
  touch disjoint counters and the order-sensitive absorb arithmetic
  stays exact;
* the infrequent part encodes the overflow as array adds
  (:meth:`InfrequentPart.insert_batch`): ``icnt`` sums exactly in int64
  and ``iID`` sums mod ``p`` (``primes.add_mod_at``).  ``count·key``
  exceeds 64 bits, so only each pair's residue ``count·key mod p`` is
  computed as a Python int, once for all rows.

A chunk the arrays cannot express exactly takes the per-item fallback,
which *is* the oracle: counts numpy cannot hold as positive int64 (a
float, a count past 2^63, numpy unsigned integers; the fallback rejects
those that are not integers, and totals that would take ``total_count``
out of int64), totals at or above ``2^52`` (where numpy's int64/float64
comparisons stop being exact), frequent-part counts or evict counters
outside ``[0, 2^52)``, and a bucket pile-up into more than
``_MAX_FP_ROUNDS`` sparse rank rounds.  The
``davinci_kernel_chunks_total`` counter labels array chunks ``"array"``
and fallback chunks ``"object"``.

The frequent part's table and the element filter's counters live in
int64 buffers that the rounds view in place.  A chunk may arrive as an
integer array (the sharded runtime and the journal keep canonical keys
as arrays); :func:`canonical_keys` takes it without a Python list.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy

from repro.common import invariants as _inv
from repro.common.hashing import (
    _MASK64,
    _MIX1,
    _MIX2,
    CANONICAL_DOMAIN,
    CANONICAL_SEED,
    FNV_OFFSET,
    _finalize,
    _premix,
    check_texts,
    encode_text,
    reject_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.core.davinci import DaVinciSketch

#: module-level alias typed ``Any`` (numpy's own annotations are not part
#: of the strict typing gate)
np: Any = numpy

#: ``davinci_kernel_chunks_total`` labels: chunks applied as arrays, and
#: chunks that took the per-item fallback
KERNEL_ARRAY = "array"
KERNEL_OBJECT = "object"

#: Magnitude guard: all FP counters, eviction counters and EF absorb
#: arithmetic must stay exactly representable under numpy's int64/float64
#: comparisons (Python compares int > float exactly; numpy rounds the int
#: through float64 first).  Below 2^52 the two agree bit-for-bit.
_EXACT_LIMIT = 1 << 52

#: Rank-round blowup guard: a chunk whose worst bucket receives at least
#: ``_MAX_FP_ROUNDS`` distinct keys, and whose rounds would average fewer
#: than ``_MIN_ROUND_PAIRS`` pairs, spends more time on round bookkeeping
#: than the per-item loop spends inserting; it takes the fallback instead.
#: (A small frequent part under a wide chunk has deep but dense rounds:
#: 8 buckets under 17k distinct keys still run 2x faster as arrays.)
_MAX_FP_ROUNDS = 512
_MIN_ROUND_PAIRS = 4

#: EF conflict rounds beyond this bound finish through the exact scalar
#: tail (same arithmetic, applied one offer at a time on the arrays).
_MAX_EF_ROUNDS = 64

#: Byte-string fingerprints: once fewer keys than this are still being
#: hashed, one byte position costs more as numpy calls than as a scalar
#: loop over those keys' remaining bytes.
_SCALAR_TAIL = 32

#: Byte-string fingerprints: a list is mixed in place when more than
#: ``_MOSTLY_DISTINCT`` of every ``_DISTINCT_STRIDE``-th key are
#: distinct; otherwise each distinct key is mixed once.  (The sample
#: overstates the share: 64k-key slices of the 1M Zipf(1.1) stream hold
#: 27-35% distinct keys, their samples 42-56%.)
_MOSTLY_DISTINCT = 0.75
_DISTINCT_STRIDE = 16


def _fingerprint(raw: Any) -> Any:
    """``canonical_key`` of out-of-domain keys from their ``key_to_int``."""
    hashed = _finalize(raw ^ np.uint64(_premix(CANONICAL_SEED)))
    return hashed % np.uint64(CANONICAL_DOMAIN - 1) + np.uint64(1)


def _mix_bytes(joined: bytes, lengths: Any) -> Any:
    """``key_to_int`` of byte strings, one numpy step per byte position.

    ``joined`` holds the strings back to back, ``lengths[i]`` bytes
    each.  The keys are sorted longest first, so the keys still being
    hashed at byte position ``p`` are a prefix ``acc[:m]`` of the array.
    Besides the joined bytes, temporaries take a few words per key, never
    a keys × longest-key matrix.  Once fewer than ``_SCALAR_TAIL`` keys
    are left, their remaining bytes run through the scalar ``mix64``
    loop.
    """
    n = len(lengths)
    data = np.frombuffer(joined, dtype=np.uint8)
    order = np.argsort(-lengths, kind="stable")
    desc = -lengths[order]  # ascending, for searchsorted
    nxt = (np.cumsum(lengths) - lengths)[order]  # each key's next byte
    acc = np.full(n, FNV_OFFSET, dtype=np.uint64)
    tmp = np.empty(n, dtype=np.uint64)
    s30, s27, s31 = np.uint64(30), np.uint64(27), np.uint64(31)
    m1, m2 = np.uint64(_MIX1), np.uint64(_MIX2)
    steps = int(-desc[_SCALAR_TAIL - 1]) if n >= _SCALAR_TAIL else 0
    # keys longer than p, for every byte position p hashed in numpy
    for m in np.searchsorted(desc, -np.arange(steps)).tolist():
        a, t = acc[:m], tmp[:m]
        a ^= data[nxt[:m]]
        nxt[:m] += 1
        np.right_shift(a, s30, out=t)
        a ^= t
        a *= m1
        np.right_shift(a, s27, out=t)
        a ^= t
        a *= m2
        np.right_shift(a, s31, out=t)
        a ^= t
    view = memoryview(joined)
    for i in range(int(np.searchsorted(desc, -steps))):
        x = int(acc[i])
        start = int(nxt[i])
        for byte in view[start : start + int(-desc[i]) - steps]:
            x ^= byte
            x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
            x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
            x ^= x >> 31
        acc[i] = x
    out = np.empty(n, dtype=np.uint64)
    out[order] = acc
    return out


def _encode(keys: Sequence[Any], texts: bool) -> Tuple[bytes, Any]:
    """``keys`` (``str`` as UTF-8, and ``bytes``) joined, with their
    byte lengths.

    ``texts`` says every key is a ``str``: then one joined string is
    encoded, and each key's byte length is its ``len`` plus the UTF-8
    continuation bytes (``0b10xxxxxx``) of its characters.  The ``j``-th
    continuation byte (from 1), at byte ``b``, belongs to character
    ``b - j``.  A ``str`` that UTF-8 cannot encode raises the scalar
    path's ``ConfigurationError``, for the first such key in order.
    """
    n = len(keys)
    if not texts:
        blobs = [
            key if isinstance(key, bytes) else encode_text(key) for key in keys
        ]
        lengths = np.fromiter(map(len, blobs), dtype=np.int64, count=n)
        return b"".join(blobs), lengths
    text = "".join(keys)
    try:
        joined = text.encode("utf-8")
    except UnicodeEncodeError:
        check_texts(keys)
        raise
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=n)
    if len(joined) != len(text):  # not all ASCII
        data = np.frombuffer(joined, dtype=np.uint8)
        continuation = np.flatnonzero((data & 0xC0) == 0x80)
        chars = continuation - np.arange(1, len(continuation) + 1)
        lengths += np.diff(np.searchsorted(chars, np.cumsum(lengths)), prepend=0)
    return joined, lengths


def _fingerprint_blobs(keys: Sequence[Any], texts: bool) -> Any:
    """``canonical_key`` of ``str`` and ``bytes`` keys as a uint64 array.

    One ``dict.setdefault`` pass finds the distinct keys in first-seen
    order and each key's first position; the distinct keys alone are
    encoded and mixed, and the fingerprints are scattered back by those
    positions.  A list that looks mostly distinct (more than
    ``_MOSTLY_DISTINCT`` of every ``_DISTINCT_STRIDE``-th key) is mixed
    in place instead: there the pass costs more than it saves.
    ``texts`` and errors as for :func:`_encode`.
    """
    n = len(keys)
    sample = keys[::_DISTINCT_STRIDE]
    if len(set(sample)) > _MOSTLY_DISTINCT * len(sample):
        return _fingerprint(_mix_bytes(*_encode(keys, texts)))
    first: Dict[Any, int] = {}
    at = np.fromiter(
        map(first.setdefault, keys, range(n)), dtype=np.intp, count=n
    )
    out = np.empty(n, dtype=np.uint64)
    firsts = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    out[firsts] = _fingerprint(_mix_bytes(*_encode(list(first), texts)))
    return out[at]


def _fingerprint_outside(values: Any) -> Any:
    """Canonicalize a new int64 or uint64 key array in place, as uint64.

    Viewed as uint64, ``value - 1`` wraps for 0 and negatives, so one
    comparison finds every key outside ``[1, 2^32)``.
    """
    out = values.view(np.uint64)
    outside = out - np.uint64(1) >= np.uint64(CANONICAL_DOMAIN - 1)
    if outside.any():
        out[outside] = _fingerprint(out[outside])
    return out


def canonical_keys(keys: Iterable[object]) -> Any:
    """``[canonical_key(k) for k in keys]`` as one uint64 array.

    The batch form of :func:`repro.common.hashing.canonical_key`, equal
    to it key for key: ints inside ``[1, 2^32)`` pass through, other ints
    are masked to 64 bits and fingerprinted, ``str`` (as UTF-8),
    ``bytes`` and ``bytearray`` are fingerprinted byte by byte
    (:func:`_fingerprint_blobs`); lists may mix them.  A ``bool``, any
    other type, or a ``str`` UTF-8 cannot encode raises the scalar path's
    :class:`~repro.common.errors.ConfigurationError`, for the first such
    key in order.  A one-dimensional integer array is taken as it is,
    with one vectorized domain check; the result is always a new array.
    """
    if isinstance(keys, np.ndarray):
        if keys.ndim == 1 and keys.dtype.kind in "iu":
            # int64 for signed keys: two's complement == key & MASK64
            wide = np.int64 if keys.dtype.kind == "i" else np.uint64
            return _fingerprint_outside(keys.astype(wide))
        keys = keys.tolist()
    items: Sequence[Any] = (
        keys if isinstance(keys, (list, tuple)) else list(keys)
    )
    n = len(items)
    kinds = set(map(type, items))
    if kinds == {str}:
        return _fingerprint_blobs(items, texts=True)
    if kinds == {int}:
        try:
            values = np.fromiter(items, dtype=np.int64, count=n)
        except OverflowError:
            pass  # beyond int64: the general loop masks these exactly
        else:
            return _fingerprint_outside(values)
    out = np.empty(n, dtype=np.uint64)
    direct_at: List[int] = []
    direct: List[int] = []
    raw_at: List[int] = []
    raw: List[int] = []
    blob_at: List[int] = []
    blobs: List[Any] = []
    texts = True
    for i, key in enumerate(items):
        if isinstance(key, str):
            blob_at.append(i)
            blobs.append(key)
        elif isinstance(key, (bytes, bytearray)):
            blob_at.append(i)
            blobs.append(bytes(key))  # hashable, as the distinct pass needs
            texts = False
        elif isinstance(key, int) and not isinstance(key, bool):
            if 1 <= key < CANONICAL_DOMAIN:
                direct_at.append(i)
                direct.append(key)
            else:
                raw_at.append(i)
                raw.append(key & _MASK64)
        else:
            check_texts(items[:i])  # a str before it UTF-8 cannot encode
            reject_key(key)
    out[direct_at] = direct
    if raw:
        out[raw_at] = _fingerprint(np.array(raw, dtype=np.uint64))
    if blobs:
        out[blob_at] = _fingerprint_blobs(blobs, texts)
    return out


def stable_order(values: Any, bound: int) -> Any:
    """``np.argsort(values, kind="stable")`` for ints in ``[0, bound)``.

    Values that fit 16 bits are sorted as such, which numpy radix-sorts.
    """
    if bound <= 1 << 16:
        values = values.astype(np.uint16)
    return np.argsort(values, kind="stable")


def first_occurrences(values: Any) -> Tuple[Any, Any, Any]:
    """Group equal values: ``(order, starts, firsts)``.

    ``values[order]`` is sorted and ``starts`` are its group boundaries;
    ``firsts[g]`` is the index of group ``g``'s first occurrence in
    ``values``.
    """
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    return order, starts, np.minimum.reduceat(order, starts)


def _first_seen_totals(keys: Any, weights: Optional[Any]) -> Tuple[Any, Any]:
    """Distinct keys in first-seen order with their summed weights.

    ``weights is None`` means every key counts once.  Equal to filling a
    dict ``totals[key] = totals.get(key, 0) + count`` in stream order.
    """
    order, starts, firsts = first_occurrences(keys)
    if weights is None:
        sums = np.diff(np.append(starts, len(keys)))
    else:
        sums = np.add.reduceat(weights[order], starts)
    seen = np.argsort(firsts)
    return keys[firsts][seen], sums[seen]


def ingest_chunk(
    sketch: "DaVinciSketch",
    keys: Sequence[object],
    counts: Optional[Sequence[Any]],
) -> None:
    """Ingest one chunk; ``counts is None`` means one per key.

    A chunk the arrays cannot express exactly is handed to
    :meth:`DaVinciSketch._insert_totals`, the per-item oracle, so mixing
    the two mid-stream is exact.  Raises before mutating anything for an
    unsupported key (as :func:`canonical_keys` does) or, via the
    fallback, for a count that is not an integer or a total that would
    leave int64.
    """
    if _inv.ENABLED and counts is not None:
        _check_counts(counts)
    canonical = canonical_keys(keys)
    admitted = _admit(sketch, counts, len(canonical))
    if admitted is not None and _apply(sketch, canonical, *admitted):
        return
    if isinstance(counts, np.ndarray):
        counts = counts.tolist()
    sketch._insert_totals(canonical.tolist(), counts)


def _check_counts(counts: Sequence[Any]) -> None:
    """Sanitizer: counts are Python ints, or an integer array."""
    if isinstance(counts, np.ndarray):
        _inv.check(
            counts.dtype.kind in "iu",
            "DaVinciSketch.insert_batch counts must be an integer array",
        )
        return
    for count in counts:
        _inv.check_counter_int(count, "DaVinciSketch.insert_batch count")


def _admit(
    sketch: "DaVinciSketch", counts: Optional[Sequence[Any]], n: int
) -> Optional[Tuple[Optional[Any], int]]:
    """``(int64 weights or None for unit counts, chunk total)``.

    ``None`` sends the chunk to the per-item fallback: counts numpy
    cannot hold as int64, counts below 1, or totals that would leave
    the exact window.
    """
    weights: Any = None
    total = n
    if counts is not None:
        try:
            weights = np.asarray(counts)
        except (TypeError, ValueError, OverflowError):
            return None
        if weights.dtype.kind != "i" or weights.ndim != 1:
            return None
        weights = weights.astype(np.int64, copy=False)
        if int(weights.min()) < 1 or int(weights.max()) > (1 << 62) // n:
            return None  # the chunk total itself could overflow int64
        total = int(weights.sum())
        if total == n:  # every count is 1
            weights = None
    if sketch.total_count + total >= _EXACT_LIMIT:
        return None
    return weights, total


def _apply(
    sketch: "DaVinciSketch", canonical: Any, weights: Optional[Any], total: int
) -> bool:
    """Apply one admitted chunk; False = refused (nothing mutated)."""
    keys, totals = _first_seen_totals(canonical.astype(np.int64), weights)
    applied = sketch.fp.insert_batch(keys, totals)
    if applied is None:  # outside the exact window, or a round blowup
        return False
    demoted_keys, demoted_counts, accesses = applied
    sketch._account(len(canonical), total, KERNEL_ARRAY)
    sketch.memory_accesses += accesses
    if len(demoted_keys):
        sketch.memory_accesses += len(demoted_keys) * sketch.ef.num_levels
        overflow_keys, overflow_counts = sketch.ef.offer_batch(
            demoted_keys, demoted_counts
        )
        if len(overflow_keys):
            sketch.memory_accesses += len(overflow_keys) * sketch.ifp.rows
            sketch.ifp.insert_batch(overflow_keys, overflow_counts)
    if _inv.ENABLED:
        _check_chunk_invariants(sketch)
    return True


def _check_chunk_invariants(sketch: "DaVinciSketch") -> None:
    """Array-state bounds after a chunk (sanitizer builds only).

    The per-item path checks its invariants per update; the array path
    re-establishes the same bounds once per chunk — resident FP counts
    positive, occupancy within capacity, EF counters within ``[0, cap]``
    — which is the granularity at which its state is observable.  The FP
    is read through the same views its rank rounds write.
    """
    fp = sketch.fp
    _keys, counts, _flags, occupancy, _ecnt, _flag = fp.bucket_arrays()
    _inv.check(
        bool(
            (occupancy >= 0).all()
            and (occupancy <= fp.entries_per_bucket).all()
        ),
        "ArrayKernel: FP occupancy out of range",
    )
    resident = np.arange(fp.entries_per_bucket) < occupancy[:, None]
    _inv.check(
        bool((counts[resident] >= 1).all()),
        "ArrayKernel: resident FP count must be >= 1",
    )
    ef = sketch.ef
    for level, cap in zip(ef.counter_arrays(), ef.level_caps):
        _inv.check(
            bool((level >= 0).all() and (level <= cap).all()),
            "ArrayKernel: EF counter outside [0, cap]",
        )
