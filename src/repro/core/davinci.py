"""The DaVinci Sketch: one structure, nine set-measurement tasks.

:class:`DaVinciSketch` glues the three parts together:

* insertions go to the **frequent part** first (Algorithm 1); demoted
  elements fall into the **element filter**, and filter overflow beyond the
  threshold ``T`` lands in the **infrequent part** (Algorithm 2);
* frequency queries follow Algorithm 4, consulting the decoded infrequent
  part (Algorithm 5) with the element filter as cross-validation;
* the set operations (:func:`repro.core.setops.union` /
  :func:`~repro.core.setops.difference`) return new DaVinci sketches, and
  the remaining tasks (heavy hitters/changers, cardinality, distribution,
  entropy, inner join) live in :mod:`repro.core.tasks` and are exposed here
  as methods.

A sketch is in one of three *query modes*:

``standard``
    A sketch built by direct insertion.  Queries use Algorithm 4's
    branching, exploiting the invariant that the filter holds exactly the
    first ``T`` units of every promoted element.
``additive``
    The result of a union.  The per-element filter content is no longer
    capped at ``T`` (two inputs may each contribute up to ``T``), so the
    query simply sums the three parts — which is exact up to filter
    collision noise.
``signed``
    The result of a difference.  All parts carry signed deltas; queries sum
    the parts using the minimum-absolute-value filter read.
"""

from __future__ import annotations

from itertools import islice
from operator import index
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.common import invariants as _inv
from repro.common.errors import (
    ConfigurationError,
    IncompatibleSketchError,
    SketchModeError,
)
from repro.common.hashing import canonical_key
from repro.common.validation import INT64_MAX, require_int64, require_positive
from repro.core.config import DaVinciConfig
from repro.core.element_filter import ElementFilter
from repro.core.frequent_part import FrequentPart
from repro.core.infrequent_part import DecodeResult, InfrequentPart, Validator
from repro.core.kernel import KERNEL_ARRAY, KERNEL_OBJECT, ingest_chunk, np
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import DaVinciMetrics
from repro.observability.metrics import MetricsRegistry
from repro.sketches.base import Sketch

_T = TypeVar("_T")

MODE_STANDARD = "standard"
MODE_ADDITIVE = "additive"
MODE_SIGNED = "signed"

#: every mode a sketch can legally be in (serialization validates against it)
VALID_MODES = (MODE_STANDARD, MODE_ADDITIVE, MODE_SIGNED)

#: default number of pairs aggregated per :meth:`DaVinciSketch.insert_batch`
#: chunk.  The chunk size is the fidelity/throughput knob: aggregation
#: collapses a key's repeats within a chunk into one weighted insert, which
#: amortizes hashing but also means the frequent part sees one arrival (one
#: ``ecnt`` step, one eviction opportunity) where the per-item loop saw
#: many.  The resulting state is still *exactly* the weighted sequential
#: loop over the aggregates (the byte-identity contract), but it is not
#: the per-packet eviction schedule — accuracy experiments that reproduce
#: the paper's streaming figures drive :meth:`DaVinciSketch.insert`
#: per item instead (see ``repro.experiments.harness.fill``).  65536
#: maximizes throughput for bulk loads; lower it toward 1 to converge on
#: the per-item loop exactly.
DEFAULT_BATCH_CHUNK = 1 << 16


def _integer_count(count: object) -> int:
    """``count`` as a Python int; a non-integer raises before any write."""
    try:
        return index(count)  # type: ignore[arg-type]
    except TypeError:
        raise ConfigurationError(
            f"count {count!r} is not an integer"
        ) from None


def checked_count(count: object) -> int:
    """``count`` as a Python int in ``[1, 2^63)``, else the sketch's error.

    The rule :meth:`DaVinciSketch.insert` applies to one count; front
    ends that hand counts to a sketch later (another process, a journal)
    apply it first, so the sketch never refuses what they accepted.
    """
    if type(count) is not int:
        count = _integer_count(count)
    require_positive("count", count)
    return require_int64("count", count)


def largest_magnitude(values: Any) -> int:
    """The largest ``|value|`` of an int array, 0 for an empty one."""
    return max(int(values.max()), -int(values.min())) if len(values) else 0


def exact_sum(*terms: Any) -> Any:
    """The elementwise sum of equal-length int arrays, exactly.

    In int64 when every term is int64 and the terms' largest magnitudes
    sum to at most ``2^63 − 1``, so no partial sum can wrap (nor reach
    ``−2^63``, so the result negates safely); otherwise in Python ints,
    as an object array.
    """
    if all(term.dtype == np.int64 for term in terms) and (
        sum(map(largest_magnitude, terms)) <= INT64_MAX
    ):
        total = terms[0].copy()
        for term in terms[1:]:
            total += term
        return total
    total = terms[0].astype(object)
    for term in terms[1:]:
        total = total + term.astype(object)
    return total


def union_keys(*arrays: Any) -> Any:
    """The distinct keys of int64 ``arrays``, sorted (by a sort, not
    ``np.unique``'s hash table, for resident memory)."""
    keys = np.sort(np.concatenate(arrays))
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return keys[distinct]


class PairColumns:
    """``(key, count)`` pairs held as columns, without the tuples.

    ``counts is None`` means every count is 1.  :meth:`DaVinciSketch.insert_all`
    hands one to :meth:`DaVinciSketch.insert_batch`, which reads the
    columns directly (the keys-first entry), as does
    :class:`~repro.runtime.ingestor.CheckpointingIngestor`; anything else
    may iterate it as pairs.
    """

    __slots__ = ("keys", "counts")

    def __init__(
        self, keys: Iterable[object], counts: Optional[Iterable[Any]] = None
    ) -> None:
        self.keys = keys
        self.counts = counts

    def __iter__(self) -> Iterator[Tuple[object, Any]]:
        if self.counts is None:
            return ((key, 1) for key in self.keys)
        return zip(self.keys, self.counts)


#: columns sliced in place rather than iterated
_SLICEABLE = (list, tuple, np.ndarray)

Columns = Tuple[Sequence[Any], Optional[Sequence[Any]]]


def column_reader(pairs: Iterable[Tuple[object, Any]]) -> Callable[[int], Columns]:
    """``take(n)``: the ``(keys, counts)`` columns of the next ``n`` pairs.

    Fewer at the end of the stream, and empty ones after it.  ``counts``
    is ``None`` for a :class:`PairColumns` without counts.  Columns that
    are lists, tuples or arrays are sliced, so an integer array stays one
    (a view); other key iterables are consumed ``n`` keys at a time, and
    other counts iterables are read into a list with their keys.
    """
    if isinstance(pairs, PairColumns):
        keys: Any = pairs.keys
        counts: Any = pairs.counts
        if counts is not None:
            if not isinstance(keys, _SLICEABLE):
                keys = list(keys)
            if not isinstance(counts, _SLICEABLE):
                counts = list(counts)
            if len(counts) != len(keys):
                raise ConfigurationError(
                    f"{len(keys)} keys but {len(counts)} counts"
                )
        if isinstance(keys, _SLICEABLE):
            position = 0

            def take_slice(n: int) -> Columns:
                nonlocal position
                start, position = position, position + n
                if counts is None:
                    return keys[start:position], None
                return keys[start:position], counts[start:position]

            return take_slice
        key_iter = iter(keys)
        return lambda n: (list(islice(key_iter, n)), None)
    pair_iter = iter(pairs)

    def take_pairs(n: int) -> Columns:
        chunk = list(islice(pair_iter, n))
        if not chunk:
            return (), ()
        key_column, count_column = zip(*chunk)
        return key_column, count_column

    return take_pairs


def _chunks(pairs: Iterable[Tuple[object, Any]], size: int) -> Iterator[Columns]:
    """``(keys, counts)`` columns of each ``size``-pair chunk
    (:func:`column_reader`)."""
    take = column_reader(pairs)
    while True:
        keys, counts = take(size)
        if not len(keys):
            return
        yield keys, counts


class DaVinciSketch(Sketch):
    """The versatile sketch of the paper, ready for all nine tasks."""

    #: lazily-created metrics bundle (class-level default; see
    #: repro.observability — collection is free while disabled)
    _obs_metrics: Optional[DaVinciMetrics] = None
    #: injectable registry override (None → the process-global default)
    _obs_registry: Optional[MetricsRegistry] = None

    #: the bulk ingestion path, for provenance records (there is one)
    kernel = KERNEL_ARRAY

    def __init__(
        self,
        config: DaVinciConfig,
        metrics_registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self._obs_registry = metrics_registry
        self.fp = FrequentPart(
            buckets=config.fp_buckets,
            entries_per_bucket=config.fp_entries,
            lambda_evict=config.lambda_evict,
            seed=config.seed,
        )
        self.ef = ElementFilter(
            level_widths=config.ef_level_widths,
            level_bits=config.ef_level_bits,
            threshold=config.filter_threshold,
            seed=config.seed + 1,
        )
        self.ifp = InfrequentPart(
            rows=config.ifp_rows,
            width=config.ifp_width,
            prime=config.prime,
            seed=config.seed + 2,
        )
        if metrics_registry is not None:
            # Route the parts' lazy bundles to the same private registry.
            self.fp._obs_registry = metrics_registry
            self.ef._obs_registry = metrics_registry
            self.ifp._obs_registry = metrics_registry
        #: exact total of inserted counts (one 8-byte scalar; used by
        #: entropy and the distribution estimator)
        self.total_count: int = 0
        self.mode: str = MODE_STANDARD
        self._decode_cache: Optional[DecodeResult] = None

    # ------------------------------------------------------------------ #
    # observability (free while disabled)
    # ------------------------------------------------------------------ #
    def _observe(self) -> DaVinciMetrics:
        """The lazily-bound metrics bundle (armed paths only)."""
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.davinci_metrics(self._obs_registry)
            self._obs_metrics = bundle
        return bundle

    def _record_inserts(self, pairs: int, units: int) -> None:
        """Count accepted pairs/units (called only when armed)."""
        bundle = self._observe()
        bundle.inserts.inc(pairs)
        if units >= 0:
            bundle.items.inc(units)

    def _timed_task(self, task: str, thunk: Callable[[], _T]) -> _T:
        """Run ``thunk`` under the per-task latency histogram when armed."""
        if not _obs.ENABLED:
            return thunk()
        start = perf_counter()
        try:
            return thunk()
        finally:
            self._observe().task_seconds.histogram_child(task).observe(
                perf_counter() - start
            )

    # ------------------------------------------------------------------ #
    # memory model
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> float:
        """Logical size under the paper's memory model."""
        return self.config.total_bytes()

    # ------------------------------------------------------------------ #
    # key canonicalization
    # ------------------------------------------------------------------ #
    def canonical_key(self, key: object) -> int:
        """Map any key into the sketch's decodable domain.

        Integer keys already in ``[1, 2^32)`` pass through unchanged.
        Anything else — strings, bytes, zero, negative or oversized ints —
        is deterministically fingerprinted into the domain, mirroring the
        paper's handling of variable-length keys ("we first hash the key
        into a fixed-length fingerprint").  Queries apply the same mapping,
        so callers never see the fingerprints.  The mapping is
        :func:`repro.common.hashing.canonical_key`, shared with the shard
        router.
        """
        return canonical_key(key)

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, key: object, count: int = 1) -> None:
        """Record ``count`` occurrences of ``key`` (Algorithms 1 + 2).

        The paper's per-item reference: every bulk path must leave the
        state this leaves for each chunk's per-key totals.  Only
        standard-mode sketches accept insertions: the element filter of a
        union/difference result no longer holds exactly the first ``T``
        units of each promoted element, so writing into one would
        silently corrupt every later query.  The guard is unconditional
        (one string compare), not gated behind the debug sanitizer.  A
        count must be an integer (anything with ``__index__``) of at least
        1; any other, or one taking ``total_count`` (and so any FP count)
        out of int64, raises ``ConfigurationError`` with nothing written.
        """
        self._require_standard("insert")
        key = self.canonical_key(key)
        if _inv.ENABLED:
            _inv.check_counter_int(count, "DaVinciSketch.insert count")
        count = checked_count(count)
        self.total_count = require_int64("total_count", self.total_count + count)
        self.insertions += 1
        self._decode_cache = None
        if _obs.ENABLED:
            self._record_inserts(1, count)
        self._insert_canonical(key, count)

    def _require_standard(self, operation: str) -> None:
        if self.mode != MODE_STANDARD:
            raise SketchModeError(
                f"DaVinciSketch.{operation}: only standard-mode sketches "
                "accept insertions (merged/signed sketches are read-only)"
            )

    def _insert_canonical(self, key: int, count: int) -> None:
        """Algorithms 1 + 2 for one canonical key (no accounting)."""
        outcome = self.fp.insert(key, count)
        self.memory_accesses += outcome.accesses
        if outcome.demoted is None:
            return
        demoted_key, demoted_count = outcome.demoted
        self._push_to_filter(demoted_key, demoted_count)

    def insert_all(
        self, keys: Iterable[object], chunk_size: int = DEFAULT_BATCH_CHUNK
    ) -> None:
        """Insert a stream of single occurrences through the bulk path.

        Keys-first: each chunk of keys is canonicalized as one array,
        with no ``(key, 1)`` pairs built.  Equivalent to inserting each
        chunk's per-key totals in first-seen order (see
        :meth:`insert_batch` for the exact contract); pass
        ``chunk_size=1`` to match the per-item loop.
        """
        self.insert_batch(PairColumns(keys), chunk_size=chunk_size)

    def insert_batch(
        self,
        pairs: Iterable[Tuple[object, int]],
        chunk_size: int = DEFAULT_BATCH_CHUNK,
    ) -> None:
        """Record many ``(key, count)`` pairs through the bulk path.

        The stream is consumed in chunks of up to ``chunk_size`` pairs.
        Each chunk is pre-aggregated into per-key totals (first-seen key
        order), and the resulting state is **byte-identical** to calling
        ``insert(key, total)`` sequentially for those totals — eviction
        order, element-filter absorb arithmetic and decode-cache semantics
        included.  A batch therefore treats its pairs as simultaneous
        arrivals: a key occurring twice in one chunk enters the frequent
        part once with its summed count, exactly as a ``count=k`` insert
        does.

        Every chunk runs through :func:`~repro.core.kernel.ingest_chunk`:
        one array pass canonicalizes and aggregates the keys, and the
        three parts apply the totals as arrays.  A chunk the arrays cannot
        express exactly (counts numpy cannot hold as positive int64,
        totals at or above 2^52, a bucket pile-up) falls back to that
        per-item loop itself.  An unsupported key, a count that is not an
        integer or is below 1, or a chunk that would take ``total_count`` out
        of int64 raises before its chunk changes anything.
        """
        self._require_standard("insert_batch")
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        for keys, counts in _chunks(pairs, chunk_size):
            ingest_chunk(self, keys, counts)

    def _account(self, pairs: int, units: int, kernel: str) -> None:
        """Book one bulk chunk: offered pairs, units, the path it took.

        ``insertions`` counts offered pairs (one per :meth:`insert` call
        the per-item loop would have made), so throughput and AMA stay
        comparable across paths; aggregation only changes the number of
        structure touches, which ``memory_accesses`` reflects.
        """
        self.insertions += pairs
        self.total_count += units
        self._decode_cache = None
        if _obs.ENABLED:
            self._record_inserts(pairs, units)
            self._observe().kernel_chunks.counter_child(kernel).inc()

    def _insert_totals(
        self, keys: List[int], counts: Optional[Sequence[Any]]
    ) -> None:
        """The per-item fallback: aggregate, then Algorithm 1/2 per total.

        ``keys`` are canonical; ``counts is None`` means one per key.
        Totals are summed before anything is written, so a count that is
        not a positive integer, or totals that leave int64, raise with the
        sketch untouched.
        """
        totals: Dict[int, int] = {}
        if counts is None:
            for key in keys:
                totals[key] = totals.get(key, 0) + 1
        else:
            for key, count in zip(keys, counts):
                if type(count) is not int:
                    count = _integer_count(count)
                require_positive("count", count)
                totals[key] = totals.get(key, 0) + count
        values = totals.values()
        require_int64("count", max(values, default=0))
        units = sum(values)
        require_int64("total_count", self.total_count + units)
        self._account(len(keys), units, KERNEL_OBJECT)
        for key, total in totals.items():
            self._insert_canonical(key, total)

    def _push_to_filter(self, key: int, count: int) -> None:
        """Route a demoted element through the EF, overflow to the IFP."""
        self.memory_accesses += self.ef.num_levels
        overflow = self.ef.offer(key, count)
        if overflow > 0:
            self.memory_accesses += self.ifp.rows
            self.ifp.insert(key, overflow)

    # ------------------------------------------------------------------ #
    # decoding (Algorithm 5, cached)
    # ------------------------------------------------------------------ #
    def decode_result(self) -> DecodeResult:
        """Decode the infrequent part (cached until the next insertion).

        In standard mode, decoding cross-validates each candidate against
        the element filter: a genuinely promoted element must read at least
        ``T`` in the filter (the paper's ``canDecode``).  Merged and signed
        sketches no longer satisfy that invariant, so they rely on the
        re-hash and sign checks alone, which a crowded bucket can pass.
        """
        if self._decode_cache is None:
            if _obs.ENABLED:
                self._observe().cache_misses.inc()
            validator: Optional[Validator] = None
            if self.mode == MODE_STANDARD:
                threshold = self.ef.threshold
                validator = lambda keys: (  # noqa: E731
                    self.ef.query_many(keys) >= threshold
                )
            self._decode_cache = self.ifp.decode(validator)
        elif _obs.ENABLED:
            self._observe().cache_hits.inc()
        return self._decode_cache

    def decode_counts(self) -> Dict[int, int]:
        """The decoded ``{key: infrequent-part count}`` map."""
        return self.decode_result().counts

    # ------------------------------------------------------------------ #
    # frequency query (Algorithm 4)
    # ------------------------------------------------------------------ #
    def query(self, key: object) -> int:
        """Estimated (signed, for difference sketches) frequency of ``key``."""
        if _obs.ENABLED:
            start = perf_counter()
            value = self._query_value(self.canonical_key(key))
            self._observe().task_seconds.histogram_child("query").observe(
                perf_counter() - start
            )
            return value
        return self._query_value(self.canonical_key(key))

    def _query_value(self, key: int) -> int:
        if self.mode == MODE_SIGNED:
            return self._query_signed(key)
        if self.mode == MODE_ADDITIVE:
            return self._query_additive(key)
        return self._query_standard(key)

    def _query_standard(self, key: int) -> int:
        fp_count, present, flag = self.fp.lookup(key)
        if present and not flag:
            return fp_count
        base = fp_count  # 0 when absent (Algorithm 4, lines 5-8)

        decoded = self.decode_counts()
        if key in decoded:
            # Promoted and decoded: the filter holds exactly T of its mass.
            return base + decoded[key] + self.ef.threshold

        ef_estimate = self.ef.query(key)
        if ef_estimate >= self.ef.threshold:
            # Promoted but not decodable: fall back to the unbiased fast
            # query of the infrequent part (Algorithm 4, lines 16-20).
            return base + max(0, self.ifp.fast_query(key)) + self.ef.threshold
        return base + ef_estimate

    def _query_additive(self, key: int) -> int:
        fp_count, _, _ = self.fp.lookup(key)
        decoded = self.decode_counts()
        ifp_part = decoded.get(key)
        if ifp_part is None:
            ifp_part = 0
            if not self.decode_result().complete and self.ef.is_promoted(key):
                ifp_part = max(0, self.ifp.fast_query(key))
        return fp_count + self.ef.query(key) + ifp_part

    def _query_signed(self, key: int) -> int:
        # Signed parts simply add (see the class docstring).  No fast-query
        # fallback here: when the subtracted infrequent part fails to peel,
        # its Count-Sketch-style estimate is noise of the *absolute* counts
        # while difference deltas are small — adding it would swamp every
        # small delta.  Undecoded promoted keys lose their (bounded)
        # infrequent share instead.
        fp_count, _, _ = self.fp.lookup(key)
        ifp_part = self.decode_counts().get(key, 0)
        ef_part = self.ef.query_signed(key)
        return fp_count + ef_part + ifp_part

    def query_many(self, keys: Iterable[object]) -> List[int]:
        """``[self.query(key) for key in keys]`` in one array pass
        (:meth:`estimates`).  The scalar :meth:`query` stays the
        point-read path."""
        return self.estimates(keys).tolist()

    def estimates(self, keys: Iterable[object]) -> Any:
        """:meth:`query` of each key, as an array.

        Each key is canonicalized by :meth:`canonical_key`, as
        :meth:`query` does; the three shares of every key come from
        :meth:`_query_parts` and are summed by :func:`exact_sum`: an
        int64 array unless a sum could leave int64.
        """
        canonical = np.fromiter(map(self.canonical_key, keys), dtype=np.int64)
        return exact_sum(*self._query_parts(canonical, self.mode))

    def _query_parts(self, keys: Any, mode: str) -> Tuple[Any, Any, Any]:
        """Algorithm 4's ``(FP, EF, IFP)`` shares of the int64 ``keys``
        as read in ``mode``; each key's sum is :meth:`_query_value`'s.

        All three are int64 arrays (the IFP share holds Python ints only
        when a decoded count left int64).  The IFP share is the decoded
        count, found by one sorted search (:meth:`DecodeResult.lookup`),
        or a batched ``fast_query`` for promoted keys left undecoded.  A
        standard sketch's unflagged residents read no lower part.
        """
        standard = mode == MODE_STANDARD
        fp, _present, lower = self.fp.lookup_many(keys)
        ef = self.ef.query_many(keys, signed=mode == MODE_SIGNED)
        ifp = np.zeros(len(keys), dtype=np.int64)
        at = np.flatnonzero(lower) if standard else np.arange(len(keys))
        if len(at):
            result = self.decode_result()
            decoded, counts = result.lookup(keys[at])
            ifp = ifp.astype(counts.dtype, copy=False)
            ifp[at[decoded]] = counts
            promoted = ef[at] >= self.ef.threshold
            if standard or (mode == MODE_ADDITIVE and not result.complete):
                undecoded = at[~decoded & promoted]
                estimates = self.ifp.fast_query_many(keys[undecoded])
                ifp[undecoded] = np.maximum(estimates, 0)
            if standard:
                ef[at] = np.where(decoded | promoted, self.ef.threshold, ef[at])
        if standard:
            ef[~lower] = 0
        return fp, ef, ifp

    # ------------------------------------------------------------------ #
    # task facade — implementations live in repro.core.tasks
    # ------------------------------------------------------------------ #
    def heavy_hitters(self, threshold: int) -> Dict[int, int]:
        """Elements whose estimated |frequency| is at least ``threshold``."""
        from repro.core.tasks.heavy import heavy_hitters

        return self._timed_task(
            "heavy_hitters", lambda: heavy_hitters(self, threshold)
        )

    def top_k(self, k: int) -> List[Tuple[int, int]]:
        """The ``k`` elements with the largest estimated |frequency|.

        The second heavy-hitter formulation of the paper's Table I
        (``{e_i | f_i ∈ Top k}``): candidates are the exactly-tracked keys,
        ranked by their full Algorithm-4 estimates.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")

        def run() -> List[Tuple[int, int]]:
            ranked = sorted(
                self.known_keys().items(), key=lambda kv: (-abs(kv[1]), kv[0])
            )
            return ranked[:k]

        return self._timed_task("top_k", run)

    def to_state(self) -> Dict:
        """Serialize to JSON-compatible state (see repro.core.serialization)."""
        from repro.core.serialization import to_state

        return to_state(self)

    @classmethod
    def from_state(cls, state: Dict) -> "DaVinciSketch":
        """Rebuild a sketch from :meth:`to_state` output."""
        from repro.core.serialization import from_state

        return from_state(state)

    def cardinality(self) -> float:
        """Estimated number of distinct elements."""
        from repro.core.tasks.cardinality import cardinality

        return self._timed_task("cardinality", lambda: cardinality(self))

    def distribution(
        self, max_size: Optional[int] = None, em_level: int = 0
    ) -> Dict[int, float]:
        """Estimated flow-size distribution ``{size: #elements}``."""
        from repro.core.tasks.distribution import distribution

        return self._timed_task(
            "distribution",
            lambda: distribution(self, max_size=max_size, em_level=em_level),
        )

    def entropy(self) -> float:
        """Estimated (natural-log) entropy of the multiset."""
        from repro.core.tasks.entropy import entropy

        return self._timed_task("entropy", lambda: entropy(self))

    def inner_join(self, other: "DaVinciSketch") -> float:
        """Estimated join size Σ_e f(e)·g(e) against ``other``."""
        from repro.core.tasks.innerjoin import inner_join

        return self._timed_task(
            "inner_join", lambda: inner_join(self, other)
        )

    def second_moment(self) -> float:
        """Estimated second frequency moment F₂ = Σ_e f(e)².

        The self-join size (paper Table I's inner join with ``G = F``) —
        the classical AGMS quantity, free from the same structure.
        """
        from repro.core.tasks.innerjoin import inner_join

        return self._timed_task(
            "second_moment", lambda: inner_join(self, self)
        )

    def union(self, other: "DaVinciSketch") -> "DaVinciSketch":
        """The union sketch (Algorithm 3)."""
        from repro.core.setops import union

        return self._timed_task("union", lambda: union(self, other))

    def difference(self, other: "DaVinciSketch") -> "DaVinciSketch":
        """The signed difference sketch (self − other)."""
        from repro.core.setops import difference

        return self._timed_task(
            "difference", lambda: difference(self, other)
        )

    # ------------------------------------------------------------------ #
    # plumbing for the set operations
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "DaVinciSketch") -> None:
        """Raise unless ``other`` was built from the identical config."""
        if self.config != other.config:
            raise IncompatibleSketchError(
                "DaVinci sketches must share an identical DaVinciConfig "
                "(shape, threshold, prime and seed) to be combined"
            )

    def empty_like(self) -> "DaVinciSketch":
        """A fresh sketch with the same config (for set-op results)."""
        return DaVinciSketch(self.config)

    def known_keys(self) -> Dict[int, int]:
        """Exactly-tracked keys: FP residents plus decoded IFP elements.

        Values are full frequency estimates, as :meth:`query` reads them.
        Used by the heavy-hitter scan, top-k and signed cardinality.
        """
        keys, estimates = self.known_estimates()
        return dict(zip(keys.tolist(), estimates.tolist()))

    def known_estimates(self) -> Tuple[Any, Any]:
        """:meth:`known_keys` as arrays: the keys, sorted (int64), and
        their :meth:`estimates`."""
        keys = union_keys(self.fp.residents()[0], self.decode_result().keys)
        return keys, self.estimates(keys.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DaVinciSketch(mode={self.mode}, "
            f"memory={self.memory_bytes() / 1024:.1f}KB, "
            f"fp={len(self.fp)}/{self.fp.capacity}, "
            f"total={self.total_count})"
        )
