"""Sharded multiprocess ingestion with merge-tree aggregation.

The paper's union operator (Algorithm 3) makes independently-built
DaVinci sketches mergeable, which is exactly the property that lets a
measurement pipeline scale out: split the key space across ``n`` worker
processes, build one sketch per shard, and fold the shards back into a
single queryable sketch.  This module owns that pipeline:

:class:`ShardRouter`
    Deterministic key-space partitioner.  Keys are first mapped through
    the same canonicalization the sketch itself applies (integers in the
    decodable domain pass through; everything else is fingerprinted), so
    routing and sketching always agree on key identity, then spread over
    shards with a multiplicative hash — adversarial key patterns (for
    example every key sharing a residue) cannot starve a shard.

:class:`ShardedIngestor`
    The process facade.  It canonicalizes and routes each
    ``chunk_items`` slice of the input in one vectorized pass
    (:func:`~repro.core.kernel.canonical_keys`, then the router's mix
    over the whole array), buffers the canonical keys per shard as
    packed uint64 arrays, ships each shard's stream to its worker
    process as messages of exactly ``chunk_items`` keys over a bounded
    queue (a full queue blocks the producer — natural backpressure),
    and on :meth:`~ShardedIngestor.finalize` sends each shard's short
    tail, collects each worker's sketch as a digest-verified wire-v3
    blob and folds the shards through :func:`repro.core.setops.union`
    in a binary merge tree.

Byte-identity contract
----------------------
A message is one whole chunk of the *shard's* stream, counted from its
start (the same absolute alignment
:class:`~repro.runtime.ingestor.CheckpointingIngestor` uses), and a
worker applies it with one ``insert_batch`` call, or one journal record
when durable.  So the finalized shard states — and
therefore the merged result — are byte-identical to a sequential
``insert_batch(partition, chunk_size=chunk_items)`` over each partition
followed by the same union fold.  Since the shards are key-disjoint by
construction, the union fold itself is associative up to ``to_state()``
bytes (see :mod:`repro.core.setops`), so the merge-tree shape does not
matter either.

Failure semantics
-----------------
Worker death is detected while feeding (blocked ``put``) and while
collecting states.  With ``durable_root`` set, every shard runs inside a
:class:`~repro.runtime.ingestor.CheckpointingIngestor`; the parent keeps
an in-memory replay buffer of dispatched messages and prunes it as
workers acknowledge their durable watermark (``items_ingested``), so a
killed worker can be respawned (up to ``max_restarts`` times per shard),
recover from its shard directory and have every unacknowledged message
re-sent whole — each message is one journal record, so the recovered
watermark always falls between messages and the recovered shard is
byte-identical to an uninterrupted one.  Without ``durable_root`` there
is nothing to replay from and any worker death raises
:class:`~repro.common.errors.ShardFailureError` (fail-fast).  Shutdown
(:meth:`~ShardedIngestor.close`) is idempotent and safe to call at any
point, including after failures.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue_mod
import time
from types import TracebackType
from typing import (
    Any,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro.common.errors import (
    ConfigurationError,
    ShardFailureError,
    ShardTimeoutError,
)
from repro.common.hashing import canonical_key
from repro.common.validation import require_int64
from repro.core import serialization, setops
from repro.core.config import DaVinciConfig
from repro.core.davinci import (
    DEFAULT_BATCH_CHUNK,
    DaVinciSketch,
    PairColumns,
    checked_count,
    column_reader,
)
from repro.core.kernel import canonical_keys, np
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import ShardedMetrics
from repro.observability.metrics import MetricsRegistry
from repro.runtime.ingestor import (
    CheckpointingIngestor,
    ColumnBuffer,
    count_column,
)

__all__ = ["ShardRouter", "ShardedIngestor", "merge_tree"]

#: Fibonacci multiplicative mixing constant (golden-ratio / 2^64)
_MIX = 0x9E3779B97F4A7C15

_MASK64 = (1 << 64) - 1

#: seconds between liveness checks while blocked on a full queue
_POLL_SECONDS = 0.2


class ShardRouter:
    """Deterministic canonical-key-hash partitioner over ``num_shards``.

    The router applies the sketch's own key mapping
    (:func:`repro.common.hashing.canonical_key`) — integer keys inside
    the decodable domain route as-is, anything else is fingerprinted
    first — so the shard that builds a key's counters is a pure function
    of the key's canonical identity, never of insertion order or process
    layout.  The canonical key is then mixed with a multiplicative hash
    before the modulo so that structured key sets (sequential IDs, keys
    sharing a residue class) still spread evenly.

    The per-key methods are the reference; :class:`ShardedIngestor`
    routes whole batches with :meth:`shards_of`, which computes the same
    shard for every key.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = int(num_shards)

    def canonical_key(self, key: object) -> int:
        """The sketch-canonical integer identity of ``key``."""
        return canonical_key(key)

    def shard_of(self, key: object) -> int:
        """Shard index in ``[0, num_shards)`` owning ``key``."""
        canonical = self.canonical_key(key)
        return (((canonical * _MIX) & _MASK64) >> 32) % self.num_shards

    def shards_of(self, canonical: Any) -> Any:
        """:meth:`shard_of` for a uint64 array of canonical keys.

        The uint64 product wraps mod 2^64, exactly the scalar
        ``(canonical * _MIX) & _MASK64``.
        """
        mixed = (canonical * np.uint64(_MIX)) >> np.uint64(32)
        return mixed % np.uint64(self.num_shards)

    def partition_pairs(
        self, pairs: Iterable[Tuple[object, int]]
    ) -> List[List[Tuple[int, int]]]:
        """Split ``(key, count)`` pairs into per-shard canonical substreams.

        Order within each shard follows the input order — the property
        the byte-identity contract relies on.
        """
        shards: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_shards)
        ]
        n = self.num_shards
        canonical_of = self.canonical_key
        for key, count in pairs:
            canonical = canonical_of(key)
            shards[(((canonical * _MIX) & _MASK64) >> 32) % n].append(
                (canonical, count)
            )
        return shards


def merge_tree(sketches: List[DaVinciSketch]) -> DaVinciSketch:
    """Fold sketches pairwise through :func:`setops.union` (binary tree).

    A single input is returned as-is (no union happened, so it keeps its
    own mode); two or more inputs produce an additive-mode union sketch.
    For key-disjoint inputs the tree shape is immaterial — the union is
    byte-associative — but the balanced tree keeps intermediate frequent
    parts small and the latency logarithmic in the shard count.
    """
    if not sketches:
        raise ConfigurationError("merge_tree needs at least one sketch")
    level = list(sketches)
    while len(level) > 1:
        merged: List[DaVinciSketch] = []
        for i in range(0, len(level) - 1, 2):
            merged.append(setops.union(level[i], level[i + 1]))
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


def _shard_worker(
    shard_id: int,
    config: DaVinciConfig,
    task_queue: "multiprocessing.queues.Queue[Any]",
    result_queue: "multiprocessing.queues.Queue[Any]",
    chunk_items: int,
    durable_dir: Optional[str],
    checkpoint_every_items: Optional[int],
) -> None:
    """One shard's process body: apply batches, report the final state.

    Runs until a ``finalize`` or ``stop`` message arrives.  Each batch is
    one chunk of the shard substream — canonical keys as a uint64 array,
    counts as an int64 array or ``None`` — handed on as those arrays:
    applied as one journal record through :class:`CheckpointingIngestor`
    when durable and as one ``insert_batch`` call otherwise, so both
    paths produce byte-identical states for the same substream.
    """
    ingestor: Optional[CheckpointingIngestor] = None
    if durable_dir is not None:
        ingestor = CheckpointingIngestor(
            config,
            durable_dir,
            journal_chunk_items=chunk_items,
            checkpoint_every_items=checkpoint_every_items,
        )
        sketch = ingestor.sketch
    else:
        sketch = DaVinciSketch(config)
    watermark = ingestor.items_ingested if ingestor is not None else 0
    result_queue.put(("ready", shard_id, watermark, sketch.total_count))
    applied = 0

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "batch":
            chunk = PairColumns(message[1], message[2])
            if ingestor is not None:
                ingestor.ingest(chunk)
                # only the tail is short; journal it as its own record
                ingestor.flush()
                result_queue.put(("ack", shard_id, ingestor.items_ingested))
            else:
                sketch.insert_batch(chunk, chunk_size=chunk_items)
            applied += len(message[1])
        elif kind == "finalize":
            if ingestor is not None:
                ingestor.checkpoint()
                applied = ingestor.items_ingested
                ingestor.close()
            blob = serialization.to_wire(sketch)
            result_queue.put(("state", shard_id, bytes(blob), applied))
            return
        else:  # "stop" — abandon without reporting
            if ingestor is not None:
                ingestor.close()
            return


class _ShardHandle:
    """Parent-side bookkeeping for one shard's worker process."""

    __slots__ = (
        "index",
        "process",
        "task_queue",
        "items_sent",
        "acked_items",
        "replay",
        "restarts",
        "finalized_sent",
        "state_blob",
        "items_reported",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.task_queue: Optional[Any] = None
        #: items dispatched to the worker so far (shard-stream positions)
        self.items_sent = 0
        #: durable watermark acknowledged by the worker
        self.acked_items = 0
        #: un-acknowledged messages as (start_position, keys, counts);
        #: the arrays that were sent (8 B per key, and per count)
        self.replay: List[Tuple[int, Any, Optional[Any]]] = []
        self.restarts = 0
        self.finalized_sent = False
        self.state_blob: Optional[bytes] = None
        self.items_reported = 0


class ShardedIngestor:
    """Multiprocess sharded ingestion facade over ``num_shards`` workers.

    Parameters
    ----------
    config:
        Shared sketch configuration; every shard (and the merged result)
        uses it, which is what makes the union fold well-defined.
    num_shards:
        Worker process count (>= 1).
    chunk_items:
        Per-shard ingestion chunk size — the batched fast path's
        aggregation window, the keys per queue message and, for durable
        shards, the journal record granularity; also the keys
        canonicalized and routed per vectorized pass.  Part of the
        byte-identity contract: the sequential reference fold must use
        the same value.  Larger chunks aggregate more duplicate keys per
        ``insert_batch`` call (higher throughput, coarser eviction
        schedule — the same trade-off documented for
        ``DaVinciSketch.insert_batch``).
    queue_depth:
        Bound of each worker's task queue, in messages.  A full queue
        blocks :meth:`ingest` — backpressure instead of unbounded
        buffering.
    durable_root:
        Directory under which each shard keeps a
        :class:`CheckpointingIngestor` directory (``shard-0000``, ...).
        Enables restart-and-replay on worker death.  ``None`` (default)
        runs shards in memory and fails fast on death.
    checkpoint_every_items:
        Checkpoint cadence forwarded to durable shards.
    max_restarts:
        Worker respawns allowed per shard after an unexpected death
        (durable shards only — without a checkpoint there is nothing to
        restart from).  Exhausting the budget raises
        :class:`ShardFailureError`.
    join_timeout:
        Seconds to wait, per phase, for workers to hand over their final
        states and exit during :meth:`finalize` before declaring the
        run failed.
    stall_timeout:
        Optional bound on how long a blocked :meth:`ingest` put will
        wait on a full queue whose worker is *alive but consuming
        nothing* (wedged, stopped, deadlocked).  When the queue shows
        zero drain for this many seconds,
        :class:`~repro.common.errors.ShardTimeoutError` is raised
        instead of blocking forever.  ``None`` (default) keeps the
        historical block-until-drain behavior.
    mp_context:
        ``multiprocessing`` start-method name or context object.
        Defaults to ``"fork"`` where available (cheap worker start; the
        workers inherit the imported package) and the platform default
        elsewhere.
    metrics_registry:
        Optional private registry for the sharded-runtime telemetry;
        ``None`` uses the process-global default.  Collection only
        happens while :mod:`repro.observability.metrics` is enabled.
    """

    #: lazily-created metrics bundle (see repro.observability)
    _obs_metrics: Optional[ShardedMetrics] = None
    #: injectable registry override (None → the process-global default)
    _obs_registry: Optional[MetricsRegistry] = None

    def __init__(
        self,
        config: DaVinciConfig,
        num_shards: int = 4,
        *,
        chunk_items: int = DEFAULT_BATCH_CHUNK,
        queue_depth: int = 4,
        durable_root: Optional[Union[str, os.PathLike]] = None,
        checkpoint_every_items: Optional[int] = 262144,
        max_restarts: int = 1,
        join_timeout: float = 30.0,
        stall_timeout: Optional[float] = None,
        mp_context: Optional[Union[str, Any]] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if chunk_items < 1:
            raise ConfigurationError("chunk_items must be >= 1")
        if queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        if join_timeout <= 0:
            raise ConfigurationError("join_timeout must be positive")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ConfigurationError(
                "stall_timeout must be positive when set"
            )
        self.config = config
        self.router = ShardRouter(num_shards)
        self.num_shards = self.router.num_shards
        self.chunk_items = int(chunk_items)
        self.queue_depth = int(queue_depth)
        self.durable_root = (
            os.fspath(durable_root) if durable_root is not None else None
        )
        self.checkpoint_every_items = checkpoint_every_items
        self.max_restarts = int(max_restarts)
        self.join_timeout = float(join_timeout)
        self.stall_timeout = (
            float(stall_timeout) if stall_timeout is not None else None
        )
        self._obs_registry = metrics_registry

        if isinstance(mp_context, str) or mp_context is None:
            method = mp_context
            if method is None:
                method = (
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else None
                )
            self._ctx = multiprocessing.get_context(method)
        else:
            self._ctx = mp_context

        #: total pairs routed so far (all shards)
        self.items_routed = 0
        #: per-shard sketches rebuilt from the collected wire blobs
        #: (populated by :meth:`finalize`)
        self.shard_sketches: List[DaVinciSketch] = []
        self._merged: Optional[DaVinciSketch] = None
        self._closed = False
        self._failed: Optional[ShardFailureError] = None

        self._result_queue = self._ctx.Queue()
        self._shards = [_ShardHandle(i) for i in range(self.num_shards)]
        #: parent-side routing buffers, each under one chunk: per-shard
        #: canonical keys (uint64) and counts, in stream order
        self._buffers = [ColumnBuffer() for _ in range(self.num_shards)]
        for handle in self._shards:
            self._spawn(handle)
        #: units (summed counts) routed so far, recovered ones included:
        #: the merged sketch's ``total_count``, kept within int64 here
        self.units_routed = self._await_ready(set(range(self.num_shards)))
        for handle in self._shards:
            # A durable root with prior state recovers each shard to its
            # journaled watermark; stream positions continue from there.
            handle.items_sent = handle.acked_items

    # ------------------------------------------------------------------ #
    # observability (free while disabled)
    # ------------------------------------------------------------------ #
    def _observe(self) -> ShardedMetrics:
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.sharded_metrics(self._obs_registry)
            self._obs_metrics = bundle
        return bundle

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _shard_dir(self, index: int) -> Optional[str]:
        if self.durable_root is None:
            return None
        return os.path.join(self.durable_root, f"shard-{index:04d}")

    def _spawn(self, handle: _ShardHandle) -> None:
        # Always a fresh queue: after a death, messages stranded in the
        # old queue must not leak into the replacement worker (the replay
        # buffer re-sends everything past the durable watermark).
        self._release_queue(handle.task_queue)
        handle.task_queue = self._ctx.Queue(maxsize=self.queue_depth)
        handle.process = self._ctx.Process(
            target=_shard_worker,
            args=(
                handle.index,
                self.config,
                handle.task_queue,
                self._result_queue,
                self.chunk_items,
                self._shard_dir(handle.index),
                self.checkpoint_every_items,
            ),
            daemon=True,
        )
        handle.process.start()

    def _await_ready(self, pending: "set[int]") -> int:
        """Block until every shard in ``pending`` reported ``ready``;
        return the units their recovered sketches hold."""
        recovered = 0
        deadline = time.monotonic() + self.join_timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._abort()
                raise ShardFailureError(
                    f"shards {sorted(pending)} did not start within "
                    f"{self.join_timeout:.1f}s"
                )
            try:
                message = self._result_queue.get(
                    timeout=min(remaining, _POLL_SECONDS)
                )
            except _queue_mod.Empty:
                for index in list(pending):
                    process = self._shards[index].process
                    if process is not None and not process.is_alive():
                        self._abort()
                        raise ShardFailureError(
                            f"shard {index} worker died during startup "
                            f"(exitcode {process.exitcode})"
                        )
                continue
            if message[0] == "ready":
                _kind, index, watermark, units = message
                self._shards[index].acked_items = watermark
                recovered += units
                pending.discard(index)
            else:
                self._on_result(message)
        return recovered

    def _on_result(self, message: Tuple[Any, ...]) -> None:
        """Apply one out-of-band worker report (ack or final state)."""
        kind = message[0]
        if kind == "ack":
            handle = self._shards[message[1]]
            handle.acked_items = max(handle.acked_items, message[2])
            replay = handle.replay
            while replay and replay[0][0] + len(replay[0][1]) <= (
                handle.acked_items
            ):
                replay.pop(0)
        elif kind == "state":
            handle = self._shards[message[1]]
            handle.state_blob = message[2]
            handle.items_reported = message[3]

    def _drain_results(self) -> None:
        while True:
            try:
                message = self._result_queue.get_nowait()
            except _queue_mod.Empty:
                return
            self._on_result(message)

    def _handle_death(self, handle: _ShardHandle) -> None:
        """Respawn-and-replay a dead worker, or fail the run."""
        process = handle.process
        exitcode = process.exitcode if process is not None else None
        self._drain_results()
        durable = self.durable_root is not None
        if not durable or handle.restarts >= self.max_restarts:
            reason = (
                "no durable checkpoint to replay from"
                if not durable
                else f"restart budget ({self.max_restarts}) exhausted"
            )
            error = ShardFailureError(
                f"shard {handle.index} worker died (exitcode {exitcode}); "
                f"{reason}"
            )
            self._failed = error
            self._abort()
            raise error
        handle.restarts += 1
        if _obs.ENABLED:
            self._observe().worker_restarts.inc()
        self._spawn(handle)
        self._await_ready({handle.index})
        # The replacement recovered from the shard checkpoint directory;
        # its `ready` watermark tells us where its durable state ends.
        # Every message is one journal record, so the watermark falls
        # between messages: re-send whole every one past it.
        watermark = handle.acked_items
        resend = [
            entry
            for entry in handle.replay
            if entry[0] + len(entry[1]) > watermark
        ]
        handle.replay = []
        handle.items_sent = watermark
        for _start, keys, counts in resend:
            self._send_batch(handle, keys, counts)
        if handle.finalized_sent:
            handle.finalized_sent = False
            self._send_control(handle, ("finalize",))

    def _send_batch(
        self,
        handle: _ShardHandle,
        keys: Any,
        counts: Optional[Any],
    ) -> None:
        if self.durable_root is not None and self.max_restarts > 0:
            handle.replay.append((handle.items_sent, keys, counts))
        # Advanced before the put: a death detected inside it re-sends
        # this message from the replay and resets the position itself.
        handle.items_sent += len(keys)
        self._put(handle, ("batch", keys, counts))
        if _obs.ENABLED:
            bundle = self._observe()
            bundle.shard_items.labels(str(handle.index)).inc(len(keys))
            task_queue = handle.task_queue
            if task_queue is not None:
                try:
                    depth = task_queue.qsize()
                except NotImplementedError:  # pragma: no cover - macOS
                    depth = -1
                bundle.queue_depth.labels(str(handle.index)).set(depth)

    def _send_control(
        self, handle: _ShardHandle, message: Tuple[Any, ...]
    ) -> None:
        self._put(handle, message)
        if message[0] == "finalize":
            handle.finalized_sent = True

    def _put(self, handle: _ShardHandle, message: Tuple[Any, ...]) -> None:
        """Blocking put with liveness checks (the backpressure point).

        A dead worker is detected by ``is_alive`` and respawned, but a
        worker that is alive yet consuming nothing (wedged in a
        syscall, stopped, deadlocked downstream) would otherwise block
        this put forever.  With ``stall_timeout`` set, a queue that
        stays full for that many seconds with zero drain raises
        :class:`~repro.common.errors.ShardTimeoutError` instead.
        """
        stalled_since: Optional[float] = None
        while True:
            process = handle.process
            task_queue = handle.task_queue
            if process is None or task_queue is None:
                raise ShardFailureError(
                    f"shard {handle.index} has no live worker"
                )
            try:
                task_queue.put(message, timeout=_POLL_SECONDS)
                return
            except _queue_mod.Full:
                self._drain_results()
                if not process.is_alive():
                    self._handle_death(handle)
                    # _handle_death respawned (or raised); the replay
                    # already re-sent everything including, for batches,
                    # this message's predecessors — retry this message
                    # against the new queue unless it was itself part of
                    # the replay.
                    if message[0] == "batch":
                        return
                    stalled_since = None
                elif self.stall_timeout is not None:
                    now = time.monotonic()
                    if stalled_since is None:
                        stalled_since = now
                    elif now - stalled_since >= self.stall_timeout:
                        raise ShardTimeoutError(
                            f"shard {handle.index} accepted no work for "
                            f"{self.stall_timeout:.1f}s (worker alive but "
                            "its queue never drained)"
                        )

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def _require_open(self) -> None:
        if self._failed is not None:
            raise self._failed
        if self._closed:
            raise ShardFailureError(
                "ShardedIngestor is closed; create a new one to ingest more"
            )

    def ingest_keys(self, keys: Iterable[object]) -> int:
        """Route single occurrences; returns the number of keys consumed.

        A list, tuple or integer array of keys is sliced, not iterated.
        """
        return self._ingest(PairColumns(keys))

    def ingest(self, pairs: Iterable[Tuple[object, int]]) -> int:
        """Route weighted ``(key, count)`` pairs; returns pairs consumed.

        Each count must pass the rule :meth:`DaVinciSketch.insert`
        applies (an integer in ``[1, 2^63)``), and the units routed must
        stay within int64 (the bound on every shard's and the merged
        sketch's ``total_count``); a slice breaking either raises the
        sketch's ``ConfigurationError`` before any of its keys is routed.
        A :class:`~repro.core.davinci.PairColumns` is read as columns.
        """
        return self._ingest(pairs)

    def _ingest(self, pairs: Iterable[Tuple[object, int]]) -> int:
        """Canonicalize and route ``pairs`` one ``chunk_items`` slice at a
        time (the loop behind :meth:`ingest` and :meth:`ingest_keys`)."""
        self._require_open()
        take = column_reader(pairs)
        consumed = 0
        while True:
            keys, counts = take(self.chunk_items)
            if not len(keys):
                return consumed
            units = len(keys)
            if counts is not None:
                counts, units = count_column(counts, checked_count)
            canonical = canonical_keys(keys)
            self.units_routed = require_int64(
                "total_count", self.units_routed + units
            )
            self._route(canonical, counts)
            consumed += len(canonical)
            self.items_routed += len(canonical)

    def _route(self, canonical: Any, counts: Optional[Any]) -> None:
        """Append one canonicalized batch to the shard buffers.

        Boolean masks keep stream order within each shard, so every
        shard's substream is the one ``ShardRouter.partition_pairs``
        yields.
        """
        shards = self.router.shards_of(canonical)
        for shard in range(self.num_shards):
            mask = shards == shard
            part = canonical[mask]
            if not len(part):
                continue
            self._buffer(
                shard, part, None if counts is None else counts[mask]
            )

    def _buffer(self, shard: int, keys: Any, counts: Optional[Any]) -> None:
        """Queue ``keys`` for ``shard``, keeping keys and counts aligned."""
        buffer = self._buffers[shard]
        buffer.hold(keys, counts)
        if buffer.items >= self.chunk_items:
            self._dispatch(shard, tail=False)

    def _dispatch(self, shard: int, tail: bool = True) -> None:
        """Send ``shard``'s buffered keys as whole chunks, the short
        remainder too when ``tail`` (end of stream)."""
        buffer = self._buffers[shard]
        if not buffer.items:
            return
        keys, counts = buffer.take()
        chunk = self.chunk_items
        end = len(keys) if tail else len(keys) - len(keys) % chunk
        if end < len(keys):
            # Copied: a view would keep the sent chunks alive with it.
            buffer.hold(
                keys[end:].copy(),
                None if counts is None else counts[end:].copy(),
            )
        self._drain_results()
        handle = self._shards[shard]
        for start in range(0, end, chunk):
            self._send_batch(
                handle,
                keys[start : start + chunk],
                counts[start : start + chunk] if counts is not None else None,
            )

    # ------------------------------------------------------------------ #
    # finalize / merge
    # ------------------------------------------------------------------ #
    def finalize(self, timeout: Optional[float] = None) -> DaVinciSketch:
        """Flush, collect every shard's wire state, and merge.

        Returns the union-fold of the shard sketches (additive mode for
        two or more shards).  Idempotent: repeated calls return the same
        merged sketch.  ``timeout`` overrides ``join_timeout`` for the
        collection phase.
        """
        if self._merged is not None:
            return self._merged
        self._require_open()
        deadline_seconds = self.join_timeout if timeout is None else timeout
        for shard in range(self.num_shards):
            self._dispatch(shard)
        for handle in self._shards:
            if not handle.finalized_sent:
                self._send_control(handle, ("finalize",))
        self._collect_states(deadline_seconds)
        self._join_workers(deadline_seconds)

        blobs = [handle.state_blob for handle in self._shards]
        self.shard_sketches = [
            serialization.from_wire(blob)
            for blob in blobs
            if blob is not None
        ]
        observing = _obs.ENABLED
        started = time.perf_counter() if observing else 0.0
        merged = merge_tree(self.shard_sketches)
        if observing:
            self._observe().merge_seconds.observe(
                time.perf_counter() - started
            )
        self._merged = merged
        self.close()
        return merged

    def _collect_states(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            missing = [
                handle
                for handle in self._shards
                if handle.state_blob is None
            ]
            if not missing:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                error = ShardFailureError(
                    f"shards {[h.index for h in missing]} did not deliver "
                    f"their final state within {timeout:.1f}s"
                )
                self._failed = error
                self._abort()
                raise error
            try:
                message = self._result_queue.get(
                    timeout=min(remaining, _POLL_SECONDS)
                )
            except _queue_mod.Empty:
                for handle in missing:
                    process = handle.process
                    if process is not None and not process.is_alive():
                        # Death after finalize was requested: respawn,
                        # replay, re-finalize (durable), or fail fast.
                        self._handle_death(handle)
                        deadline = time.monotonic() + timeout
                continue
            self._on_result(message)

    def _join_workers(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for handle in self._shards:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    @staticmethod
    def _release_queue(task_queue: Optional[Any]) -> None:
        """Detach a producer-side queue without blocking interpreter exit.

        A ``multiprocessing.Queue`` flushes its buffer through a feeder
        thread that the interpreter joins at exit; a queue abandoned with
        unread data (dead worker, aborted run) would block that join
        forever.  ``cancel_join_thread`` forfeits the undelivered
        messages — which is the point: the replay buffer or the failure
        path already owns them.
        """
        if task_queue is None:
            return
        task_queue.cancel_join_thread()
        task_queue.close()

    def _abort(self) -> None:
        """Terminate every worker immediately (failure path)."""
        for handle in self._shards:
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            self._release_queue(handle.task_queue)
            handle.task_queue = None
        self._closed = True

    def close(self) -> None:
        """Stop workers and release queues (idempotent).

        Called automatically by :meth:`finalize`; calling it first
        abandons the run (durable shards keep their journaled progress
        on disk and can be recovered by a future run over the same
        ``durable_root``).
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._shards:
            process = handle.process
            task_queue = handle.task_queue
            if process is None or task_queue is None:
                continue
            if process.is_alive():
                try:
                    task_queue.put(("stop",), timeout=_POLL_SECONDS)
                except _queue_mod.Full:
                    process.terminate()
            process.join(timeout=self.join_timeout)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)
            self._release_queue(task_queue)
            handle.task_queue = None

    def __enter__(self) -> "ShardedIngestor":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()
