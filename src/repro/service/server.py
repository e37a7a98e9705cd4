"""The aggregation server: named remote aggregates behind a TCP endpoint.

A :class:`SketchServer` owns a set of *named aggregates*.  Each PUSH
delivers one wire-v3 sketch blob to be union-folded into an aggregate
(the mergeable-state property the paper's Algorithm 3 provides — and,
since PR 7, byte-associatively for key-disjoint shards, so the fold
order over a partitioned workload cannot change the result bytes).
QUERY runs any of the nine task consumers against an aggregate, FETCH
returns an aggregate's wire blob for client-side merging, and
HEALTH/READY are load-exempt probes.

Robustness posture, in order of the request path:

* **per-connection read deadline** — a peer that connects and goes
  silent costs ``read_deadline_seconds``, then the connection closes;
* **frame CRC** — corrupted bytes are rejected with ``BAD_FRAME``
  before any decode, and the connection closes (after a bad frame the
  stream offset cannot be trusted);
* **bounded admission** — at most ``max_inflight`` requests execute at
  once; the next one is *shed* with an explicit ``RESOURCE_EXHAUSTED``
  response instead of queueing unboundedly.  Probes bypass admission so
  health checks still answer under overload;
* **idempotent PUSH** — a client-supplied ``(client_id, seq)`` pair is
  deduplicated per aggregate, so a retried PUSH (response lost, client
  resent) folds exactly once;
* **graceful drain** — :meth:`close` stops accepting, answers new
  requests with ``DRAINING`` (on open connections and on those already
  queued in the listen backlog), waits for in-flight requests to
  finish, then closes the remaining connections.

Every response carries a ``status`` from :data:`STATUSES`; the client
maps non-OK statuses onto the typed
:class:`~repro.common.errors.ServiceError` hierarchy.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from types import TracebackType
from typing import Any, Dict, Optional, Set, Tuple, Type

from repro.common.errors import (
    ConfigurationError,
    DeadlineExceededError,
    DecodeError,
    IncompatibleSketchError,
    ReproError,
    ServiceError,
    StateCorruptionError,
    TransportError,
)
from repro.core import serialization, setops
from repro.core.davinci import DaVinciSketch
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import ServiceServerMetrics
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceSink, get_default_trace_sink
from repro.service import protocol, tasks
from repro.service.deadline import Deadline

__all__ = ["SketchServer", "STATUSES"]

#: every status a response may carry
STATUSES = (
    "OK",
    "BAD_FRAME",
    "BAD_REQUEST",
    "NOT_FOUND",
    "RESOURCE_EXHAUSTED",
    "DRAINING",
    "CORRUPT_STATE",
    "DECODE_ERROR",
    "INTERNAL",
)

#: statuses the client treats as transient (retry after backoff)
RETRYABLE_STATUSES = frozenset({"RESOURCE_EXHAUSTED", "DRAINING", "BAD_FRAME"})


class _Aggregate:
    """One named aggregate: the folded sketch plus its dedup ledger."""

    __slots__ = ("lock", "sketch", "seen", "applied")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.sketch: Optional[DaVinciSketch] = None
        #: applied (client_id, seq) pairs — the PUSH idempotency ledger
        self.seen: Set[Tuple[str, int]] = set()
        #: blobs folded in (dedup hits excluded)
        self.applied = 0


class _TCPServer(socketserver.ThreadingTCPServer):
    """Plumbing subclass carrying the service reference to handlers."""

    allow_reuse_address = True
    daemon_threads = True
    #: set by SketchServer right after construction
    service: "SketchServer"


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        self.server: _TCPServer
        self.server.service._serve_connection(self.request)


class SketchServer:
    """Threaded TCP server for remote sketch aggregation.

    Parameters
    ----------
    host / port:
        Bind address; port 0 (the default) picks an ephemeral port —
        read :attr:`address` after :meth:`start`.
    max_inflight:
        Admission bound: requests executing concurrently beyond this are
        shed with ``RESOURCE_EXHAUSTED`` (probes exempt).
    read_deadline_seconds:
        Per-connection budget for reading one complete frame; an idle or
        stalled peer is disconnected when it lapses.
    drain_timeout_seconds:
        How long :meth:`close` waits for in-flight requests before
        force-closing connections.
    max_frame_bytes:
        Upper bound on accepted frame payloads.
    metrics_registry:
        Optional private registry; ``None`` uses the process default.
    trace:
        Optional private trace sink for ``service.*`` lifecycle events.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 64,
        read_deadline_seconds: float = 30.0,
        drain_timeout_seconds: float = 10.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        metrics_registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceSink] = None,
    ) -> None:
        if max_inflight < 1:
            raise ConfigurationError("max_inflight must be >= 1")
        if read_deadline_seconds <= 0:
            raise ConfigurationError(
                "read_deadline_seconds must be positive"
            )
        if drain_timeout_seconds <= 0:
            raise ConfigurationError(
                "drain_timeout_seconds must be positive"
            )
        self.max_inflight = int(max_inflight)
        self.read_deadline_seconds = float(read_deadline_seconds)
        self.drain_timeout_seconds = float(drain_timeout_seconds)
        self.max_frame_bytes = int(max_frame_bytes)
        self._obs_registry = metrics_registry
        self._obs_metrics: Optional[ServiceServerMetrics] = None
        self._trace = trace

        self._store_lock = threading.Lock()
        self._aggregates: Dict[str, _Aggregate] = {}

        self._admission = threading.Condition(threading.Lock())
        self._inflight = 0
        self._draining = False
        self._started = False
        self._conn_lock = threading.Lock()
        self._connections: Set[socket.socket] = set()

        self._tcp = _TCPServer((host, port), _Handler, bind_and_activate=True)
        self._tcp.service = self
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _observe(self) -> ServiceServerMetrics:
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.service_server_metrics(
                self._obs_registry
            )
            self._obs_metrics = bundle
        return bundle

    def _sink(self) -> TraceSink:
        return self._trace if self._trace is not None else (
            get_default_trace_sink()
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (ephemeral port resolved)."""
        addr = self._tcp.server_address
        return (str(addr[0]), int(addr[1]))

    def start(self) -> "SketchServer":
        """Begin serving on a background thread (idempotent)."""
        if self._started:
            return self
        self._started = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="sketch-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop the server; with ``drain``, let in-flight requests finish.

        Idempotent.  New requests arriving during the drain window are
        answered with ``DRAINING`` (a retryable status — a client with
        budget left fails over or retries elsewhere).
        """
        if not self._started:
            self._tcp.server_close()
            return
        with self._admission:
            already = self._draining
            self._draining = True
        if already:
            return
        self._sink().emit("service.drain.begin", inflight=self._inflight)
        self._tcp.shutdown()
        self._accept_backlog()
        deadline = time.monotonic() + (
            self.drain_timeout_seconds if drain else 0.0
        )
        with self._admission:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._admission.wait(timeout=remaining)
        with self._conn_lock:
            leftovers = list(self._connections)
        for conn in leftovers:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout_seconds)
        self._sink().emit("service.drain.end", inflight=self._inflight)

    def _accept_backlog(self) -> None:
        """Serve the connections the stopped accept loop left queued.

        A client whose handshake completed just before the drain began
        sits in the listen backlog; nothing else would accept it, so it
        would wait out its own deadline.  Each one gets a handler thread,
        which answers its requests with ``DRAINING``.
        """
        listener = self._tcp.socket
        listener.setblocking(False)
        while True:
            try:
                conn, addr = listener.accept()
            except OSError:  # backlog empty (BlockingIOError) or closed
                return
            conn.setblocking(True)
            self._tcp.process_request(conn, addr)

    def __enter__(self) -> "SketchServer":
        return self.start()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # aggregate store
    # ------------------------------------------------------------------ #
    def _get_or_create(self, name: str) -> _Aggregate:
        with self._store_lock:
            entry = self._aggregates.get(name)
            if entry is None:
                entry = _Aggregate()
                self._aggregates[name] = entry
            return entry

    def _get(self, name: str) -> Optional[_Aggregate]:
        with self._store_lock:
            return self._aggregates.get(name)

    def aggregate_names(self) -> Tuple[str, ...]:
        """Names of the aggregates the server currently holds."""
        with self._store_lock:
            return tuple(self._aggregates)

    def aggregate_state(self, name: str) -> Optional[bytes]:
        """The named aggregate's wire blob right now (None if absent/empty).

        In-process introspection for tests and benchmarks — the remote
        equivalent is the FETCH op.
        """
        entry = self._get(name)
        if entry is None:
            return None
        with entry.lock:
            if entry.sketch is None:
                return None
            return bytes(
                serialization.to_wire(entry.sketch)
            )

    # ------------------------------------------------------------------ #
    # connection loop
    # ------------------------------------------------------------------ #
    def _serve_connection(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.add(conn)
        if _obs.ENABLED:
            self._observe().connections.inc()
        try:
            while True:
                try:
                    message = protocol.recv_message(
                        conn,
                        deadline=Deadline(self.read_deadline_seconds),
                        max_frame_bytes=self.max_frame_bytes,
                        eof_ok=True,
                    )
                except DeadlineExceededError:
                    self._sink().emit(
                        "service.conn.deadline",
                        seconds=self.read_deadline_seconds,
                    )
                    return
                except TransportError as exc:
                    # The stream offset is unknown after a bad frame:
                    # answer (best-effort) and close the connection.
                    if _obs.ENABLED:
                        self._observe().frame_rejects.inc()
                    self._sink().emit(
                        "service.frame_reject", error=str(exc)
                    )
                    try:
                        protocol.send_message(
                            conn,
                            {"status": "BAD_FRAME", "error": str(exc)},
                        )
                    except ServiceError:
                        pass
                    return
                if message is None:
                    return
                header, blob = message
                response, response_blob, admitted = self._dispatch(
                    header, blob
                )
                try:
                    protocol.send_message(conn, response, response_blob)
                except ServiceError:
                    return
                finally:
                    # The slot covers the reply too: a drain that saw
                    # the count reach zero may close this connection.
                    if admitted:
                        self._release_slot()
        finally:
            with self._conn_lock:
                self._connections.discard(conn)

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(
        self, header: Dict[str, Any], blob: bytes
    ) -> Tuple[Dict[str, Any], bytes, bool]:
        """Answer one request; the flag is True when it holds a slot.

        An admitted request keeps its admission slot until the caller has
        written the reply and called :meth:`_release_slot`.
        """
        op = header.get("op")
        if not isinstance(op, str):
            return {"status": "BAD_REQUEST", "error": "missing op"}, b"", False
        observing = _obs.ENABLED
        started = time.perf_counter() if observing else 0.0

        if op in ("HEALTH", "READY"):
            response, response_blob = self._handle_probe(op)
            if observing:
                bundle = self._observe()
                bundle.requests.counter_child(op, response["status"]).inc()
                bundle.request_seconds.histogram_child(op).observe(
                    time.perf_counter() - started
                )
            return response, response_blob, False

        admitted = 0
        with self._admission:
            if self._draining:
                verdict = "DRAINING"
            elif self._inflight >= self.max_inflight:
                verdict = "RESOURCE_EXHAUSTED"
                admitted = self._inflight
            else:
                verdict = "OK"
                self._inflight += 1
                admitted = self._inflight
        if verdict == "DRAINING":
            if observing:
                self._observe().requests.counter_child(
                    op, "DRAINING"
                ).inc()
            return {
                "status": "DRAINING",
                "error": "server is draining",
            }, b"", False
        if verdict == "RESOURCE_EXHAUSTED":
            if observing:
                bundle = self._observe()
                bundle.shed.inc()
                bundle.requests.counter_child(
                    op, "RESOURCE_EXHAUSTED"
                ).inc()
            self._sink().emit("service.shed", op=op, inflight=admitted)
            return {
                "status": "RESOURCE_EXHAUSTED",
                "error": (
                    f"admission window full "
                    f"({self.max_inflight} in flight)"
                ),
            }, b"", False
        if observing:
            self._observe().inflight.set(admitted)

        try:
            response, response_blob = self._handle(op, header, blob)
        except ConfigurationError as exc:
            response, response_blob = (
                {"status": "BAD_REQUEST", "error": str(exc)},
                b"",
            )
        except StateCorruptionError as exc:
            response, response_blob = (
                {"status": "CORRUPT_STATE", "error": str(exc)},
                b"",
            )
        except IncompatibleSketchError as exc:
            response, response_blob = (
                {"status": "BAD_REQUEST", "error": str(exc)},
                b"",
            )
        except DecodeError as exc:
            response, response_blob = (
                {
                    "status": "DECODE_ERROR",
                    "error": str(exc),
                    "partial_keys": len(exc.partial),
                },
                b"",
            )
        except ReproError as exc:
            response, response_blob = (
                {"status": "INTERNAL", "error": str(exc)},
                b"",
            )
        except BaseException:
            self._release_slot()
            raise
        if observing:
            bundle = self._observe()
            bundle.requests.counter_child(op, response["status"]).inc()
            bundle.request_seconds.histogram_child(op).observe(
                time.perf_counter() - started
            )
        return response, response_blob, True

    def _release_slot(self) -> None:
        """Give back one admission slot and wake a waiting drain."""
        with self._admission:
            self._inflight -= 1
            remaining_inflight = self._inflight
            self._admission.notify_all()
        if _obs.ENABLED:
            self._observe().inflight.set(remaining_inflight)

    def _handle_probe(self, op: str) -> Tuple[Dict[str, Any], bytes]:
        draining = self._draining
        if op == "READY":
            status = "DRAINING" if draining else "OK"
            return {"status": status, "draining": draining}, b""
        with self._store_lock:
            aggregates = len(self._aggregates)
        return {
            "status": "OK",
            "draining": draining,
            "aggregates": aggregates,
            "inflight": self._inflight,
        }, b""

    def _handle(
        self, op: str, header: Dict[str, Any], blob: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        if op == "PUSH":
            return self._handle_push(header, blob)
        if op == "QUERY":
            return self._handle_query(header)
        if op == "FETCH":
            return self._handle_fetch(header)
        return {"status": "BAD_REQUEST", "error": f"unknown op {op!r}"}, b""

    @staticmethod
    def _aggregate_name(header: Dict[str, Any]) -> str:
        name = header.get("aggregate")
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                "request needs a non-empty 'aggregate' name"
            )
        return name

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    def _handle_push(
        self, header: Dict[str, Any], blob: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        name = self._aggregate_name(header)
        if not blob:
            raise ConfigurationError("PUSH carries no sketch blob")
        client_id = header.get("client_id")
        seq = header.get("seq")
        dedup_key: Optional[Tuple[str, int]] = None
        if isinstance(client_id, str) and isinstance(seq, int):
            dedup_key = (client_id, seq)
        entry = self._get_or_create(name)
        with entry.lock:
            duplicate = dedup_key is not None and dedup_key in entry.seen
            if not duplicate:
                incoming = serialization.from_wire(blob)
                if entry.sketch is None:
                    entry.sketch = incoming
                else:
                    entry.sketch = setops.union(entry.sketch, incoming)
                entry.applied += 1
                if dedup_key is not None:
                    entry.seen.add(dedup_key)
            applied = entry.applied
        if duplicate:
            if _obs.ENABLED:
                self._observe().pushes_deduplicated.inc()
            self._sink().emit(
                "service.push.dedup",
                aggregate=name,
                client_id=client_id,
                seq=seq,
            )
        elif _obs.ENABLED:
            self._observe().pushes_applied.inc()
        return {
            "status": "OK",
            "duplicate": duplicate,
            "applied": applied,
        }, b""

    def _locked_sketches(
        self, name: str, other_name: Optional[str]
    ) -> Tuple[_Aggregate, Optional[_Aggregate]]:
        entry = self._get(name)
        if entry is None:
            return entry, None  # type: ignore[return-value]
        other = None
        if other_name is not None:
            other = self._get(other_name)
        return entry, other

    def _handle_query(
        self, header: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bytes]:
        name = self._aggregate_name(header)
        task = header.get("task")
        other_name = header.get("other")
        tasks.check_task(task, other_name)
        policy = tasks.parse_policy(header.get("policy"))
        args = header.get("args") or {}
        if not isinstance(args, dict):
            raise ConfigurationError("'args' must be an object")
        if other_name is not None and not isinstance(other_name, str):
            raise ConfigurationError("'other' must be an aggregate name")

        entry = self._get(name)
        if entry is None or entry.sketch is None:
            return {
                "status": "NOT_FOUND",
                "error": f"no aggregate named {name!r}",
            }, b""
        other_entry: Optional[_Aggregate] = None
        if task in tasks.PAIR_TASKS:
            other_entry = self._get(str(other_name))
            if other_entry is None or other_entry.sketch is None:
                return {
                    "status": "NOT_FOUND",
                    "error": f"no aggregate named {other_name!r}",
                }, b""

        # Lock both entries in a global (name-sorted) order; RLocks make
        # the self-pair case (other == aggregate) safe.
        locks = {id(entry.lock): (name, entry.lock)}
        if other_entry is not None:
            locks[id(other_entry.lock)] = (str(other_name), other_entry.lock)
        ordered = [lock for _, lock in sorted(locks.values())]
        for lock in ordered:
            lock.acquire()
        try:
            result = tasks.run_task(
                entry.sketch,
                task,
                other=other_entry.sketch if other_entry is not None else None,
                policy=policy,
                **args,
            )
        finally:
            for lock in reversed(ordered):
                lock.release()
        value, degraded, reason = tasks.split_degraded(result)
        response: Dict[str, Any] = {
            "status": "OK",
            "degraded": degraded,
            "reason": reason,
        }
        if task in tasks.SKETCH_TASKS:
            assert_sketch = value  # a DaVinciSketch by construction
            return response, bytes(
                serialization.to_wire(assert_sketch)
            )
        response["value"] = tasks.encode_value(task, value)
        return response, b""

    def _handle_fetch(
        self, header: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bytes]:
        name = self._aggregate_name(header)
        entry = self._get(name)
        if entry is None or entry.sketch is None:
            return {
                "status": "NOT_FOUND",
                "error": f"no aggregate named {name!r}",
            }, b""
        with entry.lock:
            blob = bytes(
                serialization.to_wire(entry.sketch)
            )
            applied = entry.applied
        return {"status": "OK", "applied": applied}, blob
