"""Fault-tolerant client for one :class:`~repro.service.server.SketchServer`.

Every public call is one *logical operation* executed under a single
end-to-end :class:`~repro.service.deadline.Deadline`, a
:class:`~repro.service.retry.RetryPolicy`, and this endpoint's
:class:`~repro.service.breaker.CircuitBreaker`:

1. The breaker is consulted first — an open breaker fails locally with
   :class:`~repro.common.errors.CircuitOpenError`, no bytes sent.
2. Each attempt opens a fresh connection (a retried attempt must not
   inherit a half-poisoned stream), sends one frame, reads one frame.
3. Transport faults and the retryable server statuses
   (``RESOURCE_EXHAUSTED``, ``DRAINING``, ``BAD_FRAME``) feed the
   breaker's failure window and are retried after decorrelated-jitter
   backoff — but only for idempotent-safe requests.  Reads are
   naturally idempotent; PUSH is *made* idempotent by a client-supplied
   ``(client_id, seq)`` pair the server deduplicates, so a retry whose
   predecessor's response was lost folds exactly once.
4. Definitive server answers (``NOT_FOUND``, ``BAD_REQUEST``, ...)
   count as breaker *successes* — the endpoint is healthy, the request
   was wrong — and surface as :class:`~repro.common.errors.RemoteError`.
5. When the attempt budget runs out first the caller gets
   :class:`~repro.common.errors.RetryExhaustedError`; when the deadline
   runs out first, :class:`~repro.common.errors.DeadlineExceededError`
   — both carrying the last underlying fault.

The jitter RNG is injected per the package's ``resolve_rng`` convention
and the backoff sleep function is injectable, so tests pin exact retry
schedules without sleeping.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.common.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    RemoteError,
    RetryExhaustedError,
    ServiceError,
    TransportError,
)
from repro.core import serialization
from repro.core.davinci import DaVinciSketch
from repro.core.degrade import DegradationPolicy, DegradedResult
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import ServiceClientMetrics
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceSink, get_default_trace_sink
from repro.service import protocol, tasks
from repro.service.breaker import CircuitBreaker
from repro.service.deadline import Deadline
from repro.service.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.service.server import RETRYABLE_STATUSES

__all__ = ["AggregationClient"]


class AggregationClient:
    """Deadline-aware, retrying, breaker-guarded aggregation client.

    Parameters
    ----------
    host / port:
        The endpoint (one client = one endpoint = one breaker).
    retry_policy:
        Attempt/backoff/deadline defaults for every logical call.
    breaker:
        This endpoint's circuit breaker; ``None`` builds a default one.
    client_id:
        Stable identity for PUSH idempotency; ``None`` derives one from
        the jitter RNG (deterministic under an injected ``rng``).
    rng:
        Optional injected jitter RNG (``resolve_rng`` convention).
    sleep:
        Backoff sleep function (injectable for virtual-clock tests).
    connect_host / connect_port:
        Optional dial override: the TCP address actually connected to
        (a chaos proxy in front of ``host:port``) while logical
        identity stays with the endpoint.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        breaker: Optional[CircuitBreaker] = None,
        client_id: Optional[str] = None,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
        metrics_registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceSink] = None,
        connect_host: Optional[str] = None,
        connect_port: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self._dial = (
            connect_host if connect_host is not None else host,
            int(connect_port) if connect_port is not None else int(port),
        )
        self.retry_policy = retry_policy
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._rng = retry_policy.rng(rng)
        self._sleep = sleep
        self.client_id = (
            client_id
            if client_id is not None
            else f"client-{self._rng.getrandbits(48):012x}"
        )
        self._seq = itertools.count(1)
        self._obs_registry = metrics_registry
        self._obs_metrics: Optional[ServiceClientMetrics] = None
        self._trace = trace
        self.breaker.subscribe(self._on_breaker_transition)

    @property
    def endpoint(self) -> str:
        """``host:port`` label used in traces and degradation reasons."""
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _observe(self) -> ServiceClientMetrics:
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.service_client_metrics(
                self._obs_registry
            )
            self._obs_metrics = bundle
        return bundle

    def _sink(self) -> TraceSink:
        return self._trace if self._trace is not None else (
            get_default_trace_sink()
        )

    def _on_breaker_transition(self, previous: str, new_state: str) -> None:
        if _obs.ENABLED:
            self._observe().breaker_transitions.counter_child(
                new_state
            ).inc()
        self._sink().emit(
            "service.breaker.transition",
            endpoint=self.endpoint,
            previous=previous,
            state=new_state,
        )

    # ------------------------------------------------------------------ #
    # the retry loop
    # ------------------------------------------------------------------ #
    def _attempt(
        self,
        header: Dict[str, Any],
        blob: bytes,
        deadline: Deadline,
    ) -> Tuple[Dict[str, Any], bytes]:
        """One connection, one request frame, one response frame.

        With ``attempt_timeout_seconds`` set, the attempt's I/O runs
        under the *smaller* of the per-attempt cap and the remaining
        overall budget — a black-holed connection then costs one
        attempt, not the whole deadline.
        """
        cap = self.retry_policy.attempt_timeout_seconds
        if cap is not None:
            deadline = Deadline(min(cap, deadline.require("attempt")))
        timeout = min(
            protocol.DEFAULT_IO_TIMEOUT, deadline.require("connect")
        )
        try:
            sock = socket.create_connection(self._dial, timeout=timeout)
        except socket.timeout as exc:
            raise DeadlineExceededError(
                f"deadline expired connecting to {self.endpoint}",
                last_error=exc,
            ) from exc
        except OSError as exc:
            raise TransportError(
                f"connect to {self.endpoint} failed: {exc}"
            ) from exc
        try:
            protocol.send_message(sock, header, blob, deadline=deadline)
            message = protocol.recv_message(sock, deadline=deadline)
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
        if message is None:  # pragma: no cover - eof_ok=False upstream
            raise TransportError("connection closed before a response")
        return message

    def _call(
        self,
        op: str,
        header: Dict[str, Any],
        blob: bytes = b"",
        *,
        idempotent: bool = True,
        deadline_seconds: Optional[float] = None,
    ) -> Tuple[Dict[str, Any], bytes]:
        policy = self.retry_policy
        deadline = Deadline(
            deadline_seconds
            if deadline_seconds is not None
            else policy.deadline_seconds
        )
        observing = _obs.ENABLED
        started = time.perf_counter() if observing else 0.0
        last_error: Optional[ServiceError] = None
        backoff = 0.0
        attempts = 0
        while attempts < policy.max_attempts:
            deadline.require(op, last_error)
            if not self.breaker.allow():
                if observing:
                    self._observe().errors.counter_child(
                        "CircuitOpenError"
                    ).inc()
                raise CircuitOpenError(
                    f"circuit open for {self.endpoint}; refusing {op}"
                    + (f" (last error: {last_error})" if last_error else "")
                )
            attempts += 1
            if observing:
                self._observe().attempts.counter_child(op).inc()
            try:
                response, response_blob = self._attempt(
                    header, blob, deadline
                )
            except DeadlineExceededError as exc:
                self.breaker.record_failure()
                if observing:
                    self._observe().errors.counter_child(
                        type(exc).__name__
                    ).inc()
                if deadline.expired():
                    # The overall budget died: no retry can help.
                    if last_error is not None and exc.last_error is None:
                        raise DeadlineExceededError(
                            str(exc), last_error=last_error
                        ) from exc
                    raise
                # Only the per-attempt cap fired; budget remains.
                if not idempotent:
                    raise
                last_error = exc
            except TransportError as exc:
                self.breaker.record_failure()
                if observing:
                    self._observe().errors.counter_child(
                        type(exc).__name__
                    ).inc()
                if not idempotent:
                    raise
                last_error = exc
            else:
                status = response.get("status")
                if status == "OK":
                    self.breaker.record_success()
                    if observing:
                        bundle = self._observe()
                        bundle.request_seconds.histogram_child(op).observe(
                            time.perf_counter() - started
                        )
                    return response, response_blob
                if status in RETRYABLE_STATUSES and idempotent:
                    # Transient server condition: shedding or draining.
                    self.breaker.record_failure()
                    if observing:
                        self._observe().errors.counter_child(
                            str(status)
                        ).inc()
                    last_error = RemoteError(
                        str(status), str(response.get("error", ""))
                    )
                else:
                    # A definitive answer from a healthy endpoint.
                    if status in RETRYABLE_STATUSES:
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
                    if observing:
                        self._observe().errors.counter_child(
                            str(status)
                        ).inc()
                    raise RemoteError(
                        str(status), str(response.get("error", ""))
                    )
            if attempts >= policy.max_attempts:
                break
            backoff = policy.backoff(backoff, self._rng)
            sleep_for = min(backoff, deadline.remaining())
            if observing:
                self._observe().retries.counter_child(op).inc()
            self._sink().emit(
                "service.retry",
                endpoint=self.endpoint,
                op=op,
                attempt=attempts,
                backoff_seconds=sleep_for,
                error=str(last_error),
            )
            if sleep_for > 0:
                self._sleep(sleep_for)
        raise RetryExhaustedError(
            f"{op} to {self.endpoint} failed after {attempts} attempts"
            + (f" (last error: {last_error})" if last_error else ""),
            last_error=last_error,
            attempts=attempts,
        )

    # ------------------------------------------------------------------ #
    # public operations
    # ------------------------------------------------------------------ #
    def push(
        self,
        aggregate: str,
        sketch: Union[DaVinciSketch, bytes],
        *,
        deadline_seconds: Optional[float] = None,
        seq: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Union-fold one sketch (or pre-encoded wire blob) remotely.

        Returns the server's response dict plus the ``seq`` this push
        used: ``duplicate`` says whether the server had already applied
        this sequence id (a retry whose original response was lost),
        ``applied`` how many distinct blobs the aggregate has folded.

        A caller retrying a push whose *whole logical call* failed
        (deadline spent, retries exhausted) must pass the same ``seq``
        back in — the delivery is then at-most-once even across logical
        retries, because the server's dedup ledger absorbs the case
        where the original was applied but its response lost.
        """
        if isinstance(sketch, (bytes, bytearray, memoryview)):
            blob = bytes(sketch)
        else:
            blob = bytes(serialization.to_wire(sketch))
        if seq is None:
            seq = next(self._seq)
        header = {
            "op": "PUSH",
            "aggregate": aggregate,
            "client_id": self.client_id,
            "seq": seq,
        }
        response, _ = self._call(
            "PUSH", header, blob, deadline_seconds=deadline_seconds
        )
        return {"seq": seq, **response}

    def query(
        self,
        aggregate: str,
        task: str,
        *,
        other: Optional[str] = None,
        policy: Optional[DegradationPolicy] = None,
        deadline_seconds: Optional[float] = None,
        **args: Any,
    ) -> Any:
        """Run one named task against a remote aggregate.

        With ``policy=None`` returns the plain task value (historical
        contract); with a policy returns a
        :class:`~repro.core.degrade.DegradedResult` reconstructed from
        the server's answer.  Sketch-valued tasks (union/difference)
        return a decoded :class:`DaVinciSketch`.
        """
        tasks.check_task(task, other)
        header: Dict[str, Any] = {
            "op": "QUERY",
            "aggregate": aggregate,
            "task": task,
            "args": args,
        }
        if policy is not None:
            header["policy"] = policy.value
        if other is not None:
            header["other"] = other
        response, blob = self._call(
            "QUERY", header, deadline_seconds=deadline_seconds
        )
        if task in tasks.SKETCH_TASKS:
            value: Any = serialization.from_wire(blob)
        else:
            value = tasks.decode_value(task, response.get("value"))
        if policy is None:
            return value
        return DegradedResult(
            value=value,
            degraded=bool(response.get("degraded", False)),
            reason=response.get("reason"),
        )

    def fetch_blob(
        self,
        aggregate: str,
        *,
        deadline_seconds: Optional[float] = None,
    ) -> bytes:
        """The aggregate's wire-v3 blob (for client-side merging)."""
        header = {"op": "FETCH", "aggregate": aggregate}
        _, blob = self._call(
            "FETCH", header, deadline_seconds=deadline_seconds
        )
        return blob

    def health(
        self, *, deadline_seconds: Optional[float] = None
    ) -> Dict[str, Any]:
        """The server's HEALTH probe response (admission-exempt)."""
        response, _ = self._call(
            "HEALTH", {"op": "HEALTH"}, deadline_seconds=deadline_seconds
        )
        return response

    def ready(self, *, deadline_seconds: Optional[float] = None) -> bool:
        """True when the endpoint answers READY with OK (not draining)."""
        try:
            self._call(
                "READY", {"op": "READY"}, deadline_seconds=deadline_seconds
            )
        except ServiceError:
            return False
        return True
