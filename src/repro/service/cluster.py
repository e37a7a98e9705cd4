"""Fan-out queries over a cluster of aggregation endpoints.

A partitioned workload lands on several :class:`SketchServer` instances
(key-disjoint shards, the :func:`repro.runtime.sharded.merge_tree`
regime).  A :class:`ClusterQuerier` answers a task over the *whole*
population by fetching each endpoint's aggregate blob, merging locally,
and running the task — and it is where the service layer's typed errors
meet the degradation contract:

* ``policy=None`` or ``STRICT``: any unreachable or corrupt shard
  re-raises its typed error.  The answer is all-shards-or-nothing.
* ``DEGRADE``: merge whatever shards answered, run the task with the
  policy, and return a :class:`~repro.core.degrade.DegradedResult`
  whose reason names every missing shard and why it is missing.
* ``BEST_EFFORT``: like ``DEGRADE``, and if *zero* shards are usable a
  scalar task still answers with its neutral fallback value rather
  than raising (sketch-valued tasks have no neutral value and raise).

A shard can be missing for service reasons (connect refused, retries
exhausted, breaker open, deadline spent, server NOT_FOUND) or for state
reasons — the fetched blob's embedded digest fails verification and
:func:`~repro.core.serialization.from_wire` raises
:class:`~repro.common.errors.StateCorruptionError`.  Both funnel into
the same degraded answer instead of escaping a BEST_EFFORT caller.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    ConfigurationError,
    ServiceError,
    StateCorruptionError,
)
from repro.core import serialization
from repro.core.davinci import DaVinciSketch
from repro.core.degrade import DegradationPolicy, DegradedResult
from repro.observability.tracing import TraceSink, get_default_trace_sink
from repro.runtime.sharded import merge_tree
from repro.service import tasks
from repro.service.client import AggregationClient
from repro.service.deadline import Deadline

__all__ = ["ClusterQuerier"]


class ClusterQuerier:
    """Degradation-aware task fan-out over fixed endpoints."""

    def __init__(
        self,
        clients: Sequence[AggregationClient],
        *,
        trace: Optional[TraceSink] = None,
    ) -> None:
        if not clients:
            raise ConfigurationError(
                "a ClusterQuerier needs at least one client"
            )
        self.clients = tuple(clients)
        self._trace = trace

    def _sink(self) -> TraceSink:
        return self._trace if self._trace is not None else (
            get_default_trace_sink()
        )

    # ------------------------------------------------------------------ #
    # shard collection
    # ------------------------------------------------------------------ #
    def _collect(
        self,
        aggregate: str,
        deadline: Deadline,
    ) -> Tuple[List[DaVinciSketch], List[Tuple[str, Exception]]]:
        """Fetch+decode ``aggregate`` from every endpoint.

        Returns ``(shards, failures)`` where failures pair the endpoint
        label with the typed error that lost it.
        """
        shards: List[DaVinciSketch] = []
        failures: List[Tuple[str, Exception]] = []
        for client in self.clients:
            try:
                budget = deadline.require(f"fetch from {client.endpoint}")
                blob = client.fetch_blob(
                    aggregate, deadline_seconds=budget
                )
                shards.append(serialization.from_wire(blob))
            except (ServiceError, StateCorruptionError) as exc:
                failures.append((client.endpoint, exc))
                self._sink().emit(
                    "service.cluster.shard_failed",
                    endpoint=client.endpoint,
                    aggregate=aggregate,
                    error=str(exc),
                    kind=type(exc).__name__,
                )
        return shards, failures

    @staticmethod
    def _missing_reason(
        aggregate: str, failures: List[Tuple[str, Exception]]
    ) -> str:
        parts = ", ".join(
            f"{endpoint} ({type(exc).__name__}: {exc})"
            for endpoint, exc in failures
        )
        return f"missing shards for {aggregate!r}: {parts}"

    def _merged(
        self,
        aggregate: str,
        deadline: Deadline,
        policy: Optional[DegradationPolicy],
    ) -> Tuple[Optional[DaVinciSketch], Optional[str]]:
        """The cluster-wide merge of one aggregate, honoring ``policy``.

        Returns ``(sketch, reason)``; ``sketch`` is ``None`` only when
        every shard failed under a lenient policy, and ``reason``
        carries the missing-shard description (``None`` when complete).
        """
        shards, failures = self._collect(aggregate, deadline)
        if failures and (
            policy is None or policy is DegradationPolicy.STRICT
        ):
            raise failures[0][1]
        if not shards:
            return None, self._missing_reason(aggregate, failures)
        merged = merge_tree(shards) if len(shards) > 1 else shards[0]
        if failures:
            return merged, self._missing_reason(aggregate, failures)
        return merged, None

    # ------------------------------------------------------------------ #
    # the public query
    # ------------------------------------------------------------------ #
    def query(
        self,
        aggregate: str,
        task: str,
        *,
        other: Optional[str] = None,
        policy: Optional[DegradationPolicy] = None,
        deadline_seconds: float = 30.0,
        **args: Any,
    ) -> Any:
        """Answer ``task`` over the union of every endpoint's shard.

        Mirrors :meth:`AggregationClient.query`'s return contract:
        plain value with ``policy=None``, ``DegradedResult`` otherwise.
        """
        tasks.check_task(task, other)
        deadline = Deadline(deadline_seconds)
        reasons: List[str] = []

        sketch, reason = self._merged(aggregate, deadline, policy)
        if reason is not None:
            reasons.append(reason)
        other_sketch: Optional[DaVinciSketch] = None
        if task in tasks.PAIR_TASKS:
            other_sketch, other_reason = self._merged(
                str(other), deadline, policy
            )
            if other_reason is not None:
                reasons.append(other_reason)

        missing_everything = sketch is None or (
            task in tasks.PAIR_TASKS and other_sketch is None
        )
        if missing_everything:
            # Only reachable under DEGRADE/BEST_EFFORT (STRICT raised in
            # _merged); DEGRADE still needs data to degrade *from*.
            if policy is DegradationPolicy.BEST_EFFORT:
                value = tasks.neutral_fallback(task)
                result: Any = DegradedResult(
                    value=value,
                    degraded=True,
                    reason="; ".join(reasons),
                )
                self._emit_query(aggregate, task, result)
                return result
            raise ServiceError(
                f"no usable shards for task {task!r}: "
                + "; ".join(reasons)
            )

        raw = tasks.run_task(
            sketch, task, other=other_sketch, policy=policy, **args
        )
        if policy is None:
            self._emit_query(aggregate, task, raw)
            return raw
        value, degraded, task_reason = tasks.split_degraded(raw)
        if task_reason is not None:
            reasons.append(task_reason)
        result = DegradedResult(
            value=value,
            degraded=degraded or bool(reasons),
            reason="; ".join(reasons) if reasons else None,
        )
        self._emit_query(aggregate, task, result)
        return result

    def _emit_query(self, aggregate: str, task: str, result: Any) -> None:
        degraded = (
            result.degraded if isinstance(result, DegradedResult) else False
        )
        self._sink().emit(
            "service.cluster.query",
            aggregate=aggregate,
            task=task,
            endpoints=len(self.clients),
            degraded=degraded,
        )
