"""Fault-tolerant remote sketch aggregation (client/server layer).

The building blocks, bottom-up:

* :mod:`repro.service.deadline` — end-to-end time budgets;
* :mod:`repro.service.protocol` — length-prefixed CRC-framed messages;
* :mod:`repro.service.retry` — attempt budgets with decorrelated jitter;
* :mod:`repro.service.breaker` — per-endpoint circuit breaking;
* :mod:`repro.service.tasks` — the nine task names and their JSON
  encoding;
* :mod:`repro.service.server` — :class:`SketchServer`, named aggregates
  behind bounded admission, read deadlines and idempotent PUSH;
* :mod:`repro.service.client` — :class:`AggregationClient`, one
  endpoint behind retries and a breaker;
* :mod:`repro.service.cluster` — :class:`ClusterQuerier`, degradation-
  aware fan-out over many endpoints.

See ``docs/SERVICE.md`` for the frame layout, the retry/idempotency
contract, the breaker state machine and chaos-testing guidance.
"""

from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.client import AggregationClient
from repro.service.cluster import ClusterQuerier
from repro.service.deadline import Deadline
from repro.service.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.service.server import RETRYABLE_STATUSES, STATUSES, SketchServer

__all__ = [
    "AggregationClient",
    "CircuitBreaker",
    "ClusterQuerier",
    "Deadline",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "SketchServer",
    "STATUSES",
    "RETRYABLE_STATUSES",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]
