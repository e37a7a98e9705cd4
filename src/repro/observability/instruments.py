"""Pre-wired metric bundles for the instrumented layers.

Each instrumented component (frequent part, element filter, infrequent
part, the DaVinci facade, the durable ingestor) lazily creates one bundle
the first time it is touched while metrics are enabled.  A bundle is a
``__slots__`` object whose attributes are the already-resolved
:class:`~repro.observability.metrics.Counter` /
:class:`~repro.observability.metrics.Gauge` /
:class:`~repro.observability.metrics.Histogram` children, so the armed
hot path pays one attribute load + one ``inc`` per recorded fact — no
name lookups, no label resolution.

Metric names are the package's stable telemetry catalog (documented in
``docs/OBSERVABILITY.md``); they follow Prometheus conventions
(``*_total`` counters, ``*_seconds`` histograms, unit-suffixed gauges).

Registration is get-or-create, so several sketches sharing the default
registry aggregate into the same counters — the normal Prometheus
posture.  Occupancy/saturation gauges are *callback* gauges reading live
structure state at snapshot time (zero insert-path cost); when several
sketches share one registry the last-bound callback wins, so give each
sketch its own registry (the per-sketch override) when you need per
-instance occupancy.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    get_default_registry,
)

__all__ = [
    "DaVinciMetrics",
    "ElementFilterMetrics",
    "FrequentPartMetrics",
    "InfrequentPartMetrics",
    "IngestorMetrics",
    "ServiceClientMetrics",
    "ServiceServerMetrics",
    "ShardedMetrics",
    "davinci_metrics",
    "element_filter_metrics",
    "frequent_part_metrics",
    "infrequent_part_metrics",
    "ingestor_metrics",
    "service_client_metrics",
    "service_server_metrics",
    "sharded_metrics",
]

#: checkpoint/recovery operations span micro-seconds to many seconds
DURABILITY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def _registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    return registry if registry is not None else get_default_registry()


class FrequentPartMetrics:
    """Counters/gauges for Algorithm 1 (the exact hash table)."""

    __slots__ = ("inserts", "cases", "evictions", "demotions")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.inserts: Counter = registry.counter(
            "davinci_fp_inserts_total",
            "Pairs offered to the frequent part (per aggregated arrival)",
        )
        self.cases: MetricFamily = registry.counter_family(
            "davinci_fp_insert_cases_total",
            "Algorithm-1 branch taken per FP insertion",
            ("case",),
        )
        self.evictions: Counter = registry.counter(
            "davinci_fp_evictions_total",
            "Case-3 evictions (a resident was replaced and demoted)",
        )
        self.demotions: Counter = registry.counter(
            "davinci_fp_demotions_total",
            "Pairs pushed down into the element filter (cases 3 and 4)",
        )


def frequent_part_metrics(
    registry: Optional[MetricsRegistry], fp: Any
) -> FrequentPartMetrics:
    """Bundle for one :class:`~repro.core.frequent_part.FrequentPart`.

    Also binds the live occupancy gauges to ``fp`` (callback gauges, read
    at snapshot time).
    """
    resolved = _registry(registry)
    bundle = FrequentPartMetrics(resolved)
    occupancy: Gauge = resolved.gauge(
        "davinci_fp_occupancy_entries",
        "Resident FP entries right now (live callback gauge)",
    )
    occupancy.set_function(lambda: len(fp))
    fraction: Gauge = resolved.gauge(
        "davinci_fp_occupancy_fraction",
        "Resident FP entries / capacity (live callback gauge)",
    )
    fraction.set_function(lambda: len(fp) / fp.capacity)
    flagged: Gauge = resolved.gauge(
        "davinci_fp_flagged_buckets",
        "FP buckets that have ever evicted an entry (live callback gauge)",
    )
    flagged.set_function(fp.flagged_buckets)
    return bundle


class ElementFilterMetrics:
    """Counters/gauges for the TowerSketch filter and its threshold gate."""

    __slots__ = ("offers", "absorbed_units", "overflow_units", "crossings")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.offers: Counter = registry.counter(
            "davinci_ef_offers_total",
            "Demoted pairs offered to the element filter",
        )
        self.absorbed_units: Counter = registry.counter(
            "davinci_ef_absorbed_units_total",
            "Count units retained by the filter (first-T mass)",
        )
        self.overflow_units: Counter = registry.counter(
            "davinci_ef_overflow_units_total",
            "Count units overflowed past the threshold into the IFP",
        )
        self.crossings: Counter = registry.counter(
            "davinci_ef_threshold_crossings_total",
            "Offers that pushed an element's filter estimate up to T",
        )


def element_filter_metrics(
    registry: Optional[MetricsRegistry], ef: Any
) -> ElementFilterMetrics:
    """Bundle for one :class:`~repro.core.element_filter.ElementFilter`.

    Binds one saturation callback gauge per tower level.
    """
    resolved = _registry(registry)
    bundle = ElementFilterMetrics(resolved)
    family = resolved.gauge_family(
        "davinci_ef_level_saturation",
        "Fraction of a tower level's counters at their cap (live)",
        ("level",),
    )

    def _saturation(level: int) -> Callable[[], float]:
        def read() -> float:
            counters = ef.levels[level]
            cap = ef.level_caps[level]
            return sum(1 for value in counters if value >= cap) / len(counters)

        return read

    for level in range(ef.num_levels):
        family.gauge_child(level=level).set_function(_saturation(level))
    return bundle


class InfrequentPartMetrics:
    """Counters/gauges for the counting Fermat sketch and its peel."""

    __slots__ = (
        "inserts",
        "inserted_units",
        "decodes",
        "decode_complete",
        "decode_incomplete",
        "decode_budget_exhausted",
        "decode_inversions",
        "peeled_buckets",
        "peel_failures",
        "peel_rounds",
        "crossval_rejections",
        "residual_buckets",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.inserts: Counter = registry.counter(
            "davinci_ifp_inserts_total",
            "Promoted pairs encoded into the infrequent part",
        )
        self.inserted_units: Counter = registry.counter(
            "davinci_ifp_inserted_units_total",
            "Count units encoded into the infrequent part",
        )
        self.decodes: Counter = registry.counter(
            "davinci_ifp_decodes_total",
            "Full Algorithm-5 decode attempts",
        )
        self.decode_complete: Counter = registry.counter(
            "davinci_ifp_decode_complete_total",
            "Decodes whose peel emptied every bucket",
        )
        self.decode_incomplete: Counter = registry.counter(
            "davinci_ifp_decode_incomplete_total",
            "Decodes that ended with residual buckets (a stall or a cut)",
        )
        self.decode_budget_exhausted: Counter = registry.counter(
            "davinci_ifp_decode_budget_exhausted_total",
            "Incomplete decodes cut by the peel's visit budget while still "
            "peeling, not by a stall",
        )
        self.decode_inversions: Counter = registry.counter(
            "davinci_ifp_decode_inversions_total",
            "Peel-wave bucket visits whose purity test needed a field "
            "inversion: |icnt| too large for the exact-division screen",
        )
        self.peeled_buckets: Counter = registry.counter(
            "davinci_ifp_peeled_buckets_total",
            "Pure-bucket decode successes (one element peeled each)",
        )
        self.peel_failures: Counter = registry.counter(
            "davinci_ifp_peel_failures_total",
            "Bucket visits of a peel wave that found the bucket not pure",
        )
        self.peel_rounds: Counter = registry.counter(
            "davinci_ifp_peel_rounds_total",
            "Bucket visits across all peel waves of all decodes (peel work; "
            "a bucket counts once per wave that holds it)",
        )
        self.crossval_rejections: Counter = registry.counter(
            "davinci_ifp_crossvalidation_rejections_total",
            "Pure-looking candidates rejected by the canDecode validator",
        )
        self.residual_buckets: Gauge = registry.gauge(
            "davinci_ifp_residual_buckets",
            "Residual (undecodable) buckets after the latest decode",
        )


def infrequent_part_metrics(
    registry: Optional[MetricsRegistry], ifp: Any
) -> InfrequentPartMetrics:
    """Bundle for one :class:`~repro.core.infrequent_part.InfrequentPart`.

    Binds a live occupancy gauge (non-empty buckets).
    """
    resolved = _registry(registry)
    bundle = InfrequentPartMetrics(resolved)
    occupancy: Gauge = resolved.gauge(
        "davinci_ifp_nonzero_buckets",
        "Non-empty IFP buckets right now (live callback gauge)",
    )
    occupancy.set_function(lambda: ifp.nonzero_buckets())
    return bundle


class DaVinciMetrics:
    """Facade-level counters and per-task latency histograms."""

    __slots__ = (
        "inserts",
        "items",
        "cache_hits",
        "cache_misses",
        "kernel_chunks",
        "task_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.inserts: Counter = registry.counter(
            "davinci_inserts_total",
            "Pairs accepted by DaVinciSketch.insert/insert_batch",
        )
        self.items: Counter = registry.counter(
            "davinci_items_total",
            "Count units accepted (sums the per-pair counts)",
        )
        self.cache_hits: Counter = registry.counter(
            "davinci_decode_cache_hits_total",
            "decode_result() calls served from the decode cache",
        )
        self.cache_misses: Counter = registry.counter(
            "davinci_decode_cache_misses_total",
            "decode_result() calls that ran a fresh Algorithm-5 peel",
        )
        self.kernel_chunks: MetricFamily = registry.counter_family(
            "davinci_kernel_chunks_total",
            "Bulk ingestion chunks, labeled by the path that applied them "
            "(array, or the per-item fallback: object)",
            ("kernel",),
        )
        self.task_seconds: MetricFamily = registry.histogram_family(
            "davinci_task_seconds",
            "Wall-clock latency of one task-level query",
            ("task",),
        )


def davinci_metrics(registry: Optional[MetricsRegistry]) -> DaVinciMetrics:
    """Bundle for one :class:`~repro.core.davinci.DaVinciSketch`."""
    return DaVinciMetrics(_registry(registry))


class IngestorMetrics:
    """Durability telemetry for the checkpointing ingestor."""

    __slots__ = (
        "journal_append_seconds",
        "journal_records",
        "fsyncs",
        "checkpoint_seconds",
        "checkpoints",
        "ingested_items",
        "recoveries",
        "replayed_records",
        "replayed_items",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.journal_append_seconds: Histogram = registry.histogram(
            "runtime_journal_append_seconds",
            "Latency of one journal record append (encode+write+fsync)",
            buckets=DURABILITY_BUCKETS,
        )
        self.journal_records: Counter = registry.counter(
            "runtime_journal_records_total",
            "Journal records durably appended",
        )
        self.fsyncs: Counter = registry.counter(
            "runtime_fsyncs_total",
            "fsync(2) calls issued by the durability protocol",
        )
        self.checkpoint_seconds: Histogram = registry.histogram(
            "runtime_checkpoint_seconds",
            "Latency of one atomic checkpoint (serialize+write+replace)",
            buckets=DURABILITY_BUCKETS,
        )
        self.checkpoints: Counter = registry.counter(
            "runtime_checkpoints_total",
            "Atomic checkpoints completed",
        )
        self.ingested_items: Counter = registry.counter(
            "runtime_ingested_items_total",
            "Pairs durably journaled and applied to the sketch",
        )
        self.recoveries: Counter = registry.counter(
            "runtime_recoveries_total",
            "Constructor recoveries that found existing on-disk state",
        )
        self.replayed_records: Gauge = registry.gauge(
            "runtime_recovery_replayed_records",
            "Journal records replayed by the most recent recovery",
        )
        self.replayed_items: Gauge = registry.gauge(
            "runtime_recovery_replayed_items",
            "Pairs replayed from the journal by the most recent recovery",
        )


def ingestor_metrics(registry: Optional[MetricsRegistry]) -> IngestorMetrics:
    """Bundle for one :class:`~repro.runtime.ingestor.CheckpointingIngestor`."""
    return IngestorMetrics(_registry(registry))


class ShardedMetrics:
    """Telemetry for the sharded multiprocess ingestion runtime."""

    __slots__ = (
        "shard_items",
        "queue_depth",
        "merge_seconds",
        "worker_restarts",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.shard_items: MetricFamily = registry.counter_family(
            "sharded_shard_items_total",
            "Pairs dispatched to each shard worker",
            ("shard",),
        )
        self.queue_depth: MetricFamily = registry.gauge_family(
            "sharded_queue_depth",
            "Task-queue depth per shard at the most recent dispatch",
            ("shard",),
        )
        self.merge_seconds: Histogram = registry.histogram(
            "sharded_merge_seconds",
            "Latency of the finalize merge tree (from_wire + union fold)",
            buckets=DURABILITY_BUCKETS,
        )
        self.worker_restarts: Counter = registry.counter(
            "sharded_worker_restarts_total",
            "Shard workers respawned after an unexpected death",
        )


def sharded_metrics(registry: Optional[MetricsRegistry]) -> ShardedMetrics:
    """Bundle for one :class:`~repro.runtime.sharded.ShardedIngestor`."""
    return ShardedMetrics(_registry(registry))


class ServiceServerMetrics:
    """Telemetry for one :class:`~repro.service.server.SketchServer`."""

    __slots__ = (
        "requests",
        "request_seconds",
        "shed",
        "connections",
        "frame_rejects",
        "pushes_applied",
        "pushes_deduplicated",
        "inflight",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests: MetricFamily = registry.counter_family(
            "service_requests_total",
            "Requests handled by the sketch server, by op and status",
            ("op", "status"),
        )
        self.request_seconds: MetricFamily = registry.histogram_family(
            "service_request_seconds",
            "Server-side wall-clock latency of one request, by op",
            ("op",),
        )
        self.shed: Counter = registry.counter(
            "service_shed_total",
            "Requests refused at admission (RESOURCE_EXHAUSTED)",
        )
        self.connections: Counter = registry.counter(
            "service_connections_total",
            "TCP connections accepted by the server",
        )
        self.frame_rejects: Counter = registry.counter(
            "service_frame_rejects_total",
            "Frames rejected before dispatch (CRC mismatch, bad magic, "
            "oversize)",
        )
        self.pushes_applied: Counter = registry.counter(
            "service_pushes_applied_total",
            "PUSH blobs union-folded into an aggregate (first application)",
        )
        self.pushes_deduplicated: Counter = registry.counter(
            "service_pushes_deduplicated_total",
            "PUSH retries dropped by sequence-id dedup (idempotency)",
        )
        self.inflight: Gauge = registry.gauge(
            "service_inflight_requests",
            "Requests currently inside the admission window",
        )


def service_server_metrics(
    registry: Optional[MetricsRegistry],
) -> ServiceServerMetrics:
    """Bundle for one :class:`~repro.service.server.SketchServer`."""
    return ServiceServerMetrics(_registry(registry))


class ServiceClientMetrics:
    """Telemetry for one :class:`~repro.service.client.AggregationClient`."""

    __slots__ = (
        "attempts",
        "retries",
        "errors",
        "breaker_transitions",
        "request_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.attempts: MetricFamily = registry.counter_family(
            "service_client_attempts_total",
            "Network attempts issued by the aggregation client, by op",
            ("op",),
        )
        self.retries: MetricFamily = registry.counter_family(
            "service_client_retries_total",
            "Attempts beyond the first (the retry volume), by op",
            ("op",),
        )
        self.errors: MetricFamily = registry.counter_family(
            "service_client_errors_total",
            "Typed failures observed by the client, by error kind",
            ("kind",),
        )
        self.breaker_transitions: MetricFamily = registry.counter_family(
            "service_client_breaker_transitions_total",
            "Circuit-breaker state entries, by the state entered",
            ("state",),
        )
        self.request_seconds: MetricFamily = registry.histogram_family(
            "service_client_request_seconds",
            "End-to-end client latency of one logical call (retries "
            "included), by op",
            ("op",),
        )


def service_client_metrics(
    registry: Optional[MetricsRegistry],
) -> ServiceClientMetrics:
    """Bundle for one :class:`~repro.service.client.AggregationClient`."""
    return ServiceClientMetrics(_registry(registry))
