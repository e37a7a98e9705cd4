"""Per-layer metrics of the traced run, from spans and library counters.

Times named ``<span>.s`` are *self* seconds: the span's time minus the
spans it caused, so the layers add up to the covered wall time instead of
counting nested work twice.  ``service.transport.s`` is the client's time
minus the wire encode/decode made inside its calls and minus the server's
request time.
Counts and ratios come from the library's own telemetry
(``MetricsRegistry.snapshot()``).  The shard worker processes
are not visible from the parent, so on ``pipeline`` the ingest-side counts
(kernel chunks, FP/EF/IFP counters, AMA) come from the in-process replay of
the same shard substreams that the oracle builds; it ingests identical
chunks, so the counts are identical.  A ratio whose denominator is zero
reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from spans import CLIENT_CALLS, Tracer

__all__ = ["QUERY_SIDE", "breakdown_lines", "layer_metrics"]

#: the seven task consumers the breakdown times individually
TASKS = (
    "query",
    "heavy_hitters",
    "cardinality",
    "distribution",
    "entropy",
    "inner_join",
    "heavy_changers",
)

#: the candidates "query side, measured first" ranks (rank 1 = most time)
QUERY_SIDE = ("ifp.decode", "em", "task.inner_join")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _family(snapshot: Dict[str, Any], kind: str, name: str) -> List[Any]:
    """Every child of a labeled family (or the plain metric) in a snapshot."""
    section = snapshot[kind]
    return [
        value
        for key, value in section.items()
        if key == name or key.startswith(name + "{")
    ]


def _count(snapshot: Dict[str, Any], name: str, label: str = "") -> float:
    key = name + (f"{{{label}}}" if label else "")
    return float(snapshot["counters"].get(key, 0))


def layer_metrics(
    tracer: Tracer,
    snapshot: Dict[str, Any],
    wall: float,
    extras: Dict[str, float],
    replay: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` except the two the
    caller adds (``tracing_overhead_fraction`` and ``failed_ops_fraction``)."""
    spans = tracer.spans

    def calls(name: str) -> float:
        return float(spans[name].calls) if name in spans else 0.0

    def self_s(name: str) -> float:
        return spans[name].self_time if name in spans else 0.0

    ingest = replay if replay is not None else snapshot
    out: Dict[str, float] = {
        "canonical.calls": calls("canonical"),
        "canonical.s": self_s("canonical"),
        "canonical.wall_share": _ratio(self_s("canonical"), wall),
        "davinci.insert_batch.s": self_s("davinci.insert_batch"),
    }
    array = _count(ingest, "davinci_kernel_chunks_total", 'kernel="array"')
    obj = _count(ingest, "davinci_kernel_chunks_total", 'kernel="object"')
    fp_inserts = _count(ingest, "davinci_fp_inserts_total")
    demotions = _count(ingest, "davinci_fp_demotions_total")
    absorbed = _count(ingest, "davinci_ef_absorbed_units_total")
    overflow = _count(ingest, "davinci_ef_overflow_units_total")
    out.update(
        {
            "kernel.chunks.array": array,
            "kernel.chunks.object": obj,
            "kernel.array_fraction": _ratio(array, array + obj),
            "davinci.ama": extras.get("davinci.ama", 0.0),
            "fp.insert_batch.s": self_s("fp.insert_batch"),
            "fp.inserts": fp_inserts,
            "fp.evictions": _count(ingest, "davinci_fp_evictions_total"),
            "fp.demotions": demotions,
            "fp.demotion_ratio": _ratio(demotions, fp_inserts),
            "ef.offer_batch.s": self_s("ef.offer_batch"),
            "ef.offers": _count(ingest, "davinci_ef_offers_total"),
            "ef.overflow_ratio": _ratio(overflow, absorbed + overflow),
            "ifp.insert_batch.s": self_s("ifp.insert_batch"),
            "ifp.inserts": _count(ingest, "davinci_ifp_inserts_total"),
        }
    )

    peeled = _count(snapshot, "davinci_ifp_peeled_buckets_total")
    failures = _count(snapshot, "davinci_ifp_peel_failures_total")
    hits = _count(snapshot, "davinci_decode_cache_hits_total")
    misses = _count(snapshot, "davinci_decode_cache_misses_total")
    out.update(
        {
            "ifp.decode.calls": calls("ifp.decode"),
            "ifp.decode.s": self_s("ifp.decode"),
            "ifp.peeled_buckets": peeled,
            "ifp.peel_failures": failures,
            "ifp.peel_yield": _ratio(peeled, peeled + failures),
            "ifp.decode_complete_ratio": _ratio(
                _count(snapshot, "davinci_ifp_decode_complete_total"),
                _count(snapshot, "davinci_ifp_decodes_total"),
            ),
            "davinci.decode_cache_hit_ratio": _ratio(hits, hits + misses),
        }
    )
    for task in TASKS:
        out[f"task.{task}.calls"] = calls(f"task.{task}")
        out[f"task.{task}.s"] = self_s(f"task.{task}")
    out["em.s"] = self_s("em")
    ranked = sorted(QUERY_SIDE, key=lambda name: -self_s(name))
    for rank, name in enumerate(ranked, start=1):
        out[f"rank.{name}"] = float(rank)
    for op in ("union", "difference"):
        out[f"setops.{op}.calls"] = calls(f"setops.{op}")
        out[f"setops.{op}.s"] = self_s(f"setops.{op}")
    encode = spans.get("wire.encode")
    out.update(
        {
            "wire.encode.calls": calls("wire.encode"),
            "wire.encode.s": self_s("wire.encode"),
            "wire.encode.bytes": float(encode.units) if encode else 0.0,
            "wire.decode.calls": calls("wire.decode"),
            "wire.decode.s": self_s("wire.decode"),
        }
    )

    shard_items = [
        float(v) for v in _family(snapshot, "counters", "sharded_shard_items_total")
    ]
    out.update(
        {
            "sharded.dispatch.s": self_s("sharded.dispatch"),
            "sharded.finalize.s": self_s("sharded.finalize"),
            "sharded.merge_tree.s": self_s("sharded.merge_tree"),
            "sharded.shard_skew": _ratio(
                max(shard_items, default=0.0),
                sum(shard_items) / len(shard_items) if shard_items else 0.0,
            ),
            "sharded.worker_restarts": _count(
                snapshot, "sharded_worker_restarts_total"
            ),
            "durable.bytes_on_disk": extras.get("durable.bytes_on_disk", 0.0),
        }
    )

    server_s = sum(
        _count_hist(snapshot, "service_request_seconds", f'op="{op}"')
        for op in ("PUSH", "QUERY")
    )
    # Client time not spent serializing inside the client call or serving.
    # Wire calls made elsewhere (the shard blobs finalize() decodes) are
    # not part of any client call and are not subtracted.
    client_total = sum(
        spans[name].total for name in CLIENT_CALLS if name in spans
    ) - sum(
        spans[name].under_client
        for name in ("wire.encode", "wire.decode")
        if name in spans
    )
    out.update(
        {
            "client.push.calls": calls("client.push"),
            "client.push.s": self_s("client.push"),
            "client.query.calls": calls("client.query"),
            "client.query.s": self_s("client.query"),
            "server.request.s": server_s,
            "service.transport.s": max(0.0, client_total - server_s),
            "client.retries": sum(
                float(v)
                for v in _family(snapshot, "counters", "service_client_retries_total")
            ),
            "client.errors": sum(
                float(v)
                for v in _family(snapshot, "counters", "service_client_errors_total")
            ),
            "server.shed": _count(snapshot, "service_shed_total"),
            "server.frame_rejects": _count(snapshot, "service_frame_rejects_total"),
            "unattributed_fraction": max(0.0, 1.0 - _ratio(tracer.covered, wall)),
            "traced_wall_s": wall,
        }
    )
    return out


def _count_hist(snapshot: Dict[str, Any], name: str, label: str) -> float:
    entry = snapshot["histograms"].get(f"{name}{{{label}}}")
    return float(entry["sum"]) if entry else 0.0


def breakdown_lines(tracer: Tracer, wall: float) -> List[str]:
    """A table of every span: calls, inclusive and self time, wall share."""
    lines = [
        f"{'span':<24}{'calls':>10}{'total s':>12}{'self s':>12}{'self/wall':>11}"
    ]
    for name, stats in sorted(
        tracer.spans.items(), key=lambda item: -item[1].self_time
    ):
        lines.append(
            f"{name:<24}{stats.calls:>10}{stats.total:>12.4f}"
            f"{stats.self_time:>12.4f}{_ratio(stats.self_time, wall):>11.2%}"
        )
    lines.append(
        f"{'(unattributed)':<24}{'':>10}{'':>12}"
        f"{max(0.0, wall - tracer.covered):>12.4f}"
        f"{max(0.0, 1.0 - _ratio(tracer.covered, wall)):>11.2%}"
    )
    return lines
