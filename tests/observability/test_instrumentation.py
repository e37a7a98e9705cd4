"""End-to-end instrumentation consistency on a large Zipf stream.

Arms metric collection, pushes a 1M-item Zipf(1.1) trace through a
DaVinci sketch with a private registry, and asserts the identities the
catalog in ``docs/OBSERVABILITY.md`` promises:

* facade totals match the ground-truth stream mass exactly;
* the Algorithm-1 case counters partition the FP arrivals;
* every layer's inflow equals the layer above's outflow;
* mass conservation — FP resident mass + EF absorbed units + IFP
  encoded units = total stream mass (every unit in exactly one layer);
* decode telemetry matches the decoded result;
* disarmed runs record nothing at all.
"""

import pytest

from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.infrequent_part import InfrequentPart
from repro.observability import metrics as obs
from repro.observability.metrics import MetricsRegistry
from repro.workloads import zipf_trace

SEED = 424242
NUM_ITEMS = 1_000_000
NUM_FLOWS = 50_000
SKEW = 1.1
MEMORY_KB = 64.0


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(NUM_ITEMS, NUM_FLOWS, SKEW, seed=SEED)


@pytest.fixture(scope="module")
def armed_run(trace):
    """One armed 1M-item ingest + a query mix, on a private registry."""
    registry = MetricsRegistry()
    config = DaVinciConfig.from_memory_kb(MEMORY_KB, seed=SEED + 1)
    sketch = DaVinciSketch(config, metrics_registry=registry)
    previous = obs.set_enabled(True)
    try:
        sketch.insert_all(trace)
        sketch.query(trace[0])
        sketch.heavy_hitters(1000)
        sketch.cardinality()
        sketch.distribution()
        sketch.entropy()
    finally:
        obs.set_enabled(previous)
    return sketch, registry, registry.snapshot()


class TestFacadeTotals:
    def test_items_equal_ground_truth_stream_mass(self, armed_run, trace):
        sketch, registry, _ = armed_run
        assert registry.value("davinci_items_total") == len(trace) == NUM_ITEMS
        assert registry.value("davinci_items_total") == sketch.total_count

    def test_inserts_count_aggregated_pairs(self, armed_run):
        _, registry, _ = armed_run
        inserts = registry.value("davinci_inserts_total")
        # batched ingest pre-aggregates each chunk, so pairs <= items
        assert 0 < inserts <= NUM_ITEMS

    def test_task_latency_histograms_observed(self, armed_run):
        _, _, snap = armed_run
        histograms = snap["histograms"]
        for task in (
            "query",
            "heavy_hitters",
            "cardinality",
            "distribution",
            "entropy",
        ):
            key = f'davinci_task_seconds{{task="{task}"}}'
            assert histograms[key]["count"] >= 1, key
            assert histograms[key]["sum"] >= 0.0


class TestLayerIdentities:
    def test_case_counters_partition_fp_arrivals(self, armed_run):
        _, registry, _ = armed_run
        total = sum(
            registry.value("davinci_fp_insert_cases_total", case=case)
            for case in (1, 2, 3, 4)
        )
        assert total == registry.value("davinci_fp_inserts_total") > 0

    def test_evictions_are_case3(self, armed_run):
        _, registry, _ = armed_run
        assert registry.value("davinci_fp_evictions_total") == registry.value(
            "davinci_fp_insert_cases_total", case=3
        )

    def test_ef_offers_equal_fp_demotions(self, armed_run):
        _, registry, _ = armed_run
        offers = registry.value("davinci_ef_offers_total")
        assert offers == registry.value("davinci_fp_demotions_total")
        assert offers > 0  # a 1M Zipf stream must overflow a 64KB FP

    def test_ifp_units_equal_ef_overflow(self, armed_run):
        _, registry, _ = armed_run
        promoted = registry.value("davinci_ifp_inserted_units_total")
        assert promoted == registry.value("davinci_ef_overflow_units_total")
        assert promoted > 0

    def test_mass_conservation_across_layers(self, armed_run):
        sketch, registry, _ = armed_run
        fp_resident = sum(count for _, count in sketch.fp.items())
        absorbed = registry.value("davinci_ef_absorbed_units_total")
        promoted = registry.value("davinci_ifp_inserted_units_total")
        assert fp_resident + absorbed + promoted == NUM_ITEMS

    def test_occupancy_gauges_read_live_structure(self, armed_run):
        sketch, registry, _ = armed_run
        assert registry.value("davinci_fp_occupancy_entries") == len(sketch.fp)
        fraction = registry.value("davinci_fp_occupancy_fraction")
        assert 0.0 < fraction <= 1.0


class TestDecodeTelemetry:
    def test_decode_counters_match_result(self, armed_run):
        sketch, registry, _ = armed_run
        result = sketch.decode_result()
        decodes = registry.value("davinci_ifp_decodes_total")
        assert decodes >= 1
        complete = registry.value("davinci_ifp_decode_complete_total")
        incomplete = registry.value("davinci_ifp_decode_incomplete_total")
        assert complete + incomplete == decodes
        if result.complete:
            assert complete >= 1
        assert registry.value("davinci_ifp_peeled_buckets_total") >= len(
            result.counts
        )
        assert registry.value("davinci_ifp_residual_buckets") == (
            result.residual_buckets
        )

    def test_a_budget_cut_decode_is_counted_apart_from_stalls(self):
        # (549 + 691) / 2 = 620 is a phantom the peel keeps undoing and
        # redoing until its visit budget runs out (no validator)
        registry = MetricsRegistry()
        ifp = InfrequentPart(rows=3, width=8, seed=1)
        ifp._obs_registry = registry
        for key, count in zip((500, 549, 551, 580, 691), (-2, 1, 2, -1, 1)):
            ifp.insert(key, count)
        with obs.enabled():
            assert ifp.decode().budget_exhausted
            ifp.insert(580, 1)
            ifp.insert(551, -2)
            assert ifp.decode().complete
        assert registry.value("davinci_ifp_decodes_total") == 2
        assert registry.value("davinci_ifp_decode_incomplete_total") == 1
        assert registry.value("davinci_ifp_decode_budget_exhausted_total") == 1

    def test_decode_cache_counters(self, armed_run):
        sketch, registry, _ = armed_run
        with obs.enabled():
            sketch.decode_result()
            sketch.decode_result()
        assert registry.value("davinci_decode_cache_hits_total") >= 1
        assert registry.value("davinci_decode_cache_misses_total") >= 1


class TestDisarmed:
    def test_disarmed_run_records_nothing(self):
        registry = MetricsRegistry()
        config = DaVinciConfig.from_memory_kb(4.0, seed=7)
        sketch = DaVinciSketch(config, metrics_registry=registry)
        previous = obs.set_enabled(False)
        try:
            sketch.insert_all(zipf_trace(20_000, 2_000, SKEW, seed=9))
            sketch.query(1)
            sketch.heavy_hitters(100)
        finally:
            obs.set_enabled(previous)
        snap = registry.snapshot()
        assert all(value == 0 for value in snap["counters"].values())
        assert all(h["count"] == 0 for h in snap["histograms"].values())
