"""Section III-B2.3's time-complexity analysis, measured.

The paper derives the insertion cost
``P_FP·(c+2) + P_EF·(c+2+m) + P_IFP·(c+2+m+d)`` and reports an average of
6.68 memory accesses with ``d=3, m=2, c=7`` against 29.47 for the
composite baseline.  This bench decomposes the measured AMA into where
insertions terminate — frequent part, element filter, or infrequent part —
and checks the derived O(c+m+d) ceiling.
"""

from conftest import BENCH_SCALE, BENCH_SEED, report

from repro.core import DaVinciConfig, DaVinciSketch
from repro.workloads import load_trace

MEMORY_KB = 6.0


class _InstrumentedDaVinci(DaVinciSketch):
    """Counts where each insertion's routing terminated.

    Hooks the per-item ``_push_to_filter``, the regime the paper's cost
    model describes (the bulk path's element-filter and infrequent-part
    work shows in its ``memory_accesses`` instead).
    """

    def __init__(self, config):
        super().__init__(config)
        self.stopped_in_fp = 0
        self.reached_ef = 0
        self.reached_ifp = 0

    def _push_to_filter(self, key: int, count: int) -> None:
        self.reached_ef += 1
        accesses_before = self.memory_accesses
        super()._push_to_filter(key, count)
        # the parent adds ifp.rows only when overflow occurred
        if self.memory_accesses - accesses_before > self.ef.num_levels:
            self.reached_ifp += 1


def test_ama_decomposition(run_once):
    def measure():
        config = DaVinciConfig.from_memory_kb(MEMORY_KB, seed=BENCH_SEED + 1)
        sketch = _InstrumentedDaVinci(config)
        trace = load_trace("caida", scale=BENCH_SCALE, seed=BENCH_SEED)
        # the paper's cost model is per *insertion*, so drive the per-item
        # path explicitly (insert_all now routes through the aggregating
        # batch fast path, which deliberately does fewer structure touches)
        for key in trace:
            sketch.insert(key)
        total = sketch.insertions

        batched = DaVinciSketch(
            DaVinciConfig.from_memory_kb(MEMORY_KB, seed=BENCH_SEED + 1)
        )
        batched.insert_all(trace)
        return {
            "ama": sketch.average_memory_access(),
            "batched_ama": batched.average_memory_access(),
            "p_fp_only": 1.0 - sketch.reached_ef / total,
            "p_ef": (sketch.reached_ef - sketch.reached_ifp) / total,
            "p_ifp": sketch.reached_ifp / total,
            "ceiling": config.fp_entries
            + 2
            + len(config.ef_level_widths)
            + config.ifp_rows,
        }

    stats = run_once(measure)
    report(
        "AMA decomposition (Sec. III-B2.3; paper: avg 6.68 at c=7,m=2,d=3)",
        "\n".join(
            [
                f"measured AMA          : {stats['ama']:.2f}",
                f"batched-ingest AMA    : {stats['batched_ama']:.2f}",
                f"insertions ending in FP : {stats['p_fp_only']:.1%}",
                f"... reaching the EF     : {stats['p_ef']:.1%}",
                f"... reaching the IFP    : {stats['p_ifp']:.1%}",
                f"worst-case ceiling c+2+m+d = {stats['ceiling']}",
            ]
        ),
    )

    # the paper's headline: average accesses well below the ceiling,
    # because most insertions terminate early in the frequent part
    assert stats["ama"] < stats["ceiling"]
    assert stats["ama"] < 8.0  # paper measured 6.68 in the same regime
    # chunk aggregation collapses repeats before touching the structure,
    # so the batched path can only reduce the per-pair access average
    assert stats["batched_ama"] <= stats["ama"]
    assert stats["p_fp_only"] > 0.4
    assert abs(
        stats["p_fp_only"] + stats["p_ef"] + stats["p_ifp"] - 1.0
    ) < 1e-9
