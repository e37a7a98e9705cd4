"""The benchmark's own tests: tiny-scale smoke runs and the rules it relies on.

Run from the repository root: ``python -m pytest e2ebench``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import threading

import pytest

import hostspeed
import run
import workloads
from repro.core.degrade import DegradedResult
from hostspeed import REFERENCE_SECONDS, HostSpeed
from spans import Tracer
from summary import OpTally, highest_percentile, percentile, samples_beyond

TINY = workloads.Scale(
    items=20_000, flows=2_000, requests=500, delta_items=500, deltas=4
)
SPEC = run.load_spec()


# ---------------------------------------------------------------------- #
# smoke: every workload end to end at tiny scale
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload: str, tmp_path) -> None:
    inputs = workloads.prepare(workload, 3, TINY, False, str(tmp_path))
    result = workloads.measure(workload, inputs, 0.0, None)
    assert result.tally.failed == 0, result.tally.summary()
    assert result.tally.attempted > TINY.requests
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        if metric["unit"] in ("s", "ms", "items/s", "req/s", "MB"):
            assert result.metrics[metric["name"]] > 0, metric["name"]
    # 256 KB holds a 2k-flow stream exactly
    assert result.metrics["freq_aae"] == 0.0


def test_traced_run_reports_every_layer_metric(tmp_path) -> None:
    inputs = workloads.prepare("pipeline", 4, TINY, True, str(tmp_path))
    metrics, tally = run.traced("pipeline", inputs, 0.0, SPEC)
    assert tally.failed == 0
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    values = {name: entry["value"] for name, entry in metrics.items()}
    assert values["canonical.calls"] >= TINY.items
    assert values["kernel.chunks.object"] + values["kernel.chunks.array"] > 0
    # one session, then a read round that pushes the sketch as a and b
    assert values["client.push.calls"] == workloads.PUSHES_PER_SESSION + 2
    assert values["wire.encode.bytes"] > 0
    assert 0.0 <= values["unattributed_fraction"] < 0.5


def test_ingest_oracle_catches_a_different_state(tmp_path) -> None:
    inputs = workloads.prepare("ingest", 5, TINY, False, str(tmp_path))
    inputs.oracle = workloads.per_item_oracle(
        inputs.config, inputs.keys[:-1], workloads.DEFAULT_BATCH_CHUNK
    )
    result = workloads.measure("ingest", inputs, 0.0, None)
    assert result.tally.reasons["ingest oracle mismatch"] == 1


# ---------------------------------------------------------------------- #
# the percentile rule
# ---------------------------------------------------------------------- #
def test_percentile_is_nearest_rank() -> None:
    samples = [float(value) for value in range(1, 1001)]
    assert percentile(samples, 50.0) == 500.0
    assert percentile(samples, 99.0) == 990.0
    assert samples_beyond(1000, 99.0) == 10


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (100_000, 99.99)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected) -> None:
    assert highest_percentile(count) == expected


def test_too_few_samples_for_any_percentile() -> None:
    with pytest.raises(ValueError):
        highest_percentile(19)


def test_p99_needs_a_thousand_requests() -> None:
    host = HostSpeed()
    host.units = [REFERENCE_SECONDS] * 3
    samples = workloads.Samples(host)
    for kind in ("setup", "to_answer", "push"):
        samples.add(kind, [(1.0, 0)])
    for kind in ("ingest_rate", "qps"):
        samples.add(kind, [(1.0, 0)], amount=1.0)
    for _ in range(999):
        samples.add("latency", [(0.001, 0)])
    with pytest.raises(ValueError):
        samples.metrics()
    samples.add("latency", [(0.002, 0)])
    assert samples.metrics()["query_p99_ms"] == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# host-speed scaling
# ---------------------------------------------------------------------- #
def test_scaling_divides_durations_and_multiplies_rates() -> None:
    host = HostSpeed()
    host.units = [REFERENCE_SECONDS * 2.0] * 3  # a host running at half speed
    samples = workloads.Samples(host)
    samples.add("push", [(0.4, 1)])
    samples.add("ingest_rate", [(0.5, 1)], amount=500.0)
    assert samples.values("push") == [pytest.approx(0.2)]
    assert samples.values("ingest_rate") == [pytest.approx(2000.0)]
    assert samples.values("push", reference=False) == [0.4]


def test_a_piece_is_judged_by_the_units_next_to_it() -> None:
    host = HostSpeed()
    slow = [REFERENCE_SECONDS * 9.0] * 20
    host.units = slow + [REFERENCE_SECONDS] * hostspeed.NEIGHBOURS
    samples = workloads.Samples(host)
    samples.add("push", [(1.0, len(host.units) - 1)])
    # the host slows down right after the push; the units after it show it
    host.units += [REFERENCE_SECONDS * 3.0] * hostspeed.NEIGHBOURS + slow
    assert samples.values("push") == [pytest.approx(0.5)]  # median of 1s and 3s


def test_a_composite_timing_scales_each_piece_on_its_own() -> None:
    host = HostSpeed()
    host.units = [REFERENCE_SECONDS] * 4 + [REFERENCE_SECONDS * 3.0] * 4
    samples = workloads.Samples(host)
    # 1 s on a quiet host, then 6 s while the host ran three times slower
    samples.add("to_answer", [(1.0, 1), (6.0, 5)])
    assert samples.values("to_answer") == [pytest.approx(3.0)]
    assert samples.values("to_answer", reference=False) == [7.0]


def test_timed_pieces_leave_out_calibration() -> None:
    host = HostSpeed()
    samples = workloads.Samples(host)
    _, piece = samples.time(lambda: None)
    assert len(host.units) == 1  # a unit was due before the first piece
    assert piece[1] == 0
    assert piece[0] < host.units[0]  # the unit is not part of the piece
    samples.settle()
    assert len(host.units) == 1 + hostspeed.NEIGHBOURS
    assert samples.pieces == [piece]


# ---------------------------------------------------------------------- #
# failed-operation accounting
# ---------------------------------------------------------------------- #
class _FakeClient:
    """Answers point queries with a scripted degraded flag or error."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def query(self, aggregate, task, **kwargs):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return DegradedResult(value=outcome[0], degraded=outcome[1])

    def push(self, aggregate, sketch):
        raise ConnectionError("push refused")


def test_failed_ops_count_exceptions_degraded_answers_and_mismatches() -> None:
    schedule = [("query", "query", {"key": k}) for k in (1, 2, 3, 4)]
    schedule.append(("push", "", {"delta": 0}))
    client = _FakeClient([(7, False), (8, True), RuntimeError("boom"), (9, False)])
    tally = OpTally()
    samples = workloads.Samples(HostSpeed())
    answers = workloads.run_mix(client, "a", schedule, [None], tally, samples)
    assert tally.attempted == 5
    assert tally.failed == 3  # degraded, exception, refused push
    workloads.check_answers(tally, schedule, {0: 7, 3: 10}, answers)
    assert tally.failed == 4  # plus the mismatch on request 3
    assert tally.attempted == 5
    assert tally.fraction == pytest.approx(0.8)
    assert len(samples.values("latency", reference=False)) == 4
    assert len(samples.values("push", reference=False)) == 1
    assert len(samples.pieces) == 5


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Layers:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 2.0
        self.inner()
        self.clock.now += 1.0
        self.inner()

    def inner(self):
        self.clock.now += 3.0


def test_self_time_subtracts_child_spans() -> None:
    clock = _Clock()
    tracer = Tracer(clock)
    tracer.wrap_method(_Layers, "outer", "outer")
    tracer.wrap_method(_Layers, "inner", "inner")
    try:
        tracer.armed = True
        _Layers(clock).outer()
    finally:
        tracer.uninstall()
    assert tracer.spans["outer"].total == 9.0
    assert tracer.spans["outer"].self_time == 3.0
    assert tracer.spans["inner"].calls == 2
    assert tracer.spans["inner"].self_time == 6.0
    assert tracer.covered == 9.0
    assert _Layers.outer.__name__ == "outer"
    assert not hasattr(_Layers.outer, "__wrapped__")


def test_only_wire_calls_inside_a_client_call_count_as_client_time() -> None:
    clock = _Clock()
    tracer = Tracer(clock)
    tracer.armed = True
    for parent in ("client.push", "sharded.finalize"):
        outer = tracer.enter(parent)
        inner = tracer.enter("wire.decode")
        clock.now += 2.0
        tracer.exit(inner)
        tracer.exit(outer)
    assert tracer.spans["wire.decode"].total == 4.0
    assert tracer.spans["wire.decode"].under_client == 2.0


def test_other_thread_spans_are_children_of_the_waiting_main_span() -> None:
    clock = _Clock()
    tracer = Tracer(clock)
    tracer.armed = True
    outer = tracer.enter("client.query")
    clock.now += 1.0

    def serve():
        frame = tracer.enter("task.query")
        clock.now += 4.0
        tracer.exit(frame)

    worker = threading.Thread(target=serve)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.now += 1.0
    tracer.exit(outer)
    assert tracer.spans["client.query"].self_time == 2.0
    assert tracer.spans["task.query"].self_time == 4.0
    assert tracer.covered == 6.0


# ---------------------------------------------------------------------- #
# memory
# ---------------------------------------------------------------------- #
def test_peak_rss_counts_only_memory_added_after_the_base() -> None:
    held = bytearray(64 << 20)  # resident before the base: not counted
    base = workloads.start_peak_rss()
    assert workloads.peak_rss_mb(base) < 16
    added = bytearray(b"x" * (48 << 20))
    assert workloads.peak_rss_mb(base) >= 40
    del added, held


# ---------------------------------------------------------------------- #
# the command line
# ---------------------------------------------------------------------- #
def test_command_fails_without_the_library(tmp_path) -> None:
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(run.ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    completed = subprocess.run(
        SPEC["command"] + ["--workload", "ingest", "--seed", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_held_out_seeds_are_disjoint_from_tuning_seeds() -> None:
    tuning = run.parse_args(["--seed", "7"])
    held_out = run.parse_args(["--seed", "7", "--held-out"])
    assert run.effective_seed(tuning) == 7
    assert run.effective_seed(held_out) == 7 + run.HELD_OUT_BASE
