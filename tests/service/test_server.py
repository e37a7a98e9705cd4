"""SketchServer over loopback: ops, dedup, shedding, deadlines, drain."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.common.errors import RemoteError, RetryExhaustedError
from repro.core import serialization, setops
from repro.observability import metrics as obs
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceSink
from repro.service import AggregationClient, RetryPolicy, SketchServer
from repro.service import protocol
from repro.service.deadline import Deadline


def make_client(server, **overrides):
    host, port = server.address
    kwargs = dict(
        retry_policy=RetryPolicy(
            max_attempts=2, deadline_seconds=10.0, base_backoff_seconds=0.01
        )
    )
    kwargs.update(overrides)
    return AggregationClient(host, port, **kwargs)


class TestOps:
    def test_push_then_fetch_is_byte_identical_to_local_fold(
        self, server, sketch_factory
    ):
        client = make_client(server)
        a = sketch_factory([(1, 5), (2, 3)])
        b = sketch_factory([(100, 7), (200, 1)])
        first = client.push("agg", a)
        second = client.push("agg", b)
        assert first == {
            "seq": 1,
            "status": "OK",
            "duplicate": False,
            "applied": 1,
        }
        assert second["applied"] == 2
        remote = serialization.from_wire(client.fetch_blob("agg"))
        assert remote.to_state() == setops.union(a, b).to_state()

    def test_query_tasks_match_local_results(self, server, sketch_factory):
        client = make_client(server)
        sketch = sketch_factory([(1, 20), (2, 15), (3, 1)])
        client.push("agg", sketch)
        assert client.query("agg", "query", key=1) == sketch.query(1)
        assert client.query(
            "agg", "heavy_hitters", threshold=10
        ) == sketch.heavy_hitters(10)
        assert client.query("agg", "cardinality") == pytest.approx(
            sketch.cardinality()
        )

    def test_pair_task_against_two_aggregates(self, server, sketch_factory):
        client = make_client(server)
        a = sketch_factory([(1, 10), (2, 10)])
        b = sketch_factory([(2, 10), (3, 10)])
        client.push("left", a)
        client.push("right", b)
        merged = client.query("left", "union", other="right")
        assert merged.to_state() == setops.union(a, b).to_state()
        # the opposite pair order takes the two locks in the same order
        # (the lock checker fails the test on an order cycle)
        merged = client.query("right", "union", other="left")
        assert merged.to_state() == setops.union(b, a).to_state()

    def test_missing_aggregate_is_not_found(self, server):
        client = make_client(server)
        with pytest.raises(RemoteError) as excinfo:
            client.query("nope", "cardinality")
        assert excinfo.value.status == "NOT_FOUND"

    def test_unknown_op_is_bad_request(self, server):
        client = make_client(server)
        with pytest.raises(RemoteError) as excinfo:
            client._call("WAT", {"op": "WAT"})
        assert excinfo.value.status == "BAD_REQUEST"

    def test_unknown_task_is_bad_request(self, server, sketch_factory):
        client = make_client(server)
        client.push("agg", sketch_factory([(1, 1)]))
        with pytest.raises(RemoteError) as excinfo:
            client._call(
                "QUERY", {"op": "QUERY", "aggregate": "agg", "task": "nope"}
            )
        assert excinfo.value.status == "BAD_REQUEST"
        # a raw frame skips the client's check; the server makes the same
        with pytest.raises(RemoteError) as excinfo:
            client._call(
                "QUERY", {"op": "QUERY", "aggregate": "agg", "task": "union"}
            )
        assert excinfo.value.status == "BAD_REQUEST"
        assert "needs an 'other' aggregate" in str(excinfo.value)

    @pytest.mark.parametrize("max_size", ["x", True, 1.5, 0, [1]])
    def test_hostile_max_size_is_bad_request(
        self, server, sketch_factory, max_size
    ):
        """A bad ``max_size`` is refused, and the handler lives on to
        answer the next query on the same connection."""
        client = make_client(server)
        sketch = sketch_factory([(1, 3), (2, 1)])
        client.push("agg", sketch)
        with pytest.raises(RemoteError) as excinfo:
            client.query("agg", "distribution", max_size=max_size)
        assert excinfo.value.status == "BAD_REQUEST"
        assert "max_size" in str(excinfo.value)
        answer = client.query("agg", "distribution", max_size=2)
        assert answer == sketch.distribution(max_size=2) == {1: 1.0}

    def test_push_of_a_signed_sketch_is_a_typed_error(
        self, server, sketch_factory
    ):
        """Folding a difference sketch into an aggregate is refused, and
        the aggregate keeps its state."""
        client = make_client(server)
        plain = sketch_factory([(1, 5), (2, 3)])
        client.push("agg", plain)
        signed = setops.difference(sketch_factory([]), plain)
        with pytest.raises(RemoteError) as excinfo:
            client.push("agg", signed)
        assert excinfo.value.status == "BAD_REQUEST"
        assert "signed" in str(excinfo.value)
        remote = serialization.from_wire(client.fetch_blob("agg"))
        assert remote.to_state() == plain.to_state()

    def test_health_reports_aggregates(self, server, sketch_factory):
        client = make_client(server)
        client.push("agg", sketch_factory([(1, 1)]))
        health = client.health()
        assert health["status"] == "OK"
        assert health["aggregates"] == 1
        assert health["draining"] is False
        assert client.ready()


class TestIdempotency:
    def test_reused_seq_is_deduplicated(self, server, sketch_factory):
        client = make_client(server)
        sketch = sketch_factory([(1, 5)])
        first = client.push("agg", sketch)
        before = server.aggregate_state("agg")
        replay = client.push("agg", sketch, seq=first["seq"])
        assert replay["duplicate"] is True
        assert replay["applied"] == first["applied"]
        assert server.aggregate_state("agg") == before

    def test_dedup_is_per_client(self, server, sketch_factory):
        a = make_client(server, client_id="alpha")
        b = make_client(server, client_id="beta")
        sketch = sketch_factory([(1, 5)])
        assert a.push("agg", sketch)["duplicate"] is False
        # same seq number, different client identity: not a duplicate
        assert b.push("agg", sketch, seq=1)["duplicate"] is False


class TestRobustness:
    def test_garbage_frame_answered_bad_frame_then_closed(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"this is not a frame at all" * 2)
            header, _ = protocol.recv_message(sock, deadline=Deadline(5.0))
            assert header["status"] == "BAD_FRAME"
            # the stream offset is untrusted: the server hangs up
            sock.settimeout(5.0)
            assert sock.recv(1) == b""

    def test_read_deadline_disconnects_a_silent_client(self):
        server = SketchServer(read_deadline_seconds=0.3)
        server.start()
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.settimeout(5.0)
                started = time.monotonic()
                assert sock.recv(1) == b""  # server closed on us
                assert time.monotonic() - started < 4.0
        finally:
            server.close()

    def test_overload_sheds_with_resource_exhausted(
        self, server, sketch_factory, monkeypatch
    ):
        release = threading.Event()
        entered = threading.Event()
        import repro.service.tasks as tasks_mod

        real_run_task = tasks_mod.run_task

        def slow_run_task(sketch, task, **kwargs):
            entered.set()
            release.wait(timeout=10.0)
            return real_run_task(sketch, task, **kwargs)

        monkeypatch.setattr(tasks_mod, "run_task", slow_run_task)
        server.max_inflight = 1
        client = make_client(server)
        client.push("agg", sketch_factory([(1, 1)]))
        blocker = threading.Thread(
            target=lambda: client.query("agg", "cardinality"), daemon=True
        )
        blocker.start()
        try:
            assert entered.wait(timeout=10.0)
            shed_client = make_client(
                server, retry_policy=RetryPolicy(max_attempts=1)
            )
            with pytest.raises(RetryExhaustedError) as excinfo:
                shed_client.push("agg", sketch_factory([(2, 1)]))
            assert isinstance(excinfo.value.last_error, RemoteError)
            assert excinfo.value.last_error.status == "RESOURCE_EXHAUSTED"
            # probes bypass admission even while the window is full
            assert shed_client.health()["status"] == "OK"
        finally:
            release.set()
            blocker.join(timeout=10.0)

    def test_drain_answers_draining_then_finishes_inflight(
        self, server, sketch_factory, monkeypatch
    ):
        release = threading.Event()
        entered = threading.Event()
        import repro.service.tasks as tasks_mod

        real_run_task = tasks_mod.run_task

        def slow_run_task(sketch, task, **kwargs):
            entered.set()
            release.wait(timeout=10.0)
            return real_run_task(sketch, task, **kwargs)

        monkeypatch.setattr(tasks_mod, "run_task", slow_run_task)
        client = make_client(server)
        client.push("agg", sketch_factory([(1, 1)]))
        results = {}

        def blocked_query():
            results["value"] = client.query("agg", "cardinality")

        blocker = threading.Thread(target=blocked_query, daemon=True)
        blocker.start()
        assert entered.wait(timeout=10.0)

        # a connection opened before the drain begins stays serviceable
        host, port = server.address
        early = socket.create_connection((host, port), timeout=5)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        try:
            deadline = time.monotonic() + 10.0
            while not server._draining and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._draining
            # wake-ups with the query still in flight must not end the
            # drain: close() waits until the in-flight count reaches zero
            for _ in range(10):
                with server._admission:
                    server._admission.notify_all()
                time.sleep(0.03)
            assert closer.is_alive()
            protocol.send_message(
                early, {"op": "PUSH", "aggregate": "agg"}, b"x"
            )
            header, _ = protocol.recv_message(early, deadline=Deadline(5.0))
            assert header["status"] == "DRAINING"
            protocol.send_message(early, {"op": "READY"})
            header, _ = protocol.recv_message(early, deadline=Deadline(5.0))
            assert header["status"] == "DRAINING"
        finally:
            release.set()
            blocker.join(timeout=10.0)
            closer.join(timeout=10.0)
            early.close()
        # the in-flight query completed during the drain window
        assert results["value"] == pytest.approx(1.0)


class TestObservability:
    def test_metrics_pin_the_request_and_dedup_counters(
        self, sketch_factory
    ):
        registry = MetricsRegistry()
        trace = TraceSink()
        server = SketchServer(metrics_registry=registry, trace=trace)
        server.start()
        try:
            client = make_client(server)
            with obs.enabled():
                first = client.push("agg", sketch_factory([(1, 1)]))
                client.push("agg", sketch_factory([(2, 1)]))
                client.push(
                    "agg", sketch_factory([(1, 1)]), seq=first["seq"]
                )
                client.query("agg", "cardinality")
            counters = registry.snapshot()["counters"]
            assert counters["service_pushes_applied_total"] == 2
            assert counters["service_pushes_deduplicated_total"] == 1
            assert (
                counters['service_requests_total{op="PUSH",status="OK"}']
                == 3
            )
        finally:
            server.close()
        assert "service.push.dedup" in trace.names()
        assert "service.drain.begin" in trace.names()
        assert "service.drain.end" in trace.names()
