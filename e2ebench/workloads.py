"""The benchmark's three workloads: inputs, timed sessions and oracles.

Every workload streams the canonical 1M-item Zipf(1.1) stream over 100k
flows into sketches built from ``DaVinciConfig.from_memory_kb(256, seed)``
with library defaults (no ``kernel=``, no ``REPRO_KERNEL``).  256 KB is the
smallest power-of-two budget at which the infrequent part fully decodes
this stream (64 KB peels 0 keys, 128 KB stalls, 256 KB recovers ~1070), so
work on decode can show in the numbers.

Each workload is one user session against a loopback ``SketchServer``:
make data queryable, get an answer over it, then read.  It is single-process
and closed-loop: one client issues the next operation only after the
previous one returned.  Every session reports the same end-to-end metrics,
so each workload is gated on all of them:

``ingest``
    Int keys in ``[1, 2^32)`` into one in-process sketch (``insert_all``,
    timed per 64k-key slice); then the sketch is PUSHed and one
    heavy-hitter answer is read over it; four more PUSHes (one as ``b``)
    and the query workload's request mix, without its pushes, follow.
    Canonicalization is a pass-through for in-domain ints, so the ingest
    layers (FP, EF, IFP encode, kernel) do most of the work.
``pipeline``
    The same session with the stream rendered as ``a.b.c.d:port`` strings
    through ``ShardedIngestor(num_shards=2, durable_root=...)`` and
    ``finalize()``.  String keys make canonicalization the hot layer; the
    journal, routing, merge tree, wire and server fold all run.
``query``
    Two 1M-item aggregates are pushed at set-up: the live window ``a`` and
    ``b``, the baseline snapshot of the same window.  One client then
    issues rounds of 500 requests, 95% point queries and 5% cycling through the
    eight other tasks (``b`` as ``other``), with a pre-built 10k-item delta
    PUSHed into ``a`` after every 50, so ``a - b`` is what changed since the
    snapshot.  (Two independently sampled windows would not do: their
    signed difference does not peel at 256 KB, so every ``difference`` and
    ``heavy_changers`` answer would come back degraded.)  Each push
    invalidates the decode cache, so decode, EM, join and set operations
    do the work.

Inputs come from the seed alone; the references the oracles compare
against are computed once per invocation, outside every timed region.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.hashing import hash64
from repro.core import serialization, setops
from repro.core.config import DaVinciConfig
from repro.core.davinci import DEFAULT_BATCH_CHUNK, DaVinciSketch
from repro.core.degrade import DegradationPolicy
from repro.metrics import accuracy
from repro.observability import metrics as obs_metrics
from repro.runtime.sharded import ShardedIngestor, ShardRouter, merge_tree
from repro.service import AggregationClient, SketchServer
from repro.service.tasks import PAIR_TASKS, run_task
from repro.workloads import groundtruth
from repro.workloads.zipf import generate_keys, zipf_trace

from hostspeed import NEIGHBOURS, HostSpeed
from spans import Tracer
from summary import OpTally, highest_percentile, median, percentile

MEMORY_KB = 256
SKEW = 1.1
NUM_SHARDS = 2
#: heavy-hitter / heavy-changer threshold as a share of the stream length
HH_FRACTION = 1e-4
#: one request in TASK_EVERY is a task (5%); the offset keeps the request
#: right after each push a point query, so time_to_answer is comparable
TASK_EVERY = 20
TASK_OFFSET = 5
#: the query client PUSHes one delta after every PUSH_EVERY requests
PUSH_EVERY = 50
#: the non-point tasks the query mix cycles through
TASK_CYCLE = (
    "heavy_hitters",
    "cardinality",
    "distribution",
    "entropy",
    "inner_join",
    "heavy_changers",
    "union",
    "difference",
)
#: requests per queries_per_s sample: one full cycle, so every burst holds
#: one request of each task and bursts are comparable
QPS_BURST = TASK_EVERY * len(TASK_CYCLE)
#: answers carry an explicit quality flag, so a stalled decode shows up as a
#: degraded (failed) answer instead of a silent guess
POLICY = DegradationPolicy.DEGRADE
#: set-ups timed back to back before the sessions; setup_s is their
#: median.  Closed servers hold reference cycles; each is collected right
#: after it closes, outside timing, so peak RSS does not depend on when the
#: collector happens to run.
SETUP_REPEATS = {"ingest": 61, "pipeline": 15, "query": 7}
#: keys per timed ingest call; the ingest rate is the median over calls,
#: which keeps it steady when the host slows down for a few seconds
SLICE = DEFAULT_BATCH_CHUNK
#: rounds of the request mix a run measures however short it is, each on a
#: fresh server: a round's point-read p50 moves with that server's start.
#: A pipeline session takes 13-29 s, so an 8-second run holds one; read
#: rounds (:func:`_read_round`) make up the rest without ingesting again.
MIN_ROUNDS = 2
#: pushes of the ingested sketch per ingest/pipeline session: ``a``, which
#: the answer waits for, ``b``, the pair tasks' ``other``, and three more
PUSHES_PER_SESSION = 5


@dataclass(frozen=True)
class Scale:
    """Input sizes; the benchmark runs at the default, tests shrink it."""

    items: int = 1_000_000
    flows: int = 100_000
    #: requests in one round of the request mix; a run holds at least
    #: ``MIN_ROUNDS`` rounds, so p99 has at least 10 samples beyond it
    requests: int = 500
    delta_items: int = 10_000
    #: deltas pushed per round of the query mix (one every PUSH_EVERY)
    deltas: int = 10

    @property
    def threshold(self) -> int:
        return max(2, int(self.items * HH_FRACTION))


def config_for(seed: int) -> DaVinciConfig:
    return DaVinciConfig.from_memory_kb(MEMORY_KB, seed=seed)


def render_key(key: int) -> str:
    """A flow key as the ``a.b.c.d:port`` text a collector would parse."""
    port = 1024 + hash64(key, 0x9047) % 64512
    return f"{key >> 24}.{(key >> 16) & 255}.{(key >> 8) & 255}.{key & 255}:{port}"


def _status_mb(field: str) -> float:
    """A ``VmRSS``/``VmHWM`` line of ``/proc/self/status``, in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/self/status has no {field}")


def start_peak_rss() -> float:
    """Restart this process's peak RSS at its current RSS; returns that RSS.

    The inputs, ground truth and oracles are built before this, so they
    are the base the program's own memory is measured over.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")  # 5 resets the peak-RSS high-water mark (Linux)
    return _status_mb("VmRSS")


def peak_rss_mb(base: float) -> float:
    """Memory added over ``base`` MB since :func:`start_peak_rss`, in MB.

    This process's peak RSS since :func:`start_peak_rss`, plus the peak of
    its largest waited child (a shard worker), each less ``base``: a forked
    worker starts out mapping the parent's resident pages, inputs included.
    """
    own = _status_mb("VmHWM") - base
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + max(0.0, children - base)


def accuracy_metrics(
    sketch: DaVinciSketch, freq: Dict[int, int], threshold: int
) -> Dict[str, float]:
    """The four accuracy metrics against exact ground truth."""
    reported = set(sketch.heavy_hitters(threshold))
    return {
        "freq_aae": accuracy.average_absolute_error(freq, sketch.query),
        "hh_f1": accuracy.f1_score(
            reported, groundtruth.heavy_hitters(freq, threshold)
        ),
        "cardinality_accuracy": 1.0
        - accuracy.relative_error(len(freq), sketch.cardinality()),
        "distribution_wmre": accuracy.weighted_mean_relative_error(
            groundtruth.size_distribution(freq), sketch.distribution()
        ),
    }


def guarded(tally: OpTally, what: str, call: Callable[[], Any]) -> Any:
    """Run one operation; an exception is recorded as a failed op.

    This is the benchmark's keep-running boundary: the traceback goes to
    stderr and the caller sees ``None``.
    """
    try:
        return call()
    except Exception as exc:  # any failure is counted, none is fatal
        traceback.print_exc(file=sys.stderr)
        tally.fail(f"{what}: {type(exc).__name__}")
        return None


def check(tally: OpTally, ok: bool, reason: str) -> None:
    if ok:
        tally.ok()
    else:
        tally.fail(reason)


def comparable(value: Any) -> Any:
    """A task answer in a form two runs can compare with ``==``."""
    if isinstance(value, DaVinciSketch):
        return value.to_state()["digest"]["value"]
    return value


class Region:
    """The measured region: arms tracing and library metrics while open.

    ``wall`` leaves out the calibration units run inside the region.
    """

    def __init__(self, tracer: Optional[Tracer], host: HostSpeed) -> None:
        self.tracer = tracer
        self.host = host
        self.wall = 0.0
        self._start = 0.0
        self._spent = 0.0

    def __enter__(self) -> "Region":
        if self.tracer is not None:
            obs_metrics.set_enabled(True)
            self.tracer.armed = True
        self._spent = self.host.spent
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        self.wall += elapsed - (self.host.spent - self._spent)
        if self.tracer is not None:
            self.tracer.armed = False
            obs_metrics.set_enabled(False)


_KINDS = ("setup", "ingest_rate", "to_answer", "latency", "push", "qps", "session")

#: one timed operation: its seconds and the index of the latest calibration
#: unit before it
Piece = Tuple[float, int]


class Samples:
    """Timings of one run, each kept as the pieces it is made of.

    Every piece remembers the calibration units around it, so
    :meth:`values` gives a timing as measured or, after the run, at
    reference host speed with each piece scaled on its own (see
    ``hostspeed``).
    """

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self._taken: Dict[str, List[Tuple[Optional[float], List[Piece]]]] = {
            kind: [] for kind in _KINDS
        }
        #: every piece timed so far, in order
        self.pieces: List[Piece] = []

    def time(self, call: Callable[[], Any]) -> Tuple[Any, Piece]:
        """Run ``call`` as one piece, after a calibration unit if one is due."""
        last = self.host.last()
        began = time.perf_counter()
        result = call()
        piece = (time.perf_counter() - began, last)
        self.pieces.append(piece)
        return result, piece

    def settle(self) -> None:
        """Time the units after the latest pieces, which judge them."""
        for _ in range(NEIGHBOURS):
            self.host.tick(force=True)

    def add(
        self, kind: str, pieces: List[Piece], amount: Optional[float] = None
    ) -> None:
        """Record a duration made of ``pieces`` or, given ``amount``, a
        rate: ``amount`` per second of them."""
        self._taken[kind].append((amount, list(pieces)))

    def count(self, kind: str) -> int:
        return len(self._taken[kind])

    def values(self, kind: str, reference: bool = True) -> List[float]:
        out = []
        for amount, pieces in self._taken[kind]:
            seconds = sum(
                spent / self.host.factor(last) if reference else spent
                for spent, last in pieces
            )
            out.append(seconds if amount is None else amount / seconds)
        return out

    def rates_from_pushes(self, items: int) -> None:
        """Record ``items`` per second of each push as an ingest rate."""
        self._taken["ingest_rate"] = [
            (float(items), pieces) for _amount, pieces in self._taken["push"]
        ]

    def metrics(self, reference: bool = True) -> Dict[str, float]:
        """The timing metrics, at reference host speed or as measured."""

        def get(kind: str) -> List[float]:
            return self.values(kind, reference)

        latencies = get("latency")
        if highest_percentile(len(latencies)) < 99.0:
            raise ValueError(
                f"{len(latencies)} requests leave fewer than 10 beyond p99"
            )
        return {
            "setup_s": median(get("setup")),
            "ingest_items_per_s": median(get("ingest_rate")),
            "time_to_answer_s": median(get("to_answer")),
            "query_p50_ms": percentile(latencies, 50.0) * 1e3,
            "query_p99_ms": percentile(latencies, 99.0) * 1e3,
            "queries_per_s": median(get("qps")),
            "push_p50_ms": median(get("push")) * 1e3,
        }


@dataclass
class Measurement:
    """What the measured sessions of one run produced."""

    metrics: Dict[str, float]
    #: the timing metrics as measured, before scaling to the reference host
    raw: Dict[str, float]
    tally: OpTally
    #: reference seconds of one session, for the tracing overhead
    unit_seconds: float
    region: Region
    #: per-layer numbers only the workload can see (not spans or counters)
    layer: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# the request mix shared by every session
# ---------------------------------------------------------------------- #
Op = Tuple[str, str, Dict[str, Any]]


def mix_schedule(
    seed: int, keys: List[int], scale: Scale, with_pushes: bool
) -> List[Op]:
    """A seeded closed-loop request mix: 95% point reads, 5% tasks.

    ``("query", task, args)`` runs against the session's aggregate (with
    ``b`` as ``other`` for pair tasks); ``("push", "", {"delta": i})``
    folds delta ``i`` into it.  The tasks also keep p99 in the range of the
    work a dashboard waits for: the tail of sub-millisecond point reads is
    set by how soon the host schedules the server thread, which moves from
    0.3 to 4 ms with the load other tenants put on the machine.
    """
    rng = random.Random(seed)
    ops: List[Op] = []
    tasks_issued = 0
    pushes = 0
    for index in range(scale.requests):
        if index % TASK_EVERY == TASK_OFFSET:
            task = TASK_CYCLE[tasks_issued % len(TASK_CYCLE)]
            tasks_issued += 1
            args: Dict[str, Any] = {}
            if task in ("heavy_hitters", "heavy_changers"):
                args["threshold"] = scale.threshold
            ops.append(("query", task, args))
        else:
            key = keys[rng.randrange(len(keys))]
            ops.append(("query", "query", {"key": key}))
        if with_pushes and index % PUSH_EVERY == PUSH_EVERY - 1:
            ops.append(("push", "", {"delta": pushes % scale.deltas}))
            pushes += 1
    return ops


def expected_answers(
    schedule: List[Op],
    replica: DaVinciSketch,
    other: Optional[DaVinciSketch],
    deltas: List[DaVinciSketch],
) -> Tuple[Dict[int, Any], DaVinciSketch]:
    """The oracle: the first answer of each task, from an in-process replica.

    The replica folds the same sketches the client pushes, without the wire
    and the server in between, so each answer must equal the remote one
    exactly.  Returns the answers by schedule index and the replica's final
    state.
    """
    expected: Dict[int, Any] = {}
    seen = set()
    for index, (kind, task, args) in enumerate(schedule):
        if kind == "push":
            replica = setops.union(replica, deltas[args["delta"]])
        elif task not in seen:
            seen.add(task)
            result = run_task(
                replica,
                task,
                other=other if task in PAIR_TASKS else None,
                policy=POLICY,
                **args,
            )
            expected[index] = comparable(result.value)
    return expected, replica


def run_mix(
    client: AggregationClient,
    aggregate: str,
    schedule: List[Op],
    deltas: List[DaVinciSketch],
    tally: OpTally,
    samples: Samples,
) -> Dict[int, Any]:
    """Issue the schedule against ``aggregate``; returns the answers.

    A push is also timed to the end of the answer that follows it: the
    time until a reader sees an answer over the new data.  Every
    ``QPS_BURST`` requests give one queries-per-second sample: the
    requests over the time they took.
    """
    answers: Dict[int, Any] = {}
    pushed: Optional[Piece] = None
    burst: List[Piece] = []
    for index, (kind, task, args) in enumerate(schedule):
        if kind == "push":
            delta = deltas[args["delta"]]
            done, piece = samples.time(
                lambda: guarded(tally, "push", lambda: client.push(aggregate, delta))
            )
            samples.add("push", [piece])
            pushed = None
            if done is not None:
                tally.ok()
                pushed = piece
            continue
        other = "b" if task in PAIR_TASKS else None
        result, piece = samples.time(
            lambda: guarded(
                tally,
                task,
                lambda: client.query(
                    aggregate, task, other=other, policy=POLICY, **args
                ),
            )
        )
        samples.add("latency", [piece])
        burst.append(piece)
        if len(burst) == QPS_BURST:
            samples.add("qps", burst, amount=QPS_BURST)
            burst = []
        if result is None:
            continue
        if pushed is not None:
            samples.add("to_answer", [pushed, piece])
            pushed = None
        if result.degraded:
            tally.fail(f"{task} degraded")
            continue
        tally.ok()
        answers[index] = result.value
    samples.settle()
    return answers


def check_answers(
    tally: OpTally,
    schedule: List[Op],
    expected: Dict[int, Any],
    answers: Dict[int, Any],
) -> None:
    for index, want in expected.items():
        if index in answers and comparable(answers[index]) != want:
            tally.mismatch(f"{schedule[index][1]} answer mismatch")


# ---------------------------------------------------------------------- #
# ingest and pipeline: make data queryable, push it, answer, read
# ---------------------------------------------------------------------- #
@dataclass
class DeliveryInputs:
    """Inputs of the ``ingest`` and ``pipeline`` sessions."""

    config: DaVinciConfig
    #: what the session ingests: ints (ingest) or strings (pipeline)
    keys: List[Any]
    threshold: int
    #: the request mix after the first answer (canonical int keys)
    schedule: List[Op]
    #: exact frequencies over the sketch's canonical keys
    freq: Dict[int, int]
    #: the reference sketch every session's state must equal
    oracle: DaVinciSketch
    oracle_hh: Dict[int, int]
    expected: Dict[int, Any]
    work_dir: str = ""
    #: counters of the in-process replay of the shard substreams (ingest
    #: work the shard worker processes do invisibly), when tracing
    replay_snapshot: Optional[Dict[str, Any]] = None
    replay_ama: float = 0.0


def per_item_oracle(
    config: DaVinciConfig, stream: List[int], chunk: int
) -> DaVinciSketch:
    """The paper's per-item Algorithms 1/2 over each chunk's aggregates.

    ``insert(key, total)`` in first-seen order per chunk is the contract
    every bulk ingest path must reproduce byte for byte.
    """
    sketch = DaVinciSketch(config)
    for start in range(0, len(stream), chunk):
        totals: Dict[int, int] = {}
        for key in stream[start : start + chunk]:
            totals[key] = totals.get(key, 0) + 1
        for key, total in totals.items():
            sketch.insert(key, total)
    return sketch


def _delivery_inputs(
    config: DaVinciConfig,
    keys: List[Any],
    canonical_stream: List[int],
    oracle: DaVinciSketch,
    seed: int,
    scale: Scale,
) -> DeliveryInputs:
    schedule = mix_schedule(seed, canonical_stream, scale, with_pushes=False)
    expected, _ = expected_answers(schedule, oracle, oracle, [])
    oracle_hh = run_task(
        oracle, "heavy_hitters", threshold=scale.threshold, policy=POLICY
    ).value
    return DeliveryInputs(
        config=config,
        keys=keys,
        threshold=scale.threshold,
        schedule=schedule,
        freq=groundtruth.frequencies(canonical_stream),
        oracle=oracle,
        oracle_hh=oracle_hh,
        expected=expected,
    )


def prepare_ingest(seed: int, scale: Scale) -> DeliveryInputs:
    config = config_for(seed)
    stream = zipf_trace(scale.items, scale.flows, SKEW, seed=seed)
    oracle = per_item_oracle(config, stream, DEFAULT_BATCH_CHUNK)
    return _delivery_inputs(config, stream, stream, oracle, seed, scale)


def prepare_pipeline(seed: int, scale: Scale, trace: bool) -> DeliveryInputs:
    config = config_for(seed)
    stream = zipf_trace(scale.items, scale.flows, SKEW, seed=seed)
    keys = [render_key(key) for key in stream]
    router = ShardRouter(NUM_SHARDS)
    # Canonicalize each distinct flow once; canonical ints route exactly
    # like the strings they came from, so the partition is unchanged.
    canonical = {text: router.canonical_key(text) for text in dict.fromkeys(keys)}
    canonical_stream = [canonical[text] for text in keys]

    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_default_registry(registry)
    obs_metrics.set_enabled(trace)
    try:
        shards = []
        for part in router.partition_pairs((key, 1) for key in canonical_stream):
            shard = DaVinciSketch(config)
            shard.insert_batch(part, chunk_size=DEFAULT_BATCH_CHUNK)
            shards.append(shard)
    finally:
        obs_metrics.set_enabled(False)
        obs_metrics.set_default_registry(previous)
    inputs = _delivery_inputs(
        config, keys, canonical_stream, merge_tree(shards), seed, scale
    )
    if trace:
        inputs.replay_snapshot = registry.snapshot()
        inputs.replay_ama = sum(s.memory_accesses for s in shards) / max(
            1, sum(s.insertions for s in shards)
        )
    return inputs


#: the CPUs this process may run on, read before any placement
CPUS = sorted(os.sched_getaffinity(0))


def _place_threads(cpus: Set[int]) -> None:
    """Allow every thread of this process only ``cpus``."""
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except OSError:  # the thread ended meanwhile
            pass


class Placement:
    """Hold every thread of this process on one CPU while measuring.

    The client, the server's threads and the calibration units then share
    one CPU.  A closed-loop request hands the processor from the client
    thread to the server thread and back on that CPU, instead of waking
    a thread on an idle CPU, whose delay on a shared host follows the
    neighbours' load and not this process's speed: unpinned, the point-read
    p50 scaled to reference speed spread 0.26 across trials, pinned 0.11.
    Shard workers run on the other CPUs (:func:`move_workers`).  With a
    single CPU nothing is pinned.
    """

    def __enter__(self) -> "Placement":
        if len(CPUS) > 1:
            _place_threads({CPUS[0]})
        return self

    def __exit__(self, *exc_info: object) -> None:
        _place_threads(set(CPUS))


def move_workers() -> None:
    """Put this process's live child processes on the CPUs it is not held on.

    Shard workers fork with the parent's placement; moved, they no longer
    take the processor from the parent, whose canonicalization is the
    pipeline's bottleneck.
    """
    others = set(CPUS) - os.sched_getaffinity(0)
    if not others:
        return
    for child in multiprocessing.active_children():
        try:
            os.sched_setaffinity(child.pid, others)
        except OSError:  # the worker ended meanwhile
            pass


class _Rig:
    """One session's set-up: the ingest side, the server and its client."""

    def __init__(self, inputs: DeliveryInputs, sharded: bool) -> None:
        self.durable_root: Optional[str] = None
        self.ingestor: Optional[ShardedIngestor] = None
        self.sketch: Optional[DaVinciSketch] = None
        if sharded:
            self.durable_root = tempfile.mkdtemp(
                prefix="shards-", dir=inputs.work_dir
            )
            # Workers fork before the server starts its threads.
            self.ingestor = ShardedIngestor(
                inputs.config,
                num_shards=NUM_SHARDS,
                durable_root=self.durable_root,
            )
            move_workers()
        else:
            self.sketch = DaVinciSketch(inputs.config)
        self.server = SketchServer().start()
        host, port = self.server.address
        self.client = AggregationClient(host, port)

    def ingest(
        self, keys: List[Any], samples: Samples, pieces: List[Piece]
    ) -> DaVinciSketch:
        """Offer ``keys`` in timed slices; returns the queryable sketch.

        Slices end on ``insert_all`` chunk boundaries, so the state is the
        one a single call over the whole stream builds.  Every timed call,
        ``finalize()`` included, is appended to ``pieces``.
        """
        ingestor, sketch = self.ingestor, self.sketch
        for start in range(0, len(keys), SLICE):
            part = keys[start : start + SLICE]
            if ingestor is not None:
                _, piece = samples.time(lambda: ingestor.ingest_keys(part))
            else:
                assert sketch is not None
                _, piece = samples.time(lambda: sketch.insert_all(part))
            samples.add("ingest_rate", [piece], amount=len(part))
            pieces.append(piece)
        if ingestor is None:
            assert sketch is not None
            return sketch
        merged, piece = samples.time(ingestor.finalize)
        pieces.append(piece)
        return merged

    def push(
        self, name: str, sketch: DaVinciSketch, samples: Samples
    ) -> Tuple[Any, Piece]:
        response, piece = samples.time(lambda: self.client.push(name, sketch))
        samples.add("push", [piece])
        return response, piece

    def bytes_on_disk(self) -> float:
        total = 0
        if self.durable_root is not None:
            for folder, _dirs, files in os.walk(self.durable_root):
                total += sum(
                    os.path.getsize(os.path.join(folder, name)) for name in files
                )
        return float(total)

    def close(self) -> None:
        if self.ingestor is not None:
            self.ingestor.close()
        self.server.close()
        if self.durable_root is not None:
            shutil.rmtree(self.durable_root, ignore_errors=True)


def _setups(samples: Samples, build: Callable[[], Any], count: int) -> None:
    """Time ``count`` throwaway set-ups, so ``setup_s`` is a median.

    A run calls this before its first session, while the process holds
    only the inputs.  Set-ups timed after sessions would fork shard
    workers from a larger process, and how many sessions fit in a run
    depends on the host's speed, so they would move from run to run.
    Calibration units right before and after each set-up judge the host's
    speed from the set-ups' own time, not from the sessions around them.
    """
    for _ in range(count):
        samples.host.tick(force=True)
        rig, piece = samples.time(build)
        samples.add("setup", [piece])
        samples.host.tick(force=True)
        rig.close()
        gc.collect()


def _delivery_session(
    inputs: DeliveryInputs,
    rig: _Rig,
    region: Region,
    tally: OpTally,
    samples: Samples,
    layer: Dict[str, float],
) -> Optional[DaVinciSketch]:
    """One session on ``rig``: ingest → push → first answer → request mix.

    Returns the sketch it served, or None when no answer came back.
    """
    client = rig.client
    oracle_digest = inputs.oracle.to_state()["digest"]["value"]
    with region:
        first = len(samples.pieces)
        # first key offered → first answer: every ingest call, finalize(),
        # the push and the answer
        to_answer: List[Piece] = []
        sketch = guarded(
            tally, "ingest", lambda: rig.ingest(inputs.keys, samples, to_answer)
        )
        pushed = answer = None
        answers: Dict[int, Any] = {}
        if sketch is not None:
            pushed = guarded(tally, "push", lambda: rig.push("a", sketch, samples))
        if pushed is not None:
            to_answer.append(pushed[1])
            answer, piece = samples.time(
                lambda: guarded(
                    tally,
                    "heavy_hitters",
                    lambda: client.query(
                        "a",
                        "heavy_hitters",
                        threshold=inputs.threshold,
                        policy=POLICY,
                    ),
                )
            )
            to_answer.append(piece)
        if answer is not None:
            for index in range(1, PUSHES_PER_SESSION):
                name = "b" if index == 1 else f"a{index}"
                again = guarded(tally, "push", lambda: rig.push(name, sketch, samples))
                if again is not None:
                    tally.ok()
            answers = run_mix(client, "a", inputs.schedule, [], tally, samples)
        samples.settle()
    if sketch is not None:
        # The ingest op is correct when its state is the oracle's.
        digest = sketch.to_state()["digest"]["value"]
        check(tally, digest == oracle_digest, "ingest oracle mismatch")
        layer["durable.bytes_on_disk"] = rig.bytes_on_disk()
        if rig.ingestor is None:
            layer["davinci.ama"] = sketch.memory_accesses / max(1, sketch.insertions)
    if pushed is not None:
        fetched = serialization.from_wire(client.fetch_blob("a"))
        check(
            tally,
            fetched.to_state()["digest"]["value"] == oracle_digest,
            "pushed state mismatch",
        )
    check_answers(tally, inputs.schedule, inputs.expected, answers)
    if answer is None:
        return None
    if answer.degraded:
        tally.fail("heavy_hitters degraded")
    else:
        check(tally, answer.value == inputs.oracle_hh, "answer mismatch")
    samples.add("to_answer", to_answer)
    samples.add("session", samples.pieces[first:])
    return sketch


def _read_round(
    inputs: DeliveryInputs,
    sketch: DaVinciSketch,
    region: Region,
    tally: OpTally,
    samples: Samples,
) -> None:
    """The request mix once more, on a fresh server holding ``sketch`` as
    ``a`` and ``b``."""
    rig = _Rig(inputs, sharded=False)
    try:
        answers: Dict[int, Any] = {}
        with region:
            pushed = 0
            for name in ("a", "b"):
                done = guarded(tally, "push", lambda: rig.push(name, sketch, samples))
                if done is not None:
                    tally.ok()
                    pushed += 1
            if pushed == 2:
                answers = run_mix(rig.client, "a", inputs.schedule, [], tally, samples)
        check_answers(tally, inputs.schedule, inputs.expected, answers)
    finally:
        rig.close()
        gc.collect()


def measure_delivery(
    inputs: DeliveryInputs,
    seconds: float,
    tracer: Optional[Tracer],
    sharded: bool,
) -> Measurement:
    """Sessions of ingest → push → first answer → request mix, for
    ``seconds`` and at least one, then read rounds up to ``MIN_ROUNDS``."""
    tally = OpTally()
    host = HostSpeed()
    region = Region(tracer, host)
    samples = Samples(host)
    layer: Dict[str, float] = {}
    base = start_peak_rss()
    peak: Optional[float] = None
    repeats = SETUP_REPEATS["pipeline" if sharded else "ingest"]
    _setups(samples, lambda: _Rig(inputs, sharded), repeats)
    begun = time.perf_counter()
    served: Optional[DaVinciSketch] = None
    rounds = 0
    while rounds == 0 or time.perf_counter() - begun < seconds:
        served = None  # so no session's sketch is held through the next
        rig = _Rig(inputs, sharded)
        try:
            served = _delivery_session(inputs, rig, region, tally, samples, layer)
        finally:
            rig.close()
            gc.collect()
        if peak is None:
            peak = peak_rss_mb(base)
        if served is None:
            break
        rounds += 1
    while served is not None and rounds < MIN_ROUNDS:
        _read_round(inputs, served, region, tally, samples)
        rounds += 1
    sessions = samples.values("session")
    metrics: Dict[str, float] = {}
    raw_metrics: Dict[str, float] = {}
    if sessions:
        metrics.update(samples.metrics())
        raw_metrics.update(samples.metrics(reference=False))
        metrics.update(accuracy_metrics(inputs.oracle, inputs.freq, inputs.threshold))
        metrics["peak_rss_mb"] = peak
    unit = median(sessions) if sessions else region.wall
    return Measurement(metrics, raw_metrics, tally, unit, region, layer)


# ---------------------------------------------------------------------- #
# query
# ---------------------------------------------------------------------- #
@dataclass
class QueryInputs:
    config: DaVinciConfig
    #: the 1M-item window pushed as both ``a`` and its snapshot ``b``
    window: DaVinciSketch
    deltas: List[DaVinciSketch]
    schedule: List[Op]
    #: schedule index -> expected comparable answer (first call of each task)
    expected: Dict[int, Any]
    #: digest of aggregate ``a`` after the whole schedule
    final_digest: str
    final: DaVinciSketch
    freq: Dict[int, int]
    threshold: int
    delta_items: int


def prepare_query(seed: int, scale: Scale) -> QueryInputs:
    config = config_for(seed)
    flows = generate_keys(scale.flows, seed=seed + 1)
    stream_a = zipf_trace(scale.items, scale.flows, SKEW, seed=seed, keys=flows)
    stream_d = zipf_trace(
        max(scale.flows, scale.delta_items * scale.deltas),
        scale.flows,
        SKEW,
        seed=seed + 2,
        keys=flows,
    )
    window = DaVinciSketch(config)
    window.insert_all(stream_a)
    delta_streams = [
        stream_d[index * scale.delta_items : (index + 1) * scale.delta_items]
        for index in range(scale.deltas)
    ]
    deltas = []
    for part in delta_streams:
        delta = DaVinciSketch(config)
        delta.insert_all(part)
        deltas.append(delta)
    schedule = mix_schedule(seed, stream_a, scale, with_pushes=True)

    expected, final = expected_answers(schedule, window, window, deltas)
    truth = groundtruth.frequencies(stream_a)
    for kind, _task, args in schedule:
        if kind == "push":
            for key in delta_streams[args["delta"]]:
                truth[key] = truth.get(key, 0) + 1
    return QueryInputs(
        config=config,
        window=window,
        deltas=deltas,
        schedule=schedule,
        expected=expected,
        final_digest=final.to_state()["digest"]["value"],
        final=final,
        freq=truth,
        threshold=scale.threshold,
        delta_items=scale.delta_items,
    )


class _QueryRig:
    """One set-up: a server holding window ``a`` and snapshot ``b``."""

    def __init__(self, inputs: QueryInputs) -> None:
        self.server = SketchServer().start()
        host, port = self.server.address
        self.client = AggregationClient(host, port)
        self.client.push("a", inputs.window)
        self.client.push("b", inputs.window)

    def close(self) -> None:
        self.server.close()


def _query_round(
    inputs: QueryInputs,
    rig: _QueryRig,
    region: Region,
    tally: OpTally,
    samples: Samples,
) -> None:
    """One round of the request mix on ``rig``."""
    with region:
        first = len(samples.pieces)
        answers = run_mix(
            rig.client, "a", inputs.schedule, inputs.deltas, tally, samples
        )
        samples.add("session", samples.pieces[first:])
    check_answers(tally, inputs.schedule, inputs.expected, answers)
    fetched = serialization.from_wire(rig.client.fetch_blob("a"))
    if fetched.to_state()["digest"]["value"] != inputs.final_digest:
        tally.mismatch("final aggregate mismatch")


def measure_query(
    inputs: QueryInputs, seconds: float, tracer: Optional[Tracer]
) -> Measurement:
    tally = OpTally()
    host = HostSpeed()
    region = Region(tracer, host)
    samples = Samples(host)
    base = start_peak_rss()
    peak: Optional[float] = None
    _setups(samples, lambda: _QueryRig(inputs), SETUP_REPEATS["query"])
    begun = time.perf_counter()
    while (
        samples.count("session") < MIN_ROUNDS
        or time.perf_counter() - begun < seconds
    ):
        rig = _QueryRig(inputs)
        try:
            _query_round(inputs, rig, region, tally, samples)
        finally:
            rig.close()
            gc.collect()
        if peak is None:
            peak = peak_rss_mb(base)
    # Items a push makes queryable per second of pushing.
    samples.rates_from_pushes(inputs.delta_items)
    metrics = samples.metrics()
    raw_metrics = samples.metrics(reference=False)
    metrics.update(accuracy_metrics(inputs.final, inputs.freq, inputs.threshold))
    metrics["peak_rss_mb"] = peak
    rounds = samples.values("session")
    return Measurement(metrics, raw_metrics, tally, median(rounds), region)


# ---------------------------------------------------------------------- #
# dispatch
# ---------------------------------------------------------------------- #
WORKLOADS = ("ingest", "pipeline", "query")


def prepare(
    workload: str, seed: int, scale: Scale, trace: bool, work_dir: str
) -> Any:
    if workload == "ingest":
        return prepare_ingest(seed, scale)
    if workload == "pipeline":
        inputs = prepare_pipeline(seed, scale, trace)
        inputs.work_dir = work_dir
        return inputs
    if workload == "query":
        return prepare_query(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


def measure(
    workload: str, inputs: Any, seconds: float, tracer: Optional[Tracer]
) -> Measurement:
    """Measure ``workload`` with this process held on one CPU (see ``Placement``)."""
    with Placement():
        if workload == "query":
            return measure_query(inputs, seconds, tracer)
        return measure_delivery(
            inputs, seconds, tracer, sharded=workload == "pipeline"
        )
