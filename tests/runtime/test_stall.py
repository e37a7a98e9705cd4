"""A wedged-but-alive shard worker trips ``stall_timeout``.

The historical failure mode: a worker process stops consuming (stopped,
deadlocked, swapping) while staying alive, so ``ingest`` blocks forever
on the full queue with no error and no progress.  ``stall_timeout``
converts that silent hang into a typed ``ShardTimeoutError``.  The test
reproduces the wedge for real with SIGSTOP.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.common.errors import ConfigurationError, ShardTimeoutError
from repro.runtime.sharded import ShardedIngestor

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP/SIGCONT"
)


def test_stopped_worker_raises_shard_timeout(small_config):
    ingestor = ShardedIngestor(
        small_config,
        1,
        chunk_items=4,
        queue_depth=1,
        stall_timeout=0.6,
    )
    pid = ingestor._shards[0].process.pid
    stopped = False
    try:
        os.kill(pid, signal.SIGSTOP)
        stopped = True
        started = time.monotonic()
        with pytest.raises(ShardTimeoutError) as excinfo:
            # keep feeding until the queue jams behind the stopped worker
            for base in range(0, 10_000, 4):
                ingestor.ingest_keys(range(base, base + 4))
        elapsed = time.monotonic() - started
        assert "shard 0" in str(excinfo.value)
        assert "0.6" in str(excinfo.value)
        # raised promptly after the stall bound, not after minutes
        assert elapsed < 30.0
    finally:
        if stopped:
            os.kill(pid, signal.SIGCONT)
        ingestor.close()


def test_live_worker_never_trips_the_stall_bound(small_config):
    ingestor = ShardedIngestor(
        small_config,
        1,
        chunk_items=4,
        queue_depth=1,
        stall_timeout=5.0,
    )
    try:
        # far more puts than queue_depth: drain keeps resetting the timer
        for base in range(0, 400, 4):
            ingestor.ingest_keys(range(base, base + 4))
        merged = ingestor.finalize()
        assert merged.cardinality() > 0
        ingestor = None  # finalize already tore the workers down
    finally:
        if ingestor is not None:
            ingestor.close()


def test_stall_timeout_validation(small_config):
    with pytest.raises(ConfigurationError):
        ShardedIngestor(small_config, 1, stall_timeout=0.0)
    with pytest.raises(ConfigurationError):
        ShardedIngestor(small_config, 1, stall_timeout=-1.0)
