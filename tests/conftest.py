"""Shared fixtures: deterministic small traces and sketch configurations,
and the autouse recorder trap (:mod:`tests.recordertrap`).

Everything here is deliberately tiny — unit tests should run in
milliseconds; the scaled paper experiments live in ``benchmarks/``.
"""

from __future__ import annotations

import faulthandler
import os
import random
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List

import pytest

from repro.core import DaVinciConfig, DaVinciSketch
from tests.recordertrap import RecorderTrap

# Dependency-free hang watchdog for the networked/multiprocess suites:
# REPRO_TEST_WATCHDOG=<seconds> dumps every thread's traceback and
# aborts the run if the whole session exceeds the bound (CI sets it so
# a wedged socket test fails with stacks instead of a 6h timeout; the
# per-test pytest-timeout plugin is CI-only and not assumed locally).
_WATCHDOG_SECONDS = os.environ.get("REPRO_TEST_WATCHDOG")
if _WATCHDOG_SECONDS:
    faulthandler.dump_traceback_later(
        float(_WATCHDOG_SECONDS), exit=True
    )


#: suites where no metric may be recorded while collection is off (the
#: observability suite drives recorders directly, so it is out)
RECORDER_TRAPPED = ("core", "properties", "runtime", "service", "sketches")


@pytest.fixture(autouse=True)
def recorder_trap(
    request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch
) -> Iterator[RecorderTrap]:
    """Arm :class:`RecorderTrap` over the suites in :data:`RECORDER_TRAPPED`."""
    trap = RecorderTrap()
    if Path(request.path).parent.name in RECORDER_TRAPPED:
        trap.install(monkeypatch)
    yield trap
    trap.verify()


@pytest.fixture
def small_config() -> DaVinciConfig:
    """A tiny but fully functional DaVinci shape for unit tests."""
    return DaVinciConfig(
        fp_buckets=16,
        fp_entries=4,
        ef_level_widths=(256, 64),
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=64,
        lambda_evict=8.0,
        filter_threshold=10,
        seed=7,
    )


@pytest.fixture
def sketch(small_config) -> DaVinciSketch:
    """An empty sketch with the small config."""
    return DaVinciSketch(small_config)


def make_zipf_stream(
    num_keys: int, num_items: int, skew: float = 1.1, seed: int = 42
) -> List[int]:
    """A skewed stream over keys ``1..num_keys`` (pure-random, no numpy)."""
    rng = random.Random(seed)
    keys = list(range(1, num_keys + 1))
    weights = [1.0 / (rank ** skew) for rank in range(1, num_keys + 1)]
    return rng.choices(keys, weights=weights, k=num_items)


@pytest.fixture
def zipf_stream() -> List[int]:
    """A 5000-item stream over 400 keys with realistic skew."""
    return make_zipf_stream(num_keys=400, num_items=5000)


@pytest.fixture
def zipf_truth(zipf_stream) -> Dict[int, int]:
    """Exact frequencies of :func:`zipf_stream`."""
    return dict(Counter(zipf_stream))


@pytest.fixture
def loaded_sketch(small_config, zipf_stream) -> DaVinciSketch:
    """A sketch that has absorbed the zipf stream."""
    sk = DaVinciSketch(small_config)
    sk.insert_all(zipf_stream)
    return sk
