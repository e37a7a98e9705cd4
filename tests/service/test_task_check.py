"""Every query entry point rejects a bad task name the same way.

``run_task``, :meth:`AggregationClient.query` and
:meth:`ClusterQuerier.query` share one check
(:func:`repro.core.degrade.check_task`): an unknown task, or a pair task
without ``other``, raises :class:`ConfigurationError` before any work —
for the two remote entry points, before a frame is sent.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.core.degrade import run_task
from repro.service import AggregationClient, ClusterQuerier


def _no_frames(self, *args, **kwargs):
    raise AssertionError("a frame was sent for a request that is invalid")


@pytest.fixture
def entry_points(monkeypatch, sketch_factory):
    monkeypatch.setattr(AggregationClient, "_call", _no_frames)
    client = AggregationClient("127.0.0.1", 9)
    querier = ClusterQuerier([client])
    sketch = sketch_factory([(1, 5), (2, 3)])
    return {
        "run_task": lambda task: run_task(sketch, task, key=1, threshold=1),
        "client": lambda task: client.query("agg", task, key=1, threshold=1),
        "cluster": lambda task: querier.query(
            "agg", task, key=1, threshold=1
        ),
    }


@pytest.mark.parametrize("entry", ["run_task", "client", "cluster"])
@pytest.mark.parametrize(
    "task,message",
    [
        ("nope", "unknown task 'nope'"),
        ("inner_join", "needs an 'other' aggregate"),
        ("heavy_changers", "needs an 'other' aggregate"),
        ("union", "needs an 'other' aggregate"),
        ("difference", "needs an 'other' aggregate"),
    ],
)
def test_bad_task_is_rejected_before_any_work(
    entry_points, entry, task, message
):
    with pytest.raises(ConfigurationError, match=message):
        entry_points[entry](task)
