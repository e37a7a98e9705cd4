"""Degradation policies across every decode consumer.

The contract under a forced peel stall (ISSUE acceptance):

* ``STRICT``      — every task raises :class:`DecodeError`;
* ``DEGRADE``     — every task returns a finite, flagged
  :class:`DegradedResult` with a human-readable reason;
* ``BEST_EFFORT`` — every task returns, never raises, and never emits
  NaN/inf (or negative mass where mass is meant).

``policy=None`` keeps the historical plain-value behavior.  Every task is
driven through :func:`~repro.core.degrade.run_task`, the one place the
policy is applied.
"""

from __future__ import annotations

import inspect
import math

import pytest

from repro.common.errors import DecodeError
from repro.core.config import DaVinciConfig
from repro.core import degrade
from repro.core.davinci import DaVinciSketch
from repro.core.degrade import (
    DegradationPolicy,
    DegradedResult,
    execute,
    finite_or,
    run_task,
)
from repro.core.windowed import WindowedDaVinci
from repro.testing import forced_peel_stall

ALL_POLICIES = list(DegradationPolicy)


@pytest.fixture
def populated(small_config) -> DaVinciSketch:
    """A sketch whose IFP holds decodable keys — and stays light enough
    that unions/differences with :func:`companion` also peel cleanly."""
    sketch = DaVinciSketch(small_config)
    for key in range(1, 100):
        sketch.insert(key, 25)
    assert sketch.decode_result().complete
    assert len(sketch.decode_counts()) > 10
    return sketch


@pytest.fixture
def companion(small_config) -> DaVinciSketch:
    """A second, clean sketch for binary tasks (overlapping key range)."""
    sketch = DaVinciSketch(small_config)
    for key in range(50, 150):
        sketch.insert(key, 15)
    assert sketch.decode_result().complete
    return sketch


#: arguments a task needs besides its sketches
TASK_ARGS = {
    "query": {"key": 5},
    "heavy_hitters": {"threshold": 20},
    "heavy_changers": {"threshold": 20},
}


def _runner(task):
    """``runner(stalled_sketch, companion, policy)`` through run_task."""
    return lambda a, b, p: run_task(
        a,
        task,
        other=b if task in degrade.PAIR_TASKS else None,
        policy=p,
        **TASK_ARGS.get(task, {}),
    )


# Generated from the task list, so a new task cannot skip the matrix.
# Tasks driven by the decode state of their *input* sketches:
INPUT_TASKS = [
    (task, _runner(task))
    for task in degrade.TASKS
    if task not in degrade.SKETCH_TASKS
]

# Tasks that probe the decode state of the sketch they return:
SET_OPERATIONS = list(degrade.SKETCH_TASKS)


def test_no_public_method_takes_a_policy():
    """The policy is applied by ``run_task`` alone: the facades return
    plain values, so none of them can drop or mis-thread a policy."""
    takers = [
        f"{cls.__name__}.{name}"
        for cls in (DaVinciSketch, WindowedDaVinci)
        for name, method in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
        and "policy" in inspect.signature(method).parameters
    ]
    assert takers == []


def _assert_finite(name, value):
    if isinstance(value, float):
        assert math.isfinite(value), f"{name} produced a non-finite float"
    elif isinstance(value, dict):
        for key, entry in value.items():
            assert isinstance(key, int)
            if isinstance(entry, float):
                assert math.isfinite(entry), f"{name}[{key}] is non-finite"
    elif isinstance(value, DaVinciSketch):
        pass  # sketches are checked by their own invariants
    else:
        assert isinstance(value, int)


class TestInputTaskMatrix:
    @pytest.mark.parametrize("name,runner", INPUT_TASKS)
    def test_clean_sketch_is_not_degraded(
        self, populated, companion, name, runner
    ):
        for policy in ALL_POLICIES:
            result = runner(populated, companion, policy)
            assert isinstance(result, DegradedResult)
            assert result.degraded is False
            assert result.reason is None
            _assert_finite(name, result.value)

    @pytest.mark.parametrize("name,runner", INPUT_TASKS)
    def test_strict_raises_on_stall(self, populated, companion, name, runner):
        with forced_peel_stall(populated, keep_partial=3):
            with pytest.raises(DecodeError) as excinfo:
                runner(populated, companion, DegradationPolicy.STRICT)
            assert "STRICT" in str(excinfo.value)
            assert isinstance(excinfo.value.partial, dict)

    @pytest.mark.parametrize("name,runner", INPUT_TASKS)
    @pytest.mark.parametrize(
        "policy", [DegradationPolicy.DEGRADE, DegradationPolicy.BEST_EFFORT]
    )
    @pytest.mark.parametrize("keep_partial", [0, 3])
    def test_lenient_policies_flag_and_stay_finite(
        self, populated, companion, name, runner, policy, keep_partial
    ):
        """Satellite (c): empty-partial and partial-only stalls both yield
        finite, non-negative, explicitly-flagged answers."""
        with forced_peel_stall(populated, keep_partial=keep_partial):
            result = runner(populated, companion, policy)
        assert isinstance(result, DegradedResult)
        assert result.degraded is True
        assert result.reason and "residual" in result.reason
        _assert_finite(name, result.value)
        if name == "cardinality":
            assert result.value >= 0.0
        if name == "entropy":
            assert result.value >= 0.0
        if name == "inner_join":
            assert result.value >= 0.0
        if name == "distribution":
            assert all(mass >= 0.0 for mass in result.value.values())
            assert all(size >= 1 for size in result.value)

    @pytest.mark.parametrize("name", ["inner_join", "heavy_changers"])
    def test_a_stalled_partner_flags_a_pair_task(
        self, populated, companion, name
    ):
        runner = _runner(name)
        with forced_peel_stall(companion):
            with pytest.raises(DecodeError):
                runner(populated, companion, DegradationPolicy.STRICT)
            result = runner(populated, companion, DegradationPolicy.DEGRADE)
        assert result.degraded is True
        assert "sketch[1]" in result.reason

    @pytest.mark.parametrize("name,runner", INPUT_TASKS)
    def test_policy_none_preserves_plain_returns(
        self, populated, companion, name, runner
    ):
        plain = runner(populated, companion, None)
        assert not isinstance(plain, DegradedResult)
        wrapped = runner(populated, companion, DegradationPolicy.DEGRADE)
        assert wrapped.unwrap() == plain


def _tiny_config():
    return DaVinciConfig(
        fp_buckets=2,
        fp_entries=2,
        ef_level_widths=(16, 8),
        ef_level_bits=(4, 8),
        ifp_rows=2,
        ifp_width=2,
        lambda_evict=8.0,
        filter_threshold=4,
        seed=9,
    )


def _tiny(keys):
    sketch = DaVinciSketch(_tiny_config())
    for key in keys:
        sketch.insert(key, 9)
    return sketch


def _overloaded_pair():
    """Two compatible sketches whose union/difference genuinely stall."""
    a = DaVinciSketch(_tiny_config())
    key = 1
    while a.decode_result().complete:
        a.insert(key, 9)
        key += 1
        assert key < 500, "could not overload the tiny IFP"
    return a, _tiny(range(300, 340))


class TestSetOperationPolicies:
    """Union/difference probe the *result* sketch's decodability."""

    @pytest.mark.parametrize("op", SET_OPERATIONS)
    def test_strict_raises_when_result_stalls(self, op):
        a, b = _overloaded_pair()
        merged = getattr(a, op)(b)
        assert not merged.decode_result().complete  # precondition
        with pytest.raises(DecodeError):
            run_task(a, op, other=b, policy=DegradationPolicy.STRICT)

    @pytest.mark.parametrize("op", SET_OPERATIONS)
    def test_a_stalled_result_of_clean_inputs_is_flagged(self, op):
        a, b = _tiny(range(1, 8)), _tiny(range(300, 305))
        assert a.decode_result().complete  # precondition
        assert b.decode_result().complete
        with pytest.raises(DecodeError):
            run_task(a, op, other=b, policy=DegradationPolicy.STRICT)
        result = run_task(a, op, other=b, policy=DegradationPolicy.DEGRADE)
        assert result.degraded is True
        assert "sketch[0]" in result.reason

    @pytest.mark.parametrize("op", SET_OPERATIONS)
    @pytest.mark.parametrize(
        "policy", [DegradationPolicy.DEGRADE, DegradationPolicy.BEST_EFFORT]
    )
    def test_lenient_policies_flag_the_result(self, op, policy):
        a, b = _overloaded_pair()
        result = run_task(a, op, other=b, policy=policy)
        assert isinstance(result, DegradedResult)
        assert result.degraded is True
        assert result.reason and "residual" in result.reason
        assert isinstance(result.value, DaVinciSketch)
        # the degraded result still answers point queries
        assert isinstance(result.value.query(1), int)

    def test_a_peel_cut_by_its_visit_budget_is_flagged(self):
        # a signed difference whose peel keeps undoing and redoing a false
        # peel until the budget (8 visits per bucket, at least 64) runs out
        config = DaVinciConfig(
            fp_buckets=4,
            fp_entries=3,
            ef_level_widths=(32, 8),
            ef_level_bits=(4, 8),
            ifp_rows=3,
            ifp_width=2,
            filter_threshold=10,
            seed=39,
        )
        a, b = DaVinciSketch(config), DaVinciSketch(config)
        a.insert_batch(
            [(29, 18), (20, 16), (57, 16), (25, 8), (29, 11), (37, 24), (25, 29)]
            + [(59, 29), (14, 24)]
        )
        b.insert_batch(
            [(4, 16), (52, 18), (29, 20), (6, 18), (22, 17), (19, 30), (27, 9)]
            + [(35, 5), (7, 21), (17, 9), (29, 19)]
        )
        decoded = a.difference(b).decode_result()
        assert decoded.budget_exhausted and not decoded.complete
        assert decoded.residual_buckets == 3
        result = run_task(a, "difference", other=b, policy=DegradationPolicy.DEGRADE)
        assert result.degraded is True
        assert "visit budget ran out" in result.reason
        # a stall is not a cut
        left, right = _overloaded_pair()
        stalled = run_task(left, "union", other=right, policy=DegradationPolicy.DEGRADE)
        assert not stalled.value.decode_result().budget_exhausted
        assert "visit budget" not in stalled.reason

    @pytest.mark.parametrize("op", SET_OPERATIONS)
    def test_clean_inputs_are_not_degraded(
        self, populated, companion, op
    ):
        result = run_task(
            populated, op, other=companion, policy=DegradationPolicy.STRICT
        )
        assert result.degraded is False
        plain = getattr(populated, op)(companion)
        assert result.value.to_state() == plain.to_state()


class TestWindowedPolicies:
    def test_too_few_windows_is_clean_empty(self, small_config):
        windowed = WindowedDaVinci(small_config, window_size=100)
        assert windowed.latest() is None
        assert windowed.heavy_changers(10) == {}

    def test_stalled_window_degrades(self, small_config):
        windowed = WindowedDaVinci(small_config, window_size=1000)
        for key in range(1, 60):
            windowed.insert(key, 25)  # closes window 1 + spills
        windowed.rotate()
        for key in range(30, 90):
            windowed.insert(key, 25)
        windowed.rotate()
        assert windowed.previous() is not None
        newest, previous = windowed.latest(), windowed.previous()

        def changers(policy):
            return run_task(
                newest,
                "heavy_changers",
                other=previous,
                threshold=10,
                policy=policy,
            )

        clean = changers(DegradationPolicy.STRICT)
        assert clean.degraded is False
        assert clean.value == windowed.heavy_changers(10)
        with forced_peel_stall(newest):
            with pytest.raises(DecodeError):
                changers(DegradationPolicy.STRICT)
            result = changers(DegradationPolicy.DEGRADE)
        assert result.degraded is True
        assert result.reason


class TestExecutePrimitive:
    def test_best_effort_converts_decode_error_to_fallback(self, populated):
        def explode():
            raise DecodeError("peel stalled", partial={1: 2})

        result = execute(
            (populated,),
            explode,
            DegradationPolicy.BEST_EFFORT,
            fallback=lambda: 42,
        )
        assert result.value == 42
        assert result.degraded is True
        assert "decode error" in result.reason

    def test_degrade_reraises_compute_decode_errors(self, populated):
        def explode():
            raise DecodeError("peel stalled")

        with pytest.raises(DecodeError):
            execute(
                (populated,),
                explode,
                DegradationPolicy.DEGRADE,
                fallback=lambda: 0,
            )

    def test_best_effort_sanitizes_non_finite_values(self, populated):
        result = execute(
            (populated,),
            lambda: float("nan"),
            DegradationPolicy.BEST_EFFORT,
            fallback=lambda: 0.0,
            sanitize=finite_or(0.0),
        )
        assert result.value == 0.0
        assert result.degraded is True
        assert "non-finite" in result.reason

    def test_degrade_does_not_sanitize(self, populated):
        result = execute(
            (populated,),
            lambda: float("inf"),
            DegradationPolicy.DEGRADE,
            fallback=lambda: 0.0,
            sanitize=finite_or(0.0),
        )
        assert math.isinf(result.value)
        assert result.degraded is False

    def test_unwrap_returns_raw_value(self):
        assert DegradedResult(value={"a": 1}).unwrap() == {"a": 1}

    def test_result_is_frozen(self):
        result = DegradedResult(value=1.0)
        with pytest.raises(AttributeError):
            result.degraded = True
