"""Unit tests for the benchmark-regression gate (``tools.benchcheck``)."""

import json

import pytest

from tools.benchcheck import compare, lookup, main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestLookup:
    def test_flat_and_dotted_paths(self):
        report = {"speedup": 2.3, "batched": {"items_per_second": 125000.0}}
        assert lookup(report, "speedup") == 2.3
        assert lookup(report, "batched.items_per_second") == 125000.0

    def test_missing_paths_are_none(self):
        report = {"batched": {"x": 1}}
        assert lookup(report, "missing") is None
        assert lookup(report, "batched.y") is None
        assert lookup(report, "batched.x.too_deep") is None


class TestCompare:
    def test_within_tolerance_passes(self, capsys):
        fresh = {"speedup": 2.0, "state_identical_to_sequential": True}
        base = {"speedup": 2.3}
        assert compare(fresh, base) == []
        assert "PASS" not in capsys.readouterr().out  # compare only prints rows

    def test_higher_is_better_regression_fails(self):
        fresh = {"speedup": 1.7}
        base = {"speedup": 2.3}  # floor = 1.84
        failures = compare(fresh, base)
        assert len(failures) == 1
        assert failures[0].startswith("speedup:")

    def test_lower_is_better_gets_absolute_slack(self):
        # 0.04 baseline: +20% relative would demand <= 0.048, but the
        # 0.05 absolute slack lifts the ceiling to 0.09
        fresh = {"overhead_fraction": 0.08}
        base = {"overhead_fraction": 0.04}
        assert compare(fresh, base) == []
        assert compare({"overhead_fraction": 0.10}, base) != []

    def test_boolean_verdicts_must_be_true(self):
        base = {"speedup": 2.0}
        fresh = {"speedup": 2.0, "recovered_state_identical": False}
        failures = compare(fresh, base)
        assert any("recovered_state_identical" in f for f in failures)
        # absent verdicts are not required
        assert compare({"speedup": 2.0}, base) == []

    def test_explicit_floor_replaces_relative_check(self):
        # would fail the ±20% relative check, but the explicit floor wins
        fresh = {"speedup": 1.6}
        base = {"speedup": 2.3}
        assert compare(fresh, base, floors={"speedup": 1.5}) == []
        assert compare(fresh, base, floors={"speedup": 1.7}) != []

    def test_explicit_ceiling_replaces_relative_check(self):
        fresh = {"overhead_fraction": 0.4}
        base = {"overhead_fraction": 0.05}
        assert compare(fresh, base, ceilings={"overhead_fraction": 0.5}) == []
        assert compare(fresh, base, ceilings={"overhead_fraction": 0.3}) != []

    def test_dotted_bound_on_nested_field(self):
        fresh = {"batched": {"items_per_second": 90000.0}}
        failures = compare(
            fresh, {}, floors={"batched.items_per_second": 100000.0}
        )
        assert len(failures) == 1
        assert compare(
            fresh, {}, floors={"batched.items_per_second": 50000.0}
        ) == []

    def test_missing_bound_target_fails_loudly(self):
        failures = compare({}, {}, floors={"speedup": 1.5})
        assert any("missing" in f for f in failures)

    def test_metric_absent_from_both_reports_is_skipped(self):
        # a checkpoint report has no speedup and vice versa
        assert compare({"overhead_fraction": 0.05}, {"overhead_fraction": 0.05}) == []

    def test_missing_baseline_metric_skips_not_fails(self):
        assert compare({"speedup": 2.0}, {}) == []


class TestMain:
    def test_pass_exit_zero(self, tmp_path, capsys):
        fresh = _write(tmp_path, "fresh.json", {"speedup": 2.2})
        base = _write(tmp_path, "base.json", {"speedup": 2.3})
        assert main([fresh, "--baseline", base]) == 0
        assert "benchcheck: PASS" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        fresh = _write(tmp_path, "fresh.json", {"speedup": 1.0})
        base = _write(tmp_path, "base.json", {"speedup": 2.3})
        assert main([fresh, "--baseline", base]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_min_max_flags(self, tmp_path):
        fresh = _write(
            tmp_path,
            "fresh.json",
            {"speedup": 1.6, "overhead_fraction": 0.4},
        )
        base = _write(
            tmp_path,
            "base.json",
            {"speedup": 2.3, "overhead_fraction": 0.05},
        )
        code = main(
            [
                fresh,
                "--baseline",
                base,
                "--min",
                "speedup=1.5",
                "--max",
                "overhead_fraction=0.5",
            ]
        )
        assert code == 0

    def test_unreadable_report_exits_two(self, tmp_path):
        base = _write(tmp_path, "base.json", {})
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nope.json"), "--baseline", base])
        assert "cannot read report" in str(excinfo.value)

    def test_malformed_bound_exits_two(self, tmp_path):
        fresh = _write(tmp_path, "fresh.json", {})
        base = _write(tmp_path, "base.json", {})
        with pytest.raises(SystemExit) as excinfo:
            main([fresh, "--baseline", base, "--min", "speedup"])
        assert "malformed bound" in str(excinfo.value)

    def test_non_object_report_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        base = _write(tmp_path, "base.json", {})
        with pytest.raises(SystemExit) as excinfo:
            main([str(path), "--baseline", base])
        assert "not a JSON object" in str(excinfo.value)

    def test_committed_baselines_pass_against_themselves(self, capsys):
        # the repo-root baselines are self-consistent by construction
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        for name in ("BENCH_kernel.json", "BENCH_checkpoint.json"):
            baseline = str(root / name)
            assert main([baseline, "--baseline", baseline]) == 0, name
