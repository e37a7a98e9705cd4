"""SARIF 2.1.0 output: structural schema conformance and CLI integration."""

from __future__ import annotations

import json

from tools.sketchlint.cli import main
from tools.sketchlint.engine import LintReport, Violation, lint_paths
from tools.sketchlint.rules import ALL_RULES
from tools.sketchlint.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    fingerprint_of,
    render_sarif,
)


def _assert_valid_sarif(log: dict) -> None:
    """Hand-rolled structural check against the SARIF 2.1.0 schema.

    Covers the required properties GitHub code scanning actually
    validates on upload: top-level version/runs, tool.driver with name
    and rule descriptors, results referencing rules by id/index with
    physical locations.
    """
    assert log["version"] == SARIF_VERSION == "2.1.0"
    assert log["$schema"] == SARIF_SCHEMA
    assert isinstance(log["runs"], list) and len(log["runs"]) == 1

    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "sketchlint"
    assert isinstance(driver["version"], str)

    rules = driver["rules"]
    assert isinstance(rules, list) and rules
    ids = [rule["id"] for rule in rules]
    assert len(ids) == len(set(ids)), "rule ids must be unique"
    for rule in rules:
        assert rule["id"].startswith("SK")
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in (
            "none",
            "note",
            "warning",
            "error",
        )

    for result in run["results"]:
        assert result["ruleId"] in ids
        if "ruleIndex" in result:
            assert ids[result["ruleIndex"]] == result["ruleId"]
        assert result["level"] in ("none", "note", "warning", "error")
        assert result["message"]["text"]
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"]
        assert "\\" not in physical["artifactLocation"]["uri"]
        region = physical["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1
        fingerprints = result["partialFingerprints"]
        assert "sketchlint/v1" in fingerprints
        assert len(fingerprints["sketchlint/v1"]) == 32

    for invocation in run.get("invocations", []):
        assert isinstance(invocation["executionSuccessful"], bool)


def _all_rules():
    return [cls() for cls in ALL_RULES]


def test_empty_report_is_valid_sarif():
    log = json.loads(render_sarif(LintReport(), _all_rules()))
    _assert_valid_sarif(log)
    assert log["runs"][0]["results"] == []


def test_report_with_findings_round_trips(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text("import random\nx = random.random()\n", encoding="utf-8")
    report = lint_paths([target])
    assert report.violations, "fixture should trip at least one rule"

    log = json.loads(render_sarif(report, _all_rules()))
    _assert_valid_sarif(log)
    results = log["runs"][0]["results"]
    assert len(results) == len(report.violations)
    assert {r["ruleId"] for r in results} == {v.code for v in report.violations}


def test_all_registered_rules_appear_as_descriptors():
    log = json.loads(render_sarif(LintReport(), _all_rules()))
    ids = {rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]}
    assert {cls.code for cls in ALL_RULES} <= ids
    # the four v2 interprocedural rules specifically
    assert {"SK101", "SK102", "SK103", "SK105"} <= ids


def test_fingerprints_are_content_addressed(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("# pad\nassert True\n", encoding="utf-8")
    shifted = tmp_path / "mod2.py"
    shifted.write_text("# pad\n# pad\nassert True\n", encoding="utf-8")

    v1 = Violation("SK900", "m", str(target), 2)
    v2 = Violation("SK900", "m", str(target), 2)
    report = LintReport(violations=[v1, v2])
    log = json.loads(render_sarif(report, _all_rules()))
    prints = [
        r["partialFingerprints"]["sketchlint/v1"]
        for r in log["runs"][0]["results"]
    ]
    assert prints[0] == prints[1], "same (code, path, content) -> same print"

    other = LintReport(violations=[Violation("SK900", "m", str(shifted), 3)])
    other_log = json.loads(render_sarif(other, _all_rules()))
    other_print = other_log["runs"][0]["results"][0]["partialFingerprints"][
        "sketchlint/v1"
    ]
    assert other_print != prints[0], "different path -> different print"


def test_fingerprint_survives_line_shifts(tmp_path):
    target = tmp_path / "legacy.py"
    target.write_text("# header\nraise ValueError(x)\n", encoding="utf-8")
    shifted = Violation("SK900", "marker", str(target), 2)
    original_key = ("SK900", str(target), "raise ValueError(x)")
    assert fingerprint_of(shifted) == original_key


def test_parse_errors_become_tool_notifications(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n", encoding="utf-8")
    report = lint_paths([target])
    log = json.loads(render_sarif(report, _all_rules()))
    _assert_valid_sarif(log)
    (invocation,) = log["runs"][0]["invocations"]
    assert invocation["executionSuccessful"] is False
    (note,) = invocation["toolExecutionNotifications"]
    assert "syntax error" in note["message"]["text"]


def test_cli_writes_sarif_to_output_file(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text("import random\nx = random.random()\n", encoding="utf-8")
    out = tmp_path / "report.sarif"
    exit_code = main(
        [
            str(target),
            "--format",
            "sarif",
            "--output",
            str(out),
            "--no-cache",
        ]
    )
    assert exit_code == 1
    log = json.loads(out.read_text(encoding="utf-8"))
    _assert_valid_sarif(log)
    assert log["runs"][0]["results"]
