"""SARIF 2.1.0 output for sketchlint.

One ``run`` per invocation: the tool component lists every registered
rule (id, summary, full description), each violation becomes a
``result`` with a physical location and a content-addressed
``partialFingerprints`` entry so GitHub code scanning can track findings
across commits by (code, path, line content) rather than by line number:
unrelated edits that shift a finding's line keep its fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tools.sketchlint.engine import LintReport, Rule, Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "sketchlint"
TOOL_VERSION = "5.0.0"
TOOL_URI = "https://github.com/example/davinci-sketch-repro"


Fingerprint = Tuple[str, str, str]  # (code, path, stripped line content)


def _line_content(path: str, line: int, cache: Dict[str, List[str]]) -> str:
    lines = cache.get(path)
    if lines is None:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        cache[path] = lines
    index = line - 1
    if 0 <= index < len(lines):
        return lines[index].strip()
    return ""


def fingerprint_of(
    violation: Violation, cache: Optional[Dict[str, List[str]]] = None
) -> Fingerprint:
    """A finding's ``(code, path, stripped line content)``."""
    content_cache = cache if cache is not None else {}
    return (
        violation.code,
        violation.path,
        _line_content(violation.path, violation.line, content_cache),
    )


def _rule_descriptor(rule: Rule) -> Dict[str, Any]:
    descriptor: Dict[str, Any] = {
        "id": rule.code,
        "name": type(rule).__name__,
        "shortDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": "error"},
    }
    if rule.description:
        descriptor["fullDescription"] = {"text": rule.description}
    return descriptor


def _fingerprint_hash(code: str, path: str, content: str) -> str:
    digest = hashlib.sha256(f"{code}|{path}|{content}".encode("utf-8"))
    return digest.hexdigest()[:32]


def render_sarif(
    report: LintReport, rules: Sequence[Rule], pretty: bool = True
) -> str:
    """Serialize ``report`` as a SARIF 2.1.0 log (a JSON string)."""
    rule_index = {rule.code: position for position, rule in enumerate(rules)}
    results: List[Dict[str, Any]] = []
    content_cache: Dict[str, List[str]] = {}
    for violation in report.violations:
        code, path, content = fingerprint_of(violation, content_cache)
        result: Dict[str, Any] = {
            "ruleId": code,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": path.replace("\\", "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": violation.line,
                            "startColumn": violation.column + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {
                "sketchlint/v1": _fingerprint_hash(code, path, content)
            },
        }
        index: Optional[int] = rule_index.get(code)
        if index is not None:
            result["ruleIndex"] = index
        results.append(result)

    notifications: List[Dict[str, Any]] = [
        {
            "level": "error",
            "message": {"text": message},
            "descriptor": {"id": "SKPARSE"},
        }
        for message in report.parse_errors
    ]

    invocation: Dict[str, Any] = {
        "executionSuccessful": not report.parse_errors,
    }
    if notifications:
        invocation["toolExecutionNotifications"] = notifications

    log: Dict[str, Any] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "informationUri": TOOL_URI,
                        "rules": [_rule_descriptor(rule) for rule in rules],
                    }
                },
                "invocations": [invocation],
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    if pretty:
        return json.dumps(log, indent=2, sort_keys=False) + "\n"
    return json.dumps(log, sort_keys=False)
