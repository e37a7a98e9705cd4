"""The self-gate: the shipped tree must satisfy its own linter.

This is the reproduction-side contract behind the CI step
``python -m tools.sketchlint src tools --no-cache`` — if any of these
fail, the gate in ``.github/workflows/ci.yml`` fails identically.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.analysis.conftest import REPO_ROOT, SRC_REPRO
from tools.sketchlint.cli import main
from tools.sketchlint.engine import iter_python_files, lint_paths


def test_src_repro_is_sketchlint_clean():
    report = lint_paths([SRC_REPRO])
    assert report.files_checked > 50  # the whole package, not a subset
    assert report.ok, "\n" + report.render()


def test_no_assert_statements_anywhere_in_src_repro():
    offenders = []
    for path in iter_python_files([SRC_REPRO]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path}:{node.lineno}")
    assert offenders == [], (
        "assert statements are stripped under 'python -O'; use "
        "repro.common.invariants.check() instead: " + ", ".join(offenders)
    )


def test_cli_gate_exits_zero_on_clean_tree():
    assert main([str(SRC_REPRO), "--quiet"]) == 0


def test_cli_gate_exits_one_on_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    assert main([str(bad), "--quiet"]) == 1


def test_cli_select_unknown_code_is_usage_error(capsys):
    assert main(["--select", "SK999", str(SRC_REPRO)]) == 2
    assert "SK999" in capsys.readouterr().err


def test_src_and_tools_are_clean(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    report = lint_paths([Path("src"), Path("tools")])
    assert report.files_checked > 60  # src/repro plus the tools tree
    assert report.ok, "\n" + report.render()
