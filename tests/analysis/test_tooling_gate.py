"""Strict-typing and style gates, run when the tools are available.

``mypy`` and ``ruff`` are CI dependencies, not runtime dependencies; in
environments without them these tests skip rather than fail, while the
GitHub workflow installs and enforces both.  The configuration they run
under lives in ``pyproject.toml`` (``[tool.mypy]`` / ``[tool.ruff]``) so
Makefile, pre-commit, CI and this test all execute the identical gate.
"""

from __future__ import annotations

import re
import shutil
import subprocess

import pytest

from tests.analysis.conftest import REPO_ROOT

RUFF = shutil.which("ruff")
MYPY = shutil.which("mypy")


def _run(command):
    return subprocess.run(
        command,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )


@pytest.mark.skipif(RUFF is None, reason="ruff is not installed (CI-only gate)")
def test_ruff_clean_on_src_and_tools():
    result = _run([RUFF, "check", "src", "tools"])
    assert result.returncode == 0, result.stdout


@pytest.mark.skipif(MYPY is None, reason="mypy is not installed (CI-only gate)")
def test_mypy_strict_clean_on_common_and_core():
    # Packages and strictness come from [tool.mypy] in pyproject.toml.
    result = _run([MYPY])
    assert result.returncode == 0, result.stdout


def test_pyproject_declares_both_gates():
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "[tool.mypy]" in text
    assert "strict = true" in text
    assert "[tool.ruff]" in text


def test_make_test_debug_runs_the_ci_sanitizer_list():
    # `make test-debug` promises CI's "Core suite under the
    # debug-invariant sanitizer" step; the two name the same paths.
    def paths(command):
        return [word for word in command.split() if word.startswith("tests/")]

    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    make = re.search(r"^test-debug:\n\t(.+)$", makefile, re.M)
    workflow = (REPO_ROOT / ".github/workflows/ci.yml").read_text(
        encoding="utf-8"
    )
    ci = re.search(
        r"name: Core suite under the debug-invariant sanitizer\n\s+run: (.+)$",
        workflow,
        re.M,
    )
    assert make is not None and ci is not None
    assert paths(make.group(1)) == paths(ci.group(1))
