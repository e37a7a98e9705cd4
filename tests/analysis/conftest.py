"""Shared plumbing for the static-analysis test suite.

Makes the repo root importable (so ``tools.sketchlint`` resolves even when
pytest is invoked from a different working directory) and exposes the
fixture corpus under ``tests/analysis/fixtures/``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(REPO_ROOT))

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = REPO_ROOT / "src" / "repro"


def lint_fixture(name: str, rule) -> List:
    """Lint one fixture file with a single rule instance."""
    from tools.sketchlint.engine import lint_file

    return lint_file(FIXTURES / name, [rule])


def lint_pack(code: str, name: str) -> List:
    """Lint one file of a rule's fixture pack (``fixtures/sk10x/<name>``)."""
    from tools.sketchlint.engine import lint_file
    from tools.sketchlint.rules import rules_by_code

    rule_cls = rules_by_code()[code.upper()]
    return lint_file(FIXTURES / code.lower() / name, [rule_cls()])


@pytest.fixture
def invariants_on():
    """Arm the runtime sanitizer for one test, restoring the prior state."""
    from repro.common import invariants as inv

    previous = inv.set_enabled(True)
    yield inv
    inv.set_enabled(previous)
