"""Shared plumbing for the source-rule and tooling test suite.

Makes the repo root importable (so ``tools.benchcheck`` resolves even
when pytest is invoked from a different working directory).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(REPO_ROOT))

SRC_REPRO = REPO_ROOT / "src" / "repro"


@pytest.fixture
def invariants_on():
    """Arm the runtime sanitizer for one test, restoring the prior state."""
    from repro.common import invariants as inv

    previous = inv.set_enabled(True)
    yield inv
    inv.set_enabled(previous)
