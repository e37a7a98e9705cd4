"""SK102 — observability guard discipline (fixture pack)."""

from __future__ import annotations

from tests.analysis.conftest import lint_pack


def test_bad_pack_flags_loop_guard_and_unguarded_call():
    violations = lint_pack("sk102", "bad.py")
    assert [v.code for v in violations] == ["SK102", "SK102"]
    assert [v.line for v in violations] == [9, 14]
    by_line = {v.line: v.message for v in violations}
    assert "hoist" in by_line[9]  # ENABLED re-read inside the per-item loop
    assert "guard" in by_line[14]  # recorder call with no guard at all


def test_good_pack_is_clean():
    # hoisted `observing =`, early-return guards, `and`-composed guards,
    # and control-plane calls (snapshot/enabled) must all pass
    assert lint_pack("sk102", "good.py") == []


def test_pragma_pack_is_suppressed():
    assert lint_pack("sk102", "pragma.py") == []

