"""SK101 — decode-cache invalidation paths (fixture pack)."""

from __future__ import annotations

from tests.analysis.conftest import lint_pack


def test_bad_pack_flags_both_escape_paths():
    violations = lint_pack("sk101", "bad.py")
    assert [v.code for v in violations] == ["SK101", "SK101"]
    lines = [v.line for v in violations]
    assert lines == [10, 14]
    # one is the unconditional mutate-without-invalidate, the other the
    # branch where only one arm invalidates
    assert any("insert" in v.message for v in violations)
    assert any("adjust" in v.message for v in violations)


def test_good_pack_is_clean():
    assert lint_pack("sk101", "good.py") == []


def test_pragma_pack_is_suppressed():
    assert lint_pack("sk101", "pragma.py") == []

