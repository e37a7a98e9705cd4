"""SK105 — degradation-policy threading (fixture pack)."""

from __future__ import annotations

from tests.analysis.conftest import lint_pack


def test_bad_pack_flags_all_three_drop_modes():
    violations = lint_pack("sk105", "bad.py")
    assert [v.code for v in violations] == ["SK105"] * 3
    assert [v.line for v in violations] == [7, 11, 15]
    by_line = {v.line: v.message for v in violations}
    # delegation call omits policy= on a maybe-set path
    assert "drops" in by_line[7]
    # no same-named task consumer accepts policy at all
    assert "cannot reach" in by_line[11]
    # dead parameter: accepted, never loaded
    assert "never uses" in by_line[15]


def test_good_pack_is_clean():
    # forwarding on the non-None arm plus a bare call on the provably
    # known-None arm is the repo idiom and must pass
    assert lint_pack("sk105", "good.py") == []


def test_pragma_pack_is_suppressed():
    assert lint_pack("sk105", "pragma.py") == []

