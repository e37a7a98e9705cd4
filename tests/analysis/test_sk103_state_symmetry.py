"""SK103 — to_state/from_state key symmetry (fixture pack)."""

from __future__ import annotations

from tests.analysis.conftest import lint_pack


def test_bad_pack_flags_both_asymmetry_directions():
    violations = lint_pack("sk103", "bad.py")
    assert [v.code for v in violations] == ["SK103", "SK103"]
    assert [v.line for v in violations] == [4, 13]
    by_line = {v.line: v.message for v in violations}
    # writer emits 'checksum' that the reader never consumes
    assert "checksum" in by_line[4]
    # reader consumes 'seed' that the writer never emits
    assert "seed" in by_line[13]


def test_good_pack_is_clean():
    # exercises helper-call following, membership reads, for-tuple alias
    # reads and .get() access — all must count as reads
    assert lint_pack("sk103", "good.py") == []


def test_pragma_pack_is_suppressed():
    assert lint_pack("sk103", "pragma.py") == []

