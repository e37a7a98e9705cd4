"""CLI v2 behavior: exit codes, rule selection, cache flags."""

from __future__ import annotations

from tools.sketchlint.cli import main


def _clean_file(tmp_path, name="clean.py"):
    target = tmp_path / name
    target.write_text("x = 1\n", encoding="utf-8")
    return target


def _bad_file(tmp_path, name="bad.py"):
    target = tmp_path / name
    target.write_text("import random\nx = random.random()\n", encoding="utf-8")
    return target


def _run(*argv) -> int:
    return main([str(a) for a in argv])


# --------------------------------------------------------------------- #
# exit codes
# --------------------------------------------------------------------- #
def test_exit_zero_on_clean_tree(tmp_path):
    target = _clean_file(tmp_path)
    assert _run(target, "--no-cache") == 0


def test_exit_one_on_violations(tmp_path):
    target = _bad_file(tmp_path)
    assert _run(target, "--no-cache") == 1


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert _run(tmp_path / "nope", "--no-cache") == 2
    assert "not found" in capsys.readouterr().err


def test_exit_two_when_no_python_files_match(tmp_path, capsys):
    (tmp_path / "README.md").write_text("docs only\n", encoding="utf-8")
    assert _run(tmp_path, "--no-cache") == 2
    assert "refusing to lint nothing" in capsys.readouterr().err


def test_exit_two_on_unknown_select_code(tmp_path, capsys):
    target = _clean_file(tmp_path)
    assert _run(target, "--select", "SK999", "--no-cache") == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_exit_two_on_parse_error(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n", encoding="utf-8")
    assert _run(target, "--no-cache") == 2


def test_list_rules_exits_zero(capsys):
    assert main(["--list-rules", "ignored.py"]) == 0
    out = capsys.readouterr().out
    codes = [line.split()[0] for line in out.splitlines()]
    assert codes == ["SK002", "SK101", "SK102", "SK103", "SK105"]


# --------------------------------------------------------------------- #
# cache flag
# --------------------------------------------------------------------- #
def test_cache_path_flag_writes_the_cache_there(tmp_path):
    target = _clean_file(tmp_path)
    cache_path = tmp_path / "cache.json"
    assert _run(target, "--cache-path", cache_path) == 0
    assert cache_path.exists()
    # second run loads the cache cleanly and agrees
    assert _run(target, "--cache-path", cache_path) == 0


def test_select_restricts_the_run(tmp_path):
    target = _bad_file(tmp_path)
    # SK101 (decode-cache invalidation) has nothing to say about a draw
    assert _run(target, "--select", "SK101", "--no-cache") == 0
    # SK002 (injected randomness) flags it
    assert _run(target, "--select", "SK002", "--no-cache") == 1
