"""Engine v2 behavior: span pragmas, package rules, cache."""

from __future__ import annotations

import ast
import json
import textwrap
from typing import Iterator

import pytest

from tools.sketchlint.cache import ResultCache
from tools.sketchlint.engine import (
    FileContext,
    PackageContext,
    PackageRule,
    Rule,
    Violation,
    iter_python_files,
    lint_paths,
    lint_source,
)


class _MarkerRule(Rule):
    """Flags every integer constant 999, at the constant's own line."""

    code = "SK900"
    summary = "test marker"

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == 999:
                yield self.violation(context, node, "marker constant")


class _CountingRule(_MarkerRule):
    def __init__(self) -> None:
        self.calls = 0

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Violation]:
        self.calls += 1
        yield from super().check(tree, context)


class _CountingPackageRule(PackageRule):
    code = "SK901"
    summary = "test package marker"

    def __init__(self) -> None:
        self.calls = 0

    def check_package(self, package: PackageContext) -> Iterator[Violation]:
        self.calls += 1
        for path, tree in package.trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and node.value == 999:
                    yield self.violation_at(path, node, "package marker")


# --------------------------------------------------------------------- #
# pragma spans
# --------------------------------------------------------------------- #
def test_pragma_on_first_line_covers_the_whole_simple_statement():
    source = textwrap.dedent(
        """
        value = compute(  # sketchlint: disable=SK900
            999,
        )
        """
    )
    assert lint_source(source, rules=[_MarkerRule()]) == []


def test_without_pragma_the_continuation_line_is_reported():
    source = textwrap.dedent(
        """
        value = compute(
            999,
        )
        """
    )
    violations = lint_source(source, rules=[_MarkerRule()])
    assert [v.line for v in violations] == [3]


def test_pragma_on_compound_statement_does_not_blanket_the_body():
    source = textwrap.dedent(
        """
        if flag:  # sketchlint: disable=SK900
            value = 999
        """
    )
    violations = lint_source(source, rules=[_MarkerRule()])
    assert [v.line for v in violations] == [3]


def test_pragma_all_suppresses_every_code_on_the_line():
    source = "value = 999  # sketchlint: disable=all\n"
    assert lint_source(source, rules=[_MarkerRule()]) == []


def test_pragma_codes_are_case_insensitive():
    source = "value = 999  # sketchlint: disable=sk900\n"
    assert lint_source(source, rules=[_MarkerRule()]) == []


def test_span_pragma_applies_to_package_rules_too(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "value = compute(  # sketchlint: disable=SK901\n    999,\n)\n",
        encoding="utf-8",
    )
    report = lint_paths([target], rules=[_CountingPackageRule()])
    assert report.violations == []


# --------------------------------------------------------------------- #
# package rules through lint_source / lint_paths
# --------------------------------------------------------------------- #
def test_lint_source_treats_one_file_as_a_package():
    violations = lint_source("x = 999\n", rules=[_CountingPackageRule()])
    assert [v.code for v in violations] == ["SK901"]


def test_lint_paths_runs_package_rule_once_over_the_batch(tmp_path):
    for name in ("a.py", "b.py", "c.py"):
        (tmp_path / name).write_text("x = 999\n", encoding="utf-8")
    rule = _CountingPackageRule()
    report = lint_paths([tmp_path], rules=[rule])
    assert rule.calls == 1
    assert len(report.violations) == 3
    assert report.files_checked == 3


def test_select_unknown_code_raises_value_error(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="SK999"):
        lint_paths([tmp_path], select=["SK999"])


def test_parse_error_is_reported_not_raised(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
    report = lint_paths([tmp_path], rules=[_MarkerRule()])
    assert not report.ok
    assert report.parse_errors and "syntax error" in report.parse_errors[0]


def test_iter_python_files_expands_dirs_and_skips_non_python(tmp_path):
    (tmp_path / "one.py").write_text("", encoding="utf-8")
    (tmp_path / "two.txt").write_text("", encoding="utf-8")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "three.py").write_text("", encoding="utf-8")
    found = sorted(p.name for p in iter_python_files([tmp_path]))
    assert found == ["one.py", "three.py"]


# --------------------------------------------------------------------- #
# result cache
# --------------------------------------------------------------------- #
def test_cache_skips_rule_runs_on_unchanged_files(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 999\n", encoding="utf-8")
    cache_path = tmp_path / "cache.json"

    first = _CountingRule()
    report1 = lint_paths([target], rules=[first], cache=ResultCache(cache_path))
    assert first.calls == 1
    assert cache_path.exists()

    second = _CountingRule()
    report2 = lint_paths([target], rules=[second], cache=ResultCache(cache_path))
    assert second.calls == 0
    assert [v.render() for v in report2.violations] == [
        v.render() for v in report1.violations
    ]


def test_cache_invalidates_when_the_file_changes(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 999\n", encoding="utf-8")
    cache_path = tmp_path / "cache.json"

    lint_paths([target], rules=[_CountingRule()], cache=ResultCache(cache_path))
    target.write_text("x = 999\ny = 999\n", encoding="utf-8")

    rerun = _CountingRule()
    report = lint_paths([target], rules=[rerun], cache=ResultCache(cache_path))
    assert rerun.calls == 1
    assert len(report.violations) == 2


def test_cache_covers_the_package_rule_pass(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 999\n", encoding="utf-8")
    cache_path = tmp_path / "cache.json"

    lint_paths(
        [target], rules=[_CountingPackageRule()], cache=ResultCache(cache_path)
    )
    rerun = _CountingPackageRule()
    report = lint_paths([target], rules=[rerun], cache=ResultCache(cache_path))
    assert rerun.calls == 0
    assert [v.code for v in report.violations] == ["SK901"]


def test_cache_with_stale_signature_is_ignored(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 999\n", encoding="utf-8")
    cache_path = tmp_path / "cache.json"

    lint_paths([target], rules=[_CountingRule()], cache=ResultCache(cache_path))
    payload = json.loads(cache_path.read_text(encoding="utf-8"))
    payload["signature"] = "v0|stale"
    cache_path.write_text(json.dumps(payload), encoding="utf-8")

    rerun = _CountingRule()
    lint_paths([target], rules=[rerun], cache=ResultCache(cache_path))
    assert rerun.calls == 1


def test_rule_pack_version_is_part_of_the_cache_signature(
    tmp_path, monkeypatch
):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    cache_path = tmp_path / "cache.json"

    first = _CountingRule()
    lint_paths([target], rules=[first], cache=ResultCache(cache_path))
    assert first.calls == 1

    # unchanged file, unchanged rule pack: the cache short-circuits
    warm = _CountingRule()
    lint_paths([target], rules=[warm], cache=ResultCache(cache_path))
    assert warm.calls == 0

    # a rule-pack upgrade must invalidate every entry even though the
    # file (and the linter's own source stamps) did not change
    import tools.sketchlint.rules as rules_module

    monkeypatch.setattr(
        rules_module,
        "RULE_PACK_VERSION",
        rules_module.RULE_PACK_VERSION + "-next",
    )
    bumped = _CountingRule()
    lint_paths([target], rules=[bumped], cache=ResultCache(cache_path))
    assert bumped.calls == 1

