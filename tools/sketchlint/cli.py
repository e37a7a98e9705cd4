"""Command-line entry point: ``python -m tools.sketchlint <paths>``.

Exit codes: 0 clean, 1 violations found, 2 usage/parse error — the same
convention as ruff/mypy, so CI treats all three gates identically.  A
path spec that matches **no** Python files is a usage error (exit 2):
a typo'd directory must not let CI silently lint nothing and go green.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from tools.sketchlint.cache import ResultCache
from tools.sketchlint.engine import iter_python_files, lint_paths
from tools.sketchlint.rules import ALL_RULES
from tools.sketchlint.sarif import render_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchlint",
        description="Domain-specific static analysis for sketch data structures.",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        type=Path,
        help="files or directories to lint (directories are walked for *.py)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all rules)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format (default: text; sarif emits a SARIF 2.1.0 log)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        type=Path,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-path",
        metavar="FILE",
        type=Path,
        default=None,
        help="location of the result cache (default: .sketchlint-cache.json)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line (violations still print)",
    )
    return parser


def _print_rules() -> None:
    for cls in ALL_RULES:
        print(f"{cls.code}  {cls.summary}")


def _emit(text: str, output: Optional[Path]) -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        output.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0

    missing: List[Path] = [path for path in args.paths if not path.exists()]
    if missing:
        print(
            f"sketchlint: path(s) not found: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    if not any(True for _ in iter_python_files(args.paths)):
        print(
            "sketchlint: no Python files matched "
            f"{', '.join(map(str, args.paths))} — refusing to lint nothing",
            file=sys.stderr,
        )
        return 2

    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]

    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_path) if args.cache_path else ResultCache()

    try:
        report = lint_paths(args.paths, select=select, cache=cache)
    except ValueError as exc:
        print(f"sketchlint: {exc}", file=sys.stderr)
        return 2

    active_rules = [cls() for cls in ALL_RULES]
    if select is not None:
        wanted = {code.upper() for code in select}
        active_rules = [rule for rule in active_rules if rule.code in wanted]

    if args.format == "sarif":
        _emit(render_sarif(report, active_rules), args.output)
    else:
        lines = [violation.render() for violation in report.violations]
        for error in report.parse_errors:
            print(error, file=sys.stderr)
        if not args.quiet:
            lines.append(
                f"sketchlint: {report.files_checked} file(s) checked, "
                f"{len(report.violations)} violation(s)"
            )
        text = "\n".join(lines)
        if text or args.output is not None:
            _emit(text, args.output)

    if report.parse_errors:
        return 2
    return 0 if not report.violations else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
