"""Every raise site in src/repro uses the package exception hierarchy.

Each module is imported and every name it raises — ``raise Cls(...)``,
``raise Cls`` or ``raise mod.Cls(...)`` — is resolved in the module's own
namespace (then builtins), so a module-local subclass such as
``repro.testing.faults.InjectedCrash`` is judged by what it derives from.
A resolved class must derive from ``ReproError``; a raise of a local
value (``raise error`` on a caught exception) is not a name and is
skipped.  No module may use a bare ``except:`` either; the companion
``assert`` check lives in ``test_source_rules.py``.
"""

from __future__ import annotations

import ast
import builtins
import importlib
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

import pytest

import repro
from repro.common import errors

REPRO_DIR = Path(repro.__file__).parent
REPRO_FILES = sorted(REPRO_DIR.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(REPRO_DIR.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _raised(tree: ast.AST) -> Iterator[Tuple[int, ast.expr]]:
    """``(line, expression)`` naming what each raise site raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            yield node.lineno, exc.func if isinstance(exc, ast.Call) else exc


def _resolve(expr: ast.expr, namespace: Dict[str, Any]) -> Optional[Any]:
    """The object a (dotted) name refers to; None for a local value."""
    if isinstance(expr, ast.Attribute):
        owner = _resolve(expr.value, namespace)
        return None if owner is None else getattr(owner, expr.attr)
    if isinstance(expr, ast.Name):
        if expr.id in namespace:
            return namespace[expr.id]
        return getattr(builtins, expr.id, None)
    return None


@pytest.mark.parametrize("path", REPRO_FILES, ids=lambda p: p.name)
def test_public_raises_are_repro_errors(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = list(_raised(tree))
    if not sites:
        return  # nothing to resolve; __main__ modules run on import
    namespace = vars(importlib.import_module(_module_name(path)))
    where = path.relative_to(REPRO_DIR)
    for lineno, expr in sites:
        raised = _resolve(expr, namespace)
        if raised is None:
            continue
        name = ast.unparse(expr)
        assert isinstance(raised, type), (
            f"{where}:{lineno} raises {name}, which is not an exception class"
        )
        assert issubclass(raised, errors.ReproError), (
            f"{where}:{lineno} raises {name}, which does not derive "
            "from ReproError"
        )


def test_no_bare_except_anywhere_in_src_repro():
    offenders = [
        f"{path.relative_to(REPRO_DIR)}:{node.lineno}"
        for path in REPRO_FILES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]
    assert offenders == [], (
        "a bare 'except:' also catches KeyboardInterrupt and SystemExit: "
        + ", ".join(offenders)
    )


def test_hierarchy_keeps_stdlib_compatibility_bases():
    # Callers that predate the hierarchy may still catch the stdlib bases.
    assert issubclass(errors.ConfigurationError, ValueError)
    assert issubclass(errors.IncompatibleSketchError, ValueError)
    assert issubclass(errors.DecodeError, RuntimeError)
    assert issubclass(errors.InvariantViolation, AssertionError)
    for name in (
        "ConfigurationError",
        "DecodeError",
        "IncompatibleSketchError",
        "InvariantViolation",
    ):
        assert issubclass(getattr(errors, name), errors.ReproError)
