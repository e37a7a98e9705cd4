"""Source rules over every module of src/repro, checked on the AST.

* No global-state randomness: every accuracy figure, and the seeded
  hashing that union and difference rely on, need all randomness to come
  from an injected, seeded generator (``common.hashing.resolve_rng``).
  Flagged: a draw from the ``random`` or ``numpy.random`` module, a
  generator built without a seed, and ``from random import <draw>``.
* No ``assert``: ``python -O`` strips it; use ``invariants.check``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

import pytest

from tests.analysis.conftest import SRC_REPRO

REPRO_FILES = sorted(SRC_REPRO.rglob("*.py"))

#: what each randomness module may construct, given a seed
CONSTRUCTORS = {
    "random": {"Random", "SystemRandom"},
    "numpy.random": {"default_rng", "Generator", "RandomState"},
}


def _bound(tree: ast.AST) -> Dict[str, str]:
    """Local name -> the dotted path it binds (``np`` -> ``numpy``)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def _qualified(expr: ast.expr, bound: Dict[str, str]) -> str:
    """``np.random.rand`` -> ``numpy.random.rand``; '' if not a module path."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.insert(0, expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name) or expr.id not in bound:
        return ""
    return ".".join([bound[expr.id], *parts])


def global_randomness(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, what)`` for each use of global-state randomness."""
    tree = ast.parse(source)
    bound = _bound(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in CONSTRUCTORS:
            for alias in node.names:
                if alias.name not in CONSTRUCTORS[node.module]:
                    yield node.lineno, f"from {node.module} import {alias.name}"
        elif isinstance(node, ast.Call):
            module, _, name = _qualified(node.func, bound).rpartition(".")
            if module not in CONSTRUCTORS:
                continue
            if name not in CONSTRUCTORS[module]:
                yield node.lineno, f"{module}.{name}() draws from global state"
            elif not (node.args or node.keywords):
                yield node.lineno, f"{module}.{name}() without a seed"


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("import random\nrandom.random()", 1),
        ("import random as rnd\nrnd.shuffle(items)", 1),
        ("import random\nrandom.Random()", 1),
        ("from random import randint", 1),
        ("import numpy as np\nnp.random.rand(3)", 1),
        ("from numpy import random as npr\nnpr.default_rng()", 1),
        ("import random\nrandom.Random(42).random()", 0),
        ("import numpy as np\nnp.random.default_rng(7).integers(3)", 0),
        ("def draw(rng):\n    return rng.random()", 0),
    ],
)
def test_global_randomness_checker(source, flagged):
    assert len(list(global_randomness(source))) == flagged


def test_no_global_randomness_anywhere_in_src_repro():
    offenders = [
        f"{path.relative_to(SRC_REPRO)}:{line} {what}"
        for path in REPRO_FILES
        for line, what in global_randomness(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], (
        "draw from an injected, seeded rng (common.hashing.resolve_rng): "
        + ", ".join(offenders)
    )


def test_no_assert_statements_anywhere_in_src_repro():
    offenders = [
        f"{path.relative_to(SRC_REPRO)}:{node.lineno}"
        for path in REPRO_FILES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == [], (
        "assert statements are stripped under 'python -O'; use "
        "repro.common.invariants.check() instead: " + ", ".join(offenders)
    )
