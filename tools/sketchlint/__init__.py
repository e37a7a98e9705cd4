"""sketchlint — domain-specific static analysis for sketch data structures.

The DaVinci reproduction keeps a few contracts whose violations are
*silent* — a draw from global random state, a decode cache left stale
after a mutation, a recorder call that costs time while metrics are
off — and no generic linter can see them, so sketchlint encodes them as
AST rules.  Field reduction, merge compatibility and exception
discipline are checked at run time by the test suite instead
(``docs/STATIC_ANALYSIS.md``, "Rule yield").

=======  ==============================================================
 code    contract
=======  ==============================================================
 SK002   no global-state randomness — every ``random.*`` /
         ``np.random.*`` draw must flow through an injected, seeded rng
 SK101   decode-cache invalidation — every state-mutating path out of
         a public method of a ``_decode_cache`` owner invalidates it
 SK102   observability guards — recorder calls sit under
         ``_obs.ENABLED``, hoisted out of per-item loops
 SK103   state key symmetry — ``to_state``/``from_state`` (and wire)
         pairs read and write the same keys
 SK105   policy threading — a ``policy=`` accepted by a facade reaches
         its task consumer on every path
=======  ==============================================================

Run it with ``python -m tools.sketchlint src tools``; it exits non-zero
on any violation.  Violations can be suppressed per line with a
``# sketchlint: disable=SK002`` (comma-separated codes, or ``all``)
trailing comment.
"""

from tools.sketchlint.engine import (
    LintReport,
    Rule,
    Violation,
    lint_file,
    lint_paths,
    lint_source,
)
from tools.sketchlint.rules import ALL_RULES, rules_by_code

__all__ = [
    "ALL_RULES",
    "LintReport",
    "Rule",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_source",
    "rules_by_code",
]
