"""Rule registry: one module per checker, discovered statically.

SK002 is a per-file syntactic pass; SK101–SK105 are the CFG/dataflow
generation (interprocedural contract rules built on
:mod:`tools.sketchlint.cfg`, :mod:`tools.sketchlint.dataflow` and
:mod:`tools.sketchlint.symbols`).  Lock discipline, field reduction,
merge compatibility and exception discipline are checked at run time by
the test suite, not here (``docs/STATIC_ANALYSIS.md``, "Rule yield").
"""

from __future__ import annotations

from typing import Dict, List, Type

from tools.sketchlint.engine import Rule
from tools.sketchlint.rules.sk002_rng import InjectedRngRule
from tools.sketchlint.rules.sk101_decode_cache import DecodeCacheInvalidationRule
from tools.sketchlint.rules.sk102_obs_guard import ObsGuardRule
from tools.sketchlint.rules.sk103_state_symmetry import StateSymmetryRule
from tools.sketchlint.rules.sk105_policy_threading import PolicyThreadingRule

#: the rule-pack version, folded into the result-cache signature so a
#: rule upgrade invalidates every cached finding even when the package
#: sources look unchanged (e.g. an installed wheel with frozen mtimes).
#: Bump on any behavior change to a rule or to the shared models.
RULE_PACK_VERSION = "5.0.0"

ALL_RULES: List[Type[Rule]] = [
    InjectedRngRule,
    DecodeCacheInvalidationRule,
    ObsGuardRule,
    StateSymmetryRule,
    PolicyThreadingRule,
]


def rules_by_code() -> Dict[str, Type[Rule]]:
    """Map rule codes (``SK002`` ...) to their classes."""
    return {cls.code: cls for cls in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "RULE_PACK_VERSION",
    "rules_by_code",
    "InjectedRngRule",
    "DecodeCacheInvalidationRule",
    "ObsGuardRule",
    "StateSymmetryRule",
    "PolicyThreadingRule",
]
