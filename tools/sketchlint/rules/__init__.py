"""Rule registry: one module per checker, discovered statically.

SK001–SK005 are the original per-file syntactic passes; SK101–SK105 are
the CFG/dataflow generation (interprocedural contract rules built on
:mod:`tools.sketchlint.cfg`, :mod:`tools.sketchlint.dataflow` and
:mod:`tools.sketchlint.symbols`).  Lock discipline is checked at run
time by the service tests' lock checker, not here.
"""

from __future__ import annotations

from typing import Dict, List, Type

from tools.sketchlint.engine import Rule
from tools.sketchlint.rules.sk001_field_arithmetic import FieldArithmeticRule
from tools.sketchlint.rules.sk002_rng import InjectedRngRule
from tools.sketchlint.rules.sk003_exceptions import ExceptionDisciplineRule
from tools.sketchlint.rules.sk004_merge_safety import MergeSafetyRule
from tools.sketchlint.rules.sk005_hot_path import HotPathPurityRule
from tools.sketchlint.rules.sk101_decode_cache import DecodeCacheInvalidationRule
from tools.sketchlint.rules.sk102_obs_guard import ObsGuardRule
from tools.sketchlint.rules.sk103_state_symmetry import StateSymmetryRule
from tools.sketchlint.rules.sk104_field_flow import FieldFlowRule
from tools.sketchlint.rules.sk105_policy_threading import PolicyThreadingRule

#: the rule-pack version, folded into the result-cache signature so a
#: rule upgrade invalidates every cached finding even when the package
#: sources look unchanged (e.g. an installed wheel with frozen mtimes).
#: Bump on any behavior change to a rule or to the shared models.
RULE_PACK_VERSION = "4.0.0"

ALL_RULES: List[Type[Rule]] = [
    FieldArithmeticRule,
    InjectedRngRule,
    ExceptionDisciplineRule,
    MergeSafetyRule,
    HotPathPurityRule,
    DecodeCacheInvalidationRule,
    ObsGuardRule,
    StateSymmetryRule,
    FieldFlowRule,
    PolicyThreadingRule,
]


def rules_by_code() -> Dict[str, Type[Rule]]:
    """Map rule codes (``SK001`` ...) to their classes."""
    return {cls.code: cls for cls in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "RULE_PACK_VERSION",
    "rules_by_code",
    "FieldArithmeticRule",
    "InjectedRngRule",
    "ExceptionDisciplineRule",
    "MergeSafetyRule",
    "HotPathPurityRule",
    "DecodeCacheInvalidationRule",
    "ObsGuardRule",
    "StateSymmetryRule",
    "FieldFlowRule",
    "PolicyThreadingRule",
]
