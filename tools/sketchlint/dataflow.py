"""A small forward dataflow engine over :mod:`tools.sketchlint.cfg` graphs.

An analysis supplies three things:

* :meth:`ForwardAnalysis.initial` — the state at function entry;
* :meth:`ForwardAnalysis.transfer` — the effect of one statement node;
* :meth:`ForwardAnalysis.refine` — (optional) sharpening of the state
  along a labelled branch edge, e.g. "on the ``true`` arm of
  ``policy is not None`` the variable is definitely set".

States must be hashable-equality values (frozensets, tuples, small
dataclasses with ``__eq__``); :meth:`ForwardAnalysis.join` merges the
states arriving over multiple in-edges.  The engine runs a worklist to a
fixpoint and returns the state *entering* every node plus the joined
states reaching the two exits; all the lattices the SK10x rules use are
finite, so termination is structural rather than relying on widening.

The module also ships the classic instance rules are built from:
:class:`TagLattice`, a per-variable tag map with union join (the
reaching-definitions / taint-style layer named in the roadmap).
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from tools.sketchlint.cfg import CFG, KIND_BRANCH, KIND_STMT, Node

S = TypeVar("S")

#: safety valve: no realistic method needs more worklist passes than this
MAX_ITERATIONS = 100_000


class ForwardAnalysis(Generic[S]):
    """Base class for forward analyses (subclass and override)."""

    def initial(self) -> S:
        raise NotImplementedError

    def join(self, states: List[S]) -> S:
        raise NotImplementedError

    def transfer(self, node: Node, state: S) -> S:
        """State after executing ``node`` (statement nodes only)."""
        return state

    def refine(self, test: Optional[ast.expr], label: Optional[str], state: S) -> S:
        """Sharpen ``state`` along a labelled edge out of a branch node."""
        return state


class DataflowResult(Generic[S]):
    """Fixpoint states: per-node inputs plus the joined exit states."""

    def __init__(
        self,
        before: Dict[int, S],
        exit_state: Optional[S],
        raise_state: Optional[S],
    ) -> None:
        #: state entering each node, keyed by node uid
        self.before = before
        #: joined state reaching the normal exit (None when unreachable)
        self.exit_state = exit_state
        #: joined state reaching the raise exit (None when unreachable)
        self.raise_state = raise_state


def run_forward(cfg: CFG, analysis: ForwardAnalysis[S]) -> DataflowResult[S]:
    """Run ``analysis`` over ``cfg`` to a fixpoint."""
    before: Dict[int, S] = {cfg.entry.uid: analysis.initial()}
    # Incoming contributions per (target, source) edge, so joins stay exact
    # when a predecessor's contribution changes across iterations.
    contributions: Dict[int, Dict[Tuple[int, Optional[str]], S]] = {}

    worklist: List[int] = [cfg.entry.uid]
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > MAX_ITERATIONS:  # pragma: no cover - safety valve
            break
        uid = worklist.pop()
        node = cfg.nodes[uid]
        in_state = before.get(uid)
        if in_state is None:
            continue
        if node.kind == KIND_STMT:
            out_state = analysis.transfer(node, in_state)
        else:
            out_state = in_state
        for succ_uid, label in cfg.edges[uid]:
            if node.kind == KIND_BRANCH:
                edge_state = analysis.refine(node.test, label, out_state)
            else:
                edge_state = out_state
            slot = contributions.setdefault(succ_uid, {})
            key = (uid, label)
            if slot.get(key) == edge_state and succ_uid in before:
                continue
            slot[key] = edge_state
            merged = analysis.join(list(slot.values()))
            if before.get(succ_uid) != merged:
                before[succ_uid] = merged
                worklist.append(succ_uid)

    return DataflowResult(
        before,
        before.get(cfg.exit.uid),
        before.get(cfg.raise_exit.uid),
    )


# --------------------------------------------------------------------- #
# the stock lattice: per-variable tag sets (taint / reaching definitions)
# --------------------------------------------------------------------- #
class TagState:
    """An immutable map ``variable -> frozenset(tags)`` with union join."""

    __slots__ = ("_tags",)

    def __init__(self, tags: Optional[Mapping[str, FrozenSet[str]]] = None) -> None:
        self._tags: Dict[str, FrozenSet[str]] = dict(tags or {})

    def tags_of(self, name: str) -> FrozenSet[str]:
        return self._tags.get(name, frozenset())

    def has(self, name: str, tag: str) -> bool:
        return tag in self._tags.get(name, frozenset())

    def set(self, name: str, tags: Iterable[str]) -> "TagState":
        updated = dict(self._tags)
        frozen = frozenset(tags)
        if frozen:
            updated[name] = frozen
        else:
            updated.pop(name, None)
        return TagState(updated)

    def clear(self, name: str) -> "TagState":
        if name not in self._tags:
            return self
        updated = dict(self._tags)
        del updated[name]
        return TagState(updated)

    def merge(self, other: "TagState") -> "TagState":
        """The lattice join: per variable, the union of both tag sets."""
        updated = dict(self._tags)
        for name, tags in other._tags.items():
            updated[name] = updated.get(name, frozenset()) | tags
        return TagState(updated)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TagState) and self._tags == other._tags

    def __hash__(self) -> int:
        return hash(frozenset(self._tags.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TagState({self._tags!r})"


class TagAnalysis(ForwardAnalysis[TagState]):
    """Union-join analysis over :class:`TagState` (override ``transfer``)."""

    def initial(self) -> TagState:
        return TagState()

    def join(self, states: List[TagState]) -> TagState:
        if not states:
            return TagState()
        merged = states[0]
        for state in states[1:]:
            merged = merged.merge(state)
        return merged


# --------------------------------------------------------------------- #
# shared syntactic helpers for rules
# --------------------------------------------------------------------- #
def assigned_names(target: ast.expr) -> List[str]:
    """Plain variable names bound by an assignment target."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(assigned_names(element))
        return names
    return []


def attribute_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for anything non-trivial.

    Subscripts are transparent (``a.b[i].c`` -> ``["a", "b", "c"]``) so
    rules can reason about element stores into nested structures.
    """
    parts: List[str] = []
    current = node
    while True:
        if isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Name):
            parts.append(current.id)
            return list(reversed(parts))
        else:
            return None


def call_name(call: ast.Call) -> str:
    """The called name: ``f(...)`` -> ``f``; ``a.b.f(...)`` -> ``f``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""
