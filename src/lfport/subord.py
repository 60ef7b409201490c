"""Subordination analysis and context minimization.

The relation records which type constants can contribute to terms of which
other type constants; its negation licenses dropping context bindings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lf import (
    AtomicType,
    LFContext,
    PiKind,
    PiType,
    Signature,
    TermDecl,
    TypeDecl,
    TypeExpr,
    UnknownConstant,
)


@dataclass(frozen=True)
class SubordRel:
    """Reflexive, transitively closed subordination over type constants."""

    pairs: frozenset
    constants: frozenset

    def holds(self, a: str, b: str) -> bool:
        return (a, b) in self.pairs

    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.pairs))


def head_constant(ty: TypeExpr) -> str:
    """The head constant of a canonical type."""
    while isinstance(ty, PiType):
        ty = ty.body
    assert isinstance(ty, AtomicType)
    return ty.head


def compute_subordination(sig: Signature) -> SubordRel:
    """Least relation closed under index subordination, reflexivity and
    transitivity, computed as a fixpoint over the signature."""
    constants = sig.type_constants()
    pairs = {(a, a) for a in constants}
    for d in sig.decls:
        if isinstance(d, TypeDecl):
            target, classifier = d.name, d.kind
        else:
            assert isinstance(d, TermDecl)
            target, classifier = head_constant(d.type), d.type
        while isinstance(classifier, (PiKind, PiType)):
            pairs.add((head_constant(classifier.domain), target))
            classifier = classifier.body
    # transitive closure by a worklist over the pair set
    work = list(pairs)
    while work:
        a, b = work.pop()
        for c, d in list(pairs):
            if c == b and (a, d) not in pairs:
                pairs.add((a, d))
                work.append((a, d))
            if d == a and (c, b) not in pairs:
                pairs.add((c, b))
                work.append((c, b))
    return SubordRel(frozenset(pairs), frozenset(constants))


def type_leq(rel: SubordRel, a: TypeExpr, b: TypeExpr) -> bool:
    """Subordination lifted to types: compares head constants only, so
    nominal arguments never matter."""
    ha, hb = head_constant(a), head_constant(b)
    for h in (ha, hb):
        if h not in rel.constants:
            raise UnknownConstant(f"type constant {h} not covered by the relation")
    return rel.holds(ha, hb)


def minimize(rel: SubordRel, ctx: LFContext, ty: TypeExpr) -> LFContext:
    """Keep exactly the bindings whose types are subordinate to `ty`."""
    kept = tuple(
        (binder, b) for binder, b in ctx.bindings if type_leq(rel, b, ty)
    )
    return LFContext(kept)
