"""Reasoning-level formulas over LF typing judgements.

Formulas quantify over terms (at arity types) and over contexts (at context
schemas); the atomic formula asserts a typing judgement together with the
well-formedness of its context and type.

Formulas are locally nameless, as LF syntax is.  A term quantifier binds an
index in the LF index space: inside an atom under `k` LF binders, the `d`-th
enclosing term quantifier (innermost first, from 0) is `BVar(k + d)`.  A
context quantifier binds an index of its own kind, `BVar(c)` as an atom's
`CtxExpr.head` for the `c`-th enclosing context quantifier.  Free term and
context variables are names.  A quantifier's name is a display hint that
takes no part in equality, so alpha-equivalent formulas are `==`, and
substituting for a free name can never be captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .lf import (
    Arity,
    Atom,
    BVar,
    LFError,
    Signature,
    Term,
    TypeExpr,
    _nodes,
    _open_named,
    apply_subst,
    arity_check_term,
    arity_check_type,
    erase,
    names_in,
)
from .schema import ContextSchema, CtxExpr


class UnboundContextVariable(LFError):
    pass


class UnboundTermVariable(LFError):
    pass


class ArityCheckFailure(LFError):
    pass


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Holds(Formula):
    """Atomic formula: the term inhabits the type in the context expression."""

    ctx: CtxExpr
    term: Term
    ty: TypeExpr


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Conj(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Disj(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ForallTm(Formula):
    var: str = field(compare=False)  # a display hint, like every binder's
    arity: Arity
    body: Formula


@dataclass(frozen=True)
class ExistsTm(Formula):
    var: str = field(compare=False)
    arity: Arity
    body: Formula


@dataclass(frozen=True)
class ForallCtx(Formula):
    var: str = field(compare=False)
    schema: ContextSchema
    body: Formula
    schema_name: Optional[str] = field(default=None, compare=False)


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class WfEnv:
    """Ambient arity assignment for free term variables and schema
    assignment for free context variables."""

    term_arities: Mapping[str, Arity] = field(default_factory=dict)
    ctx_schemas: Mapping[str, ContextSchema] = field(default_factory=dict)


EMPTY_ENV = WfEnv()


# ---------------------------------------------------------------------------
# Well-formedness.


def check_formula(sig: Signature, f: Formula, env: WfEnv = EMPTY_ENV) -> None:
    actx = sig.arity_context()
    _check(sig, actx, f, env.term_arities, set(env.ctx_schemas), (), (), 0)


def _check(sig, actx, f, free, cfree: set, names: tuple, local: tuple, cdepth: int) -> None:
    # names, local: the hint and arity of each enclosing term quantifier,
    # innermost first; cdepth: the number of enclosing context quantifiers.
    # A message names a bound variable by its hint.
    match f:
        case Holds(ctx, term, ty):
            head = ctx.head
            if not (
                head is None
                or (head.index < cdepth if isinstance(head, BVar) else head in cfree)
            ):
                raise UnboundContextVariable(f"context variable {head} is not bound")
            for _, bty in ctx.bindings:
                _scan_names(sig, bty, free)
                if not arity_check_type(actx, bty, free, local):
                    raise ArityCheckFailure(
                        f"context binding type {_open_named(bty, names)!r}"
                    )
            _scan_names(sig, term, free)
            _scan_names(sig, ty, free)
            if not arity_check_type(actx, ty, free, local):
                raise ArityCheckFailure(f"type {_open_named(ty, names)!r} does not arity-kind")
            if not arity_check_term(actx, term, erase(ty), free, local):
                raise ArityCheckFailure(
                    f"term {_open_named(term, names)!r} does not arity-check at {erase(ty)!r}"
                )
        case Top() | Bot():
            pass
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            _check(sig, actx, l, free, cfree, names, local, cdepth)
            _check(sig, actx, r, free, cfree, names, local, cdepth)
        case ForallTm(v, ar, body) | ExistsTm(v, ar, body):
            _check(sig, actx, body, free, cfree, (v,) + names, (ar,) + local, cdepth)
        case ForallCtx(_, _, body):
            _check(sig, actx, body, free, cfree, names, local, cdepth + 1)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _scan_names(sig, e, scope) -> None:
    """Reject free term names that are neither in scope nor declared."""
    for n in _nodes(e):
        if (
            isinstance(n, Atom)
            and isinstance(n.head, str)
            and n.head not in scope
            and sig.type_of(n.head) is None
        ):
            raise UnboundTermVariable(f"name {n.head} is not bound")


def _subformulas(f: Formula):
    """Every subformula of `f` in pre-order, left to right.  A non-formula
    raises TypeError where it is reached."""
    stack = [f]
    while stack:
        g = stack.pop()
        match g:
            case Imp() | Conj() | Disj():
                stack += (g.right, g.left)
            case ForallTm() | ExistsTm() | ForallCtx():
                stack.append(g.body)
            case Holds() | Top() | Bot():
                pass
            case _:
                raise TypeError(f"not a formula: {g!r}")
        yield g


def _term_names(f: Formula, names: tuple = ()) -> set[str]:
    """Every term name `f` mentions: its free names, its binder hints, and
    `names[i]` for each dangling index `i` below `len(names)`."""
    match f:
        case Holds(ctx, term, ty):
            parts = (term, ty, *(t for _, t in ctx.bindings))
            return set().union(*(names_in(_open_named(e, names)) for e in parts))
        case ForallTm(v, _, body) | ExistsTm(v, _, body):
            return {v} | _term_names(body, (v,) + names)
        case ForallCtx(_, _, body):
            return _term_names(body, names)
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            return _term_names(l, names) | _term_names(r, names)
    return set()


# ---------------------------------------------------------------------------
# Rebuilding formulas atom by atom.


def _rebuild(f: Formula, each) -> Formula:
    """`f` with `each` applied to its immediate subformulas; an atom, which
    has none, comes back as it is."""
    match f:
        case Holds() | Top() | Bot():
            return f
        case Imp(l, r):
            return Imp(each(l), each(r))
        case Conj(l, r):
            return Conj(each(l), each(r))
        case Disj(l, r):
            return Disj(each(l), each(r))
        case ForallTm(v, ar, body):
            return ForallTm(v, ar, each(body))
        case ExistsTm(v, ar, body):
            return ExistsTm(v, ar, each(body))
        case ForallCtx(v, cs, body, name):
            return ForallCtx(v, cs, each(body), name)
    raise TypeError(f"not a formula: {f!r}")


def _map_atoms(f: Formula, each, depth: int = 0, cdepth: int = 0) -> Formula:
    """`f` with each atom `h` replaced by `each(h, d, c)`, where `d` and `c`
    count the term and the context quantifiers of `f` above it (plus
    `depth` and `cdepth`)."""
    match f:
        case Holds():
            return each(f, depth, cdepth)
        case ForallTm(v, ar, body) | ExistsTm(v, ar, body):
            return type(f)(v, ar, _map_atoms(body, each, depth + 1, cdepth))
        case ForallCtx(v, cs, body, name):
            return ForallCtx(v, cs, _map_atoms(body, each, depth, cdepth + 1), name)
    return _rebuild(f, lambda g: _map_atoms(g, each, depth, cdepth))


def _map_lf(h: Holds, fn) -> Holds:
    """The atom with `fn` applied to its LF parts: the types its context
    binds, its term and its type."""
    bindings = tuple((n, fn(t)) for n, t in h.ctx.bindings)
    return Holds(CtxExpr(h.ctx.head, bindings), fn(h.term), fn(h.ty))


def _splice(h: Holds, repl: Optional[CtxExpr]) -> Holds:
    """The atom with `repl` in place of its context variable: the explicit
    bindings of the atom come after those of `repl`."""
    if repl is None:
        return h
    return Holds(CtxExpr(repl.head, repl.bindings + h.ctx.bindings), h.term, h.ty)


# ---------------------------------------------------------------------------
# Substitution for context variables.


def subst_ctx(f: Formula, sigma: Mapping[str, CtxExpr]) -> Formula:
    """Replace free context variables by context expressions; the explicit
    bindings at an occurrence are appended after the replacement's."""
    if not sigma:
        return f
    return _map_atoms(f, lambda h, d, c: _splice(h, sigma.get(h.ctx.head)))


def open_ctx(body: Formula, ce: CtxExpr) -> Formula:
    """The body of a context quantifier with no other one above it, with
    its variable replaced by `ce`, which has no dangling index."""
    return _map_atoms(body, lambda h, d, c: _splice(h, ce) if h.ctx.head == BVar(c) else h)


# ---------------------------------------------------------------------------
# Substitution of terms for free term variables.


def subst_terms(f: Formula, theta: Mapping[str, tuple[Term, Arity]]) -> Formula:
    """Distribute an arity-indexed substitution of locally closed terms
    over a formula, including the types in explicit context bindings."""
    if not theta:
        return f
    return _map_atoms(f, lambda h, d, c: _map_lf(h, lambda e: apply_subst(e, theta)))


# ---------------------------------------------------------------------------
# Alpha equivalence: binders are indices, so it is equality.


def formula_key(f: Formula):
    """A hashable key identical for alpha-equivalent formulas: the formula
    itself."""
    return f


def formula_alpha_eq(f: Formula, g: Formula) -> bool:
    return f == g
