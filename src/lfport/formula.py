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

import functools
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
    _primed,
    arity_check_term,
    arity_check_type,
    erase,
    free_vars,
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
    @functools.cached_property
    def _shown(self) -> tuple[frozenset, frozenset]:
        """The free term names and the context heads the formula shows,
        from those of its immediate subformulas: computed once per node,
        bottom-up, and kept in the node's `__dict__`, so they take no part
        in `==`, `hash` or `repr`."""
        return _shown_names(self)


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
                        f"context binding type {_open_named(bty, names)!r} does not arity-kind"
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


def _lf_parts(h: Holds) -> tuple:
    """An atom's term, its type and the types its context binds."""
    return (h.term, h.ty, *(t for _, t in h.ctx.bindings))


def _term_names(f: Formula) -> set[str]:
    """Every term name `f` mentions: its free names and its binder hints."""
    return {
        n
        for g in _subformulas(f)
        if isinstance(g, (Holds, ForallTm, ExistsTm))
        for n in (set().union(*map(names_in, _lf_parts(g))) if isinstance(g, Holds) else {g.var})
    }


def _shown_names(f: Formula) -> tuple[frozenset, frozenset]:
    """`Formula._shown` of `f`, from its subformulas' own."""
    match f:
        case Holds():
            return frozenset().union(*map(free_vars, _lf_parts(f))), frozenset((f.ctx.head,))
        case Imp() | Conj() | Disj():
            (lt, lc), (rt, rc) = f.left._shown, f.right._shown
            return lt | rt, lc | rc
        case ForallTm() | ExistsTm() | ForallCtx():
            return f.body._shown
        case Top() | Bot():
            return frozenset(), frozenset()
    raise TypeError(f"not a formula: {f!r}")


def _quantifier_name(g: Formula, path) -> str:
    """The name of the quantifier `g` (`lf._primed`) under `path`, the
    names of the enclosing quantifiers of its kind.  What its body shows
    is read from `Formula._shown`; all of its names are gathered only
    where the hint is primed."""
    body = g.body
    if isinstance(g, ForallCtx):
        heads = lambda: body._shown[1]
        hints = lambda: {h.var for h in _subformulas(body) if isinstance(h, ForallCtx)}
        return _primed(g.var, path, heads, lambda: heads() | hints())
    return _primed(g.var, path, lambda: body._shown[0], lambda: _term_names(body))


def _choose_hints(f: Formula, path=frozenset(), cpath=frozenset()) -> Formula:
    """`f` with each quantifier hinted by its `_quantifier_name` under the
    names chosen above it (`path`, `cpath`), which depend on their whole
    bodies: so the parser chooses them once the formula is parsed.  A node
    whose hint and subformulas stay comes back as it is, `_shown` kept."""
    match f:
        case ForallTm(hint, ar, body) | ExistsTm(hint, ar, body):
            v = _quantifier_name(f, path)
            new = _choose_hints(body, path | {v}, cpath)
            return f if v == hint and new is body else type(f)(v, ar, new)
        case ForallCtx(hint, cs, body, name):
            v = _quantifier_name(f, cpath)
            new = _choose_hints(body, path, cpath | {v})
            return f if v == hint and new is body else ForallCtx(v, cs, new, name)
    return _rebuild(f, lambda g: _choose_hints(g, path, cpath))


# ---------------------------------------------------------------------------
# Rebuilding formulas atom by atom.


def _rebuild(f: Formula, each) -> Formula:
    """`f` with `each` applied to its immediate subformulas; an atom, which
    has none, comes back as it is, and so does a connective whose sides do."""
    match f:
        case Holds() | Top() | Bot():
            return f
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            new_l, new_r = each(l), each(r)
            return f if new_l is l and new_r is r else type(f)(new_l, new_r)
        case ForallTm(v, ar, body) | ExistsTm(v, ar, body):
            return type(f)(v, ar, each(body))
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
