"""Reasoning-level formulas over LF typing judgements.

Formulas quantify over terms (at arity types) and over contexts (at context
schemas); the atomic formula asserts a typing judgement together with the
well-formedness of its context and type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .lf import (
    Arity,
    Atom,
    LFError,
    Signature,
    Term,
    TypeExpr,
    _db_index,
    _nodes,
    alpha_key,
    apply_subst,
    arity_check_term,
    arity_check_type,
    erase,
    free_vars,
    fresh_name,
    names_in,
    rename_var,
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
    var: str
    arity: Arity
    body: Formula


@dataclass(frozen=True)
class ExistsTm(Formula):
    var: str
    arity: Arity
    body: Formula


@dataclass(frozen=True)
class ForallCtx(Formula):
    var: str
    schema: ContextSchema
    body: Formula
    schema_name: Optional[str] = field(default=None, compare=False)


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class WfEnv:
    """Ambient arity assignment for term variables and schema assignment for
    context variables."""

    term_arities: Mapping[str, Arity] = field(default_factory=dict)
    ctx_schemas: Mapping[str, ContextSchema] = field(default_factory=dict)


EMPTY_ENV = WfEnv()


# ---------------------------------------------------------------------------
# Well-formedness.


def check_formula(sig: Signature, f: Formula, env: WfEnv = EMPTY_ENV) -> None:
    actx = sig.arity_context()
    _check(sig, actx, f, dict(env.term_arities), set(env.ctx_schemas))


def _check(sig, actx, f, tscope: dict, cscope: set) -> None:
    match f:
        case Holds(ctx, term, ty):
            if ctx.head is not None and ctx.head not in cscope:
                raise UnboundContextVariable(
                    f"context variable {ctx.head} is not bound"
                )
            for _, bty in ctx.bindings:
                _scan_names(sig, bty, set(tscope))
                if not arity_check_type(actx, bty, tscope):
                    raise ArityCheckFailure(f"context binding type {bty!r}")
            _scan_names(sig, term, set(tscope))
            _scan_names(sig, ty, set(tscope))
            if not arity_check_type(actx, ty, tscope):
                raise ArityCheckFailure(f"type {ty!r} does not arity-kind")
            if not arity_check_term(actx, term, erase(ty), tscope):
                raise ArityCheckFailure(
                    f"term {term!r} does not arity-check at {erase(ty)!r}"
                )
        case Top() | Bot():
            pass
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            _check(sig, actx, l, tscope, cscope)
            _check(sig, actx, r, tscope, cscope)
        case ForallTm(v, ar, body) | ExistsTm(v, ar, body):
            _check(sig, actx, body, {**tscope, v: ar}, cscope)
        case ForallCtx(v, _, body):
            _check(sig, actx, body, tscope, cscope | {v})
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _scan_names(sig, e, scope: set) -> None:
    """Reject free term names that are neither in scope nor declared."""
    for n in _nodes(e):
        if (
            isinstance(n, Atom)
            and isinstance(n.head, str)
            and n.head not in scope
            and sig.type_of(n.head) is None
        ):
            raise UnboundTermVariable(f"name {n.head} is not bound")


def _subformulas(f: Formula, stop: Optional[str] = None):
    """Every subformula of `f` in pre-order, left to right.  The body of a
    `ForallCtx` rebinding the context variable `stop` is not entered.  A
    non-formula raises TypeError where it is reached."""
    stack = [f]
    while stack:
        g = stack.pop()
        match g:
            case Imp() | Conj() | Disj():
                stack += (g.right, g.left)
            case ForallTm() | ExistsTm():
                stack.append(g.body)
            case ForallCtx():
                if g.var != stop:
                    stack.append(g.body)
            case Holds() | Top() | Bot():
                pass
            case _:
                raise TypeError(f"not a formula: {g!r}")
        yield g


# ---------------------------------------------------------------------------
# Substitution of context expressions for context variables.


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


def rename_ctx_var(f: Formula, old: str, new: str) -> Formula:
    match f:
        case Holds(ctx, term, ty) if ctx.head == old:
            return Holds(CtxExpr(new, ctx.bindings), term, ty)
        case ForallCtx(v) if v == old:
            return f
    return _rebuild(f, lambda g: rename_ctx_var(g, old, new))


def subst_ctx(f: Formula, sigma: Mapping[str, CtxExpr]) -> Formula:
    """Replace free context variables by context expressions; the explicit
    bindings at an occurrence are appended after the replacement's."""
    if not sigma:
        return f
    match f:
        case Holds(ctx, term, ty) if ctx.head is not None and ctx.head in sigma:
            repl = sigma[ctx.head]
            return Holds(CtxExpr(repl.head, repl.bindings + ctx.bindings), term, ty)
        case ForallCtx(v, cs, body, name):
            inner = {k: g for k, g in sigma.items() if k != v}
            if not inner:
                return f
            range_heads = {g.head for g in inner.values() if g.head is not None}
            if v in range_heads:
                v2 = fresh_name(v, range_heads | ctx_var_names(body) | set(inner))
                body = rename_ctx_var(body, v, v2)
                v = v2
            return ForallCtx(v, cs, subst_ctx(body, inner), name)
    return _rebuild(f, lambda g: subst_ctx(g, sigma))


# ---------------------------------------------------------------------------
# Substitution of terms for term variables.


def subst_terms(f: Formula, theta: Mapping[str, tuple[Term, Arity]]) -> Formula:
    """Distribute an arity-indexed substitution over a formula, including
    the types in explicit context bindings."""
    if not theta:
        return f
    match f:
        case Holds(ctx, term, ty):
            bindings = tuple((n, apply_subst(t, theta)) for n, t in ctx.bindings)
            return Holds(
                CtxExpr(ctx.head, bindings),
                apply_subst(term, theta),
                apply_subst(ty, theta),
            )
        case ForallTm(v, ar, body) | ExistsTm(v, ar, body):
            v, body, inner = _shield_binder(v, body, theta)
            return type(f)(v, ar, subst_terms(body, inner) if inner else body)
    return _rebuild(f, lambda g: subst_terms(g, theta))


def _shield_binder(var, body, theta):
    inner = {k: v for k, v in theta.items() if k != var}
    if not inner:
        return var, body, inner
    range_free: set[str] = set()
    for t, _ in inner.values():
        range_free |= free_vars(t)
    if var in range_free:
        var2 = fresh_name(var, range_free | formula_term_names(body) | set(inner))
        body = _rename_term_var(body, var, var2)
        var = var2
    return var, body, inner


def formula_term_names(f: Formula) -> set[str]:
    """Every term-level name in a formula, bound or free."""
    out: set[str] = set()
    for g in _subformulas(f):
        if isinstance(g, Holds):
            out |= names_in(g.term) | names_in(g.ty)
            for _, t in g.ctx.bindings:
                out |= names_in(t)
        elif isinstance(g, (ForallTm, ExistsTm)):
            out.add(g.var)
    return out


def ctx_var_names(f: Formula) -> set[str]:
    """Every context-variable name in a formula, bound or free."""
    out: set[str] = set()
    for g in _subformulas(f):
        if isinstance(g, Holds):
            if g.ctx.head is not None:
                out.add(g.ctx.head)
        elif isinstance(g, ForallCtx):
            out.add(g.var)
    return out


def _rename_term_var(f: Formula, old: str, new: str) -> Formula:
    match f:
        case Holds(ctx, term, ty):
            bindings = tuple((n, rename_var(t, old, new)) for n, t in ctx.bindings)
            return Holds(
                CtxExpr(ctx.head, bindings),
                rename_var(term, old, new),
                rename_var(ty, old, new),
            )
        case ForallTm(v) | ExistsTm(v) if v == old:
            return f
    return _rebuild(f, lambda g: _rename_term_var(g, old, new))


# ---------------------------------------------------------------------------
# Alpha equivalence for formulas (term and context binders).


def formula_key(f: Formula, tenv: tuple = (), cenv: tuple = ()):
    match f:
        case Holds(ctx, term, ty):
            if ctx.head is None:
                hk = None
            else:
                idx = _db_index(ctx.head, cenv)
                hk = ("b", idx) if idx is not None else ("f", ctx.head)
            bnd = tuple(
                ((n.arity, n.index), alpha_key(t, tenv)) for n, t in ctx.bindings
            )
            return ("holds", hk, bnd, alpha_key(term, tenv), alpha_key(ty, tenv))
        case Top():
            return ("top",)
        case Bot():
            return ("bot",)
        case Imp(l, r):
            return ("imp", formula_key(l, tenv, cenv), formula_key(r, tenv, cenv))
        case Conj(l, r):
            return ("and", formula_key(l, tenv, cenv), formula_key(r, tenv, cenv))
        case Disj(l, r):
            return ("or", formula_key(l, tenv, cenv), formula_key(r, tenv, cenv))
        case ForallTm(v, ar, body):
            return ("all", ar, formula_key(body, tenv + (v,), cenv))
        case ExistsTm(v, ar, body):
            return ("ex", ar, formula_key(body, tenv + (v,), cenv))
        case ForallCtx(v, cs, body):
            return ("ctxall", cs, formula_key(body, tenv, cenv + (v,)))
    raise TypeError(f"not a formula: {f!r}")


def formula_alpha_eq(f: Formula, g: Formula) -> bool:
    return formula_key(f) == formula_key(g)
