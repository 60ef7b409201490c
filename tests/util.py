"""Shorthand constructors for syntax trees in tests, and seeded random formulas."""

from lfport import (
    Arrow,
    Atom,
    AtomicType,
    Bot,
    Conj,
    CtxExpr,
    Disj,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Holds,
    Imp,
    Lam,
    LFContext,
    Nominal,
    O,
    PiType,
    Top,
)
from lfport.formula import _map_atoms, _map_lf
from lfport.lf import BVar, _map_heads


def a(head, *args):
    return Atom(head, tuple(args))


def at(head, *args):
    return AtomicType(head, tuple(args))


def bind(var, body):
    """`body`, written with `var` as a free name, as the body of a binder of
    `var`: each free occurrence becomes the index of that binder."""
    return _map_heads(body, lambda h, d: BVar(d) if h == var else h)


def quantify(kind, var, sort, body, *schema_name):
    """`kind(var, sort, body)`, a formula quantifier, with `body` written
    with `var` as a free name: each free occurrence becomes the index of
    the quantifier, a context variable's for a `ForallCtx`, a term
    variable's otherwise."""
    if kind is ForallCtx:
        def each(h, d, c):
            return Holds(CtxExpr(BVar(c), h.ctx.bindings), h.term, h.ty) if h.ctx.head == var else h
    else:
        def each(h, d, c):
            return _map_lf(h, lambda e: _map_heads(e, lambda x, k: BVar(k + d) if x == var else x))
    return kind(var, sort, _map_atoms(body, each), *schema_name)


def lam(var, body):
    return Lam(var, bind(var, body))


def pi(var, domain, body):
    return PiType(var, domain, bind(var, body))


def nom(index, arity=O):
    return Nominal(arity, index)


def ctx(*bindings):
    return LFContext(tuple(bindings))


def ce(*bindings, head=None):
    return CtxExpr(head, tuple(bindings))


# ---------------------------------------------------------------------------
# Random closed, arity-correct formulas over the size signature, or the stlc
# signature that extends it.  Names include constants (z, s) and the pool's
# own binder name (x1), so that quantifiers named like a pool term's
# constants are exercised too.

NAMES = ("N", "M", "z", "s", "x1")


def random_formula(rng, schemas, ctx_var=None, depth=4, schema="Csize"):
    """A seeded random formula whose atoms are headed by `ctx_var` or, under
    a context quantifier, by the variable `G` it binds, which ranges over
    `schemas[schema]`."""
    return _formula(rng, {}, ctx_var, depth, (schema, schemas[schema]))


def _term(rng, scope, depth):
    """A term of arity o; scope maps names to arities."""
    options = [lambda v=v: a(v) for v, ar in scope.items() if ar == O]
    options.append(lambda: a(nom(1)))
    if "z" not in scope:
        options.append(lambda: a("z"))
    if depth > 0:
        options += [
            lambda: a("app", _term(rng, scope, depth - 1), _term(rng, scope, depth - 1)),
            lambda: _lam(rng, scope, depth, lambda y, body: a("lam", lam(y, body))),
        ]
        if "s" not in scope:
            options.append(lambda: a("s", _term(rng, scope, depth - 1)))
        options += [
            lambda v=v: a(v, _term(rng, scope, depth - 1))
            for v, ar in scope.items()
            if ar != O
        ]
    return rng.choice(options)()


def _lam(rng, scope, depth, build):
    y = rng.choice(("y", "z"))
    return build(y, _term(rng, {**scope, y: O}, depth - 1))


def _atom(rng, scope, ctx_var):
    bindings = rng.choice((
        (),
        ((nom(1), at("tm")),),
        ((nom(1), at("tm")), (nom(2), at("size", a(nom(1)), _term(rng, scope, 1)))),
    ))
    term = rng.choice((
        lambda: _term(rng, scope, 2),
        lambda: a(nom(1)),
        lambda: _lam(rng, scope, 2, lam),
    ))()
    ty = rng.choice((
        lambda: at("nat"),
        lambda: at("tm"),
        lambda: at("plus", *(_term(rng, scope, 1) for _ in range(3))),
        lambda: at("size", _term(rng, scope, 1), _term(rng, scope, 1)),
        lambda: pi("z", at("tm"), at("tm")),
    ))()
    return Holds(ce(*bindings, head=ctx_var), term, ty)


def _formula(rng, scope, ctx_var, depth, schema):
    # schema: the (name, schema) a context quantifier ranges over
    if depth == 0:
        return rng.choice((lambda: _atom(rng, scope, ctx_var), Top, Bot))()

    def sub(sc=scope, cv=ctx_var):
        return _formula(rng, sc, cv, depth - 1, schema)

    def quantified(kind):
        v, ar = rng.choice(NAMES), rng.choice((O, Arrow(O, O)))
        return quantify(kind, v, ar, sub({**scope, v: ar}))

    return rng.choice((
        lambda: _atom(rng, scope, ctx_var),
        lambda: Imp(sub(), sub()),
        lambda: Conj(sub(), sub()),
        lambda: Disj(sub(), sub()),
        lambda: quantified(ForallTm),
        lambda: quantified(ExistsTm),
        lambda: quantify(ForallCtx, "G", schema[1], sub(scope, "G"), schema[0]),
    ))()
