"""Shorthand constructors for syntax trees in tests."""

from lfport import Atom, AtomicType, CtxExpr, Lam, LFContext, Nominal, O, PiType
from lfport.lf import BVar, _map_heads


def a(head, *args):
    return Atom(head, tuple(args))


def at(head, *args):
    return AtomicType(head, tuple(args))


def bind(var, body):
    """`body`, written with `var` as a free name, as the body of a binder of
    `var`: each free occurrence becomes the index of that binder."""
    return _map_heads(body, lambda h, d: BVar(d) if h == var else h)


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
