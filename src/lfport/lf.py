"""Canonical-LF syntax and its formation judgements.

Terms are kept beta-normal by construction and the checkers enforce the
eta-long discipline: a canonical term checked against a function type must
be an abstraction.  Substitution is arity-indexed and re-normalizes on the
fly; its recursion is bounded by the arity annotations, so ill-matched
annotations surface as ``SubstFailure`` instead of divergence.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union


class LFError(Exception):
    """Base class for every checker failure raised by this package."""


class DuplicateName(LFError):
    pass


class IllFormedClassifier(LFError):
    pass


class IllFormedType(LFError):
    pass


class UnknownConstant(LFError):
    pass


class SpineArity(LFError):
    pass


class ArgumentTypeMismatch(LFError):
    pass


class NotEtaLong(LFError):
    pass


class HeadUnbound(LFError):
    pass


class TypeMismatch(LFError):
    pass


class SubstFailure(LFError):
    pass


# ---------------------------------------------------------------------------
# Arity types: simple types over a single base, obtained by erasure.


@dataclass(frozen=True)
class Arity:
    pass


@dataclass(frozen=True)
class BaseArity(Arity):
    def __repr__(self) -> str:
        return "o"


@dataclass(frozen=True)
class Arrow(Arity):
    left: Arity
    right: Arity

    def __repr__(self) -> str:
        left = f"({self.left!r})" if isinstance(self.left, Arrow) else repr(self.left)
        return f"{left} -> {self.right!r}"


O = BaseArity()


def arity_args(arity: Arity) -> tuple[Arity, ...]:
    """Argument arities of a fully applied head of this arity."""
    out = []
    while isinstance(arity, Arrow):
        out.append(arity.left)
        arity = arity.right
    return tuple(out)


# ---------------------------------------------------------------------------
# Syntax trees.


@dataclass(frozen=True)
class Nominal:
    """A context-level constant; identity is the (arity, index) pair."""

    arity: Arity
    index: int

    def __repr__(self) -> str:
        return f"n{self.index}"


Head = Union[str, Nominal]


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Atom(Term):
    head: Head
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Lam(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class TypeExpr:
    pass


@dataclass(frozen=True)
class AtomicType(TypeExpr):
    head: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class PiType(TypeExpr):
    var: str
    domain: TypeExpr
    body: TypeExpr


@dataclass(frozen=True)
class Kind:
    pass


@dataclass(frozen=True)
class TypeKind(Kind):
    pass


@dataclass(frozen=True)
class PiKind(Kind):
    var: str
    domain: TypeExpr
    body: Kind


TYPE = TypeKind()

Expr = Union[Term, TypeExpr, Kind]


@dataclass(frozen=True)
class TypeDecl:
    name: str
    kind: Kind


@dataclass(frozen=True)
class TermDecl:
    name: str
    type: TypeExpr


Decl = Union[TypeDecl, TermDecl]


@dataclass(frozen=True)
class Signature:
    """An ordered list of declarations.  Lookups, and the erased view, are
    computed once per instance; a name declared twice (which
    `check_signature` rejects) resolves to its first declaration."""

    decls: tuple[Decl, ...] = ()

    # Built from the last declaration back, so a name's first one wins.
    @functools.cached_property
    def _kinds(self) -> dict[str, Kind]:
        return {d.name: d.kind for d in reversed(self.decls) if isinstance(d, TypeDecl)}

    @functools.cached_property
    def _types(self) -> dict[str, TypeExpr]:
        return {d.name: d.type for d in reversed(self.decls) if isinstance(d, TermDecl)}

    def kind_of(self, name: str) -> Optional[Kind]:
        return self._kinds.get(name)

    def type_of(self, name: str) -> Optional[TypeExpr]:
        return self._types.get(name)

    def type_constants(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls if isinstance(d, TypeDecl))

    def arity_context(self) -> "ArityContext":
        """The erased view of the signature (term constant arities plus the
        argument arities of each type constant), shared read-only by every
        caller."""
        return self._arity_context

    @functools.cached_property
    def _arity_context(self) -> "ArityContext":
        terms = {d.name: erase(d.type) for d in self.decls if isinstance(d, TermDecl)}
        types = {
            d.name: kind_arg_arities(d.kind)
            for d in self.decls
            if isinstance(d, TypeDecl)
        }
        return ArityContext(MappingProxyType(terms), MappingProxyType(types))


@dataclass(frozen=True)
class LFContext:
    """An ordered typing context; binders are variables or nominals."""

    bindings: tuple[tuple[Head, TypeExpr], ...] = ()

    def lookup(self, name: Head) -> Optional[TypeExpr]:
        for binder, ty in reversed(self.bindings):
            if binder == name:
                return ty
        return None

    def extend(self, name: Head, ty: TypeExpr) -> "LFContext":
        return LFContext(self.bindings + ((name, ty),))


@dataclass(frozen=True)
class ArityContext:
    """Arity assignment for term-level names plus erased type-constant kinds."""

    terms: Mapping[str, Arity]
    type_args: Mapping[str, tuple[Arity, ...]]

    def with_terms(self, extra: Mapping[str, Arity]) -> "ArityContext":
        merged = dict(self.terms)
        merged.update(extra)
        return ArityContext(merged, self.type_args)


# A substitution maps variables to replacement terms tagged with the arity
# that governs the hereditary contraction.
Subst = dict


# ---------------------------------------------------------------------------
# Erasure and basic traversals.


def erase(ty: TypeExpr) -> Arity:
    match ty:
        case AtomicType():
            return O
        case PiType(_, domain, body):
            return Arrow(erase(domain), erase(body))
    raise TypeError(f"not a type expression: {ty!r}")


def kind_arg_arities(kind: Kind) -> tuple[Arity, ...]:
    out = []
    while isinstance(kind, PiKind):
        out.append(erase(kind.domain))
        kind = kind.body
    return tuple(out)


def _nodes(e: Expr):
    """Every node of an LF expression in pre-order, left to right, each with
    the tuple of names bound above it, outermost first.  A non-LF node
    raises TypeError where it is reached."""
    stack = [(e, ())]
    while stack:
        e, bound = stack.pop()
        match e:
            case Atom() | AtomicType():
                if e.args:
                    stack += [(a, bound) for a in reversed(e.args)]
            case Lam():
                stack.append((e.body, bound + (e.var,)))
            case PiType() | PiKind():
                stack += ((e.body, bound + (e.var,)), (e.domain, bound))
            case TypeKind():
                pass
            case _:
                raise TypeError(f"not an LF expression: {e!r}")
        yield e, bound


def free_vars(e: Expr) -> set[str]:
    return {
        n.head
        for n, bound in _nodes(e)
        if isinstance(n, Atom) and isinstance(n.head, str) and n.head not in bound
    }


def nominals_in(e: Expr) -> set[Nominal]:
    return {
        n.head for n, _ in _nodes(e) if isinstance(n, Atom) and isinstance(n.head, Nominal)
    }


def context_nominals(ctx: LFContext) -> set[Nominal]:
    out = {binder for binder, _ in ctx.bindings if isinstance(binder, Nominal)}
    return out.union(*(nominals_in(ty) for _, ty in ctx.bindings))


def names_in(e: Expr) -> set[str]:
    """Every variable name occurring in the expression, free or bound.
    Fresh-name choices avoid this set so renaming can never be captured by
    an inner binder."""
    out: set[str] = set()
    for n, _ in _nodes(e):
        if isinstance(n, Atom):
            if isinstance(n.head, str):
                out.add(n.head)
        elif isinstance(n, (Lam, PiType, PiKind)):
            out.add(n.var)
    return out


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    avoid = set(avoid)
    name = base
    while name in avoid:
        name += "'"
    return name


def fresh_nominal(arity: Arity, avoid: Iterable[Nominal]) -> Nominal:
    used = {n.index for n in avoid if n.arity == arity}
    for i in itertools.count(1):
        if i not in used:
            return Nominal(arity, i)
    raise AssertionError("unreachable")


def _db_index(name, binders) -> Optional[int]:
    """The de Bruijn index of `name` in the binder list `binders` (innermost
    last), or None when it is not bound there."""
    for i in range(len(binders) - 1, -1, -1):
        if binders[i] == name:
            return len(binders) - 1 - i
    return None


def rename_var(e: Expr, old: Head, new: str) -> Expr:
    """Replace free occurrences of the variable or nominal `old` by `new`
    (assumed fresh).  No binder is a nominal, so a nominal is replaced
    everywhere."""
    match e:
        case Atom(head, args):
            head2 = new if head == old else head
            return Atom(head2, tuple(rename_var(a, old, new) for a in args))
        case Lam(var, body):
            if var == old:
                return e
            return Lam(var, rename_var(body, old, new))
        case AtomicType(head, args):
            return AtomicType(head, tuple(rename_var(a, old, new) for a in args))
        case PiType(var, domain, body):
            domain2 = rename_var(domain, old, new)
            if var == old:
                return PiType(var, domain2, body)
            return PiType(var, domain2, rename_var(body, old, new))
        case TypeKind():
            return e
        case PiKind(var, domain, body):
            domain2 = rename_var(domain, old, new)
            if var == old:
                return PiKind(var, domain2, body)
            return PiKind(var, domain2, rename_var(body, old, new))
    raise TypeError(f"not an LF expression: {e!r}")


# ---------------------------------------------------------------------------
# Alpha equivalence via a canonical internal form.


def alpha_key(e: Expr, env: tuple[str, ...] = ()):
    """A hashable key identical for alpha-equivalent expressions.

    Bound variables are replaced with binder depths; free names and nominals
    stay rigid.
    """
    match e:
        case Atom(head, args):
            akeys = tuple(alpha_key(a, env) for a in args)
            if isinstance(head, Nominal):
                return ("a", ("n", head.arity, head.index), akeys)
            for i in range(len(env) - 1, -1, -1):
                if env[i] == head:
                    return ("a", ("b", len(env) - 1 - i), akeys)
            return ("a", ("f", head), akeys)
        case Lam(var, body):
            return ("l", alpha_key(body, env + (var,)))
        case AtomicType(head, args):
            return ("at", head, tuple(alpha_key(a, env) for a in args))
        case PiType(var, domain, body):
            return ("p", alpha_key(domain, env), alpha_key(body, env + (var,)))
        case TypeKind():
            return ("type",)
        case PiKind(var, domain, body):
            return ("pk", alpha_key(domain, env), alpha_key(body, env + (var,)))
    raise TypeError(f"not an LF expression: {e!r}")


def alpha_eq(a: Expr, b: Expr) -> bool:
    # Syntactic equality implies alpha-equivalence and needs no keys.
    return a == b or alpha_key(a) == alpha_key(b)


# ---------------------------------------------------------------------------
# Arity-indexed (hereditary) substitution.


def apply_subst(e: Expr, subst: Mapping[str, tuple[Term, Arity]]) -> Expr:
    """Apply a substitution, contracting any redex it creates.

    Each entry maps a variable to a replacement term and the arity that
    bounds the contraction; a contraction the arity does not license raises
    ``SubstFailure``.
    """
    if not subst:
        return e
    range_free: set[str] = set()
    for t, _ in subst.values():
        range_free |= free_vars(t)
    return _subst(e, dict(subst), range_free)


def _subst(e: Expr, subst: Subst, range_free: set[str]) -> Expr:
    match e:
        case Atom(head, args):
            new_args = tuple(_subst(a, subst, range_free) for a in args)
            if isinstance(head, str) and head in subst:
                repl, arity = subst[head]
                return _contract(repl, arity, new_args)
            return Atom(head, new_args)
        case Lam(var, body):
            var2, body2, inner = _under_binder(var, body, subst, range_free)
            return Lam(var2, _subst(body2, inner, range_free) if inner else body2)
        case AtomicType(head, args):
            return AtomicType(head, tuple(_subst(a, subst, range_free) for a in args))
        case PiType(var, domain, body):
            domain2 = _subst(domain, subst, range_free)
            var2, body2, inner = _under_binder(var, body, subst, range_free)
            return PiType(var2, domain2, _subst(body2, inner, range_free) if inner else body2)
        case TypeKind():
            return e
        case PiKind(var, domain, body):
            domain2 = _subst(domain, subst, range_free)
            var2, body2, inner = _under_binder(var, body, subst, range_free)
            return PiKind(var2, domain2, _subst(body2, inner, range_free) if inner else body2)
    raise TypeError(f"not an LF expression: {e!r}")


def _under_binder(var, body, subst, range_free):
    inner = {k: v for k, v in subst.items() if k != var}
    if not inner:
        return var, body, inner
    if var in range_free:
        var2 = fresh_name(var, range_free | names_in(body) | set(inner))
        return var2, rename_var(body, var, var2), inner
    return var, body, inner


def _contract(term: Term, arity: Arity, args: tuple[Term, ...]) -> Term:
    # Walks the spine left to right; the arity annotation must provide one
    # arrow per argument.  A lambda consumes the argument by a hereditary
    # beta step, an atomic replacement absorbs it into its spine.
    for arg in args:
        if not isinstance(arity, Arrow):
            raise SubstFailure(
                f"replacement of arity {arity!r} applied to an argument"
            )
        if isinstance(term, Lam):
            term = apply_subst(term.body, {term.var: (arg, arity.left)})
        else:
            term = Atom(term.head, term.args + (arg,))
        arity = arity.right
    return term


# ---------------------------------------------------------------------------
# Arity typing and kinding: the simple-type discipline on erased structure.


def arity_check_term(
    actx: ArityContext,
    term: Term,
    arity: Arity,
    bound: Optional[Mapping[str, Arity]] = None,
) -> bool:
    bound = dict(bound) if bound else {}
    match term:
        case Lam(var, body):
            if not isinstance(arity, Arrow):
                return False
            inner = dict(bound)
            inner[var] = arity.left
            return arity_check_term(actx, body, arity.right, inner)
        case Atom(head, args):
            if isinstance(head, Nominal):
                have = head.arity
            elif head in bound:
                have = bound[head]
            else:
                have = actx.terms.get(head)
                if have is None:
                    return False
            for arg in args:
                if not isinstance(have, Arrow):
                    return False
                if not arity_check_term(actx, arg, have.left, bound):
                    return False
                have = have.right
            return have == arity
    raise TypeError(f"not a term: {term!r}")


def arity_check_type(
    actx: ArityContext,
    ty: TypeExpr,
    bound: Optional[Mapping[str, Arity]] = None,
) -> bool:
    bound = dict(bound) if bound else {}
    match ty:
        case PiType(var, domain, body):
            if not arity_check_type(actx, domain, bound):
                return False
            inner = dict(bound)
            inner[var] = erase(domain)
            return arity_check_type(actx, body, inner)
        case AtomicType(head, args):
            want = actx.type_args.get(head)
            if want is None or len(want) != len(args):
                return False
            return all(
                arity_check_term(actx, arg, ar, bound)
                for arg, ar in zip(args, want)
            )
    raise TypeError(f"not a type expression: {ty!r}")


# ---------------------------------------------------------------------------
# The formation judgements.


def check_signature(sig: Signature) -> None:
    seen: set[str] = set()
    prefix: list[Decl] = []
    for d in sig.decls:
        if d.name in seen:
            raise DuplicateName(f"constant {d.name} declared twice")
        seen.add(d.name)
        before = Signature(tuple(prefix))
        try:
            if isinstance(d, TypeDecl):
                check_kind(before, LFContext(), d.kind)
            else:
                check_type(before, LFContext(), d.type)
        except LFError as err:
            raise IllFormedClassifier(f"declaration of {d.name}: {err}") from err
        prefix.append(d)


def check_context(sig: Signature, ctx: LFContext) -> None:
    seen: set[Head] = set()
    prefix = LFContext()
    for binder, ty in ctx.bindings:
        if binder in seen:
            raise DuplicateName(f"{binder} bound twice in context")
        seen.add(binder)
        try:
            check_type(sig, prefix, ty)
        except LFError as err:
            raise IllFormedType(f"binding {binder}: {err}") from err
        prefix = prefix.extend(binder, ty)


def check_kind(sig: Signature, ctx: LFContext, kind: Kind) -> None:
    match kind:
        case TypeKind():
            return
        case PiKind(var, domain, body):
            check_type(sig, ctx, domain)
            nom, body2 = _open_binder(ctx, var, domain, body)
            check_kind(sig, ctx.extend(nom, domain), body2)
            return
    raise TypeError(f"not a kind: {kind!r}")


def check_type(sig: Signature, ctx: LFContext, ty: TypeExpr) -> None:
    match ty:
        case PiType(var, domain, body):
            check_type(sig, ctx, domain)
            nom, body2 = _open_binder(ctx, var, domain, body)
            check_type(sig, ctx.extend(nom, domain), body2)
            return
        case AtomicType(head, args):
            kind = sig.kind_of(head)
            if kind is None:
                raise UnknownConstant(f"type constant {head} not declared")
            for arg in args:
                if not isinstance(kind, PiKind):
                    raise SpineArity(f"type constant {head} applied to too many arguments")
                try:
                    check_term(sig, ctx, arg, kind.domain)
                except LFError as err:
                    raise ArgumentTypeMismatch(
                        f"argument of {head} does not check: {err}"
                    ) from err
                kind = apply_subst(kind.body, {kind.var: (arg, erase(kind.domain))})
            if not isinstance(kind, TypeKind):
                raise SpineArity(f"type constant {head} is under-applied")
            return
    raise TypeError(f"not a type expression: {ty!r}")


def check_term(sig: Signature, ctx: LFContext, term: Term, ty: TypeExpr) -> None:
    match term:
        case Lam(var, body):
            if not isinstance(ty, PiType):
                raise TypeMismatch("abstraction checked against an atomic type")
            arity = erase(ty.domain)
            avoid = context_nominals(ctx) | nominals_in(body) | nominals_in(ty)
            nom = fresh_nominal(arity, avoid)
            repl = Atom(nom)
            body2 = apply_subst(body, {var: (repl, arity)})
            cod2 = apply_subst(ty.body, {ty.var: (repl, arity)})
            check_term(sig, ctx.extend(nom, ty.domain), body2, cod2)
            return
        case Atom():
            if isinstance(ty, PiType):
                raise NotEtaLong(
                    "atomic term checked against a function type; expected an abstraction"
                )
            have = _synth_atom(sig, ctx, term)
            if isinstance(have, PiType):
                raise NotEtaLong(f"head of {term!r} is under-applied")
            if not alpha_eq(have, ty):
                raise TypeMismatch(f"synthesized {have!r}, expected {ty!r}")
            return
    raise TypeError(f"not a term: {term!r}")


def _synth_atom(sig: Signature, ctx: LFContext, term: Atom) -> TypeExpr:
    ty = ctx.lookup(term.head)
    if ty is None and isinstance(term.head, str):
        ty = sig.type_of(term.head)
    if ty is None:
        raise HeadUnbound(f"head {term.head} is not bound")
    for arg in term.args:
        if not isinstance(ty, PiType):
            raise SpineArity(f"head {term.head} applied to too many arguments")
        check_term(sig, ctx, arg, ty.domain)
        ty = apply_subst(ty.body, {ty.var: (arg, erase(ty.domain))})
    return ty


def _open_binder(ctx: LFContext, var: str, domain: TypeExpr, body):
    arity = erase(domain)
    avoid = context_nominals(ctx) | nominals_in(body) | nominals_in(domain)
    nom = fresh_nominal(arity, avoid)
    return nom, apply_subst(body, {var: (Atom(nom), arity)})
