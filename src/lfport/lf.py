"""Canonical-LF syntax and its formation judgements.

The syntax is locally nameless: a bound variable is a de Bruijn index
(`BVar`), and everything else (constants, schema variables, free formula
variables, nominals) is a name; a formula's term quantifiers bind indices
in the same space, above an atom's LF binders (see `formula`).  A binder
keeps its surface name only as a display hint that takes no part in
equality, so alpha-equivalent trees are `==` and hash alike, and
substituting for a name can never be captured.

Terms are kept beta-normal by construction and the checkers enforce the
eta-long discipline: a canonical term checked against a function type must
be an abstraction.  Checking a term against an atomic type is its synthesis
(`synth_term`) followed by one comparison of the synthesized type with the
expected one, so a caller that checks one term against many types can
synthesize it once.  Substitution is arity-indexed and re-normalizes on the
fly; its recursion is bounded by the arity annotations, so ill-matched
annotations surface as ``SubstFailure`` instead of divergence.  It shares
every subtree that has no dangling index to replace: each node caches its
reach, one more than its largest dangling index, and a subtree that has
no name to substitute and reaches no further than the binders walked so
far comes back as it is.  So opening a non-dependent Pi type, or a scope
that never mentions its binder, rebuilds nothing.

The checkers go under a binder by extending a local context of binder
types, so a bound variable stays an index and hereditary substitution runs
only for real spine arguments.  A nominal is chosen for a binder only to
print a failure message that shows one.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union


class LFError(Exception):
    """Base class for every checker failure raised by this package.

    The message is formatted only when it is read: `str` fills the `{}`
    fields of the first argument from `parts`, which may be LF trees or
    other failures.  `context` is the `(ctx, local)` of the checker that
    raised it, whose binders the parts' dangling indices refer to."""

    def __init__(self, message: str, *parts, context=None):
        super().__init__(message)
        self.parts = parts
        self.context = context

    def __str__(self) -> str:
        message, parts = self.args[0], self.parts
        if not parts:
            return message
        if self.context is not None and self.context[1]:
            parts = _close(parts, *self.context)
        return message.format(*parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


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


@dataclass(frozen=True)
class BVar:
    """A bound variable, as its de Bruijn index: the number of binders
    that stand between it and the binder it refers to."""

    index: int


Head = Union[str, Nominal, BVar]


class _Node:
    """What every LF term, type and kind has: its reach, kept in the node's
    `__dict__` once read, so it takes no part in `==`, `hash` or `repr`."""

    @functools.cached_property
    def reach(self) -> int:
        """One more than the largest dangling index, or 0 when the node is
        locally closed."""
        return _reach(self)


@dataclass(frozen=True)
class Term(_Node):
    pass


@dataclass(frozen=True)
class Atom(Term):
    head: Head
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Lam(Term):
    var: str = field(compare=False)  # a display hint, like every binder's
    body: Term


@dataclass(frozen=True)
class TypeExpr(_Node):
    pass


@dataclass(frozen=True)
class AtomicType(TypeExpr):
    head: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class PiType(TypeExpr):
    var: str = field(compare=False)
    domain: TypeExpr
    body: TypeExpr


@dataclass(frozen=True)
class Kind(_Node):
    pass


@dataclass(frozen=True)
class TypeKind(Kind):
    pass


@dataclass(frozen=True)
class PiKind(Kind):
    var: str = field(compare=False)
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

    def arity_context(self) -> "ArityContext":
        """The erased view of the signature (term constant arities plus the
        argument arities of each type constant), shared read-only by every
        caller."""
        return self._arity_context

    @functools.cached_property
    def _arity_context(self) -> "ArityContext":
        # in declaration order, each name at its first declaration
        terms: dict = {}
        types: dict = {}
        for d in self.decls:
            if isinstance(d, TermDecl):
                terms.setdefault(d.name, erase(d.type))
            else:
                types.setdefault(d.name, kind_arg_arities(d.kind))
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
    """Every node of an LF expression in pre-order, left to right.  A
    non-LF node raises TypeError where it is reached."""
    stack = [e]
    while stack:
        e = stack.pop()
        match e:
            case Atom() | AtomicType():
                if e.args:
                    stack += reversed(e.args)
            case Lam():
                stack.append(e.body)
            case PiType() | PiKind():
                stack += (e.body, e.domain)
            case TypeKind():
                pass
            case _:
                raise TypeError(f"not an LF expression: {e!r}")
        yield e


def free_vars(e: Expr) -> set[str]:
    return {n.head for n in _nodes(e) if isinstance(n, Atom) and isinstance(n.head, str)}


def nominals_in(e: Expr) -> set[Nominal]:
    return {n.head for n in _nodes(e) if isinstance(n, Atom) and isinstance(n.head, Nominal)}


def context_nominals(ctx: LFContext) -> set[Nominal]:
    out = {binder for binder, _ in ctx.bindings if isinstance(binder, Nominal)}
    return out.union(*(nominals_in(ty) for _, ty in ctx.bindings))


def names_in(e: Expr) -> set[str]:
    """Every name in the expression: its free names and its binder hints."""
    out: set[str] = set()
    for n in _nodes(e):
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


def _primed(hint: str, scope, shown, mentioned) -> str:
    """The printed name of a binder: its hint, primed apart from `scope`
    (the names of the enclosing binders of its kind) and from every name
    its body mentions, when the hint is in `scope` or is a free name its
    body shows.  `shown()` gives the body's free names and `mentioned()`
    all of its names; each is called only when it is needed."""
    if hint not in scope and hint not in shown():
        return hint
    return fresh_name(hint, {*scope, *mentioned()})


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


def _map_heads(e: Expr, f, depth: int = 0) -> Expr:
    """`e` with the head `h` of each atom, under `d` binders of `e` (plus
    `depth`), replaced by `f(h, d)`.  A node none of whose heads changes
    (by `==`) comes back as it is: a walk that only reads heads builds none."""
    match e:
        case Atom(head, args) | AtomicType(head, args):
            new = f(head, depth) if isinstance(e, Atom) else head
            new_args = tuple([_map_heads(a, f, depth) for a in args])
            same = new == head and all(map(operator.is_, new_args, args))
            return e if same else type(e)(new, new_args)
        case Lam(var, body):
            new_body = _map_heads(body, f, depth + 1)
            return e if new_body is body else Lam(var, new_body)
        case PiType(var, domain, body) | PiKind(var, domain, body):
            new_domain, new_body = _map_heads(domain, f, depth), _map_heads(body, f, depth + 1)
            same = new_domain is domain and new_body is body
            return e if same else type(e)(var, new_domain, new_body)
        case TypeKind():
            return e
    raise TypeError(f"not an LF expression: {e!r}")


def _in_step(p: Expr, t: Expr, atom) -> bool:
    """Whether `t` has the shape of the type or term `p`, walking both in
    step (so an index names corresponding binders on both sides): Pi
    domains before bodies, atomic types by head and spine, left to right,
    stopping at the first failure.  At each term atom `a` of `p`,
    `atom(a, u)` judges `u`, the node of `t` in its place: True or False
    decides there, and None walks their spines on in step, which `atom`
    has checked are as long."""
    match p:
        case Atom(_, args):
            verdict = atom(p, t)
            if verdict is not None:
                return verdict
        case AtomicType(head, args):
            if not isinstance(t, AtomicType) or head != t.head or len(args) != len(t.args):
                return False
        case PiType(_, domain, body):
            return (
                isinstance(t, PiType)
                and _in_step(domain, t.domain, atom)
                and _in_step(body, t.body, atom)
            )
        case Lam(_, body):
            return isinstance(t, Lam) and _in_step(body, t.body, atom)
        case _:
            return False
    return all(_in_step(x, y, atom) for x, y in zip(args, t.args))


def _open_named(e: Expr, names) -> Expr:
    """`e` with each dangling index `i` below `len(names)` replaced by the
    free name `names[i]`, and the others lowered past them (for messages
    and name sets that show a bound variable by name)."""

    def head(h, d):
        if not isinstance(h, BVar) or h.index < d:
            return h
        i = h.index - d
        return names[i] if i < len(names) else BVar(h.index - len(names))

    return _map_heads(e, head)


def _dangling(e: Expr) -> set[int]:
    """The dangling indices of `e`, counted from its top: the binders
    above `e` that it refers to."""
    out: set[int] = set()

    def head(h, d):
        if isinstance(h, BVar) and h.index >= d:
            out.add(h.index - d)
        return h

    _map_heads(e, head)
    return out


def _reach(e: Expr) -> int:
    # Bottom-up over the nodes whose reach is not known yet: collected in
    # pre-order on an explicit stack, then filled in reverse, children
    # first.  No recursion, so a tree as deep as the checkers take costs
    # them no frames.
    todo = []
    stack = [e]
    while stack:
        n = stack.pop()
        match n:
            case Atom() | AtomicType():
                kids = n.args
            case Lam():
                kids = (n.body,)
            case PiType() | PiKind():
                kids = (n.domain, n.body)
            case TypeKind():
                kids = ()
            case _:
                raise TypeError(f"not an LF expression: {n!r}")
        if "reach" not in n.__dict__:
            todo.append(n)
            stack += kids
    for n in reversed(todo):
        match n:
            case Atom(head, args) | AtomicType(head, args):
                r = max([a.reach for a in args], default=0)
                if isinstance(head, BVar) and head.index >= r:
                    r = head.index + 1
            case Lam(_, body):
                r = max(body.reach - 1, 0)
            case PiType(_, domain, body) | PiKind(_, domain, body):
                r = max(domain.reach, body.reach - 1)
            case _:
                r = 0
        n.__dict__["reach"] = r
    return e.__dict__["reach"]


def _shift(term: Term, k: int) -> Term:
    """`term` moved under `k` more binders: its dangling indices grow by k."""
    if not k or not term.reach:
        return term
    return _map_heads(
        term, lambda h, d: BVar(h.index + k) if isinstance(h, BVar) and h.index >= d else h
    )


# ---------------------------------------------------------------------------
# Alpha equivalence.


def alpha_key(e: Expr):
    """A hashable key identical for alpha-equivalent expressions: the
    expression itself, since binders are indices."""
    return e


# ---------------------------------------------------------------------------
# Arity-indexed (hereditary) substitution.


def apply_subst(e: Expr, subst: Mapping[str, tuple[Term, Arity]]) -> Expr:
    """Apply a substitution, contracting any redex it creates.

    Each entry maps a name to a replacement term and the arity that bounds
    the contraction; a contraction the arity does not license raises
    ``SubstFailure``.  Replacements are locally closed (they have no
    dangling indices), so no binder can capture them.
    """
    if not subst:
        return e
    return _subst(e, subst, 0, ())


def _instantiate(body: Expr, term: Term, arity: Arity) -> Expr:
    """Open a binder: its body with index 0 replaced by `term`, a redex
    contracted at `arity`, and the body's other dangling indices lowered by
    one.  `term` may itself have dangling indices, which are shifted as it
    moves under the body's binders."""
    return _subst(body, {}, 0, ((term, arity),))


def _subst(e: Expr, subst: Mapping, k: int, inst: tuple) -> Expr:
    # `k` counts the binders of the walk so far; `inst` holds (term, arity)
    # replacements for the dangling indices 0, 1, ... of `e` at once, and
    # the indices beyond them are lowered past them.  A subtree with no name
    # to replace and no index at or beyond `k` comes back as it is.
    if not subst and e.reach <= k:
        return e
    match e:
        case Atom(head, args):
            new_args = tuple(_subst(a, subst, k, inst) for a in args)
            if isinstance(head, BVar):
                if inst and head.index >= k:
                    i = head.index - k
                    if i >= len(inst):
                        return Atom(BVar(head.index - len(inst)), new_args)
                    term, arity = inst[i]
                    return _contract(_shift(term, k), arity, new_args)
            elif head in subst:
                repl, arity = subst[head]
                return _contract(repl, arity, new_args)
            return Atom(head, new_args)
        case Lam(var, body):
            return Lam(var, _subst(body, subst, k + 1, inst))
        case AtomicType(head, args):
            return AtomicType(head, tuple(_subst(a, subst, k, inst) for a in args))
        case PiType(var, domain, body) | PiKind(var, domain, body):
            return type(e)(var, _subst(domain, subst, k, inst), _subst(body, subst, k + 1, inst))
        case TypeKind():
            return e
    raise TypeError(f"not an LF expression: {e!r}")


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
            term = _instantiate(term.body, arg, arity.left)
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
    local: tuple[Arity, ...] = (),
) -> bool:
    """Whether the term has the arity; `bound` assigns arities to free
    names beyond the signature's, `local` to the enclosing binders,
    innermost first."""
    match term:
        case Atom(head, args):
            if isinstance(head, Nominal):
                have = head.arity
            elif isinstance(head, BVar):
                have = local[head.index] if head.index < len(local) else None
            elif bound and head in bound:
                have = bound[head]
            else:
                have = actx.terms.get(head)
            if have is None:
                return False
            for arg in args:
                if not isinstance(have, Arrow):
                    return False
                if not arity_check_term(actx, arg, have.left, bound, local):
                    return False
                have = have.right
            return have is arity or have == arity
        case Lam(_, body):
            if not isinstance(arity, Arrow):
                return False
            return arity_check_term(actx, body, arity.right, bound, (arity.left,) + local)
    raise TypeError(f"not a term: {term!r}")


def arity_check_type(
    actx: ArityContext,
    ty: TypeExpr,
    bound: Optional[Mapping[str, Arity]] = None,
    local: tuple[Arity, ...] = (),
) -> bool:
    match ty:
        case AtomicType(head, args):
            want = actx.type_args.get(head)
            if want is None or len(want) != len(args):
                return False
            for arg, ar in zip(args, want):
                if not arity_check_term(actx, arg, ar, bound, local):
                    return False
            return True
        case PiType(_, domain, body):
            if not arity_check_type(actx, domain, bound, local):
                return False
            return arity_check_type(actx, body, bound, (erase(domain),) + local)
    raise TypeError(f"not a type expression: {ty!r}")


# ---------------------------------------------------------------------------
# The formation judgements.  Under a binder the checkers push an entry onto
# `local`, innermost first: the binder's domain, then its scope (a Pi
# binder's body, or a lambda's body and codomain).  `BVar(i)` has entry i's
# domain, shifted by i + 1, as its type.  Failures read as if each binder
# had been instantiated with a fresh nominal: see `_open` and
# `_binder_nominals`.


def _open(scope: Expr, domain: TypeExpr) -> None:
    """Raise `SubstFailure` if `scope` applies the bound variable (index 0)
    to more arguments than `domain` takes, as instantiating it with a
    nominal does.  This failure comes after any in the domain and before
    any other in the scope.  Such a scope also fails to check (with
    `SpineArity` at the latest), so the checkers test it only when the
    scope fails; a lambda's codomain is compared, never checked, so it is
    tested before the body."""
    arity = erase(domain)
    _instantiate(scope, Atom(Nominal(arity, 0)), arity)


def _binder_nominals(ctx: LFContext, local: tuple) -> list[Nominal]:
    """The nominal that names each binder of `local` in messages, innermost
    first.  Outermost first, a binder gets the first nominal of its arity
    that is not in the context, not chosen for an outer binder, and not
    written in an outer binder's domain or in its own domain and scope."""
    avoid = context_nominals(ctx)
    noms = []
    for domain, *scope in reversed(local):
        own = nominals_in(domain).union(*map(nominals_in, scope))
        nom = fresh_nominal(erase(domain), avoid | own)
        noms.append(nom)
        avoid |= {nom} | nominals_in(domain)
    return noms[::-1]


def _close(parts: tuple, ctx: LFContext, local: tuple) -> list:
    """Message parts with each dangling index closed by the nominal of its
    binder in `local`; indices beyond `local` are lowered past it.  Choosing
    the nominals scans every binder, so it is done only when a part needs one."""
    trees = [Atom(p) if isinstance(p, BVar) else p for p in parts]
    named = any(
        i < len(local) for t in trees if isinstance(t, (Term, TypeExpr)) for i in _dangling(t)
    )
    noms = _binder_nominals(ctx, local) if named else [None] * len(local)
    return [
        _open_named(t, noms).head if isinstance(p, BVar)
        else _open_named(t, noms) if isinstance(t, (Term, TypeExpr))
        else p
        for p, t in zip(parts, trees)
    ]


def check_signature(sig: Signature) -> None:
    # One index of the declarations checked so far, grown as they check.
    before = Signature()
    kinds, types = before._kinds, before._types
    for d in sig.decls:
        if d.name in kinds or d.name in types:
            raise DuplicateName(f"constant {d.name} declared twice")
        try:
            if isinstance(d, TypeDecl):
                _check_type(before, LFContext(), (), d.kind)
                kinds[d.name] = d.kind
            else:
                _check_type(before, LFContext(), (), d.type)
                types[d.name] = d.type
        except LFError as err:
            raise IllFormedClassifier("declaration of {}: {}", d.name, err) from err


def check_context(sig: Signature, ctx: LFContext) -> None:
    seen: set[Head] = set()
    prefix = LFContext()
    for binder, ty in ctx.bindings:
        if binder in seen:
            raise DuplicateName(f"{binder} bound twice in context")
        seen.add(binder)
        try:
            _check_type(sig, prefix, (), ty)
        except LFError as err:
            raise IllFormedType("binding {}: {}", binder, err) from err
        prefix = prefix.extend(binder, ty)


def check_type(sig: Signature, ctx: LFContext, ty: TypeExpr, check_arg=None) -> None:
    """Formation of `ty` in `ctx`.  `check_arg(sig, ctx, local, arg, domain)`
    judges each argument of an atomic type against its kind domain, as
    `_check_term` does by default; a caller that forms many types in one
    context may pass a memoised one."""
    _check_type(sig, ctx, (), ty, check_arg)


def check_term(sig: Signature, ctx: LFContext, term: Term, ty: TypeExpr) -> None:
    _check_term(sig, ctx, (), term, ty)


def _check_type(
    sig: Signature, ctx: LFContext, local: tuple, ty: TypeExpr | Kind, check_arg=None
) -> None:
    """Formation of a type or a kind: one Pi rule for both.  `check_arg` is
    the argument judgement of `check_type`, `_check_term` by default."""
    match ty:
        case PiType(_, domain, body) | PiKind(_, domain, body):
            _check_type(sig, ctx, local, domain, check_arg)
            try:
                _check_type(sig, ctx, ((domain, body),) + local, body, check_arg)
            except LFError:
                _open(body, domain)
                raise
            return
        case AtomicType(head, args):
            kind = sig.kind_of(head)
            if kind is None:
                raise UnknownConstant(f"type constant {head} not declared")
            for arg in args:
                if not isinstance(kind, PiKind):
                    raise SpineArity(f"type constant {head} applied to too many arguments")
                try:
                    (check_arg or _check_term)(sig, ctx, local, arg, kind.domain)
                except LFError as err:
                    raise ArgumentTypeMismatch(
                        "argument of {} does not check: {}", head, err
                    ) from err
                kind = _instantiate(kind.body, arg, erase(kind.domain))
            if not isinstance(kind, TypeKind):
                raise SpineArity(f"type constant {head} is under-applied")
            return
        case TypeKind():
            return
    raise TypeError(f"not a type expression or kind: {ty!r}")


def synth_term(sig: Signature, ctx: LFContext, term: Term) -> TypeExpr:
    """The type an atomic term synthesizes: its head's type instantiated
    along its spine, which may still be a function type when the head is
    under-applied.  An abstraction synthesizes no type; it raises what
    checking it against an atomic type raises.  Against an atomic type,
    `check_term` is this followed by `_compare`."""
    return _synth(sig, ctx, (), term)


def _compare(
    term: Term, have: TypeExpr, ty: TypeExpr, ctx: LFContext, local: tuple = ()
) -> None:
    """Raise unless `have`, the type `term` synthesized, is the atomic type
    `ty` it is checked against."""
    if isinstance(have, PiType):
        raise NotEtaLong("head of {!r} is under-applied", term, context=(ctx, local))
    if have != ty:
        raise TypeMismatch("synthesized {!r}, expected {!r}", have, ty, context=(ctx, local))


def _check_term(
    sig: Signature, ctx: LFContext, local: tuple, term: Term, ty: TypeExpr
) -> None:
    if not isinstance(ty, PiType):
        _compare(term, _synth(sig, ctx, local, term), ty, ctx, local)
        return
    match term:
        case Lam(_, body):
            _open(ty.body, ty.domain)
            try:
                _check_term(sig, ctx, ((ty.domain, body, ty.body),) + local, body, ty.body)
            except LFError:
                _open(body, ty.domain)
                raise
            return
        case Atom():
            raise NotEtaLong(
                "atomic term checked against a function type; expected an abstraction"
            )
    raise TypeError(f"not a term: {term!r}")


def _synth(sig: Signature, ctx: LFContext, local: tuple, term: Term) -> TypeExpr:
    if isinstance(term, Lam):
        raise TypeMismatch("abstraction checked against an atomic type")
    if not isinstance(term, Atom):
        raise TypeError(f"not a term: {term!r}")
    head = term.head
    if isinstance(head, BVar):
        ty = _shift(local[head.index][0], head.index + 1) if head.index < len(local) else None
    else:
        ty = ctx.lookup(head)
        if ty is None and isinstance(head, str):
            ty = sig.type_of(head)
    if ty is None:
        raise HeadUnbound("head {} is not bound", head, context=(ctx, local))
    for arg in term.args:
        if not isinstance(ty, PiType):
            raise SpineArity("head {} applied to too many arguments", head, context=(ctx, local))
        _check_term(sig, ctx, local, arg, ty.domain)
        ty = _instantiate(ty.body, arg, erase(ty.domain))
    return ty
