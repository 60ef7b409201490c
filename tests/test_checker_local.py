"""The checkers that go under binders through a local context agree with
the checkers that opened every binder with a fresh nominal.

`check_signature`, `check_context`, `check_kind`, `check_type` and
`check_term` below are a verbatim copy of the opening checkers this package
had before the local context; the package's kind checking is the Pi rule
of `lf._check_type`.  On every input here both give the same
outcome: success, or a failure of the same class with the same message
and `repr`.  The inputs are every fixture declaration against its prefix,
the fixture contexts, and seeded random kinds, types, terms, contexts and
signatures with over-applied bound variables, stray nominals of arity `o`
and `o -> o`, unknown constants, spines that are too long or too short,
and lambdas where an atomic type is expected.
"""

import random

import pytest

from lfport import lf as L
from lfport.lf import (
    Arrow,
    ArgumentTypeMismatch,
    Atom,
    AtomicType,
    BVar,
    DuplicateName,
    HeadUnbound,
    IllFormedClassifier,
    IllFormedType,
    Lam,
    LFContext,
    LFError,
    Nominal,
    NotEtaLong,
    O,
    PiKind,
    PiType,
    Signature,
    SpineArity,
    TermDecl,
    TYPE,
    TypeDecl,
    TypeKind,
    TypeMismatch,
    UnknownConstant,
    _instantiate,
    arity_args,
    context_nominals,
    erase,
    fresh_nominal,
    nominals_in,
)
from lfport.parse import parse_context, parse_signature

from conftest import read

# ---------------------------------------------------------------------------
# The opening checkers, as they were.


def check_signature(sig: Signature) -> None:
    seen: set[str] = set()
    prefix: list = []
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
    seen: set = set()
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


def check_kind(sig, ctx, kind) -> None:
    match kind:
        case TypeKind():
            return
        case PiKind(_, domain, body):
            check_type(sig, ctx, domain)
            nom, body2 = _open_binder(ctx, domain, body)
            check_kind(sig, ctx.extend(nom, domain), body2)
            return
    raise TypeError(f"not a kind: {kind!r}")


def check_type(sig, ctx, ty) -> None:
    match ty:
        case PiType(_, domain, body):
            check_type(sig, ctx, domain)
            nom, body2 = _open_binder(ctx, domain, body)
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
                kind = _instantiate(kind.body, arg, erase(kind.domain))
            if not isinstance(kind, TypeKind):
                raise SpineArity(f"type constant {head} is under-applied")
            return
    raise TypeError(f"not a type expression: {ty!r}")


def check_term(sig, ctx, term, ty) -> None:
    match term:
        case Lam(_, body):
            if not isinstance(ty, PiType):
                raise TypeMismatch("abstraction checked against an atomic type")
            arity = erase(ty.domain)
            avoid = context_nominals(ctx) | nominals_in(body) | nominals_in(ty)
            nom = fresh_nominal(arity, avoid)
            body2 = _instantiate(body, Atom(nom), arity)
            cod2 = _instantiate(ty.body, Atom(nom), arity)
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
            if have != ty:
                raise TypeMismatch(f"synthesized {have!r}, expected {ty!r}")
            return
    raise TypeError(f"not a term: {term!r}")


def _synth_atom(sig, ctx, term):
    ty = ctx.lookup(term.head)
    if ty is None and isinstance(term.head, str):
        ty = sig.type_of(term.head)
    if ty is None:
        raise HeadUnbound(f"head {term.head} is not bound")
    for arg in term.args:
        if not isinstance(ty, PiType):
            raise SpineArity(f"head {term.head} applied to too many arguments")
        check_term(sig, ctx, arg, ty.domain)
        ty = _instantiate(ty.body, arg, erase(ty.domain))
    return ty


def _open_binder(ctx, domain, body):
    arity = erase(domain)
    avoid = context_nominals(ctx) | nominals_in(body) | nominals_in(domain)
    nom = fresh_nominal(arity, avoid)
    return nom, _instantiate(body, Atom(nom), arity)


# ---------------------------------------------------------------------------
# Comparison.


def _outcome(check, *args):
    try:
        check(*args)
    except LFError as err:
        return type(err).__name__, str(err), repr(err)
    return None


# The package checks a kind by the Pi rule of its type checker.
_PACKAGE = {"check_kind": lambda sig, ctx, kind: L._check_type(sig, ctx, (), kind)}


def _agree(name, *args):
    want = _outcome(globals()[name], *args)
    have = _outcome(_PACKAGE.get(name) or getattr(L, name), *args)
    assert have == want, (name, args)
    return want


SIGS = {name: parse_signature(read(f"sig_{name}.lf")) for name in ("size", "stlc")}


def test_every_fixture_declaration_against_its_prefix():
    for sig in SIGS.values():
        assert _agree("check_signature", sig) is None
        for i, d in enumerate(sig.decls):
            before = Signature(sig.decls[:i])
            if isinstance(d, TypeDecl):
                assert _agree("check_kind", before, LFContext(), d.kind) is None
            else:
                assert _agree("check_type", before, LFContext(), d.type) is None
            # every later declaration, checked too early
            for later in sig.decls[i + 1 :]:
                if isinstance(later, TermDecl):
                    _agree("check_type", before, LFContext(), later.type)


def test_fixture_contexts():
    for sig in SIGS.values():
        for name in ("ctx_size.lfc", "ctx_empty.lfc"):
            _agree("check_context", sig, LFContext(parse_context(read(name)).bindings))


def test_nominals_written_in_an_unchecked_lambda_domain():
    # A lambda's domain is compared, never checked, so it may name a nominal
    # the context does not bind; opening avoided it for every inner binder.
    sig = SIGS["size"]
    size_n1 = AtomicType("size", (Atom(Nominal(O, 1)), Atom("z")))
    ty = PiType("x", size_n1, PiType("y", AtomicType("tm"), AtomicType("tm")))
    term = Lam("x", Lam("y", Atom("app", (Atom(BVar(0)),))))
    assert _agree("check_term", sig, LFContext(), term, ty)[:2] == (
        "NotEtaLong",
        "head of Atom(head='app', args=(Atom(head=n3, args=()),)) is under-applied",
    )


# ---------------------------------------------------------------------------
# Random inputs.

STRAY = [Nominal(O, i) for i in (1, 2, 3, 5)] + [Nominal(Arrow(O, O), i) for i in (1, 2)]
HINTS = ("x", "y", "u")


class _Gen:
    """Random LF trees over a signature, arity-directed, with mutations.

    `local` holds the arities of the enclosing binders, innermost first;
    `free` the arity of each context binder usable as a head."""

    def __init__(self, rng: random.Random, sig: Signature, mutate: float):
        self.rng = rng
        self.sig = sig
        self.mutate = mutate
        self.actx = sig.arity_context()
        self.consts = sorted(self.actx.terms.items())
        self.families = sorted(self.actx.type_args.items())

    def odd(self) -> bool:
        return self.rng.random() < self.mutate

    def spine(self, want, depth, local, free):
        args = [self.term(ar, depth - 1, local, free) for ar in want]
        if self.odd():
            # a spine one too long, or one too short
            if args and self.rng.random() < 0.5:
                args.pop()
            else:
                args.append(self.term(O, depth - 1, local, free))
        return tuple(args)

    def term(self, arity, depth, local, free):
        rng = self.rng
        if isinstance(arity, Arrow) and not self.odd():
            body = self.term(arity.right, depth, (arity.left,) + local, free)
            return Lam(rng.choice(HINTS), body)
        if arity == O and self.odd() and depth > 0:
            return Lam(rng.choice(HINTS), self.term(O, depth - 1, (O,) + local, free))
        heads = [(BVar(i), ar) for i, ar in enumerate(local)] * 3 + list(free) + self.consts
        if self.odd():
            heads += [(n, n.arity) for n in STRAY] + [("nope", O)]
        if depth <= 0:
            heads = [(h, ar) for h, ar in heads if ar == O]
            return Atom(rng.choice(heads)[0])
        head, ar = rng.choice(heads)
        return Atom(head, self.spine(arity_args(ar), depth, local, free))

    def atomic(self, depth, local, free):
        rng = self.rng
        if self.odd() and rng.random() < 0.2:
            return AtomicType("nope", ())
        family, want = rng.choice(self.families)
        return AtomicType(family, self.spine(want, depth, local, free))

    def type(self, depth, local, free):
        if depth > 0 and self.rng.random() < 0.45:
            domain = self.type(depth - 1, local, free)
            body = self.type(depth - 1, (erase(domain),) + local, free)
            return PiType(self.rng.choice(HINTS), domain, body)
        return self.atomic(depth, local, free)

    def kind(self, depth, local, free):
        if depth > 0 and self.rng.random() < 0.6:
            domain = self.type(depth - 1, local, free)
            body = self.kind(depth - 1, (erase(domain),) + local, free)
            return PiKind(self.rng.choice(HINTS), domain, body)
        return TYPE

    def context(self, length, depth):
        bindings, free = [], []
        used = set()
        for _ in range(length):
            ty = self.type(depth, (), free)
            ar = erase(ty)
            if self.rng.random() < 0.3:
                binder = f"v{len(bindings)}"
            else:
                # nominals need not be numbered in order, or by arity
                binder = Nominal(ar, self.rng.choice((1, 2, 3, 4, 6)))
                if binder in used and not self.odd():
                    continue
            used.add(binder)
            bindings.append((binder, ty))
            free.append((binder, ar))
        return LFContext(tuple(bindings)), free


def _random_cases(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        sig = SIGS["size" if i % 2 else "stlc"]
        gen = _Gen(rng, sig, mutate=rng.choice((0.0, 0.05, 0.15, 0.3)))
        ctx, free = gen.context(rng.randrange(4), 2)
        depth = rng.randrange(1, 5)
        ty = gen.type(depth, (), free)
        yield "check_context", sig, ctx
        yield "check_type", sig, ctx, ty
        yield "check_kind", sig, ctx, gen.kind(depth, (), free)
        yield "check_term", sig, ctx, gen.term(erase(ty), depth, (), free), ty
        if i % 8 == 0:
            # a declaration appended, or moved before what it uses
            d = TermDecl("bad", gen.type(depth, (), []))
            yield "check_signature", Signature(sig.decls + (d,))
            decls = list(sig.decls)
            j = rng.randrange(len(decls))
            decls.insert(rng.randrange(len(decls) + 1), decls.pop(j))
            yield "check_signature", Signature(tuple(decls))
            yield "check_signature", Signature(sig.decls + (decls[j],))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_judgements(seed):
    outcomes: dict = {}
    for name, *args in _random_cases(seed, 500):
        want = _agree(name, *args)
        kind = want[0] if want else "ok"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # the generator reaches every failure the messages are about
    for kind in ("ok", "TypeMismatch", "SubstFailure", "ArgumentTypeMismatch",
                 "IllFormedType", "IllFormedClassifier"):
        assert outcomes.get(kind, 0) > 0, (kind, outcomes)
