"""Core LF: erasure, hereditary substitution, formation judgements."""

import copy
import random

import pytest

from lfport import (
    Arrow,
    Atom,
    Lam,
    LFContext,
    O,
    Signature,
    TermDecl,
    TYPE,
    TypeDecl,
    apply_subst,
    arity_check_term,
    arity_check_type,
    check_context,
    check_signature,
    check_term,
    check_type,
    erase,
)
from lfport.lf import (
    ArgumentTypeMismatch,
    AtomicType,
    BVar,
    DuplicateName,
    HeadUnbound,
    IllFormedClassifier,
    IllFormedType,
    LFError,
    NotEtaLong,
    PiType,
    SpineArity,
    SubstFailure,
    Term,
    TypeExpr,
    TypeMismatch,
    _binder_nominals,
    _close,
    _compare,
    _map_heads,
    _open_named,
    arity_args,
    synth_term,
)
from lfport.oracle import candidate_types, enumerate_lf_contexts
from lfport.schema import term_pool
from lfport.pretty import fmt_term
from util import a, at, ce, ctx, lam, nom, pi


def test_erase_atomic():
    assert erase(at("nat")) == O


def test_erase_simple_arrow():
    assert erase(pi("x", at("tm"), at("tm"))) == Arrow(O, O)


def test_erase_dependent_chain():
    # {x : tm} size x (s z) -> size (M x) N erases to o -> o -> o
    inner = pi("y", at("size", a("x"), a("s", a("z"))), at("size", a("M", a("x")), a("N")))
    ty = pi("x", at("tm"), inner)
    assert erase(ty) == Arrow(O, Arrow(O, O))


def test_subst_no_redex():
    assert apply_subst(a("s", a("x")), {"x": (a("z"), O)}) == a("s", a("z"))


def test_subst_beta_contraction():
    out = apply_subst(a("f", a("z")), {"f": (lam("y", a("y")), Arrow(O, O))})
    assert out == a("z")


def test_subst_arity_violation():
    with pytest.raises(SubstFailure):
        apply_subst(a("f", a("z")), {"f": (a("z"), O)})


def test_subst_grafts_atomic_replacement():
    out = apply_subst(a("f", a("z")), {"f": (a("g"), Arrow(O, O))})
    assert out == a("g", a("z"))


def test_subst_empty_is_identity():
    for e in (a("s", a("z")), lam("x", a("x")), at("size", a("x"), a("z"))):
        assert apply_subst(e, {}) == e


def test_subst_composition_for_disjoint_parts():
    e = a("plus", a("x"), a("y"), a("z"))
    th1 = {"x": (a("z"), O)}
    th2 = {"y": (a("s", a("z")), O)}
    chained = apply_subst(apply_subst(e, th1), th2)
    joint = apply_subst(e, {**th1, **th2})
    assert chained == joint


# Random canonical terms over heads of these arities, for the laws of
# hereditary substitution.
HEADS = {"c": O, "f": Arrow(O, O), "g": Arrow(O, Arrow(O, O)), "h": Arrow(Arrow(O, O), O)}
ARITIES = (O, Arrow(O, O), Arrow(O, Arrow(O, O)), Arrow(Arrow(O, O), O))


def random_term(rng, arity, free, local=(), depth=0):
    """A random eta-long term of `arity` over HEADS, the names in `free`
    (name -> arity) and the enclosing binders `local`, innermost first."""
    if isinstance(arity, Arrow):
        return Lam("v", random_term(rng, arity.right, free, (arity.left,) + local, depth + 1))
    heads = [*HEADS.items(), *free.items(), *((BVar(i), ar) for i, ar in enumerate(local))]
    if depth >= 4:
        heads = [(h, ar) for h, ar in heads if ar == O]
    head, ar = rng.choice(heads)
    return Atom(head, tuple(random_term(rng, x, free, local, depth + 1) for x in arity_args(ar)))


def eta(head, arity):
    """The eta-long form of `head` at `arity`; an index head counts the
    binders above the result."""
    args = arity_args(arity)
    n = len(args)
    top = BVar(head.index + n) if isinstance(head, BVar) else head
    body = Atom(top, tuple(eta(BVar(n - 1 - i), x) for i, x in enumerate(args)))
    for _ in args:
        body = Lam("v", body)
    return body


def test_subst_identity_on_random_terms():
    # putting a name's eta-long form, or the name itself, in for it changes
    # nothing, at every arity
    rng = random.Random(11)
    for _ in range(400):
        ax = rng.choice(ARITIES)
        e = random_term(rng, rng.choice(ARITIES), {"x": ax})
        assert apply_subst(e, {"x": (eta("x", ax), ax)}) == e
        assert apply_subst(e, {"x": (Atom("x"), ax)}) == e


def test_subst_composition_on_random_terms():
    # [N/y][M/x]e = [[N/y]M/x][N/y]e for a closed N, and both are the
    # simultaneous substitution when M is closed too
    rng = random.Random(13)
    actx = Signature().arity_context()
    for _ in range(400):
        ax, ay, ae = (rng.choice(ARITIES) for _ in range(3))
        e = random_term(rng, ae, {"x": ax, "y": ay})
        m = random_term(rng, ax, {"y": ay})
        n = random_term(rng, ay, {})
        th_n = {"y": (n, ay)}
        chained = apply_subst(apply_subst(e, {"x": (m, ax)}), th_n)
        assert chained == apply_subst(apply_subst(e, th_n), {"x": (apply_subst(m, th_n), ax)})
        assert arity_check_term(actx, chained, ae, dict(HEADS))
        closed = random_term(rng, ax, {})
        joint = apply_subst(e, {"x": (closed, ax), **th_n})
        assert joint == apply_subst(apply_subst(e, {"x": (closed, ax)}), th_n)
        assert joint == apply_subst(apply_subst(e, th_n), {"x": (closed, ax)})


def test_subst_avoids_capture():
    # ([y] x){x := y} must not capture the replacement: the body is the
    # free y, and printing primes the binder apart from it
    out = apply_subst(lam("y", a("x")), {"x": (a("y"), O)})
    assert out == Lam("y", a("y"))
    assert fmt_term(out) == "[y'] y"


def test_subst_binder_rename_avoids_inner_binders():
    # the printed name of the outer binder, primed away from the
    # replacement, must not be one an inner binder already uses
    e = lam("x", a("h", a("q"), lam("x'", a("c", a("x")))))
    out = apply_subst(e, {"q": (a("x"), O)})
    assert out == lam("w", a("h", a("x"), lam("v", a("c", a("w")))))
    assert fmt_term(out) == "[x''] h x ([x'] c x'')"


def test_contraction_under_binders_shifts_the_arguments():
    # F := [y] [w] app y w into [u] [v] F u v: each argument moves under
    # the replacement's remaining binder and must still name its own
    f = lam("y", lam("w", a("app", a("y"), a("w"))))
    out = apply_subst(lam("u", lam("v", a("F", a("u"), a("v")))), {"F": (f, Arrow(O, Arrow(O, O)))})
    assert out == lam("u", lam("v", a("app", a("u"), a("v"))))
    assert fmt_term(out) == "[u] [v] app u v"
    # reversed arguments, and one argument that is a bound variable of the
    # body it lands in
    out = apply_subst(lam("u", lam("v", a("F", a("v"), a("u")))), {"F": (f, Arrow(O, Arrow(O, O)))})
    assert fmt_term(out) == "[u] [v] app v u"
    g = lam("y", a("lam", lam("w", a("app", a("y"), a("w")))))
    out = apply_subst(lam("u", a("G", a("u"))), {"G": (g, Arrow(O, O))})
    assert fmt_term(out) == "[u] lam ([w] app u w)"


def test_check_signature_fixture(sig_size):
    assert len(sig_size.decls) == 12
    check_signature(sig_size)


def test_check_signature_duplicate():
    sig = Signature((TypeDecl("nat", TYPE), TypeDecl("nat", TYPE)))
    with pytest.raises(DuplicateName):
        check_signature(sig)


def test_check_signature_undeclared_classifier():
    sig = Signature((TermDecl("c", at("d")),))
    with pytest.raises(IllFormedClassifier):
        check_signature(sig)


def test_check_context_size_block(sig_size):
    g = ctx((nom(1), at("tm")), (nom(2), at("size", a(nom(1)), a("s", a("z")))))
    check_context(sig_size, g)


def test_check_context_unbound_nominal(sig_size):
    g = ctx((nom(2), at("size", a(nom(1)), a("s", a("z")))))
    with pytest.raises(IllFormedType):
        check_context(sig_size, g)


def test_check_context_empty(sig_size):
    check_context(sig_size, LFContext())


def test_check_type_plus(sig_size):
    check_type(sig_size, LFContext(), at("plus", a("z"), a("z"), a("z")))


def test_check_type_underapplied(sig_size):
    with pytest.raises(SpineArity):
        check_type(sig_size, LFContext(), at("plus", a("z"), a("z")))


def test_check_type_argument_mismatch(sig_size):
    with pytest.raises(ArgumentTypeMismatch):
        check_type(sig_size, LFContext(), at("size", a("z"), a("z")))


def test_check_term_z(sig_size):
    check_term(sig_size, LFContext(), a("z"), at("nat"))


def test_check_term_plus_z(sig_size):
    check_term(sig_size, LFContext(), a("plus-z", a("z")), at("plus", a("z"), a("z"), a("z")))


def test_check_term_mismatch(sig_size):
    with pytest.raises(TypeMismatch):
        check_term(sig_size, LFContext(), a("z"), at("tm"))


def test_check_term_eta_long_required(sig_size):
    with pytest.raises(NotEtaLong):
        check_term(sig_size, LFContext(), a("s"), pi("x", at("nat"), at("nat")))


def test_check_term_unbound_head(sig_size):
    with pytest.raises(HeadUnbound):
        check_term(sig_size, LFContext(), a("q"), at("nat"))


def test_check_term_lambda(sig_size):
    check_term(sig_size, LFContext(), a("lam", lam("x", a("x"))), at("tm"))


def test_check_term_alpha_invariance(sig_size):
    m1 = a("lam", lam("x", a("x")))
    m2 = a("lam", lam("y", a("y")))
    check_term(sig_size, LFContext(), m1, at("tm"))
    check_term(sig_size, LFContext(), m2, at("tm"))
    assert m1 == m2


def test_checked_terms_arity_check(sig_size):
    actx = sig_size.arity_context()
    cases = [
        (a("z"), at("nat")),
        (a("s", a("z")), at("nat")),
        (a("plus-z", a("z")), at("plus", a("z"), a("z"), a("z"))),
        (a("lam", lam("x", a("x"))), at("tm")),
    ]
    for term, ty in cases:
        check_term(sig_size, LFContext(), term, ty)
        assert arity_check_term(actx, term, erase(ty))


def test_arity_check_term_examples(sig_size):
    actx = sig_size.arity_context()
    assert arity_check_term(actx, a("s", a("z")), O)
    assert arity_check_term(actx, lam("x", a("x")), Arrow(O, O))
    assert not arity_check_term(actx, a("s"), O)


def test_arity_check_type_examples(sig_size):
    actx = sig_size.arity_context()
    assert arity_check_type(actx, at("size", a("x"), a("s", a("z"))), {"x": O})
    assert arity_check_type(actx, at("nat"))
    assert not arity_check_type(actx, at("size", a("z")))


def test_nominal_arity_is_intrinsic(sig_size):
    actx = sig_size.arity_context()
    assert arity_check_term(actx, a(nom(1)), O)
    assert arity_check_term(actx, a(nom(1, Arrow(O, O)), a("z")), O)


def test_dependent_spine_plus_s(sig_size):
    d = a("plus-s", a("z"), a("z"), a("z"), a("plus-z", a("z")))
    check_term(sig_size, LFContext(), d, at("plus", a("s", a("z")), a("z"), a("s", a("z"))))
    with pytest.raises(TypeMismatch):
        check_term(
            sig_size, LFContext(), d,
            at("plus", a("s", a("z")), a("z"), a("s", a("s", a("z")))),
        )


def test_size_derivation_for_identity_function(sig_size):
    # size-lam ([x] x) (s z) ([x][d] d) derives size (lam ([x] x)) (s (s z))
    d = a("size-lam", lam("x", a("x")), a("s", a("z")), lam("x", lam("d", a("d"))))
    good = at("size", a("lam", lam("x", a("x"))), a("s", a("s", a("z"))))
    check_term(sig_size, LFContext(), d, good)
    bad = at("size", a("lam", lam("x", a("x"))), a("s", a("z")))
    with pytest.raises(TypeMismatch):
        check_term(sig_size, LFContext(), d, bad)


def test_substitution_preserves_arity_typing(sig_size):
    # randomized subject reduction for arity typing: substituting an
    # arity-correct closed term keeps the result arity-correct
    import random

    from lfport.schema import term_pool

    actx = sig_size.arity_context()
    rng = random.Random(5)
    oo = Arrow(O, O)
    open_terms = [
        (a("s", a("v1")), O, {"v1": O}),
        (a("plus-s", a("v1"), a("z"), a("v2"), a("v3")), O, {"v1": O, "v2": O, "v3": O}),
        (lam("x", a("f1", a("x"))), oo, {"f1": oo}),
        (a("app", a("f1", a("v1")), a("f1", a("z"))), O, {"f1": oo, "v1": O}),
        (a("lam", lam("x", a("f1", a("app", a("x"), a("v1"))))), O, {"f1": oo, "v1": O}),
    ]
    pools = {O: term_pool(sig_size, O, 4), oo: term_pool(sig_size, oo, 4)}
    for term, arity, free in open_terms:
        assert arity_check_term(actx, term, arity, free)
        for _ in range(40):
            subst = {
                v: (rng.choice(pools[ar]), ar) for v, ar in free.items()
            }
            out = apply_subst(term, subst)
            assert arity_check_term(actx, out, arity)


# ---------------------------------------------------------------------------
# Fast paths, each against the plain computation it stands for.


def _alpha_cases():
    # Alpha-variants, shadowed binders, nominals and free names; each tree
    # also appears as a distinct but equal object.
    base = [
        lam("x", a("x")),
        lam("y", a("y")),
        lam("x", lam("x", a("x"))),
        lam("x", lam("y", a("x"))),
        lam("y", lam("x", a("y"))),
        lam("x", lam("y", a("y"))),
        lam("x", a("y")),
        lam("y", a("x")),
        a("app", a("x"), a(nom(1))),
        a("app", a("x"), a(nom(2))),
        a("lam", lam("x", a("app", a("x"), a("x")))),
        a("lam", lam("z", a("app", a("z"), a("z")))),
        at("size", a("x"), a("s", a("z"))),
        pi("x", at("tm"), at("size", a("x"), a("z"))),
        pi("y", at("tm"), at("size", a("y"), a("z"))),
        pi("x", at("tm"), pi("x", at("tm"), at("size", a("x"), a("z")))),
        pi("x", at("tm"), pi("y", at("tm"), at("size", a("x"), a("z")))),
        pi("y", at("tm"), pi("x", at("tm"), at("size", a("y"), a("z")))),
        pi("x", at("tm"), at("size", a("y"), a("z"))),
    ]
    rebuilt = [copy.deepcopy(e) for e in base]
    assert all(r == e and r is not e for r, e in zip(rebuilt, base))
    return base + rebuilt


def test_equality_agrees_with_alpha_keys():
    from lfport.lf import alpha_key

    cases = _alpha_cases()
    verdicts = set()
    for x in cases:
        for y in cases:
            verdicts.add((x == y, alpha_key(x) == alpha_key(y)))
    # alpha-variants are equal trees; inequivalent ones are not
    assert verdicts == {(True, True), (False, False)}


def test_alpha_variants_are_equal_and_hash_alike():
    variants = [
        # renamed binders
        (lam("x", a("x")), lam("y", a("y"))),
        (lam("x", lam("y", a("app", a("x"), a("y")))),
         lam("u", lam("v", a("app", a("u"), a("v"))))),
        (pi("x", at("tm"), at("size", a("x"), a("z"))),
         pi("y", at("tm"), at("size", a("y"), a("z")))),
        # shadowing binders against distinct ones
        (lam("x", lam("x", a("x"))), lam("x", lam("y", a("y")))),
        (pi("x", at("tm"), pi("x", at("tm"), at("size", a("x"), a("z")))),
         pi("u", at("tm"), pi("v", at("tm"), at("size", a("v"), a("z"))))),
    ]
    for x, y in variants:
        assert x == y and hash(x) == hash(y), (x, y)
        assert x.var != y.var or x.body.var != y.body.var  # hints differ
    # the binder referred to still matters
    assert lam("x", lam("y", a("x"))) != lam("x", lam("y", a("y")))
    # a bound variable differs from a free name of the same spelling
    assert lam("x", a("x")) != Lam("x", a("x"))


def _decls_with_duplicates():
    return (
        TypeDecl("nat", TYPE),
        TermDecl("z", at("nat")),
        TypeDecl("tm", TYPE),
        TermDecl("z", at("tm")),
        TypeDecl("nat", pi("x", at("tm"), TYPE)),
        TermDecl("s", pi("x", at("nat"), at("nat"))),
        TypeDecl("s", TYPE),
    )


def test_signature_lookups_agree_with_a_linear_scan(sig_stlc):
    def scan(decls, cls, name):
        for d in decls:
            if isinstance(d, cls) and d.name == name:
                return d.kind if cls is TypeDecl else d.type
        return None

    # an unchecked signature may declare a name twice; the first one counts
    for decls in (sig_stlc.decls, _decls_with_duplicates()):
        sig = Signature(decls)
        names = {d.name for d in decls} | {"ghost"}
        for name in sorted(names):
            assert sig.kind_of(name) == scan(decls, TypeDecl, name), name
            assert sig.type_of(name) == scan(decls, TermDecl, name), name
    dup = Signature(_decls_with_duplicates())
    assert dup.kind_of("nat") == TYPE
    assert dup.type_of("z") == at("nat")


def test_arity_context_resolves_a_name_to_its_first_declaration():
    # as kind_of and type_of do, with the names in declaration order
    from lfport.parse import parse_signature
    from lfport.schema import term_pool

    actx = Signature(_decls_with_duplicates()).arity_context()
    assert list(actx.terms.items()) == [("z", O), ("s", Arrow(O, O))]
    assert list(actx.type_args.items()) == [("nat", ()), ("tm", ()), ("s", ())]
    sig = parse_signature("nat : Type. c : nat. c : nat -> nat.")
    assert dict(sig.arity_context().terms) == {"c": O}
    assert term_pool(sig, O, 2) == (a("c"),)


def test_arity_context_is_computed_once_per_signature(sig_stlc, schemas_stlc):
    from lfport.lf import ArityContext, kind_arg_arities
    from lfport.schema import check_schema

    def fresh(sig):
        terms = {d.name: erase(d.type) for d in sig.decls if isinstance(d, TermDecl)}
        types = {
            d.name: kind_arg_arities(d.kind)
            for d in sig.decls
            if isinstance(d, TypeDecl)
        }
        return ArityContext(terms, types)

    actx = sig_stlc.arity_context()
    assert sig_stlc.arity_context() is actx
    assert actx == fresh(sig_stlc)
    assert dict(actx.terms) == fresh(sig_stlc).terms
    # equal signatures, and a prefix, each get their own
    twin = Signature(sig_stlc.decls)
    assert twin == sig_stlc and twin.arity_context() is not actx
    assert twin.arity_context() == actx
    prefix = Signature(sig_stlc.decls[:3])
    assert prefix.arity_context() == fresh(prefix) != actx
    # callers share the maps, so they are read-only
    with pytest.raises(TypeError):
        actx.terms["z"] = Arrow(O, O)
    with pytest.raises(TypeError):
        actx.type_args["nat"] = (O,)
    # checking schemas reads the maps and leaves them as they were
    for cs in schemas_stlc.values():
        check_schema(sig_stlc, cs)
    assert actx == fresh(sig_stlc)


# ---------------------------------------------------------------------------
# Closing the dangling indices of message parts, against the head map that
# `_close` ran before it called `_open_named`.


def ref_close(parts, ctx, local):
    noms = []

    def head(h, d):
        if not isinstance(h, BVar) or h.index < d:
            return h
        i = h.index - d
        if i >= len(local):
            return BVar(i - len(local))
        if not noms:
            noms.extend(_binder_nominals(ctx, local))
        return noms[i]

    return [
        head(p, 0) if isinstance(p, BVar)
        else _map_heads(p, head) if isinstance(p, (Term, TypeExpr))
        else p
        for p in parts
    ]


def random_part(rng, outer, depth=0):
    """A term or type whose dangling indices are below `outer`."""
    if rng.random() < 0.3:
        body = random_part(rng, outer, depth + 1)
        if isinstance(body, TypeExpr):
            return PiType("x", at("tm"), body)
        return Lam("x", body)
    heads = ["z", nom(1), nom(2)] + [BVar(i) for i in range(depth + outer)]
    args = tuple(Atom(rng.choice(heads), ()) for _ in range(rng.randrange(3)))
    return Atom(rng.choice(heads), args) if rng.random() < 0.5 else AtomicType("size", args)


def test_close_matches_the_head_map_on_in_range_parts():
    rng = random.Random(7)
    domains = (at("tm"), at("nat"), pi("w", at("tm"), at("tm")), at("size", a(nom(1)), a("z")))
    for _ in range(500):
        local = tuple(
            (rng.choice(domains), *(random_part(rng, 0) for _ in range(rng.randrange(3))))
            for _ in range(rng.randrange(1, 4))
        )
        g = ctx(*rng.sample([(nom(1), at("tm")), (nom(3), at("nat"))], rng.randrange(3)))
        parts = (
            random_part(rng, len(local)),
            BVar(rng.randrange(len(local))),
            "text",
            random_part(rng, len(local)),
        )
        assert _close(parts, g, local) == ref_close(parts, g, local)


def test_close_lowers_an_index_beyond_local_under_a_binder_by_the_length_of_local():
    tm = at("tm")
    local = ((tm, tm),)
    # at the top of the part, and under one binder of it
    assert _close((BVar(3), Atom(BVar(3))), LFContext(), local) == [BVar(2), Atom(BVar(2))]
    out = _close((Lam("x", Atom(BVar(3))),), LFContext(), local)
    assert out == [Lam("x", Atom(BVar(2)))] == [_open_named(Lam("x", Atom(BVar(3))), ["n1"])]
    assert _close((Lam("x", Atom(BVar(1))),), LFContext(), local) == [Lam("x", Atom(nom(1)))]


# ---------------------------------------------------------------------------
# Checking against an atomic type is synthesis followed by a comparison.


def _outcome(check, *args):
    try:
        check(*args)
        return None
    except LFError as err:
        return type(err), str(err)


def _synth_then_compare(sig, ctx, term, ty):
    _compare(term, synth_term(sig, ctx, term), ty, ctx)


def test_check_term_is_synthesis_then_comparison(sig_size, sig_stlc):
    seen = set()
    for sig in (sig_size, sig_stlc):
        extra = ((nom(1), O), (nom(2), O))  # unbound in the shorter contexts
        terms = [
            *term_pool(sig, O, 3, extra_heads=extra),
            *term_pool(sig, Arrow(O, O), 3, extra_heads=extra),
            # constants of function type, under-applied
            *(Atom(d.name) for d in sig.decls if isinstance(d, TermDecl) and isinstance(d.type, PiType)),
        ]
        for g in enumerate_lf_contexts(sig, 2, 3):
            for ty in candidate_types(sig, g, 3):
                for m in terms:
                    want = _outcome(check_term, sig, g, m, ty)
                    assert _outcome(_synth_then_compare, sig, g, m, ty) == want, (g, m, ty)
                    seen.add(want)
    assert None in seen
    assert (TypeMismatch, "abstraction checked against an atomic type") in seen
    assert (NotEtaLong, "head of Atom(head='s', args=()) is under-applied") in seen
    assert (HeadUnbound, "head n2 is not bound") in seen
    assert any(w and w[1].startswith("synthesized ") for w in seen)
