"""Surface syntax: parsing, printing, round trips."""

import pytest

import random

from lfport import (
    Conj,
    ForallCtx,
    ForallTm,
    Holds,
    Imp,
    Nominal,
    O,
    alpha_eq,
    subst_ctx,
    subst_terms,
)
from lfport.lf import BVar, PiType, TermDecl, TypeDecl
from lfport.parse import (
    ParseError,
    parse_context,
    parse_formula,
    parse_schemas,
    parse_signature,
    parse_term_text,
    parse_type_text,
)
from lfport.pretty import (
    fmt_arity,
    fmt_ctx,
    fmt_formula,
    fmt_schema,
    fmt_signature,
    fmt_term,
    fmt_type,
)
from util import a, at, ce, lam, nom, pi, quantify, random_formula


def test_signature_fixture_shape(sig_size):
    names = [d.name for d in sig_size.decls]
    assert names == [
        "nat", "z", "s", "plus", "plus-z", "plus-s",
        "tm", "app", "lam", "size", "size-app", "size-lam",
    ]
    assert isinstance(sig_size.decls[0], TypeDecl)
    assert isinstance(sig_size.decls[1], TermDecl)


def test_arrow_sugar_is_pi():
    sig = parse_signature("nat : Type. s : nat -> nat.")
    assert isinstance(sig.decls[1].type, PiType)


def test_signature_round_trip(sig_size):
    reparsed = parse_signature(fmt_signature(sig_size))
    assert len(reparsed.decls) == len(sig_size.decls)
    for d1, d2 in zip(sig_size.decls, reparsed.decls):
        assert d1.name == d2.name
        if isinstance(d1, TermDecl):
            assert alpha_eq(d1.type, d2.type)
            assert d1.type == d2.type
        else:
            assert alpha_eq(d1.kind, d2.kind)
            assert d1.kind == d2.kind


def test_schema_round_trip(schemas_stlc):
    for name, cs in schemas_stlc.items():
        text = f"schema {name} := {fmt_schema(cs)}."
        assert parse_schemas(text) == {name: cs}


def test_formula_round_trip(schemas_size, plus_closed, plus_body):
    for f in (plus_closed, plus_body):
        assert parse_formula(fmt_formula(f), schemas_size) == f


def test_substituted_formulas_round_trip(schemas_size):
    # a name substituted under a quantifier hinted like it stays free in
    # print: the quantifier is primed, for a term and a context variable
    body = Imp(Holds(ce(), a("z"), at("nat")), Holds(ce(), a("X"), at("nat")))
    f = subst_terms(quantify(ForallTm, "z", O, body), {"X": (a("z"), O)})
    assert fmt_formula(f) == "forall z' : o. {|- z' : nat} => {|- z : nat}"
    body = Conj(Holds(ce(head="G"), a("z"), at("nat")), Holds(ce(head="H"), a("z"), at("nat")))
    g = subst_ctx(quantify(ForallCtx, "G", schemas_size["Cempty"], body, "Cempty"),
                  {"H": ce(head="G")})
    assert fmt_formula(g) == "ctx G' : Cempty. {G' |- z : nat} /\\ {G |- z : nat}"
    # a quantifier hinted like an enclosing one it does not hide
    h = ForallTm("x", O, ForallTm("x", O, Holds(ce(), a(BVar(1)), at("nat"))))
    assert fmt_formula(h) == "forall x : o. forall x' : o. {|- x : nat}"
    for formula in (f, g, h):
        assert parse_formula(fmt_formula(formula), schemas_size) == formula


def test_term_round_trip():
    terms = [
        a("z"),
        a("s", a("s", a("z"))),
        a("app", a("lam", lam("x", a("x"))), a(nom(1))),
        a("plus-s", a("z"), a("z"), a("z"), a("plus-z", a("z"))),
    ]
    for t in terms:
        assert alpha_eq(parse_term_text(fmt_term(t)), t)
        assert parse_term_text(fmt_term(t)) == t


def test_type_round_trip():
    types = [
        at("nat"),
        at("size", a(nom(1)), a("s", a("z"))),
        pi("x", at("tm"), at("size", a("x"), a("s", a("z")))),
        pi("x", pi("y", at("tm"), at("tm")), at("nat")),
    ]
    for ty in types:
        reparsed = parse_type_text(fmt_type(ty), ce((nom(1), at("tm"))))
        assert alpha_eq(reparsed, ty)
        assert reparsed == ty


def test_context_round_trip():
    g = ce((nom(1), at("tm")), (nom(2), at("size", a(nom(1)), a("s", a("z")))))
    assert parse_context(fmt_ctx(g)) == g


def test_empty_context():
    assert parse_context("") == ce()
    assert parse_context("% only a comment\n") == ce()


def test_arity_round_trip():
    from lfport.parse import _Parser

    for text in ("o", "o -> o", "(o -> o) -> o", "o -> o -> o"):
        p = _Parser(text)
        assert fmt_arity(p.arity()) == text


def test_parse_error_empty_classifier():
    with pytest.raises(ParseError):
        parse_signature("c : .")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_signature("nat : Type.\nbad ! nat.")
    assert exc.value.line == 2


def test_comments_are_ignored():
    sig = parse_signature("% a comment\nnat : Type. % trailing\n")
    assert len(sig.decls) == 1


def test_nominal_names_resolve_to_bindings():
    g = parse_context("n1 : tm, n2 : size n1 (s z)")
    (n1, _), (n2, ty2) = g.bindings
    assert n1 == Nominal(O, 1)
    assert ty2.args[0] == a(n1)


def test_unbound_nominal_defaults_to_base_arity():
    t = parse_term_text("s n7")
    assert t == a("s", a(Nominal(O, 7)))


def test_duplicate_binders_renamed_apart():
    sig = parse_signature("nat : Type. p : nat -> Type. k : {x : nat} {x : nat} p x.")
    ty = sig.decls[2].type
    # the body refers to the inner binder, and prints it primed
    assert ty.body.body == at("p", a(BVar(0)))
    assert fmt_type(ty) == "nat -> {x' : nat} p x'"


def test_formula_shadowed_quantifiers_renamed(schemas_size):
    f = parse_formula("forall N : o. exists N : o. { |- N : nat }", schemas_size)
    # the body refers to the inner quantifier, which prints primed
    assert f.body.body.term == a(BVar(0))
    assert (f.var, f.body.var) == ("N", "N'")
    assert fmt_formula(f) == "forall N : o. exists N' : o. {|- N' : nat}"


def test_lambda_requires_parens_in_spine():
    t = parse_term_text("lam ([x] x)")
    assert fmt_term(t) == "lam ([x] x)"
    with pytest.raises(ParseError):
        parse_term_text("app [x] x z")


def test_unknown_schema_name_rejected():
    with pytest.raises(ParseError):
        parse_formula("ctx G : Nope. tt", {})


def test_formula_precedence(schemas_size):
    f = parse_formula("tt /\\ ff \\/ tt => ff", schemas_size)
    # parsed as ((tt /\ ff) \/ tt) => ff
    from lfport import Conj, Disj, Imp

    assert isinstance(f, Imp)
    assert isinstance(f.left, Disj)
    assert isinstance(f.left.left, Conj)
    assert parse_formula(fmt_formula(f), schemas_size) == f


def test_printer_primes_a_shadowing_binder():
    assert fmt_term(parse_term_text("[y] [y] app y y")) == "[y] [y'] app y' y'"


def test_fixtures_and_pools_round_trip_exactly(
    sig_size, sig_stlc, schemas_size, schemas_stlc
):
    from conftest import FIXTURES, read
    from lfport import Arrow, term_pool
    from lfport.pretty import fmt_block

    for sig in (sig_size, sig_stlc):
        assert parse_signature(fmt_signature(sig)) == sig
    for schemas in (schemas_size, schemas_stlc):
        for cs in schemas.values():
            for block in cs.blocks:
                text = f"schema C := {fmt_block(block)}."
                assert parse_schemas(text)["C"].blocks == (block,)
    formulas = 0
    for path in sorted(FIXTURES.glob("*.fml")):
        schemas = schemas_size if "of_exists" not in path.name else schemas_stlc
        f = parse_formula(read(path.name), schemas)
        assert parse_formula(fmt_formula(f), schemas) == f
        formulas += 1
    assert formulas == 4
    oo = Arrow(O, O)
    terms = term_pool(sig_stlc, oo, 5) + term_pool(sig_stlc, Arrow(oo, O), 5)
    assert len(terms) > 100
    for t in terms:
        assert parse_term_text(fmt_term(t)) == t


def test_printer_primes_apart_from_an_arrow_over_a_bound_name():
    # The arrow's binder is printed x', since its codomain mentions x, so
    # the shadowing x is primed past it, as it was when the parser renamed.
    cs = parse_schemas("schema S := {}(x : tm, y : {x : tm} size x (s z) -> size x z).")
    assert fmt_schema(cs["S"]) == "{}(x : tm, y : {x'' : tm} size x'' (s z) -> size x'' z)"


def test_random_formulas_round_trip_exactly(schemas_size):
    # Quantifiers shadow, rebind G and are named like constants; a reparsed
    # shadowing quantifier gets another hint, which takes no part in `==`.
    rehinted = 0
    for seed in range(3000):
        f = random_formula(random.Random(seed), schemas_size, (None, "G")[seed % 2])
        g = parse_formula(fmt_formula(f), schemas_size)
        assert g == f
        rehinted += fmt_formula(g) != fmt_formula(f)
    assert rehinted > 300
