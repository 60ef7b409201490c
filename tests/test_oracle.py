"""Bounded validity and the metatheorem harnesses."""

import itertools
import random
import re
from collections import Counter

import pytest

from lfport import (
    Arrow,
    Bot,
    Bounds,
    Conj,
    CtxExpr,
    Disj,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Holds,
    Imp,
    LFContext,
    LFError,
    Nominal,
    O,
    SubordRel,
    Top,
    bounded_validity,
    check_context,
    check_signature,
    check_term,
    check_type,
    compute_subordination,
    enumerate_instances,
    minimize,
    subst_ctx,
    term_pool,
    verify_minimization,
    verify_transport,
)
from lfport import oracle
from lfport.formula import _map_atoms, _map_lf, _subformulas, open_ctx
from lfport.lf import BVar, PiType, _map_heads, _subst, fresh_nominal, nominals_in
from lfport.oracle import INVALID, UNKNOWN, VALID, OracleReport, Verdict3
from lfport.parse import parse_formula, parse_schemas, parse_signature
from lfport.pretty import fmt_formula
from lfport.subsume import _val_deriv
from conftest import FIXTURES
from golden import replay
from util import a, at, ce, nom, quantify, random_formula


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(0, 1)
    with pytest.raises(ValueError):
        Bounds(1, 1, -1)


def test_bounded_validity_refuses_a_formula_with_a_free_context_variable(
    sig_size, schemas_size
):
    # a free name, and an index that no context quantifier binds
    cs = schemas_size["Csize"]
    for head in ("G", BVar(1)):
        for f in (
            Holds(ce(head=head), a("z"), at("nat")),
            ForallCtx("G", cs, Holds(ce(head=head), a("z"), at("nat"))),
        ):
            with pytest.raises(ValueError, match="^bounded_validity needs a closed formula$"):
                bounded_validity(sig_size, f, Bounds(2, 1))


def test_atom_from_the_plus_example(sig_size):
    f = Holds(ce(), a("plus-z", a("z")), at("plus", a("z"), a("z"), a("z")))
    assert bounded_validity(sig_size, f, Bounds(2, 1)).value == VALID


def test_top_and_bottom(sig_size):
    assert bounded_validity(sig_size, Top(), Bounds(1, 1)).value == VALID
    assert bounded_validity(sig_size, Bot(), Bounds(1, 1)).value == INVALID


def test_existential_finds_z(sig_size):
    f = quantify(ExistsTm, "N", O, Holds(ce(), a("N"), at("nat")))
    verdict = bounded_validity(sig_size, f, Bounds(1, 1))
    assert verdict.value == VALID


def test_existential_valid_is_monotone_in_bounds(sig_size):
    f = quantify(ExistsTm, "N", O, Holds(ce(), a("N"), at("nat")))
    for size in (1, 2, 3, 4):
        assert bounded_validity(sig_size, f, Bounds(size, 1)).value == VALID


def test_universal_never_claims_valid(sig_size, plus_closed):
    verdict = bounded_validity(sig_size, plus_closed, Bounds(3, 2))
    assert verdict.value == UNKNOWN


def test_ill_formed_atom_is_invalid(sig_size):
    f = Holds(ce((nom(2), at("size", a(nom(1)), a("s", a("z"))))), a("z"), at("nat"))
    assert bounded_validity(sig_size, f, Bounds(2, 1)).value == INVALID


def test_validity_deterministic(sig_size, plus_closed):
    v1 = bounded_validity(sig_size, plus_closed, Bounds(3, 2))
    v2 = bounded_validity(sig_size, plus_closed, Bounds(3, 2))
    assert v1 == v2


def test_validity_alpha_stable(sig_size):
    f1 = quantify(ExistsTm, "N", O, Holds(ce(), a("N"), at("nat")))
    f2 = quantify(ExistsTm, "M", O, Holds(ce(), a("M"), at("nat")))
    b = Bounds(2, 1)
    assert bounded_validity(sig_size, f1, b).value == bounded_validity(
        sig_size, f2, b
    ).value


def test_validity_alpha_stable_under_context_instances(sig_size, schemas_size):
    # Each Csize instance binds `size x (s z)`: a quantifier named like the
    # constant `s` must not capture it.
    text = "ctx G : Csize. forall {} : o. {{G |- [y] app {} y : tm -> tm}} => tt"
    f, g = (parse_formula(text.format(v, v), schemas_size) for v in ("s", "q"))
    assert f == g
    for b in (Bounds(2, 1), Bounds(3, 2)):
        want = Verdict3(UNKNOWN, ("context range undecided within bounds",))
        assert bounded_validity(sig_size, f, b) == bounded_validity(sig_size, g, b) == want


def test_verify_minimization_small(sig_size, rel_size):
    report = verify_minimization(sig_size, rel_size, Bounds(3, 2))
    assert report.passed
    assert report.checked > 0


def test_verify_minimization_detects_corrupted_relation(sig_size, rel_size):
    broken = SubordRel(
        frozenset(p for p in rel_size.pairs if p != ("nat", "nat")),
        rel_size.constants,
    )
    report = verify_minimization(sig_size, broken, Bounds(3, 2))
    assert not report.passed
    assert report.counterexamples[0] == (
        "term checking agrees under minimization: "
        "G = ((n1, AtomicType(head='nat', args=())),), "
        "A = AtomicType(head='nat', args=()), M = Atom(head=n1, args=())"
    )


def test_verify_transport_identity(sig_size, rel_size, schemas_size, plus_body):
    report = verify_transport(
        sig_size,
        rel_size,
        schemas_size["Csize"],
        schemas_size["Csize"],
        "G",
        plus_body,
        Bounds(2, 1),
    )
    assert report.passed


def test_verify_transport_refuses_without_certificate(
    sig_size, rel_size, schemas_size, plus_body
):
    report = verify_transport(
        sig_size,
        rel_size,
        schemas_size["Csize"],
        schemas_size["Cempty"],
        "G",
        plus_body,
        Bounds(2, 1),
    )
    assert report.refused is not None
    assert not report.passed


def test_report_rendering():
    report = OracleReport("demo")
    report.record("first", True)
    report.record("second", False, "detail")
    text = report.render()
    assert "counterexample: second: detail" in text
    assert text.endswith("FAIL (2 obligations, 1 counterexamples)")


# ---------------------------------------------------------------------------
# The environment evaluator against the plain substitution evaluator.


def instantiate(body, term, arity):
    """The body of a term quantifier with `term` put in for its variable."""
    return _map_atoms(body, lambda h, d, c: _map_lf(h, lambda e: _subst(e, {}, d, ((term, arity),))))


def plain_validity(sig, f, bounds):
    """Reference semantics: each quantifier substitutes every pool term
    into its whole body, and each atom re-checks its context and type.  A
    trace names each quantifier by its hint."""
    pools = {}

    def pool(ar):
        if ar not in pools:
            pools[ar] = term_pool(sig, ar, bounds.term_size_max, bounds.pool_nominals)
        return pools[ar]

    def ev(g):
        match g:
            case Holds(ctx, term, ty):
                if ctx.head is not None:
                    raise ValueError("bounded_validity needs a closed formula")
                lctx = LFContext(ctx.bindings)
                try:
                    check_context(sig, lctx)
                    check_type(sig, lctx, ty)
                    check_term(sig, lctx, term, ty)
                    return Verdict3(VALID)
                except LFError as err:
                    return Verdict3(INVALID, (f"judgement fails: {err}",))
            case Top():
                return Verdict3(VALID)
            case Bot():
                return Verdict3(INVALID)
            case Conj(l, r):
                vl = ev(l)
                if vl.value == INVALID:
                    return Verdict3(INVALID, vl.trace)
                vr = ev(r)
                if vr.value == INVALID:
                    return Verdict3(INVALID, vr.trace)
                if vl.value == VALID and vr.value == VALID:
                    return Verdict3(VALID)
                return Verdict3(UNKNOWN, vl.trace + vr.trace)
            case Disj(l, r):
                vl = ev(l)
                if vl.value == VALID:
                    return Verdict3(VALID)
                vr = ev(r)
                if vr.value == VALID:
                    return Verdict3(VALID)
                if vl.value == INVALID and vr.value == INVALID:
                    return Verdict3(INVALID, vl.trace + vr.trace)
                return Verdict3(UNKNOWN)
            case Imp(l, r):
                vl = ev(l)
                if vl.value == INVALID:
                    return Verdict3(VALID)
                vr = ev(r)
                if vr.value == VALID:
                    return Verdict3(VALID)
                if vl.value == VALID and vr.value == INVALID:
                    return Verdict3(INVALID, vr.trace)
                return Verdict3(UNKNOWN)
            case ForallTm(v, ar, body):
                saw_unknown = False
                for t in pool(ar):
                    sub = ev(instantiate(body, t, ar))
                    if sub.value == INVALID:
                        return Verdict3(
                            INVALID, (f"counterexample {v} = {t!r}",) + sub.trace
                        )
                    if sub.value == UNKNOWN:
                        saw_unknown = True
                note = (
                    "universal range undecided within bounds"
                    if saw_unknown
                    else "universal valid at bound; domain is unbounded"
                )
                return Verdict3(UNKNOWN, (note,))
            case ExistsTm(v, ar, body):
                for t in pool(ar):
                    sub = ev(instantiate(body, t, ar))
                    if sub.value == VALID:
                        return Verdict3(VALID, (f"witness {v} = {t!r}",))
                return Verdict3(UNKNOWN, ("existential pool exhausted",))
            case ForallCtx(v, cs, body):
                saw_unknown = False
                for g_inst in enumerate_instances(
                    sig,
                    cs,
                    bounds.schema_blocks_max,
                    bounds.term_size_max,
                    bounds.pool_nominals,
                ):
                    sub = ev(open_ctx(body, g_inst))
                    if sub.value == INVALID:
                        return Verdict3(
                            INVALID,
                            (f"counterexample {v} = {g_inst!r}",) + sub.trace,
                        )
                    if sub.value == UNKNOWN:
                        saw_unknown = True
                note = (
                    "context range undecided within bounds"
                    if saw_unknown
                    else "context quantifier valid at bound; domain is unbounded"
                )
                return Verdict3(UNKNOWN, (note,))
        raise TypeError(f"not a formula: {g!r}")

    return ev(f)


def _outcome(evaluate, sig, f, bounds):
    try:
        return evaluate(sig, f, bounds)
    except (LFError, ValueError) as err:
        return type(err), str(err)


def assert_same(sig, f, bounds):
    expected = _outcome(plain_validity, sig, f, bounds)
    assert _outcome(bounded_validity, sig, f, bounds) == expected
    return expected


@pytest.mark.parametrize("size, blocks", [(2, 1), (3, 2), (4, 2), (4, 3)])
def test_matches_plain_on_fixture_formulas(
    size, blocks, sig_size, sig_stlc, schemas_size, schemas_stlc,
    plus_body, plus_closed, tm_size_body, of_exists_body,
):
    bounds = Bounds(size, blocks)
    csize = enumerate_instances(sig_size, schemas_size["Csize"], blocks, size)
    plus = [plus_closed] + [subst_ctx(plus_body, {"G": g}) for g in csize]
    of_exists = {
        name: enumerate_instances(sig_stlc, schemas_stlc[name], 2, 2)
        for name in ("Cof", "Cmix")
    }
    if size == 4:
        # At term size 4 the plain evaluator takes seconds on plus, and on
        # of_exists at the empty instance and at Cmix's size blocks.
        # Neither plus case depends on the block bound, so (4, 2) takes the
        # context-quantified formula and (4, 3) a one-block instance.
        plus = [plus_closed] if blocks == 2 else [subst_ctx(plus_body, {"G": csize[1]})]
        of_exists = {"Cof": of_exists["Cof"][1:]}
    for f in plus:
        assert_same(sig_size, f, bounds)
    for g in csize:
        assert_same(sig_size, subst_ctx(tm_size_body, {"G": g}), bounds)
    for insts in of_exists.values():
        # Up to 10^4 instances at these bounds; a fixed sample of small ones,
        # evaluated at each bound, stands for them.
        for g in insts[::8]:
            assert_same(sig_stlc, subst_ctx(of_exists_body, {"G": g}), bounds)


TRACED = [
    # counterexample and judgement fails
    "forall N : o. { |- N : nat }",
    # witness, next to a universal note
    "(exists N : o. { |- N : plus z z z }) /\\ (forall M : o. { |- M : nat } \\/ tt)",
    "exists N : o. exists M : o. { |- M : plus N N N }",
    # the type judgement memo must tell N apart: Unknown with a different
    # note if it does not
    "forall N : o. exists D : o. { |- D : plus N N N }",
    "(forall N : o. { |- N : tm }) \\/ (forall M : o. { |- M : nat })",
    # a context quantifier under a term quantifier, and the reverse
    "forall N : o. ctx G : Csize. { G |- N : nat }",
    "ctx G : Csize. forall N : o. { G |- N : nat } => { G |- N : tm }",
    "ctx G : Csize. exists N : o. { G |- N : size n1 (s z) }",
    # explicit context bindings that mention a quantified variable
    "forall N : o. { n1 : tm, n2 : size n1 N |- n2 : size n1 N }",
    "forall N : o. exists D : o. { n1 : plus N N N |- D : plus N N N }",
    "ctx G : Csize. forall N : o. { G, n9 : size n1 N |- n9 : size n1 N }",
    # higher arity: hereditary substitution at the atom
    "forall M : o -> o. { |- [y] M y : {y : tm} tm }",
    "forall M : o -> o. { |- lam ([y] M y) : tm }",
    "forall N : o. forall M : o -> o. { |- M N : nat }",
    # binders named like constants take the eager path
    "forall N : o. forall z : o. { |- N : nat } => { |- z : nat }",
    "forall N : o. exists s : o. { |- s : plus N z N }",
    "forall M : o -> o. { |- [z] M z : {z : tm} tm }",
    "forall z : o. ctx G : Csize. { G |- z : nat }",
    # type arguments judged under a Pi binder they mention, in an explicit
    # context binding that does not form, and under a binder whose type
    # depends on N, so the argument x fails for z and for s z alike, with
    # a message for each
    "forall M : o -> o. forall N : o. { |- [x] M x : {x : tm} size x N }",
    "forall N : o. { |- [x] plus-z N : {x : nat} plus (plus-z x) N N }",
    "forall N : o. { n1 : plus N z N |- n1 : plus N z N }",
    "forall N : o. { |- N : nat } => "
    "{ |- z : {x : plus N z z} plus x z z } \\/ { |- plus-z N : plus z z z }",
]


def test_matches_plain_on_traces(sig_size, schemas_size):
    lines = []
    for text in TRACED:
        f = parse_formula(text, schemas_size)
        for bounds in (Bounds(2, 1), Bounds(3, 2)):
            lines += assert_same(sig_size, f, bounds).trace
    for kind in ("counterexample N", "counterexample G", "witness", "judgement fails"):
        assert any(line.startswith(kind) for line in lines), kind
    assert "counterexample z = Atom(head='plus-z', args=(Atom(head='z', args=()),))" in lines


def test_matches_plain_naming_quantifiers_as_written():
    # Putting pool terms that mention the constant z in for M and N renames
    # no quantifier: z' and z are named as the formula writes them.
    sig = parse_signature("nat : Type. z : nat. s : nat -> nat. tm : Type. lam : (tm -> tm) -> tm.")
    f = parse_formula(
        "forall M : o -> o. forall N : o. forall z' : o. forall z : o. "
        "{ |- M (s z') : tm } => { |- N : nat } => { |- z : nat }",
        {},
    )
    trace = assert_same(sig, f, Bounds(4, 1)).trace
    assert trace[2:4] == (
        "counterexample z' = Atom(head='z', args=())",
        "counterexample z = Atom(head='lam', args=(Lam(var='x1', body=Atom(head='z', args=())),))",
    )


def hints(f):
    """The hints of the quantifiers of `f`, in pre-order."""
    return [g.var for g in _subformulas(f) if isinstance(g, (ForallTm, ExistsTm, ForallCtx))]


def test_a_parsed_formula_hints_each_quantifier_as_printed():
    # A trace names each quantifier by its hint: for the fixture and golden
    # formulas, and the printed random formulas, that is the name
    # fmt_formula prints, and printing and parsing again keeps it.
    schemas = {}
    for path in sorted(FIXTURES.glob("*.sch")):
        schemas.update(parse_schemas(path.read_text(encoding="utf-8")))
    texts = [
        path.read_text(encoding="utf-8")
        for path in sorted([*FIXTURES.glob("*.fml"), *replay.GOLDEN.parent.glob("*.fml")])
        if not path.name.startswith("bad_")  # a parse error
    ]
    texts += [row[0] for row in replay.load_formula_outcomes()]
    for text in texts:
        f = parse_formula(text, schemas)
        printed = fmt_formula(f)
        assert re.findall(r"\b(?:forall|exists|ctx) (\S+) :", printed) == hints(f), text
        assert hints(parse_formula(printed, schemas)) == hints(f), text
    assert len(texts) == 22 + replay.FORMULAS


def counting(monkeypatch):
    """A counter of the judgement checks `bounded_validity` makes, by
    checker name, from now on.  A term's synthesis, which the oracle
    memoises and then compares with each atomic type, counts as a term
    judgement."""
    calls = Counter()
    for name in ("check_context", "check_type", "check_term", "synth_term"):
        kind = "check_term" if name == "synth_term" else name
        check = getattr(oracle, name)
        monkeypatch.setattr(
            oracle, name, lambda *args, _k=kind, _c=check: calls.update([_k]) or _c(*args)
        )
    return calls


def test_judgements_checked_do_not_depend_on_hints(sig_size, monkeypatch):
    # Hints take no part in evaluation: quantifiers named like a constant of
    # the pool terms are evaluated with the memos of their alpha-variant, so
    # context and type judgements are checked as often.
    text = (
        "forall M : o -> o. forall N : o. forall {} : o. forall {} : o. "
        "{{ |- M (s {}) : tm }} => {{ |- N : nat }} => {{ |- {} : nat }}"
    )
    calls = counting(monkeypatch)
    counts = []
    for hints in (("z'", "z"), ("b", "c")):
        calls.clear()
        bounded_validity(sig_size, parse_formula(text.format(*hints, *hints), {}), Bounds(3, 1))
        counts.append(dict(calls))
    assert counts[0] == counts[1]


# Formulas on which a term quantifier stops early, because a body's verdict
# did not read its variable, with the trace each gives at Bounds(3, 2).
LAM_X1 = "Atom(head='lam', args=(Lam(var='x1', body=Atom(head=BVar(index=0), args=())),))"
PLUS_Z = "Atom(head='plus-z', args=(Atom(head='z', args=()),))"
NOT_NAT = (
    "judgement fails: synthesized AtomicType(head='plus', args=(Atom(head='z', args=()), "
    "Atom(head='z', args=()), Atom(head='z', args=()))), expected AtomicType(head='nat', args=())"
)
TM_NOT_NAT = (
    "judgement fails: synthesized AtomicType(head='tm', args=()), expected AtomicType(head='nat', args=())"
)
SKIPPED = {
    # the first body is Unknown without reading N: the universal must still
    # note that its range was undecided
    "forall N : o. forall M : o. { |- M : nat } => tt": (
        "universal range undecided within bounds",
    ),
    # existentials whose bodies read only the outer index
    "forall N : o. exists M : o. { |- N : nat }": (
        "universal range undecided within bounds",
    ),
    "exists N : o. exists M : o. { |- N : tm }": (f"witness N = {LAM_X1}",),
    # unreferenced binders of arity o -> o
    "forall F : o -> o. exists N : o. { |- N : nat }": (
        "universal valid at bound; domain is unbounded",
    ),
    "exists F : o -> o. { |- z : tm }": ("existential pool exhausted",),
    # the left side fails whatever M is until N is a tm; then M is read
    "forall N : o. forall M : o. { |- N : tm } => { |- M : nat }": (
        f"counterexample N = {LAM_X1}", f"counterexample M = {PLUS_Z}", NOT_NAT,
    ),
    # a failing context or type reads the variables it mentions: the left
    # side fails until N is a tm, so N must not stop at z
    "forall N : o. { n1 : size N z |- z : nat } => { |- N : nat }": (
        f"counterexample N = {LAM_X1}", TM_NOT_NAT,
    ),
    "forall N : o. { |- [y] y : {y : size N z} size N z } => { |- N : nat }": (
        f"counterexample N = {LAM_X1}", TM_NOT_NAT,
    ),
    # term quantifiers around and under a context quantifier whose bodies
    # read no term variable
    "forall N : o. ctx G : Csize. { G |- z : nat }": (
        "universal range undecided within bounds",
    ),
    "ctx G : Csize. forall N : o. { G |- z : nat }": (
        "context range undecided within bounds",
    ),
    "ctx G : Csize. forall N : o. { G |- z : nat } /\\ { G |- N : nat }": (
        "counterexample G = CtxExpr(head=None, bindings=())", f"counterexample N = {PLUS_Z}", NOT_NAT,
    ),
}


def test_matches_plain_where_a_quantifier_stops_early(sig_size, schemas_size):
    for text, trace in SKIPPED.items():
        f = parse_formula(text, schemas_size)
        assert_same(sig_size, f, Bounds(2, 1))
        assert assert_same(sig_size, f, Bounds(3, 2)).trace == trace, text


def test_quantifiers_stop_where_the_body_does_not_read_them(
    sig_size, plus_closed, monkeypatch
):
    # On plus, `exists D. {|- D : plus N1 N2 N3}` fails at its type judgement
    # for every D when `plus N1 N2 N3` is ill-formed; the evaluator that
    # tries every D makes 359 term judgements at Bounds(3, 1).
    calls = counting(monkeypatch)
    verdict = bounded_validity(sig_size, plus_closed, Bounds(3, 1))
    assert calls["check_term"] < 359
    assert verdict == plain_validity(sig_size, plus_closed, Bounds(3, 1))


def test_a_term_is_synthesized_once_per_pool_term_it_mentions(sig_size, monkeypatch):
    # `{ |- D : plus z z N }` mentions N in its type only, so each D is
    # synthesized once and compared with the type of every N it meets.  At
    # Bounds(3, 1), `plus z z N` is witnessed at N = z by the third D, and
    # `plus z (s z) N` at N = s z by the sixth, after all 10 D failed for
    # N = z: 16 (N, D) pairs, a term judgement each in the plain evaluator.
    plain = Counter()
    real = check_term
    monkeypatch.setitem(
        globals(), "check_term", lambda *args: plain.update(["check_term"]) or real(*args)
    )
    calls = counting(monkeypatch)
    pool = term_pool(sig_size, O, 3)
    for spine, pairs, synthesized in (("z z", 3, 3), ("z (s z)", 16, len(pool))):
        f = parse_formula(f"exists N : o. exists D : o. {{ |- D : plus {spine} N }}", {})
        plain.clear()
        calls.clear()
        assert assert_same(sig_size, f, Bounds(3, 1)).value == VALID
        assert (plain["check_term"], calls["check_term"]) == (pairs, synthesized), spine


def test_an_atom_is_synthesized_once_per_choice_of_the_pool_terms_it_mentions(
    sig_size, monkeypatch
):
    # { |- M (s z') : tm } mentions M and z', not N or z.  Each atom builds
    # its (empty) context once, so the context a synthesis runs under tells
    # the atoms apart; they are first synthesized in formula order.
    text = (
        "forall M : o -> o. forall N : o. forall z' : o. forall z : o. "
        "{{ |- M (s z') : tm }} => {{ |- N : {} }} => {{ |- z : nat }}"
    )
    by_atom = Counter()
    synth = oracle.synth_term
    monkeypatch.setattr(
        oracle, "synth_term", lambda *args: by_atom.update([id(args[1])]) or synth(*args)
    )
    pairs = len(term_pool(sig_size, Arrow(O, O), 4)) * len(term_pool(sig_size, O, 4))
    assert pairs == 21 * 32
    for ty in ("nat", "tm"):
        # M (s z') is never a tm at size 3, so the other atoms are never
        # reached, and each of the 6 * 10 pairs is reached once
        by_atom.clear()
        assert_same(sig_size, parse_formula(text.format(ty), {}), Bounds(3, 1))
        assert list(by_atom.values()) == [60], ty
    # At size 4 (too many evaluations for the plain evaluator here), the
    # counterexample M, [x1] lam ([x2] x2), is the last of the 21.  Each M
    # before it fails with all 32 z', and it holds with z' = z, under which
    # N = z is a nat and z fails at its third pool term.  With `N : tm`,
    # every N that is not a tm makes the implication hold under that M, so
    # every z' is tried again for each such N, and synthesized once.
    for ty, counts in (("nat", [20 * 32 + 1, 1, 3]), ("tm", [pairs, 10, 3])):
        by_atom.clear()
        verdict = bounded_validity(sig_size, parse_formula(text.format(ty), {}), Bounds(4, 1))
        assert verdict.value == INVALID
        assert list(by_atom.values()) == counts, ty


def test_matches_plain_with_shadowed_binders(sig_size):
    inner = quantify(ForallTm, "N", O, Holds(ce(), a("N"), at("nat")))
    f = quantify(ExistsTm, "N", O, Conj(Holds(ce(), a("N"), at("tm")), inner))
    g = quantify(ForallTm, "N", O, Imp(Holds(ce(), a("N"), at("nat")), inner))
    for formula in (f, g):
        assert_same(sig_size, formula, Bounds(3, 1))


def test_matches_plain_with_shared_atoms(sig_size):
    # Formulas are immutable, so one atom may sit under binders that come
    # in another order, or with another arity, elsewhere in the formula.
    h = Holds(ce(), a("plus-z", a(BVar(0))), at("plus", a(BVar(1)), a(BVar(0)), a(BVar(0))))
    nm = ForallTm("N", O, ForallTm("M", O, Imp(h, Top())))
    mn = ForallTm("M", O, ForallTm("N", O, h))
    mn_exists = ExistsTm("M", O, ExistsTm("N", O, Imp(h, Bot())))
    # Not arity-correct at o -> o, but both evaluators substitute the same.
    k = Holds(ce(), a("z"), at("size", a(BVar(0)), a("z")))
    k1 = ForallTm("N", O, Imp(k, Top()))
    k2 = ForallTm("N", Arrow(O, O), k)
    # One quantifier, under M in one place only: it is named z in both.
    q = ForallTm("z", O, Holds(ce(), a(BVar(0)), at("tm")))
    shared = (Conj(nm, mn), Conj(mn, nm), Conj(nm, mn_exists), Conj(k1, k2),
              Disj(ForallTm("M", O, q), q))
    for formula in shared:
        assert_same(sig_size, formula, Bounds(3, 1))
    trace = bounded_validity(sig_size, shared[-1], Bounds(3, 1)).trace
    assert [line.split(" =")[0] for line in trace if line.startswith("counterexample")] == [
        "counterexample M", "counterexample z", "counterexample z"
    ]


@pytest.mark.parametrize("size, seeds", [(2, 1000), (3, 200)])
def test_matches_plain_on_random_formulas(size, seeds, sig_size, schemas_size):
    for seed in range(seeds):
        f = random_formula(random.Random(seed), schemas_size)
        assert_same(sig_size, f, Bounds(size, 1))


@pytest.mark.parametrize("schema", ["Cof", "Cmix"])
@pytest.mark.parametrize("blocks, seeds", [(1, 200), (2, 20)])
def test_matches_plain_on_random_formulas_over_parameterised_schemas(
    schema, blocks, seeds, sig_stlc, schemas_stlc
):
    # A block parameter `T : o` ranges over the whole pool, so most
    # instances are ill-formed, and every atom under them fails at its
    # context; every instance is evaluated at term size 2.
    for seed in range(seeds):
        f = random_formula(random.Random(seed), schemas_stlc, schema=schema)
        assert_same(sig_stlc, f, Bounds(2, blocks))


# ---------------------------------------------------------------------------
# Context quantifiers bind their instance in the environment.

SIZE_N1 = at("size", a(nom(1)), a("s", a("z")))


def test_matches_plain_on_an_outer_context_variable_under_an_inner_one(sig_size, schemas_size):
    # {H |- n1 : tm} => {G, n9 : size n1 (s z) |- n9 : size n1 (s z)}: the
    # right atom's context is G's instance, not the inner H's.
    cs = schemas_size["Csize"]
    inner = Holds(ce(head=BVar(0)), a(nom(1)), at("tm"))
    outer = Holds(ce((nom(9), SIZE_N1), head=BVar(1)), a(nom(9)), SIZE_N1)
    f = ForallCtx("G", cs, ForallTm("N", O, ForallCtx("H", cs, Imp(inner, outer))))
    assert_same(sig_size, f, Bounds(2, 1))
    trace = assert_same(sig_size, f, Bounds(2, 2)).trace
    assert trace[0] == "counterexample G = CtxExpr(head=None, bindings=())"
    assert trace[2].startswith("counterexample H = CtxExpr(head=None, bindings=((n1,")


def test_matches_plain_with_an_atom_shared_under_context_quantifiers(sig_stlc, schemas_stlc):
    # One atom object under a Cof and a Cmix quantifier: its context is
    # whichever instance its own quantifier is at.
    h = Holds(ce(head=BVar(0)), a(nom(1)), at("tm"))
    f = Disj(
        ForallCtx("G", schemas_stlc["Cof"], Imp(h, Bot())),
        ForallCtx("H", schemas_stlc["Cmix"], h),
    )
    assert_same(sig_stlc, f, Bounds(2, 1))
    trace = assert_same(sig_stlc, f, Bounds(2, 2)).trace
    assert [line.split(" =")[0] for line in trace[:2]] == ["counterexample G", "counterexample H"]
    assert "AtomicType(head='of', args=(Atom(head=n1, args=()), Atom(head='b', args=()))" in trace[0]


def test_a_nominal_clash_raises_at_its_instance(sig_size, schemas_size, monkeypatch):
    # {G |- z : nat} \/ {G, n1 : tm |- n1 : tm}: the empty instance is
    # evaluated, and the next one, which binds n1 as well, raises before its
    # body runs, although the evaluation would never reach the right atom.
    left = Holds(ce(head=BVar(0)), a("z"), at("nat"))
    right = Holds(ce((nom(1), at("tm")), head=BVar(0)), a(nom(1)), at("tm"))
    f = ForallCtx("G", schemas_size["Csize"], Disj(left, right))
    clash = (ValueError, "context expression binds a nominal twice")
    assert assert_same(sig_size, f, Bounds(2, 1)) == clash
    calls = counting(monkeypatch)
    with pytest.raises(ValueError):
        bounded_validity(sig_size, f, Bounds(2, 1))
    assert calls == {"check_context": 1, "check_type": 1, "check_term": 1}
    # below a term quantifier and an inner context quantifier
    g = ForallCtx("G", schemas_size["Csize"], ForallTm("N", O, ForallCtx("H", schemas_size["Cempty"], Disj(
        Holds(ce(head=BVar(1)), a("z"), at("nat")),
        Holds(ce((nom(1), at("tm")), head=BVar(1)), a(nom(1)), at("tm")),
    ))))
    assert assert_same(sig_size, g, Bounds(2, 1)) == clash


def test_matches_plain_over_a_schema_with_duplicate_blocks(sig_size):
    # The repeated block yields each instance once.
    schemas = parse_schemas(
        "schema Cdup := {}(x : tm, y : size x (s z)) | {}(x : tm, y : size x (s z))."
    )
    for text in (
        "ctx G : Cdup. { G |- n1 : tm } => { G |- n2 : size n1 z }",
        "ctx G : Cdup. forall N : o. { G |- N : nat } => { G, n9 : size n1 N |- n9 : size n1 N }",
        "forall N : o. ctx G : Cdup. { G |- n3 : tm } \\/ { G |- N : nat }",
    ):
        f = parse_formula(text, schemas)
        for bounds in (Bounds(2, 1), Bounds(2, 2), Bounds(3, 2)):
            assert_same(sig_size, f, bounds)


def test_atoms_without_the_context_variable_are_checked_once(sig_size, schemas_size, monkeypatch):
    # Csize has 4 instances at 3 blocks: { |- z : nat } is checked once, not
    # once per instance, and { G |- z : nat } once per instance.
    f = parse_formula("ctx G : Csize. { |- z : nat } /\\ { G |- z : nat }", schemas_size)
    calls = counting(monkeypatch)
    verdict = bounded_validity(sig_size, f, Bounds(2, 3))
    assert calls["check_type"] == 5
    assert verdict == plain_validity(sig_size, f, Bounds(2, 3))


# ---------------------------------------------------------------------------
# One range per domain and call: a quantifier's pool terms or instances.

FORALL_CTX_OF = (
    "forall M : o. ctx G : Cof. { G |- M : tm } => "
    "exists T : o. { G |- M : tm } /\\ { |- T : tp }"
)


def test_instances_are_enumerated_once_per_call(sig_stlc, schemas_stlc, monkeypatch):
    # The context quantifier is evaluated once per pool term of M, 25 of
    # them at term size 3, but its schema's instances are enumerated once.
    f = parse_formula(FORALL_CTX_OF, schemas_stlc)
    calls = []
    real = oracle.enumerate_instances
    monkeypatch.setattr(
        oracle, "enumerate_instances", lambda *args: calls.append(args) or real(*args)
    )
    assert len(term_pool(sig_stlc, O, 3)) == 25
    verdict = bounded_validity(sig_stlc, f, Bounds(3, 2))
    assert verdict == Verdict3(UNKNOWN, ("universal range undecided within bounds",))
    assert len(calls) == 1
    bounded_validity(sig_stlc, f, Bounds(3, 2))
    assert len(calls) == 2  # the ranges live for one call


def test_matches_plain_on_a_context_quantifier_under_a_term_quantifier(sig_stlc, schemas_stlc):
    # Two are refuted, at the empty instance and at one that types n2.
    outcomes = []
    for text in (
        FORALL_CTX_OF,
        "forall M : o. ctx G : Cmix. { G |- M : tm } => exists T : o. { G |- n2 : of M T }",
        "forall T : o. ctx G : Cof. { G |- n1 : tm } => { G |- n2 : of n1 T }",
        "forall T : o. ctx G : Cof. { G, n5 : of n1 T |- n5 : of n1 T } \\/ { |- T : tm }",
    ):
        f = parse_formula(text, schemas_stlc)
        outcomes.append(assert_same(sig_stlc, f, Bounds(2, 2)).value)
    assert outcomes == [UNKNOWN, UNKNOWN, INVALID, INVALID]


# ---------------------------------------------------------------------------
# The validity premise of the transport rule against the semantics.


def _renamed_past(g, k: int):
    """The context expression `g` with each nominal's index raised by `k`."""
    def head(h, d):
        return Nominal(h.arity, h.index + k) if isinstance(h, Nominal) else h

    return CtxExpr(g.head, tuple((head(n, 0), _map_heads(t, head)) for n, t in g.bindings))


@pytest.mark.parametrize("schema", ["Cof", "Cmix"])
def test_validity_premise_holds_under_ill_formed_instances(schema, sig_stlc, schemas_stlc):
    # Where `_val_deriv` derives that a formula is valid (or invalid) under
    # any ill-formed instance of G, no ill-formed instance refutes (or
    # proves) it at the bounds.  Each instance's nominals are renamed past
    # the n1 and n2 that random atoms bind, so that putting it in for G
    # clashes only with the instances of context quantifiers inside.
    bounds = Bounds(2, 1)
    ill_formed = []
    for g in enumerate_instances(sig_stlc, schemas_stlc[schema], 1, 2):
        if oracle._fails(check_context, sig_stlc, LFContext(g.bindings)) is not None:
            g = _renamed_past(g, 2)
            assert oracle._fails(check_context, sig_stlc, LFContext(g.bindings)) is not None
            ill_formed.append(g)
    opposite = {True: INVALID, False: VALID}
    checked, clashes = Counter(), 0
    for seed in range(150):
        f = random_formula(random.Random(seed), schemas_stlc, ctx_var="G", schema=schema)
        polarities = [pol for pol in (True, False) if _val_deriv("G", f, pol) is not None]
        if not polarities:
            continue
        for g in ill_formed:
            try:
                verdict = bounded_validity(sig_stlc, subst_ctx(f, {"G": g}), bounds)
            except ValueError:  # an inner context quantifier's instance binds g's nominal
                clashes += 1
                continue
            for pol in polarities:
                assert verdict.value != opposite[pol], (seed, g, pol)
                checked[pol] += 1
    # pinned, so that the coverage cannot drop unseen
    assert (checked[True], checked[False], clashes) == (230, 330, 30)


# ---------------------------------------------------------------------------
# The bounded LF contexts against the hand-written loop they replaced.


def ref_enumerate_lf_contexts(sig, max_bindings, size_max):
    out = [LFContext()]
    frontier = [LFContext()]
    for _ in range(max_bindings):
        nxt = []
        for ctx in frontier:
            nom_ = fresh_nominal(O, (b for b, _ in ctx.bindings))
            step = 0
            for ty in oracle.candidate_types(sig, ctx, size_max):
                if step >= oracle.PER_STEP:
                    break
                if oracle._fails(oracle.check_type, sig, ctx, ty) is not None:
                    continue
                nxt.append(ctx.extend(nom_, ty))
                step += 1
                if len(out) + len(nxt) >= oracle.TOTAL_CAP:
                    break
            if len(out) + len(nxt) >= oracle.TOTAL_CAP:
                break
        out.extend(nxt)
        frontier = nxt
        if len(out) >= oracle.TOTAL_CAP:
            break
    return out[:oracle.TOTAL_CAP]


def test_lf_contexts_match_the_hand_written_loop(sig_size, sig_stlc, monkeypatch):
    calls = counting(monkeypatch)
    capped = set()
    for sig in (sig_size, sig_stlc):
        for blocks in range(1, 5):
            for size in range(2, 5):
                calls.clear()
                want = ref_enumerate_lf_contexts(sig, blocks, size)
                checks = calls["check_type"]
                calls.clear()
                assert list(oracle.enumerate_lf_contexts(sig, blocks, size)) == want
                assert calls["check_type"] == checks, (blocks, size)
                capped.add(len(want) == oracle.TOTAL_CAP)
    assert capped == {True, False}


# ---------------------------------------------------------------------------
# The minimization harness against a loop that runs `check_term` for every
# term obligation.


def ref_verify_minimization(sig, rel, bounds):
    ok = lambda check, *args: oracle._fails(check, *args) is None
    report = OracleReport("context minimization")
    size = bounds.term_size_max
    for g in oracle.enumerate_lf_contexts(sig, bounds.schema_blocks_max, size):
        extra = tuple((b, oracle.erase(t)) for b, t in g.bindings if isinstance(b, Nominal))
        terms = term_pool(sig, O, size, extra_heads=extra)[:24]
        for ty in oracle.candidate_types(sig, g, size, cap=80):
            reduced = minimize(rel, g, ty)
            where = f"G = {g.bindings!r}, A = {ty!r}"
            report.record("minimized context well-formed", ok(check_context, sig, reduced), where)
            ok_full = ok(check_type, sig, g, ty)
            report.record(
                "type formation agrees under minimization",
                ok_full == ok(check_type, sig, reduced, ty),
                where,
            )
            if not ok_full:
                continue
            for m in terms:
                report.record(
                    "term checking agrees under minimization",
                    ok(check_term, sig, g, m, ty) == ok(check_term, sig, reduced, m, ty),
                    f"{where}, M = {m!r}",
                )
    return report


def _without(rel, pair):
    return SubordRel(frozenset(p for p in rel.pairs if p != pair), rel.constants)


def _assert_minimization_matches_the_hand_written_loop(
    sig, rel, broken, bounds=(Bounds(3, 2), Bounds(3, 3))
):
    for r, passed in ((rel, True), *((b, False) for b in broken)):
        for b in bounds:
            want = ref_verify_minimization(sig, r, b)
            assert want.passed == passed
            assert verify_minimization(sig, r, b).render() == want.render()
            # the harness's per-level verdicts serve two or more distinct
            # contexts for both kinds of judgement
            assert min(_shared_verdicts(sig, r, b)) > 0, (r, b)


def _looked_up(g, heads, e):
    """What `g` looks up for each nominal of `heads` that `e` mentions."""
    mentioned = nominals_in(e)
    return tuple(g.lookup(n) for n, _ in heads if n in mentioned)


def _shared_verdicts(sig, rel, bounds):
    """How many type formations, and how many term checks, the harness
    decides once for two or more distinct contexts of one level (enumerated
    contexts or their minimizations): contexts that judge the same type, or
    the same term against the same type, and look up alike the nominals
    that the type, or the term, mentions."""
    ok = lambda check, *args: oracle._fails(check, *args) is None
    reached = {}
    size = bounds.term_size_max
    for g in oracle.enumerate_lf_contexts(sig, bounds.schema_blocks_max, size):
        heads = oracle._nominal_heads(g)
        terms = term_pool(sig, O, size, extra_heads=heads)[:24]
        for ty in oracle.candidate_types(sig, g, size, cap=80):
            reduced = minimize(rel, g, ty)
            judged = {g, reduced}
            for c in judged:
                reached.setdefault((heads, ty, _looked_up(c, heads, ty)), set()).add(c)
            if len(judged) == 2 and ok(check_type, sig, g, ty):
                for m in terms:
                    for c in judged:
                        key = heads, m, ty, _looked_up(c, heads, m)
                        reached.setdefault(key, set()).add(c)
    shared = [len(key) == 4 for key, cs in reached.items() if len(cs) > 1]
    return shared.count(False), shared.count(True)


def _shared_sub_contexts(sig, rel, bounds):
    """The reduced sub-contexts, other than the context itself, that two or
    more enumerated contexts of one level (equal nominal heads) reach."""
    reached = {}
    size = bounds.term_size_max
    for g in oracle.enumerate_lf_contexts(sig, bounds.schema_blocks_max, size):
        for ty in oracle.candidate_types(sig, g, size, cap=80):
            reduced = minimize(rel, g, ty)
            if reduced != g:
                reached.setdefault((oracle._nominal_heads(g), reduced), set()).add(g)
    return {reduced for (_, reduced), gs in reached.items() if len(gs) > 1}


def test_verify_minimization_matches_the_hand_written_loop(sig_size, rel_size, sig_stlc, rel_stlc):
    nat = ("nat", "nat")
    broken = _without(rel_size, nat)
    deep = Bounds(3, 4)
    # at (2, 5) the last level binds five nominals, whose verdicts have the
    # longest keys
    _assert_minimization_matches_the_hand_written_loop(
        sig_size, rel_size, [broken], (Bounds(3, 2), Bounds(3, 3), deep, Bounds(2, 5))
    )
    # at (3, 4) contexts of one level share sub-contexts, so the harness's
    # per-level memo is exercised with both relations
    assert len(_shared_sub_contexts(sig_size, rel_size, deep)) == 22
    assert len(_shared_sub_contexts(sig_size, broken, deep)) == 12
    _assert_minimization_matches_the_hand_written_loop(
        sig_stlc, rel_stlc, [_without(rel_stlc, nat), _without(rel_stlc, ("tm", "of"))]
    )


# `bind` has a function-type domain, so type formation judges abstractions;
# `all` has a dependent one, so its second argument is judged against a
# domain its first argument instantiates.
SIG_DOMAINS = """
nat : Type.
z : nat.
s : nat -> nat.
tm : Type.
app : tm -> tm -> tm.
lam : (tm -> tm) -> tm.
vec : nat -> Type.
nil : vec z.
bind : (tm -> tm) -> Type.
all : {N : nat} vec N -> Type.
"""


def test_verify_minimization_matches_the_hand_written_loop_on_kind_domains():
    sig = parse_signature(SIG_DOMAINS)
    check_signature(sig)
    rel = compute_subordination(sig)
    # each broken relation drops a binding that one family's argument needs
    broken = [_without(rel, ("tm", "bind")), _without(rel, ("vec", "all"))]
    _assert_minimization_matches_the_hand_written_loop(sig, rel, broken)


@pytest.mark.parametrize("name", ["sig_size", "sig_stlc", "domains"])
def test_a_judgement_reads_only_the_bindings_of_the_nominals_it_mentions(name, request):
    # The lemma the harness's per-level verdict memo rests on, checked with
    # the plain checkers: over the enumerated contexts of one level and their
    # minimizations, a candidate type's formation, and a pool term's check
    # against a candidate type, agree wherever the contexts look up alike
    # the nominals the type, or the term, mentions.  Leaving out any one of
    # those lookups would merge verdicts that differ.
    sig = parse_signature(SIG_DOMAINS) if name == "domains" else request.getfixturevalue(name)
    rel = compute_subordination(sig)
    ok = lambda check, *args: oracle._fails(check, *args) is None
    verdicts, merged = {}, {}
    for heads, level in itertools.groupby(
        oracle.enumerate_lf_contexts(sig, 3, 3), oracle._nominal_heads
    ):
        level = list(level)
        types = oracle.candidate_types(sig, level[0], 3, cap=80)
        terms = term_pool(sig, O, 3, extra_heads=heads)[:24]
        contexts = set(level) | {minimize(rel, g, ty) for g in level for ty in types}
        assert all(isinstance(b, Nominal) for g in contexts for b, _ in g.bindings)
        mentioned = {e: [n for n, _ in heads if n in nominals_in(e)] for e in (*types, *terms)}
        for g in contexts:
            looked_up = lambda e: tuple((n, g.lookup(n)) for n in mentioned[e])
            for ty in types:
                judgements = [(("type", ty), looked_up(ty), ok(check_type, sig, g, ty))]
                judgements += [
                    (("term", m, ty), looked_up(m), ok(check_term, sig, g, m, ty)) for m in terms
                ]
                for what, reads, verdict in judgements:
                    verdicts.setdefault((what, reads), set()).add(verdict)
                    for i in range(len(reads)):
                        key = what, reads[:i] + reads[i + 1:], reads[i][0]
                        merged.setdefault(key, set()).add(verdict)
    assert {len(v) for v in verdicts.values()} == {1}
    # for each kind of judgement, dropping a lookup from the key merges a
    # formed type with one that is not, and a term that checks with one that
    # does not
    assert {what[0] for (what, _, _), v in merged.items() if len(v) > 1} == {"type", "term"}


def test_minimization_harness_repeats_no_minimization_or_argument_judgement(
    sig_size, rel_size, monkeypatch
):
    # Each enumerated context is minimized once per head constant of its
    # candidate types.  Each level, a run of contexts with equal nominal
    # heads, builds its term pool and candidate list once (and so does the
    # enumeration for each run of parents), checks each reduced sub-context
    # once, forms each candidate type once per lookup of the nominals it
    # mentions, and checks each pool term against a candidate type once per
    # lookup of the nominals the term mentions, whichever contexts look them
    # up alike.  In each context it judges in, it judges each type argument
    # once per kind domain and synthesizes each pool term once.  A level's
    # pool comes before its first judgement.
    level = []
    minimized, built, checked, judged, synthesized, formed, term_checked = (
        Counter() for _ in range(7)
    )
    minimize_, term_pool_ = oracle.minimize, oracle.term_pool
    candidate_types_, check_context_ = oracle.candidate_types, oracle.check_context
    check_term_, synth_term_ = oracle._check_term, oracle.synth_term
    check_type_, check_atomic_ = oracle.check_type, oracle._check_atomic

    def counted_minimize(rel, ctx, ty):
        minimized[ctx, ty.head] += 1
        return minimize_(rel, ctx, ty)

    def counted_term_pool(*args, extra_heads):
        level[:] = [extra_heads]
        built["pool", extra_heads] += 1
        return term_pool_(*args, extra_heads=extra_heads)

    def counted_candidate_types(sig, g, size, cap=None):
        built[cap, oracle._nominal_heads(g)] += 1
        return candidate_types_(sig, g, size, cap)

    def counted_check_context(sig, g):
        checked[level[0], g] += 1
        return check_context_(sig, g)

    def counted_check_term(sig, g, local, arg, domain):
        judged[level[0], g, arg, domain] += 1
        return check_term_(sig, g, local, arg, domain)

    def counted_synth_term(sig, g, m):
        synthesized[level[0], g, m] += 1
        return synth_term_(sig, g, m)

    def counted_check_type(sig, g, ty, check_arg=None):
        if check_arg is not None:  # the harness's, not the enumeration's
            formed[level[0], ty, _looked_up(g, level[0], ty)] += 1
        return check_type_(sig, g, ty, check_arg)

    def counted_check_atomic(memo, key, term, sig, g, ty):
        term_checked[level[0], term(), ty, _looked_up(g, level[0], term())] += 1
        return check_atomic_(memo, key, term, sig, g, ty)

    for name, counted in (
        ("minimize", counted_minimize),
        ("term_pool", counted_term_pool),
        ("candidate_types", counted_candidate_types),
        ("check_context", counted_check_context),
        ("_check_term", counted_check_term),
        ("synth_term", counted_synth_term),
        ("check_type", counted_check_type),
        ("_check_atomic", counted_check_atomic),
    ):
        monkeypatch.setattr(oracle, name, counted)
    bounds = Bounds(4, 4)
    report = verify_minimization(sig_size, rel_size, bounds)
    assert report.render().splitlines()[-1] == "PASS (213148 obligations, 0 counterexamples)"
    monkeypatch.undo()
    want = {
        (g, ty.head)
        for g in oracle.enumerate_lf_contexts(sig_size, bounds.schema_blocks_max, 4)
        for ty in oracle.candidate_types(sig_size, g, 4, cap=80)
    }
    assert set(minimized) == want and set(minimized.values()) == {1}
    assert len(want) == 1060
    # five levels; the enumeration extends the first four
    assert Counter(kind for kind, _ in built) == {"pool": 5, 80: 5, None: 4}
    assert set(built.values()) == {1}
    assert set(checked.values()) == {1} and len(checked) == 43
    assert set(judged.values()) == {1}
    assert set(synthesized.values()) == {1} and len(synthesized) == 858
    assert set(formed.values()) == {1} and len(formed) == 6310
    assert set(term_checked.values()) == {1} and len(term_checked) == 2794


def test_contexts_with_equal_nominal_heads_share_candidate_types(sig_size, sig_stlc):
    # The minimization harness and the context enumeration build a
    # candidate list once per run of contexts with equal nominal heads, and
    # the term pool from the heads themselves.  The candidate list reads
    # nothing else of a context, and the enumeration yields each heads
    # tuple in one run.
    for sig in (sig_size, sig_stlc):
        contexts = list(oracle.enumerate_lf_contexts(sig, 4, 4))
        runs = [heads for heads, _ in itertools.groupby(contexts, oracle._nominal_heads)]
        assert len(runs) == len(set(runs)) == 5 and len(contexts) == oracle.TOTAL_CAP
        seen = {}
        for g in contexts:
            got = [oracle.candidate_types(sig, g, 4, cap) for cap in (None, 80)]
            assert seen.setdefault(oracle._nominal_heads(g), got) == got


def test_bounded_validity_judges_each_type_argument_once_per_context(
    sig_size, plus_closed, monkeypatch
):
    # The closed plus formula forms `plus N1 N2 N3` in the empty context
    # for every choice of the three, and each pool term is judged a nat once.
    judged = Counter()
    check_term_ = oracle._check_term

    def counted_check_term(sig, g, local, arg, domain):
        judged[g, local, arg, domain] += 1
        return check_term_(sig, g, local, arg, domain)

    monkeypatch.setattr(oracle, "_check_term", counted_check_term)
    assert bounded_validity(sig_size, plus_closed, Bounds(4, 2)).value == UNKNOWN
    pool = term_pool(sig_size, O, 4)
    assert set(judged) == {(LFContext(), (), t, at("nat")) for t in pool}
    assert set(judged.values()) == {1} and len(pool) == 32


def _wrapped(err):
    """`err` and every exception it wraps: its cause, its context and the
    failures among its message parts."""
    out, todo = [], [err]
    while todo:
        e = todo.pop()
        out.append(e)
        todo += [
            x for x in (e.__cause__, e.__context__, *getattr(e, "parts", ()))
            if isinstance(x, BaseException)
        ]
    return out


def test_a_stored_failure_keeps_no_frames(sig_size):
    # The oracles keep failing judgements in their memos, and format one
    # only for a trace line that is printed.  A frame kept anywhere in the
    # failure would keep its checker's locals, the memos among them, alive.
    judged = oracle._Context(sig_size, LFContext(), None)
    bad = a("plus-z", a("z"))  # a proof of plus z z z, not a nat
    # an argument judged through the memo, twice, so the second comes from
    # it; and one under a Pi binder whose scope applies the binder to too
    # many arguments, whose failure is raised while another is handled
    memoised = at("plus", bad, a("z"), a("z"))
    under_binder = PiType("x", at("nat"), at("plus", a(BVar(0), a("z")), a("z"), a("z")))
    for ty, wrapped in ((memoised, 3), (memoised, 3), (under_binder, 3)):
        err = oracle._fails(check_type, sig_size, judged.g, ty, judged.check_arg)
        chain = _wrapped(err)
        assert len(chain) >= wrapped and all(e.__traceback__ is None for e in chain)
    assert err.__context__ is not None
    assert str(oracle._fails(check_type, sig_size, judged.g, memoised, judged.check_arg)) == (
        "argument of plus does not check: synthesized AtomicType(head='plus', "
        "args=(Atom(head='z', args=()), Atom(head='z', args=()), Atom(head='z', args=()))), "
        "expected AtomicType(head='nat', args=())"
    )
