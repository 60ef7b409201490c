"""Bounded validity and the metatheorem harnesses."""

import random
from collections import Counter

import pytest

from lfport import (
    Arrow,
    Bot,
    Bounds,
    Conj,
    Disj,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Holds,
    Imp,
    LFContext,
    LFError,
    O,
    SubordRel,
    Top,
    bounded_validity,
    check_context,
    check_term,
    check_type,
    enumerate_instances,
    subst_ctx,
    term_pool,
    verify_minimization,
    verify_transport,
)
from lfport import oracle
from lfport.formula import _map_atoms, _map_lf, _rebuild, _subformulas, open_ctx
from lfport.lf import BVar, _open_named, _subst, free_vars, fresh_name, names_in
from lfport.oracle import INVALID, UNKNOWN, VALID, OracleReport, Verdict3
from lfport.parse import parse_formula, parse_signature
from util import a, at, ce, nom, quantify, random_formula


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(0, 1)
    with pytest.raises(ValueError):
        Bounds(1, 1, -1)


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


def named(f, names=()):
    """`f` with each term quantifier's index read as its hint, and each
    dangling index `i` as `names[i]`."""
    match f:
        case Holds():
            return _map_lf(f, lambda e: _open_named(e, names))
        case ForallTm(v, ar, body) | ExistsTm(v, ar, body):
            return type(f)(v, ar, named(body, (v,) + names))
    return _rebuild(f, lambda g: named(g, names))


def names_of(f):
    """Every term name of a named formula, bound or free."""
    out = set()
    for g in _subformulas(f):
        if isinstance(g, Holds):
            out.update(*(names_in(e) for e in (g.term, g.ty, *(t for _, t in g.ctx.bindings))))
        elif isinstance(g, (ForallTm, ExistsTm)):
            out.add(g.var)
    return out


def renamed_apart(body, q, free):
    """The body of the quantifier named `q`, its quantifiers named as
    substituting a term with the free names `free` for `q` by name names
    them: one named in `free` is renamed apart from `free`, `q` and every
    name its body shows, and one named `q` hides the body below it."""

    def walk(f, names):
        match f:
            case ForallTm(v, ar, b) | ExistsTm(v, ar, b):
                if v == q:
                    return f
                if v in free:
                    v = fresh_name(v, free | {q} | names_of(named(b, (v,) + names)))
                return type(f)(v, ar, walk(b, (v,) + names))
        return _rebuild(f, lambda g: walk(g, names))

    return walk(body, (q,))


def plain_validity(sig, f, bounds):
    """Reference semantics: each quantifier substitutes every pool term
    into its whole body, and each atom re-checks its context and type.  A
    trace names the quantifiers of a body as substituting by name renames
    them."""
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
                    sub = ev(instantiate(renamed_apart(body, v, free_vars(t)), t, ar))
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
                    sub = ev(instantiate(renamed_apart(body, v, free_vars(t)), t, ar))
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
]


def test_matches_plain_on_traces(sig_size, schemas_size):
    lines = []
    for text in TRACED:
        f = parse_formula(text, schemas_size)
        for bounds in (Bounds(2, 1), Bounds(3, 2)):
            lines += assert_same(sig_size, f, bounds).trace
    for kind in ("counterexample N", "counterexample G", "witness", "judgement fails"):
        assert any(line.startswith(kind) for line in lines), kind
    assert "counterexample z' = Atom(head='plus-z', args=(Atom(head='z', args=()),))" in lines


def test_matches_plain_naming_a_quantifier_renamed_past_a_dropped_argument():
    # M's term [x1] lam ([x2] x2) drops the argument that mentions z', so
    # putting N := z in renames the quantifier z to z', as substituting by
    # name did; counting the dropped z' would give z''.
    sig = parse_signature("nat : Type. z : nat. s : nat -> nat. tm : Type. lam : (tm -> tm) -> tm.")
    f = parse_formula(
        "forall M : o -> o. forall N : o. forall z' : o. forall z : o. "
        "{ |- M (s z') : tm } => { |- N : nat } => { |- z : nat }",
        {},
    )
    trace = assert_same(sig, f, Bounds(4, 1)).trace
    assert trace[2:4] == (
        "counterexample z' = Atom(head='z', args=())",
        "counterexample z' = Atom(head='lam', args=(Lam(var='x1', body=Atom(head='z', args=())),))",
    )


def test_judgements_checked_do_not_depend_on_hints(sig_size, monkeypatch):
    # Quantifiers named like a constant of the pool terms are renamed in
    # trace lines only: the body is evaluated with the memos of its alpha-
    # variant, so context and type judgements are checked as often.
    text = (
        "forall M : o -> o. forall N : o. forall {} : o. forall {} : o. "
        "{{ |- M (s {}) : tm }} => {{ |- N : nat }} => {{ |- {} : nat }}"
    )
    calls = Counter()
    for name in ("check_context", "check_type", "check_term"):
        check = getattr(oracle, name)
        monkeypatch.setattr(
            oracle, name, lambda *args, _n=name, _c=check: calls.update([_n]) or _c(*args)
        )
    counts = []
    for hints in (("z'", "z"), ("b", "c")):
        calls.clear()
        bounded_validity(sig_size, parse_formula(text.format(*hints, *hints), {}), Bounds(3, 1))
        counts.append(dict(calls))
    assert counts[0] == counts[1]


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
    # One quantifier, renamed past M's pool terms in one place only.
    q = ForallTm("z", O, Holds(ce(), a(BVar(0)), at("tm")))
    shared = (Conj(nm, mn), Conj(mn, nm), Conj(nm, mn_exists), Conj(k1, k2),
              Disj(ForallTm("M", O, q), q))
    for formula in shared:
        assert_same(sig_size, formula, Bounds(3, 1))
    trace = bounded_validity(sig_size, shared[-1], Bounds(3, 1)).trace
    assert [line.split(" =")[0] for line in trace if line.startswith("counterexample")] == [
        "counterexample M", "counterexample z'", "counterexample z"
    ]


@pytest.mark.parametrize("size, seeds", [(2, 1000), (3, 200)])
def test_matches_plain_on_random_formulas(size, seeds, sig_size, schemas_size):
    for seed in range(seeds):
        f = random_formula(random.Random(seed), schemas_size)
        assert_same(sig_size, f, Bounds(size, 1))
