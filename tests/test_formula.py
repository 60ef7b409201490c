"""Formulas: well-formedness, and substitution for context variables."""

import pytest

from lfport import (
    Conj,
    CtxExpr,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Holds,
    O,
    WfEnv,
    check_formula,
    subst_ctx,
)
from lfport.formula import (
    ArityCheckFailure,
    UnboundContextVariable,
    UnboundTermVariable,
    open_ctx,
)
from lfport.lf import BVar
from lfport.schema import ContextSchema
from util import a, at, ce, instantiate, nom, quantify


def holds(ctx, term, ty):
    return Holds(ctx, term, ty)


def test_plus_formula_well_formed(sig_size, plus_closed):
    check_formula(sig_size, plus_closed)


def test_unbound_context_variable(sig_size):
    f = holds(ce(head="G"), a("N1"), at("nat"))
    with pytest.raises(UnboundContextVariable):
        check_formula(sig_size, quantify(ForallTm, "N1", O, f))


def test_closed_quantified_atom(sig_size):
    f = quantify(ForallTm, "N", O, holds(ce(), a("N"), at("nat")))
    check_formula(sig_size, f)


def test_unbound_term_variable(sig_size):
    f = holds(ce(), a("N"), at("nat"))
    with pytest.raises(UnboundTermVariable):
        check_formula(sig_size, f)


def test_arity_check_failure(sig_size):
    f = quantify(ForallTm, "N", O, holds(ce(), a("s"), at("nat")))
    with pytest.raises(ArityCheckFailure):
        check_formula(sig_size, f)


def test_env_supplies_term_arities(sig_size):
    f = holds(ce(), a("N"), at("nat"))
    check_formula(sig_size, f, WfEnv(term_arities={"N": O}))


def test_subst_ctx_empty_replacement():
    f = holds(ce(head="G"), a("z"), at("nat"))
    out = subst_ctx(f, {"G": ce()})
    assert out == holds(ce(), a("z"), at("nat"))


def test_subst_ctx_appends_explicit_bindings():
    f = holds(ce((nom(3), at("tm")), head="G"), a(nom(3)), at("tm"))
    out = subst_ctx(f, {"G": ce((nom(1), at("tm")))})
    assert out == holds(
        ce((nom(1), at("tm")), (nom(3), at("tm"))), a(nom(3)), at("tm")
    )


def test_subst_ctx_respects_binders(schemas_size):
    body = holds(ce(head="G"), a("z"), at("nat"))
    f = quantify(ForallCtx, "G", schemas_size["Cempty"], body)
    assert subst_ctx(f, {"G": ce((nom(1), at("tm")))}) == f


def test_subst_ctx_is_not_captured(schemas_size):
    # a replacement headed by G, under a quantifier hinted G, stays free
    body = Conj(holds(ce(head="G"), a("z"), at("nat")), holds(ce(head="H"), a("z"), at("nat")))
    f = quantify(ForallCtx, "G", schemas_size["Cempty"], body)
    out = subst_ctx(f, {"H": ce(head="G")})
    assert out.body.left.ctx.head == BVar(0)
    assert out.body.right.ctx.head == "G"


def test_open_ctx_instantiates_the_quantifier(schemas_size):
    inner = quantify(ForallCtx, "H", schemas_size["Cempty"], holds(ce(head="H"), a("z"), at("nat")))
    body = Conj(holds(ce((nom(3), at("tm")), head="G"), a("z"), at("nat")), inner)
    f = quantify(ForallCtx, "G", schemas_size["Cempty"], body)
    out = open_ctx(f.body, ce((nom(1), at("tm"))))
    assert out.left.ctx == ce((nom(1), at("tm")), (nom(3), at("tm")))
    assert out.right == inner  # its own variable stays bound


def test_subst_ctx_identity():
    f = holds(ce(head="G"), a("z"), at("nat"))
    assert subst_ctx(f, {}) == f


def test_subst_operations_commute_when_independent():
    # substituting for a context variable, and putting a term in for a
    # term quantifier's variable
    atom = holds(ce(head="G"), a("D"), at("plus", a("N1"), a("N1"), a("N2")))
    f = quantify(ForallTm, "N1", O, atom)
    sigma = {"G": ce((nom(1), at("tm")))}
    assert subst_ctx(instantiate(f.body, a("z"), O), sigma) == instantiate(
        subst_ctx(f, sigma).body, a("z"), O
    )


def test_check_formula_alpha_stable(sig_size):
    def plus(n, d):
        return holds(ce(), a(d), at("plus", a(n), a(n), a(n)))

    f1 = quantify(ForallTm, "N", O, quantify(ExistsTm, "D", O, plus("N", "D")))
    f2 = quantify(ForallTm, "M", O, quantify(ExistsTm, "E", O, plus("M", "E")))
    check_formula(sig_size, f1)
    check_formula(sig_size, f2)
    assert f1 == f2


def test_formula_alpha_distinguishes_nominals():
    f1 = Holds(ce((nom(1), at("tm"))), a(nom(1)), at("tm"))
    f2 = Holds(ce((nom(2), at("tm"))), a(nom(2)), at("tm"))
    assert f1 != f2
