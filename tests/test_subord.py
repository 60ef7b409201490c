"""Subordination relation and context minimization."""

import itertools
import random

import pytest

from lfport import (
    LFContext,
    Signature,
    TYPE,
    TypeDecl,
    apply_subst,
    compute_subordination,
    head_constant,
    minimize,
    type_leq,
)
from lfport.lf import O, PiKind, PiType, UnknownConstant
from lfport.parse import parse_signature
from util import a, at, ctx, nom, pi

PAPER_PAIRS = {
    ("tm", "tm"),
    ("tm", "size"),
    ("nat", "nat"),
    ("nat", "plus"),
    ("nat", "size"),
    ("plus", "plus"),
    ("plus", "size"),
    ("size", "size"),
}


def test_size_signature_relation_is_exact(rel_size):
    assert set(rel_size.pairs) == PAPER_PAIRS


def test_tm_not_below_nat_or_plus(rel_size):
    assert not rel_size.holds("tm", "nat")
    assert not rel_size.holds("tm", "plus")


def test_single_constant_reflexivity():
    rel = compute_subordination(Signature((TypeDecl("a", TYPE),)))
    assert set(rel.pairs) == {("a", "a")}


def test_head_atomic():
    assert head_constant(at("nat")) == "nat"


def test_head_under_pi():
    ty = pi("x", at("tm"), at("size", a("x"), a("s", a("z"))))
    assert head_constant(ty) == "size"


def test_head_under_repeated_pi():
    ty = pi("x", at("a"), pi("y", at("b"), at("plus", a("x"), a("y"), a("y"))))
    assert head_constant(ty) == "plus"


def test_type_leq_examples(rel_size):
    size_ty = at("size", a(nom(1)), a("s", a("z")))
    assert type_leq(rel_size, at("tm"), size_ty)
    assert not type_leq(rel_size, size_ty, at("nat"))
    assert type_leq(rel_size, at("nat"), at("nat"))


def test_type_leq_unknown_constant(rel_size):
    with pytest.raises(UnknownConstant):
        type_leq(rel_size, at("mystery"), at("nat"))


def test_minimize_empty(rel_size):
    assert minimize(rel_size, LFContext(), at("nat")) == LFContext()


def test_minimize_drops_tm_for_nat(rel_size):
    g = ctx((nom(1), at("tm")), (nom(2), at("nat")))
    assert minimize(rel_size, g, at("nat")) == ctx((nom(2), at("nat")))


def test_minimize_keeps_size_block(rel_size):
    size_ty = at("size", a(nom(1)), a("s", a("z")))
    g = ctx((nom(1), at("tm")), (nom(2), size_ty))
    assert minimize(rel_size, g, size_ty) == g


def test_minimize_idempotent(rel_size):
    types = [at("nat"), at("tm"), at("plus", a("z"), a("z"), a("z"))]
    bindings = [(nom(1), at("tm")), (nom(2), at("nat")),
                (nom(3), at("size", a(nom(1)), a("s", a("z"))))]
    for k in range(len(bindings) + 1):
        for combo in itertools.combinations(bindings, k):
            g = ctx(*combo)
            for ty in types:
                once = minimize(rel_size, g, ty)
                assert minimize(rel_size, once, ty) == once


def test_relation_is_a_preorder(rel_size):
    for c in rel_size.constants:
        assert rel_size.holds(c, c)
    for (x, y), (u, v) in itertools.product(rel_size.pairs, repeat=2):
        if y == u:
            assert rel_size.holds(x, v)


def test_head_stable_under_substitution():
    ty = at("size", a("X"), a("s", a("z")))
    out = apply_subst(ty, {"X": (a(nom(1)), O)})
    assert head_constant(out) == head_constant(ty)
    dep = pi("x", at("tm"), at("size", a("x"), a("N")))
    out = apply_subst(dep, {"N": (a("z"), O)})
    assert head_constant(out) == "size"


# ---------------------------------------------------------------------------
# The transitive closure against the worklist it replaced.


def ref_direct_pairs(sig):
    """Reflexivity and index subordination, before any closure."""
    pairs = {(a, a) for a in sig.arity_context().type_args}
    for d in sig.decls:
        if isinstance(d, TypeDecl):
            target, classifier = d.name, d.kind
        else:
            target, classifier = head_constant(d.type), d.type
        while isinstance(classifier, (PiKind, PiType)):
            pairs.add((head_constant(classifier.domain), target))
            classifier = classifier.body
    return pairs


def ref_worklist_closure(pairs):
    pairs = set(pairs)
    work = list(pairs)
    while work:
        a, b = work.pop()
        for c, d in list(pairs):
            if c == b and (a, d) not in pairs:
                pairs.add((a, d))
                work.append((a, d))
            if d == a and (c, b) not in pairs:
                pairs.add((c, b))
                work.append((c, b))
    return pairs


def test_a_chain_is_closed_transitively():
    sig = parse_signature("a : Type. b : Type. c : Type. f : a -> b. g : b -> c.")
    rel = compute_subordination(sig)
    assert rel.holds("a", "c") and not rel.holds("c", "a")
    assert set(rel.pairs) == ref_worklist_closure(ref_direct_pairs(sig)) == {
        ("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c"),
    }


def test_closure_matches_the_worklist_on_random_relations():
    rng = random.Random(3)
    closed = 0
    for _ in range(300):
        n = rng.randrange(1, 7)
        decls = [f"c{i} : Type." for i in range(n)]
        for k in range(rng.randrange(2 * n + 1)):
            # a type family indexed by a constant, or a constructor from two
            # constants to a third
            x, y, z = (rng.randrange(n) for _ in range(3))
            decls.append(
                f"t{k} : c{x} -> Type." if rng.random() < 0.2 else f"f{k} : c{x} -> c{y} -> c{z}."
            )
        sig = parse_signature(" ".join(decls))
        direct = ref_direct_pairs(sig)
        want = ref_worklist_closure(direct)
        assert set(compute_subordination(sig).pairs) == want, decls
        closed += want != direct
    assert closed > 50
