"""Tree builders against the plain walks they shortcut.

`lf._subst` returns a subtree as it is when it has no name to substitute
and no dangling index to replace or lower; `lf._shift` returns a locally
closed term as it is.  Both read the node's cached reach.  `lf._map_heads`
returns a node as it is when none of its heads changes, and the parser's
`formula._choose_hints` a formula node whose hint and subformulas are
unchanged.  The references below are the walks that rebuild every node;
the fast path must give `==` results (with the same hints) and raise the
same failures, share what it skips, and the cached reach must stay out of
`==`, `hash` and `repr`.
"""

import random

import pytest

from lfport import (
    Arrow,
    Atom,
    AtomicType,
    Conj,
    Disj,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Imp,
    Lam,
    O,
    PiKind,
    PiType,
    TypeDecl,
)
from lfport.formula import _choose_hints, _quantifier_name, _subformulas
from lfport.lf import (
    BVar,
    SubstFailure,
    _dangling,
    _instantiate,
    _map_heads,
    _nodes,
    _shift,
    _subst,
    erase,
)
from lfport.parse import _parse_formula, _parse_whole
from lfport.pretty import fmt_formula
from lfport.schema import term_pool
from util import a, at, nom, random_formula


# ---------------------------------------------------------------------------
# The plain walk.


def ref_subst(e, subst, k, inst):
    match e:
        case Atom(head, args):
            new_args = tuple(ref_subst(x, subst, k, inst) for x in args)
            if isinstance(head, BVar):
                if inst and head.index >= k:
                    i = head.index - k
                    if i >= len(inst):
                        return Atom(BVar(head.index - len(inst)), new_args)
                    term, arity = inst[i]
                    return ref_contract(ref_shift(term, k), arity, new_args)
            elif head in subst:
                repl, arity = subst[head]
                return ref_contract(repl, arity, new_args)
            return Atom(head, new_args)
        case Lam(var, body):
            return Lam(var, ref_subst(body, subst, k + 1, inst))
        case AtomicType(head, args):
            return AtomicType(head, tuple(ref_subst(x, subst, k, inst) for x in args))
        case PiType(var, domain, body):
            return PiType(var, ref_subst(domain, subst, k, inst), ref_subst(body, subst, k + 1, inst))
        case PiKind(var, domain, body):
            return PiKind(var, ref_subst(domain, subst, k, inst), ref_subst(body, subst, k + 1, inst))
    return e  # TypeKind


def ref_contract(term, arity, args):
    for arg in args:
        if not isinstance(arity, Arrow):
            raise SubstFailure(f"replacement of arity {arity!r} applied to an argument")
        if isinstance(term, Lam):
            term = ref_instantiate(term.body, arg, arity.left)
        else:
            term = Atom(term.head, term.args + (arg,))
        arity = arity.right
    return term


def ref_instantiate(body, term, arity):
    return ref_subst(body, {}, 0, ((term, arity),))


def ref_shift(term, k):
    return ref_map_heads(
        term, lambda h, d: BVar(h.index + k) if isinstance(h, BVar) and h.index >= d else h
    )


def ref_map_heads(e, f, depth=0):
    match e:
        case Atom(head, args):
            return Atom(f(head, depth), tuple(ref_map_heads(x, f, depth) for x in args))
        case Lam(var, body):
            return Lam(var, ref_map_heads(body, f, depth + 1))
        case AtomicType(head, args):
            return AtomicType(head, tuple(ref_map_heads(x, f, depth) for x in args))
        case PiType(var, domain, body) | PiKind(var, domain, body):
            return type(e)(var, ref_map_heads(domain, f, depth), ref_map_heads(body, f, depth + 1))
    return e  # TypeKind


def ref_choose_hints(f, path=frozenset(), cpath=frozenset()):
    match f:
        case ForallTm(_, ar, body) | ExistsTm(_, ar, body):
            v = _quantifier_name(f, path)
            return type(f)(v, ar, ref_choose_hints(body, path | {v}, cpath))
        case ForallCtx(_, cs, body, name):
            v = _quantifier_name(f, cpath)
            return ForallCtx(v, cs, ref_choose_hints(body, path, cpath | {v}), name)
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            return type(f)(ref_choose_hints(l, path, cpath), ref_choose_hints(r, path, cpath))
    return f  # an atom, tt or ff


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except SubstFailure as err:
        return ("raised", str(err))


def _fresh(e):
    """A copy of `e` built node by node, none of whose reaches was read."""
    return ref_map_heads(e, lambda h, d: h)


# ---------------------------------------------------------------------------
# Inputs.


def _with_dangling(rng, t):
    """`t` with some heads `z` and `s` replaced by indices, some of them
    dangling past the binders of `t`, so that replacements of the wrong
    arity are tried too."""
    def head(h, d):
        if h in ("z", "s") and rng.random() < 0.5:
            return BVar(rng.randrange(d + 3))
        return h

    return _map_heads(t, head)


def _open_trees(sig, count=400):
    """Seeded terms and types with dangling `BVar` heads under `Lam` and
    `PiType`, built from small pool terms."""
    rng = random.Random(0)
    pool = term_pool(sig, O, 3) + term_pool(sig, Arrow(O, O), 3)

    def term():
        return _with_dangling(rng, rng.choice(pool))

    shapes = (
        lambda: term(),
        lambda: Lam("x", term()),
        lambda: Lam("x", Lam("y", a("app", term(), term()))),
        lambda: at("size", term(), term()),
        lambda: PiType("x", at("tm"), at("size", term(), term())),
        lambda: PiType("x", at("nat"), PiType("y", at("plus", term(), term(), term()), at("nat"))),
    )
    return [rng.choice(shapes)() for _ in range(count)]


def _replacements(sig):
    """`inst` tuples: closed and open replacements, of the right arity
    and of the wrong one."""
    closed = [(t, O) for t in term_pool(sig, O, 2)]
    closed += [(t, Arrow(O, O)) for t in term_pool(sig, Arrow(O, O), 3)]
    opened = [(a(BVar(0)), O), (a("s", a(BVar(1))), O), (Lam("x", a(BVar(1), a(BVar(0)))), Arrow(O, O))]
    wrong = [(a("z"), Arrow(O, O)), (Lam("x", a(BVar(0))), O)]
    singles = [(r,) for r in closed[:6] + opened + wrong]
    return singles + [(closed[0], opened[1]), (opened[2], closed[-1], closed[1])]


@pytest.fixture(scope="module")
def trees(sig_size, sig_stlc):
    out = []
    for sig in (sig_size, sig_stlc):
        out += [d.kind if isinstance(d, TypeDecl) else d.type for d in sig.decls]
    return out + _open_trees(sig_stlc)


# ---------------------------------------------------------------------------
# Tests.


def test_trees_exercise_the_fast_path(trees):
    reaches = {max(_dangling(e), default=-1) + 1 for e in trees}
    assert reaches >= {0, 1, 2, 3}
    assert sum(isinstance(e, (Lam, PiType)) and bool(_dangling(e)) for e in trees) > 100


def test_reach_is_one_past_the_largest_dangling_index(trees):
    for e in trees:
        for n in _nodes(e):
            assert n.reach == max(_dangling(n), default=-1) + 1


def test_reach_needs_no_recursion():
    t = a(BVar(20001))
    for _ in range(20000):
        t = Lam("x", a("s", t))
    assert t.reach == 2
    assert t.body.reach == 3


def test_substitution_matches_the_plain_walk(trees, sig_stlc):
    names = {"z": (a("s", a("z")), O), "app": (Lam("x", Lam("y", a(BVar(1)))), Arrow(O, Arrow(O, O)))}
    for e in trees:
        for inst in _replacements(sig_stlc):
            for k in range(3):
                for subst in ({}, names):
                    assert _outcome(_subst, e, subst, k, inst) == _outcome(ref_subst, e, subst, k, inst)
            term, arity = inst[0]
            assert _outcome(_instantiate, e, term, arity) == _outcome(ref_instantiate, e, term, arity)
        if isinstance(e, (Atom, Lam)):
            for k in range(4):
                assert _shift(e, k) == ref_shift(e, k)


def test_declaration_spines_match_the_plain_walk(sig_size, sig_stlc):
    # the checkers open a head's type once per spine argument
    args = term_pool(sig_stlc, O, 3) + (a(nom(1)), a(BVar(0)))
    count = 0
    for sig in (sig_size, sig_stlc):
        for d in sig.decls:
            ty = d.kind if isinstance(d, TypeDecl) else d.type
            while isinstance(ty, (PiType, PiKind)):
                arity = erase(ty.domain)
                for arg in args if arity == O else term_pool(sig_stlc, arity, 3):
                    assert _instantiate(ty.body, arg, arity) == ref_instantiate(ty.body, arg, arity)
                    count += 1
                ty = ty.body
    assert count > 500


def test_closed_subtrees_come_back_shared(trees, sig_stlc):
    inst = _replacements(sig_stlc)[-1]
    shared = 0
    for e in trees:
        for n in _nodes(e):
            for k in range(n.reach, n.reach + 2):
                assert _subst(n, {}, k, inst) is n
            if not n.reach:
                assert _instantiate(n, a("z"), O) is n
                if isinstance(n, (Atom, Lam)):
                    assert _shift(n, 3) is n
        # a closed argument of an open atom is shared by the rebuilt atom
        if isinstance(e, (Atom, AtomicType)) and e.reach and not isinstance(e.head, BVar):
            out = _subst(e, {}, 0, ((Lam("x", a("s", a(BVar(0)))), Arrow(O, O)),) * e.reach)
            for old, new in zip(e.args, out.args):
                if not old.reach:
                    assert new is old
                    shared += 1
    assert shared > 20


def test_cached_reach_takes_no_part_in_equality(trees):
    for e in trees:
        e.reach
        copy = _fresh(e)
        assert "reach" in vars(e)
        if copy is not e:  # a bare `Type` kind is shared
            assert "reach" not in vars(copy)
        assert e == copy and copy == e
        assert hash(e) == hash(copy)
        assert repr(e) == repr(copy)


def _head_maps():
    """Head maps that change nothing, one name, or every dangling index
    (as `_shift` and `_open_named` do), with whether each may change a
    tree."""
    return [
        (lambda h, d: h, False),
        (lambda h, d: "absent" if h == "no-such-name" else h, False),
        (lambda h, d: "zz" if h == "z" else h, True),
        (lambda h, d: BVar(h.index + 2) if isinstance(h, BVar) and h.index >= d else h, True),
        (lambda h, d: "x" if isinstance(h, BVar) and h.index >= d else h, True),
    ]


def test_head_maps_match_the_full_rebuild(trees):
    shared = rebuilt = 0
    for e in trees:
        for f, changes in _head_maps():
            got, want = _map_heads(e, f), ref_map_heads(e, f)
            assert got == want
            assert [n.var for n in _nodes(got) if hasattr(n, "var")] == [
                n.var for n in _nodes(want) if hasattr(n, "var")
            ]
            # a node comes back as it is exactly when the map changes none
            # of its heads, which the rebuild shows by an equal tree
            if not changes or got == e:
                assert got is e
            else:
                rebuilt += 1
            if isinstance(e, (Atom, AtomicType)) and got is not e:
                for old, new in zip(e.args, got.args):
                    if ref_map_heads(old, f) == old:
                        assert new is old
                        shared += 1
    assert shared > 50 and rebuilt > 200


def _hints(f):
    return [
        (g.var, getattr(g, "schema_name", None))
        for g in _subformulas(f)
        if isinstance(g, (ForallTm, ExistsTm, ForallCtx))
    ]


def test_chosen_hints_match_the_full_rebuild(schemas_size):
    # random formulas as the API builds them, whose hints may repeat, and
    # as parsed from their printed text before any hint is chosen
    kinds = set()
    for seed in range(400):
        built = random_formula(random.Random(seed), schemas_size, (None, "G")[seed % 2])
        text = fmt_formula(built)
        _, parsed = _parse_whole(text, lambda p: _parse_formula(p, schemas_size))
        for f in (built, parsed):
            got, want = _choose_hints(f), ref_choose_hints(f)
            assert got == want and _hints(got) == _hints(want)
            # in step, a node is shared exactly where no hint below it moves
            for old, new in zip(_subformulas(f), _subformulas(got)):
                if _hints(old) == _hints(new):
                    assert new is old
                    kinds.add("shared" if _hints(old) else "shared atom")
                else:
                    assert new is not old
                    kinds.add("rebuilt")
        assert fmt_formula(_choose_hints(parsed)) == text
    assert kinds == {"shared", "shared atom", "rebuilt"}
