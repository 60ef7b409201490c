"""The folds over LF expressions and formulas against recursive references.

Every fold runs over one pre-order iterator (`lf._nodes` for LF
expressions, `formula._subformulas` for formulas).  The references below
are the per-node recursive walkers they replaced; each fold must give the
same result, and raise the same error at the same first offending node.
"""

import random

import pytest

import lfport.formula
import lfport.parse
import lfport.schema
import lfport.subsume
from lfport import (
    Arrow,
    Atom,
    AtomicType,
    Bot,
    Conj,
    Disj,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Holds,
    Imp,
    Lam,
    LFContext,
    Nominal,
    O,
    PiKind,
    PiType,
    SubordRel,
    Top,
    TypeDecl,
)
from lfport.lf import (
    BVar,
    TypeKind,
    UnknownConstant,
    context_nominals,
    free_vars,
    names_in,
    nominals_in,
)
from lfport.parse import ParseError, _position, _tokenize
from lfport.schema import NonPatternSchema, term_pool
from lfport.subord import type_leq
from util import a, at, nom, pi, random_formula


# ---------------------------------------------------------------------------
# The recursive walkers the folds replaced.


def ref_free_vars(e):
    # bound variables are indices, so every name is free
    match e:
        case Atom(head, args):
            out = set().union(*(ref_free_vars(a) for a in args)) if args else set()
            if isinstance(head, str):
                out.add(head)
            return out
        case Lam(_, body):
            return ref_free_vars(body)
        case AtomicType(_, args):
            return set().union(*(ref_free_vars(a) for a in args)) if args else set()
        case PiType(_, domain, body):
            return ref_free_vars(domain) | ref_free_vars(body)
        case TypeKind():
            return set()
        case PiKind(_, domain, body):
            return ref_free_vars(domain) | ref_free_vars(body)
    raise TypeError(f"not an LF expression: {e!r}")


def ref_nominals_in(e):
    match e:
        case Atom(head, args):
            out = set().union(*(ref_nominals_in(a) for a in args)) if args else set()
            if isinstance(head, Nominal):
                out.add(head)
            return out
        case Lam(_, body):
            return ref_nominals_in(body)
        case AtomicType(_, args):
            return set().union(*(ref_nominals_in(a) for a in args)) if args else set()
        case PiType(_, domain, body):
            return ref_nominals_in(domain) | ref_nominals_in(body)
        case TypeKind():
            return set()
        case PiKind(_, domain, body):
            return ref_nominals_in(domain) | ref_nominals_in(body)
    raise TypeError(f"not an LF expression: {e!r}")


def ref_context_nominals(ctx):
    out = set()
    for binder, ty in ctx.bindings:
        if isinstance(binder, Nominal):
            out.add(binder)
        out |= ref_nominals_in(ty)
    return out


def ref_names_in(e):
    match e:
        case Atom(head, args):
            out = set().union(*(ref_names_in(a) for a in args)) if args else set()
            if isinstance(head, str):
                out.add(head)
            return out
        case Lam(var, body):
            return ref_names_in(body) | {var}
        case AtomicType(_, args):
            return set().union(*(ref_names_in(a) for a in args)) if args else set()
        case PiType(var, domain, body):
            return ref_names_in(domain) | ref_names_in(body) | {var}
        case TypeKind():
            return set()
        case PiKind(var, domain, body):
            return ref_names_in(domain) | ref_names_in(body) | {var}
    raise TypeError(f"not an LF expression: {e!r}")


def ref_scan_names(sig, e, scope):
    match e:
        case Atom(head, args):
            if isinstance(head, str) and head not in scope and sig.type_of(head) is None:
                raise lfport.formula.UnboundTermVariable(f"name {head} is not bound")
            for x in args:
                ref_scan_names(sig, x, scope)
        case Lam(_, body):
            ref_scan_names(sig, body, scope)
        case AtomicType(_, args):
            for x in args:
                ref_scan_names(sig, x, scope)
        case PiType(_, domain, body):
            ref_scan_names(sig, domain, scope)
            ref_scan_names(sig, body, scope)


def ref_check_patterns(e, params, earlier):
    match e:
        case Atom(h, args) if isinstance(h, str) and h in params:
            for arg in args:
                if not isinstance(arg, Atom) or arg.args:
                    raise NonPatternSchema(
                        f"parameter {h} applied to a non-variable argument"
                    )
                x = arg.head
                if not (isinstance(x, (Nominal, BVar)) or x in earlier):
                    raise NonPatternSchema(f"parameter {h} applied to the free name {x}")
            if len({arg.head for arg in args}) != len(args):
                raise NonPatternSchema(f"parameter {h} applied to repeated arguments")
        case Atom(_, args) | AtomicType(_, args):
            for arg in args:
                ref_check_patterns(arg, params, earlier)
        case Lam(_, body):
            ref_check_patterns(body, params, earlier)
        case PiType(_, d, b):
            ref_check_patterns(d, params, earlier)
            ref_check_patterns(b, params, earlier)


def ref_tf_subord(rel, ty, f, gamma):
    match f:
        case Holds(ctx, _, a):
            if ctx.head != gamma:
                return False
            if ctx.bindings:
                return True
            return type_leq(rel, ty, a)
        case Top() | Bot():
            return False
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            return ref_tf_subord(rel, ty, l, gamma) or ref_tf_subord(rel, ty, r, gamma)
        case ForallTm(_, _, body) | ExistsTm(_, _, body) | ForallCtx(_, _, body):
            return ref_tf_subord(rel, ty, body, gamma)
    raise TypeError(f"not a formula: {f!r}")


def ref_gamma_atom_types(f, gamma):
    out = []

    def walk(g):
        match g:
            case Holds(ctx, _, a):
                if ctx.head == gamma and not ctx.bindings:
                    out.append(a)
            case Imp(l, r) | Conj(l, r) | Disj(l, r):
                walk(l)
                walk(r)
            case ForallTm(_, _, body) | ExistsTm(_, _, body) | ForallCtx(_, _, body):
                walk(body)

    walk(f)
    return out


def ref_val_pos(gamma, f):
    match f:
        case Top():
            return ("top",)
        case Conj(l, r):
            dl = ref_val_pos(gamma, l)
            dr = ref_val_pos(gamma, r)
            if dl is not None and dr is not None:
                return ("and", dl, dr)
            return None
        case Disj(l, r):
            dl = ref_val_pos(gamma, l)
            if dl is not None:
                return ("or-left", dl)
            dr = ref_val_pos(gamma, r)
            if dr is not None:
                return ("or-right", dr)
            return None
        case Imp(l, r):
            dl = ref_val_neg(gamma, l)
            if dl is not None:
                return ("imp-antecedent", dl)
            dr = ref_val_pos(gamma, r)
            if dr is not None:
                return ("imp-consequent", dr)
            return None
        case ForallTm(_, _, body):
            d = ref_val_pos(gamma, body)
            return ("all", d) if d is not None else None
        case ExistsTm(_, _, body):
            d = ref_val_pos(gamma, body)
            return ("ex", d) if d is not None else None
        case ForallCtx(_, _, body):
            d = ref_val_pos(gamma, body)
            return ("ctx", d) if d is not None else None
        case Holds() | Bot():
            return None
    raise TypeError(f"not a formula: {f!r}")


def ref_val_neg(gamma, f):
    match f:
        case Bot():
            return ("bot",)
        case Holds(ctx, _, _):
            if ctx.head == gamma:
                return ("atom",)
            return None
        case Imp(l, r):
            dl = ref_val_pos(gamma, l)
            dr = ref_val_neg(gamma, r)
            if dl is not None and dr is not None:
                return ("imp", dl, dr)
            return None
        case Disj(l, r):
            dl = ref_val_neg(gamma, l)
            dr = ref_val_neg(gamma, r)
            if dl is not None and dr is not None:
                return ("or", dl, dr)
            return None
        case Conj(l, r):
            dl = ref_val_neg(gamma, l)
            if dl is not None:
                return ("and-left", dl)
            dr = ref_val_neg(gamma, r)
            if dr is not None:
                return ("and-right", dr)
            return None
        case ForallTm(_, _, body):
            d = ref_val_neg(gamma, body)
            return ("all", d) if d is not None else None
        case ExistsTm(_, _, body):
            d = ref_val_neg(gamma, body)
            return ("ex", d) if d is not None else None
        case ForallCtx(_, _, body):
            d = ref_val_neg(gamma, body)
            return ("ctx", d) if d is not None else None
        case Top():
            return None
    raise TypeError(f"not a formula: {f!r}")


def ref_tokenize(text):
    """(kind, text, line, column) of every token, then of the end of input,
    found one character at a time."""
    import re

    ident_start = re.compile(r"[A-Za-z]")
    ident_char = re.compile(r"[A-Za-z0-9_'-]")
    punct2 = ("|-", "->", "=>", ":=", "/\\", "\\/")
    punct1 = ("{", "}", "(", ")", "[", "]", ":", ",", ".", "|")
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i : i + 2]
        if two in punct2:
            tokens.append(("punct", two, line, col))
            i, col = i + 2, col + 2
            continue
        if c in punct1:
            tokens.append(("punct", c, line, col))
            i, col = i + 1, col + 1
            continue
        if ident_start.match(c):
            start = i
            while i < n and ident_char.match(text[i]):
                if text[i] == "-" and i + 1 < n and text[i + 1] == ">":
                    break
                i += 1
            word = text[start:i]
            tokens.append(("ident", word, line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Inputs.


def _outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as err:  # the references raise LFError and TypeError
        return ("raised", type(err), str(err))


@pytest.fixture(scope="module")
def lf_exprs(sig_size, sig_stlc, schemas_size, schemas_stlc):
    """Every type and kind of both signatures, every fixture block type, and
    the stlc pools at o and o -> o up to size 5 (plus a pool with a
    nominal, and those terms under a type and a binder)."""
    out = []
    for sig in (sig_size, sig_stlc):
        for d in sig.decls:
            out.append(d.kind if isinstance(d, TypeDecl) else d.type)
    for schemas in (schemas_size, schemas_stlc):
        for cs in schemas.values():
            out += [ty for block in cs.blocks for _, ty in block.decl]
    terms = term_pool(sig_stlc, O, 5) + term_pool(sig_stlc, Arrow(O, O), 5)
    terms += term_pool(sig_stlc, O, 4, nominals=1)
    out += terms
    out += [at("of", t, a("x1")) for t in terms if isinstance(t, Atom)]
    out += [pi("x1", at("tm", t), at("of", a("x1"), t)) for t in terms[:200]]
    # a different offending name in the domain and in the body
    out += [
        pi("x1", at("tm", a("u1")), at("tm", a("u2"))),
        pi("x1", at("tm", a("app", a("b"))), at("tm", a("app", a("z"), a("z")))),
    ]
    return out


def _random_formulas(schemas, count=3000):
    """Seeded random formulas whose atoms are headed by G, by H or by no
    context variable, with context quantifiers over G."""
    for seed in range(count):
        head = (None, "G", "H")[seed % 3]
        yield random_formula(random.Random(seed), schemas, head)


# ---------------------------------------------------------------------------
# LF folds.


def test_lf_folds_match_the_recursive_walkers(lf_exprs):
    assert len(lf_exprs) > 600
    for e in lf_exprs:
        assert free_vars(e) == ref_free_vars(e)
        assert nominals_in(e) == ref_nominals_in(e)
        assert names_in(e) == ref_names_in(e)


def test_lf_folds_raise_on_a_non_lf_node():
    bad = Lam("x", a("f", a(BVar(0)), "junk"))
    for fold in (free_vars, nominals_in, names_in):
        with pytest.raises(TypeError, match="not an LF expression: 'junk'"):
            fold(bad)


def test_context_nominals_matches(lf_exprs, sig_stlc):
    types = [e for e in lf_exprs if isinstance(e, (AtomicType, PiType))]
    rng = random.Random(5)
    for _ in range(300):
        picks = rng.sample(types, rng.randrange(4))
        binders = [nom(i + 1, rng.choice((O, Arrow(O, O)))) for i in range(len(picks))]
        if rng.random() < 0.3 and picks:
            binders[0] = "x"
        ctx = LFContext(tuple(zip(binders, picks)))
        assert context_nominals(ctx) == ref_context_nominals(ctx)


def test_scan_names_stops_at_the_same_name(lf_exprs, sig_size, sig_stlc):
    for e in lf_exprs:
        if isinstance(e, (PiKind, TypeKind)):
            continue
        for sig in (sig_size, sig_stlc):
            for scope in (set(), {"x1", "N"}):
                got = _outcome(lfport.formula._scan_names, sig, e, set(scope))
                assert got == _outcome(ref_scan_names, sig, e, set(scope))


def test_check_patterns_raises_at_the_same_occurrence(lf_exprs):
    cases = [
        (frozenset({"app"}), {"z"}),
        (frozenset({"app", "lam"}), set()),
        (frozenset({"x1", "s"}), {"b"}),
        (frozenset({"T"}), {"x", "x1", "x2"}),
    ]
    seen = set()
    for e in lf_exprs:
        if isinstance(e, (PiKind, TypeKind)):
            continue
        for params, earlier in cases:
            got = _outcome(lfport.schema._check_patterns, e, params, earlier)
            assert got == _outcome(ref_check_patterns, e, params, earlier)
            seen.add(got[-1] if got[0] == "raised" else None)
    # every message the check can give is reached
    assert {m and m.split(" applied to ")[1].split()[0] for m in seen} == {
        None, "a", "the", "repeated",
    }


# ---------------------------------------------------------------------------
# Formula folds.


def _types():
    return (at("nat"), at("tm"), at("size", a("z"), a("z")), pi("x", at("tm"), at("tm")))


def test_formula_folds_match_the_recursive_walkers(schemas_size, rel_size):
    seen_stop = False
    for f in _random_formulas(schemas_size):
        for gamma in ("G", "H"):
            got = lfport.subsume._gamma_atom_types(f, gamma)
            assert got == ref_gamma_atom_types(f, gamma)
            for ty in _types():
                assert lfport.subsume.tf_subord(rel_size, ty, f, gamma) == ref_tf_subord(
                    rel_size, ty, f, gamma
                )
            for positive, ref in ((True, ref_val_pos), (False, ref_val_neg)):
                assert lfport.subsume._val_deriv(gamma, f, positive) == ref(gamma, f)
            seen_stop = seen_stop or (
                ref_gamma_atom_types(f, gamma)
                != ref_gamma_atom_types(_no_ctx_quantifiers(f), gamma)
            )
    assert seen_stop  # some formula rebinds G above a G-headed atom


def _no_ctx_quantifiers(f):
    """`f` with each context quantifier dropped and its variable free."""
    if isinstance(f, ForallCtx):
        return _no_ctx_quantifiers(lfport.formula.open_ctx(f.body, lfport.schema.CtxExpr(f.var)))
    return lfport.formula._rebuild(f, _no_ctx_quantifiers)


def test_tf_subord_raises_at_the_same_uncovered_atom(schemas_size, rel_size):
    # `size` is not covered: the first G-atom judging a size type raises,
    # unless an earlier atom already decided the answer.
    rel = SubordRel(
        frozenset(p for p in rel_size.pairs if "size" not in p),
        rel_size.constants - {"size"},
    )
    outcomes = set()
    for f in _random_formulas(schemas_size, 1500):
        for ty in _types():
            got = _outcome(lfport.subsume.tf_subord, rel, ty, f, "G")
            assert got == _outcome(ref_tf_subord, rel, ty, f, "G")
            outcomes.add(got[:2])
    assert outcomes == {("ok", True), ("ok", False), ("raised", UnknownConstant)}


def test_formula_folds_raise_on_a_non_formula():
    bad = Imp(Holds(lfport.schema.CtxExpr("G"), a("z"), at("nat")), "junk")
    with pytest.raises(TypeError, match="not a formula: 'junk'"):
        list(lfport.formula._subformulas(bad))
    rel = SubordRel(frozenset({("nat", "nat")}), frozenset({"nat"}))
    # the left atom decides, so the right side is never reached ...
    assert lfport.subsume.tf_subord(rel, at("nat"), bad, "G")
    # ... and is reached when it does not
    with pytest.raises(TypeError, match="not a formula: 'junk'"):
        lfport.subsume.tf_subord(rel, at("nat"), bad, "H")
    # both sides are derived where both must, the right one only if needed
    outcomes = []
    for g in (Conj(Bot(), "junk"), Disj(Top(), "junk"), Imp(Bot(), "junk")):
        for positive, ref in ((True, ref_val_pos), (False, ref_val_neg)):
            got = _outcome(lfport.subsume._val_deriv, "G", g, positive)
            assert got == _outcome(ref, "G", g)
            outcomes.append(got[0])
    assert outcomes == ["raised", "ok", "ok", "raised", "ok", "raised"]


# ---------------------------------------------------------------------------
# The tokenizer.


def positioned_tokens(text):
    """The tokenizer's token texts, each with the kind its text shows and
    the line and column `_position` works out for it."""
    return [
        ("eof" if not t else "ident" if t[0].isalpha() else "punct", t, *_position(text, k))
        for k, t in enumerate(_tokenize(text))
    ]


def test_tokenizer_matches_the_per_character_loop():
    from conftest import FIXTURES

    alphabet = "aZn1_'-> %\n\t{}()[]:,.|=/\\éx0"
    rng = random.Random(11)
    texts = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.iterdir())]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(30))) for _ in range(20000)]
    texts += ["a-", "a->b", "a--b", "plus-z", "x'-'>", "a-\n>", "é", "a%b->c\nd"]
    texts += ["", "%", "a %c", "a\n  %c %d", "a\r\n\tb ", "% x\n\n!"]
    errors = 0
    for text in texts:
        got = _outcome(positioned_tokens, text)
        want = _outcome(ref_tokenize, text)
        assert got == want, text
        errors += got[0] == "raised"
    assert 0 < errors < len(texts)


# ---------------------------------------------------------------------------
# The bounded pool cache.


def test_pool_cache_is_bounded_and_transparent(sig_stlc):
    pool_exact = lfport.schema._pool_exact
    keys = [(O, 4), (Arrow(O, O), 5), (O, 3)]
    fresh = {}
    for ar, size in keys:
        pool_exact.cache_clear()
        fresh[ar, size] = lfport.schema.term_pool_exact(sig_stlc, ar, size)
    for i in range(1100):
        lfport.schema.term_pool_exact(sig_stlc, O, 1, extra_heads=((f"h{i}", O),))
    info = pool_exact.cache_info()
    assert info.maxsize == 1024
    assert info.currsize <= 1024
    for ar, size in keys:
        assert lfport.schema.term_pool_exact(sig_stlc, ar, size) == fresh[ar, size]
