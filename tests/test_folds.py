"""The folds over LF expressions and formulas against recursive references.

Every fold runs over one pre-order iterator (`lf._nodes` for LF
expressions, `formula._subformulas` for formulas).  The references below
are the per-node recursive walkers they replaced; each fold must give the
same result, and raise the same error at the same first offending node.

So do two rules that had a copy each: the term pools and `candidate_types`
enumerate argument spines by one generator (`schema._spines`), and
`check_schema` and `block_instance` judge a parameter's spine by one rule
(`schema._pattern_spine`).  The loops and the spine check they replaced are
kept below as references too, and so are the two pairs of walkers that
`schema._match_type` and `subsume._derive_renaming` replaced by one walker
(`lf._in_step`) with an atom rule each.  So are the two rules that primed a
printed binder's hint (`pretty._binder` for LF binders, and
`formula._quantifier_name` with the `free` short-cut its two callers
passed), which name through one function (`lf._primed`) now, and the loop
that built `block_instance`'s patterns, which are a block's instance
(`schema._instantiate_block`) now.  The free names and context heads a
formula shows, which `Formula._shown` gathers bottom-up, are checked
against a walk of its atoms, and the tokenizer against the identifier
pattern that alternated per character.
"""

import functools
import itertools
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
    TermDecl,
    TypeKind,
    UnknownConstant,
    _map_heads,
    _open_named,
    apply_subst,
    arity_args,
    context_nominals,
    erase,
    free_vars,
    fresh_name,
    fresh_nominal,
    kind_arg_arities,
    names_in,
    nominals_in,
)
from lfport.parse import ParseError, _parse_formula, _parse_whole, _position, _tokenize
from lfport.oracle import candidate_types
from lfport.pretty import _binder, fmt_formula
from lfport.schema import (
    BlockSchema,
    ContextSchema,
    NonPatternSchema,
    block_instance,
    block_scope,
    check_schema,
    min_term_size,
    term_pool,
)
from lfport.subord import type_leq
from test_schema import _capture_cases, _instantiated, _perturbed
from test_subsume import _BLOCK_NAMES, _random_block
from util import a, at, ce, lam, nom, pi, quantify, random_formula


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


def ref_term_names(f, names=()):
    match f:
        case Holds(ctx, term, ty):
            parts = (term, ty, *(t for _, t in ctx.bindings))
            return set().union(*(names_in(_open_named(e, names)) for e in parts))
        case ForallTm(v, _, body) | ExistsTm(v, _, body):
            return {v} | ref_term_names(body, (v,) + names)
        case ForallCtx(_, _, body):
            return ref_term_names(body, names)
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            return ref_term_names(l, names) | ref_term_names(r, names)
    return set()


def ref_free_names(f):
    """The free term names of `f`, walking all of its atoms."""
    subs = lfport.formula._subformulas(f)
    return {n for h in subs if isinstance(h, Holds) for e in lfport.formula._lf_parts(h)
            for n in free_vars(e)}


def ref_ctx_heads(f):
    return {h.ctx.head for h in lfport.formula._subformulas(f) if isinstance(h, Holds)}


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


def ref_pool_heads(sig, nominals, extra_heads):
    heads = [(d.name, erase(d.type)) for d in sig.decls if isinstance(d, TermDecl)]
    heads.extend(extra_heads)
    for k in range(1, nominals + 1):
        heads.append((Nominal(O, k), O))
    return tuple(heads)


def ref_compositions(total, mins):
    if len(mins) == 1:
        if total >= mins[0]:
            yield (total,)
        return
    rest_min = sum(mins[1:])
    for first in range(mins[0], total - rest_min + 1):
        for rest in ref_compositions(total - first, mins[1:]):
            yield (first,) + rest


@functools.lru_cache(maxsize=1024)
def ref_pool_exact(heads, arity, size, scope):
    out = []
    if isinstance(arity, Arrow):
        if size >= 2:
            var = f"x{len(scope) + 1}"
            for body in ref_pool_exact(heads, arity.right, size - 1, scope + (arity.left,)):
                out.append(Lam(var, body))
    else:
        bound = [(BVar(len(scope) - 1 - i), ar) for i, ar in enumerate(scope)]
        for head, har in list(heads) + bound:
            want = arity_args(har)
            need = size - 1
            if not want:
                if need == 0:
                    out.append(Atom(head))
                continue
            mins = [min_term_size(a) for a in want]
            if sum(mins) > need:
                continue
            for split in ref_compositions(need, mins):
                for combo in itertools.product(
                    *(ref_pool_exact(heads, a, s, scope) for a, s in zip(want, split))
                ):
                    out.append(Atom(head, combo))
    return tuple(out)


def ref_term_pool(sig, arity, size_max, nominals=0, extra_heads=()):
    heads = ref_pool_heads(sig, nominals, extra_heads)
    sizes = range(1, size_max + 1)
    return tuple(t for size in sizes for t in ref_pool_exact(heads, arity, size, ()))


def ref_candidate_types(sig, ctx, size_max, cap=None):
    extra = tuple((b, erase(ty)) for b, ty in ctx.bindings if isinstance(b, Nominal))
    heads = ref_pool_heads(sig, 0, extra)
    out = []
    for d in sig.decls:
        if not isinstance(d, TypeDecl):
            continue
        arg_ars = kind_arg_arities(d.kind)
        if not arg_ars:
            out.append(AtomicType(d.name))
            continue
        mins = [min_term_size(a) for a in arg_ars]
        for total in range(sum(mins), size_max):
            for split in ref_compositions(total, mins):
                pools = [ref_pool_exact(heads, ar, s, ()) for ar, s in zip(arg_ars, split)]
                for combo in itertools.product(*pools):
                    out.append(AtomicType(d.name, combo))
                    if cap is not None and len(out) >= cap:
                        return out
    return out


def ref_solve_param(param, spine, tgt, solution):
    images = {}
    for arg in spine:
        if not isinstance(arg, Atom) or arg.args:
            raise NonPatternSchema(f"parameter {param} applied to a non-variable argument")
        if not isinstance(arg.head, (Nominal, BVar)):
            raise NonPatternSchema(f"parameter {param} applied to the free name {arg.head}")
        images.setdefault(arg.head, len(images))
    if len(images) != len(spine):
        raise NonPatternSchema(f"parameter {param} applied to repeated arguments")
    n = len(spine)
    captured = False

    def abstract(h, d):
        nonlocal captured
        if isinstance(h, BVar):
            if h.index < d:
                return h
            h = BVar(h.index - d)
            captured = captured or h not in images
        if h in images:
            return BVar(d + n - 1 - images[h])
        return h

    candidate = _map_heads(tgt, abstract)
    if captured:
        return False
    for k in range(n, 0, -1):
        candidate = Lam(f"w{k}", candidate)
    if param in solution:
        return solution[param] == candidate
    solution[param] = candidate
    return True


def ref_match_type(pat, tgt, params, solution):
    match pat, tgt:
        case (PiType(_, d1, b1), PiType(_, d2, b2)):
            return ref_match_type(d1, d2, params, solution) and ref_match_type(
                b1, b2, params, solution
            )
        case (AtomicType(h1, a1), AtomicType(h2, a2)):
            if h1 != h2 or len(a1) != len(a2):
                return False
            return all(ref_match_term(p, t, params, solution) for p, t in zip(a1, a2))
    return False


def ref_match_term(pat, tgt, params, solution):
    match pat:
        case Atom(h, args) if h in params:
            return lfport.schema._solve_param(h, args, tgt, solution)
        case Atom(h, args):
            if not isinstance(tgt, Atom) or h != tgt.head or len(args) != len(tgt.args):
                return False
            return all(
                ref_match_term(p, t, params, solution) for p, t in zip(args, tgt.args)
            )
        case Lam(_, b1):
            return isinstance(tgt, Lam) and ref_match_term(b1, tgt.body, params, solution)
    raise TypeError(f"not a term: {pat!r}")


def ref_derive_renaming(src, tgt, tgt_vars, src_vars, mapping):
    match src, tgt:
        case (PiType(_, d1, b1), PiType(_, d2, b2)):
            return ref_derive_renaming(d1, d2, tgt_vars, src_vars, mapping) and \
                ref_derive_renaming(b1, b2, tgt_vars, src_vars, mapping)
        case (AtomicType(h1, a1), AtomicType(h2, a2)):
            if h1 != h2 or len(a1) != len(a2):
                return False
            return all(
                ref_derive_renaming_term(p, t, tgt_vars, src_vars, mapping)
                for p, t in zip(a1, a2)
            )
    return False


def ref_derive_renaming_term(src, tgt, tgt_vars, src_vars, mapping):
    match src, tgt:
        case (Atom(h1, a1), Atom(h2, a2)):
            if len(a1) != len(a2):
                return False
            if h2 in tgt_vars:
                if h1 not in src_vars or mapping.setdefault(h2, h1) != h1:
                    return False
            elif h1 != h2 or h1 in src_vars:
                return False
            return all(
                ref_derive_renaming_term(p, t, tgt_vars, src_vars, mapping)
                for p, t in zip(a1, a2)
            )
        case (Lam(_, b1), Lam(_, b2)):
            return ref_derive_renaming_term(b1, b2, tgt_vars, src_vars, mapping)
    return False


def ref_binder(hint, body, scope):
    name = hint
    if hint in scope or hint in free_vars(body):
        name = fresh_name(hint, {*scope, *names_in(body)})
    return name, (name,) + scope


def ref_quantifier_name(g, path, free):
    # `free`: the printer's free names of the whole formula, or the
    # parser's () for a parsed body
    v = g.var
    if v not in path and v not in free:
        return v
    if isinstance(g, ForallCtx):
        subs = list(lfport.formula._subformulas(g.body))
        shown = {h.ctx.head for h in subs if isinstance(h, Holds)}
        mentioned = shown | {h.var for h in subs if isinstance(h, ForallCtx)}
    else:
        shown = () if v in path else ref_free_names(g.body)
        mentioned = lfport.formula._term_names(g.body)
    if v in path or v in shown:
        return fresh_name(v, {*path, *mentioned})
    return v


def ref_printer_free(f):
    """The `free` that the old `fmt_formula` passed down: the free names of
    the whole formula, of both kinds."""
    subs = lfport.formula._subformulas(f)
    return ref_free_names(f) | {h.ctx.head for h in subs if isinstance(h, Holds)}


def ref_block_patterns(block, bindings):
    # None where `block_instance` gave up before matching
    theta, patterns = {}, []
    for (y, ty), (n, _) in zip(block.decl, bindings):
        if erase(ty) != n.arity:
            return None
        patterns.append(apply_subst(ty, theta))
        theta[y] = (Atom(n), erase(ty))
    return patterns


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
        # on every subformula: an index bound inside it names a hint the fold
        # adds anyway, and a dangling one adds no name
        for g in lfport.formula._subformulas(f):
            assert lfport.formula._term_names(g) == ref_term_names(g)
            assert g._shown == (ref_free_names(g), ref_ctx_heads(g))
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


# The token pattern whose identifier alternated per character.
OLD_WORD = r"\|-|->|=>|:=|/\\|\\/|[{}()\[\]:,.|]|[A-Za-z](?:[A-Za-z0-9_']|-(?!>))*"


def test_tokenizer_matches_the_per_character_identifier_pattern(monkeypatch):
    import re

    pieces = ["-", "->", "-->", "'", "_", "0", "7", "a", "Z", "n1", "x-y", " ", "\n",
              "% c-\n", "%", "!", "é", ">", ".", ":=", "(", "|-", "\t"]
    rng = random.Random(12)
    texts = ["".join(rng.choice(pieces) for _ in range(rng.randrange(16))) for _ in range(20000)]
    new = [_outcome(_tokenize, text) for text in texts]
    monkeypatch.setattr(lfport.parse, "_WORD", re.compile(OLD_WORD))
    monkeypatch.setattr(
        lfport.parse,
        "_TOKEN",
        re.compile(rf"({OLD_WORD}|.+){lfport.parse._SKIP.pattern}", re.DOTALL),
    )
    assert [_outcome(_tokenize, text) for text in texts] == new
    tokens = {t for got in new if got[0] == "ok" for t in got[1]}
    assert {"a-", "a-'", "x-y-", "Z--"} <= tokens
    assert any(got[0] == "raised" for got in new)


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


# ---------------------------------------------------------------------------
# Argument spines, shared by the term pools and the candidate types.


def test_term_pool_matches_the_old_loop(sig_size, sig_stlc):
    extras = ((), ((nom(1), O), (Nominal(Arrow(O, O), 2), Arrow(O, O))))
    arities = (O, Arrow(O, O), Arrow(Arrow(O, O), O), Arrow(O, Arrow(O, O)))
    for sig in (sig_size, sig_stlc):
        for extra, nominals, ar in itertools.product(extras, (0, 1), arities):
            want = ref_term_pool(sig, ar, 5, nominals, extra)
            assert term_pool(sig, ar, 5, nominals, extra) == want
            heads = ref_pool_heads(sig, nominals, extra)
            for size in range(1, 6):
                got = lfport.schema.term_pool_exact(sig, ar, size, nominals, extra)
                assert got == ref_pool_exact(heads, ar, size, ())


def test_candidate_types_match_the_old_loop_at_every_cap(sig_size, sig_stlc):
    contexts = (LFContext(), LFContext(((nom(1), at("tm")),)))
    nullary_past_cap = 0
    for sig, ctx in itertools.product((sig_size, sig_stlc), contexts):
        for size_max in range(1, 6):
            want = ref_candidate_types(sig, ctx, size_max)
            assert candidate_types(sig, ctx, size_max) == want
            for cap in range(1, len(want) + 1):
                got = candidate_types(sig, ctx, size_max, cap)
                assert got == ref_candidate_types(sig, ctx, size_max, cap)
                nullary_past_cap += len(got) > cap
    # a nullary type appended at the cap does not end the list
    assert nullary_past_cap


# ---------------------------------------------------------------------------
# The pattern spine rule, shared by check_schema and block_instance.


_CLOSED = (a("z"), a("s", a("z")), a("app", a("z"), a("z")), a("b"))


def _random_spine_block(rng):
    """A block whose declarations apply its parameters of one to three
    arguments to spines of bare variables, non-variables, constants,
    parameters, earlier declaration variables and nominals, some with a
    repeated argument and some under a binder; and a segment of its shape,
    with a closed term or a bound variable for each parameter occurrence."""
    params = (
        ("P", Arrow(O, O)),
        ("Q", Arrow(O, Arrow(O, O))),
        ("R", Arrow(O, Arrow(O, Arrow(O, O)))),
        ("T", O),
    )
    decl, segment = [("x", at("tm"))], [(nom(1), at("tm"))]

    def slot(under):
        """A pattern for an argument of `of`, and a target for it."""
        if rng.random() < 0.3:
            t = rng.choice(_CLOSED)
            return t, t
        args = [a(y) for y, _ in decl] + [a("z"), a("s", a("z")), a("T"), a(nom(7))]
        bound = (a(BVar(0)),) if under else ()
        head = rng.choice("PQR")
        spine = [rng.choice(args + list(bound)) for _ in range("PQR".index(head) + 1)]
        if len(spine) > 1 and rng.random() < 0.3:
            spine[1] = spine[0]
        return a(head, *spine), rng.choice(_CLOSED + bound)

    for k in range(rng.randint(1, 3)):
        under = rng.random() < 0.4
        (pat, tgt), (pat2, tgt2) = slot(under), slot(False)
        if under:
            pat, tgt = a("lam", Lam("w", pat)), a("lam", Lam("w", tgt))
        decl.append((f"y{k}", at("of", pat, pat2)))
        segment.append((nom(k + 2), at("of", tgt, tgt2)))
    return BlockSchema(params, tuple(decl)), tuple(segment)


def test_the_pattern_spine_rule_matches_the_two_old_checks(sig_stlc, monkeypatch):
    rng = random.Random(31)
    cases = [_random_spine_block(rng) for _ in range(400)]
    new = [
        (_outcome(check_schema, sig_stlc, ContextSchema((block,))),
         _outcome(block_instance, sig_stlc, block, segment))
        for block, segment in cases
    ]
    monkeypatch.setattr(lfport.schema, "_check_patterns", ref_check_patterns)
    monkeypatch.setattr(lfport.schema, "_solve_param", ref_solve_param)
    old = [
        (_outcome(check_schema, sig_stlc, ContextSchema((block,))),
         _outcome(block_instance, sig_stlc, block, segment))
        for block, segment in cases
    ]
    assert new == old
    raised = {out[2] for pair in new for out in pair if out[0] == "raised"}
    assert {m.split(" applied to ")[1].split()[0] for m in raised} == {"a", "the", "repeated"}
    # some blocks pass the check, and some segments match
    assert any(c == ("ok", None) for c, _ in new) and any(i[0] == "ok" and i[1] for _, i in new)


# ---------------------------------------------------------------------------
# One in-step walker for the two declaration-type matchers.


def _compare_in_groups(new, ref, groups, kinds):
    """Run each call of a group on `new` and on `ref`, each side with one
    dict the group's calls share, and compare the outcome and the dict,
    entries in order, after every call.  Adds to `kinds` whether each
    call succeeded and whether it wrote to the dict."""
    for group in groups:
        d_new, d_ref = {}, {}
        for args in group:
            before = len(d_ref)
            out = _outcome(new, *args, d_new)
            assert out == _outcome(ref, *args, d_ref), args
            assert list(d_new.items()) == list(d_ref.items()), args
            kinds.add((out, len(d_ref) > before))


def _with_compounds(rng, types, others):
    """`types` and `others` (as long), each followed by a few Pi types over
    pairs of its types and a few `of` types over pairs of its types'
    arguments, taken at the same positions on both sides."""
    types, others = list(types), list(others)
    args = [
        pair
        for s, t in zip(types, others)
        if isinstance(s, AtomicType) and isinstance(t, AtomicType)
        for pair in zip(s.args, t.args)
    ]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(len(types)), rng.randrange(len(types))
        types.append(PiType("w", types[i], types[j]))
        others.append(PiType("w", others[i], others[j]))
        if args:
            (s1, t1), (s2, t2) = rng.choice(args), rng.choice(args)
            types.append(AtomicType("of", (s1, s2)))
            others.append(AtomicType("of", (t1, t2)))
    return types, others


def _renaming_groups(rng, count):
    """Declaration types of random blocks against those of another random
    block, of a renamed copy, or of a renamed copy with one type perturbed:
    each pair alone, and the pairs of an alignment of the two in order."""
    names = _BLOCK_NAMES + ("F", "H")
    for _ in range(count):
        source = _random_block(rng, rng.randint(1, 4))
        how = rng.randrange(3)
        if how == 0:
            target = _random_block(rng, len(source.decl))
        else:
            perm = dict(zip(names, rng.sample(names, len(names))))
            target = lfport.subsume.make_variant(perm, source)
        tdecl = target.decl
        if how == 2:
            terms = [a(y) for y in block_scope(target)] + list(_CLOSED)
            tdecl = _perturbed(rng, tdecl, [tdecl], terms)
        stys, ttys = _with_compounds(
            rng, [ty for _, ty in source.decl], [ty for _, ty in tdecl]
        )
        scopes = (block_scope(target), block_scope(source))
        yield [(s, t, *scopes) for s, t in zip(stys, ttys)]
        yield from ([(s, t, *scopes)] for s in stys for t in ttys)


def _pattern_groups(sig, rng, count):
    """Block patterns against the segments of random pool terms and
    against perturbed segments, each with its compound types: in order,
    and each pair alone."""
    pools = {O: term_pool(sig, O, 2, 1), Arrow(O, O): term_pool(sig, Arrow(O, O), 3, 1)}
    for _ in range(count):
        block = _random_block(rng, rng.randint(1, 4))
        noms = []
        for _, ty in block.decl:
            noms.append(fresh_nominal(erase(ty), {nom(1), *noms}))
        params = dict(block.params)
        segments = [
            _instantiated(block, noms, [rng.choice(pools[ar]) for _, ar in block.params])
            for _ in range(3)
        ]
        terms = list(pools[O]) + [a(n) for n in noms if n.arity == O]
        segments.append(_perturbed(rng, segments[0], segments, terms))
        for segment in segments:
            pats, ttys = _with_compounds(
                rng, ref_block_patterns(block, segment), [ty for _, ty in segment]
            )
            yield [(p, t, params) for p, t in zip(pats, ttys)]
            yield from ([(p, t, params)] for p in pats for t in ttys)


def test_the_in_step_walker_matches_the_two_pairs_of_old_walkers(sig_stlc):
    rng = random.Random(47)
    renaming, patterns = set(), set()
    _compare_in_groups(
        lfport.subsume._derive_renaming,
        ref_derive_renaming,
        _renaming_groups(rng, 300),
        renaming,
    )
    _compare_in_groups(
        lfport.schema._match_type, ref_match_type, _pattern_groups(sig_stlc, rng, 300), patterns
    )
    capture = [(pat, tgt, {"F": Arrow(O, O)}) for pat, tgt, _ in _capture_cases()]
    _compare_in_groups(
        lfport.schema._match_type,
        ref_match_type,
        [capture[:7], capture[7:], *([c] for c in capture)],
        patterns,
    )
    # each side has calls that succeed, fail before any write, and fail
    # after writing
    for kinds in (renaming, patterns):
        assert {(("ok", True), True), (("ok", False), False), (("ok", False), True)} <= kinds


# ---------------------------------------------------------------------------
# One priming rule for every printed binder, and a block's patterns as its
# instance.


def _lf_binders(e, scope=()):
    """Each binder of `e` as the printer meets it, with its hint, its body
    and the names in scope above it; a body's scope adds the name
    `ref_binder` gives."""
    match e:
        case Atom(_, args) | AtomicType(_, args):
            for arg in args:
                yield from _lf_binders(arg, scope)
        case Lam(var, body) | PiType(var, _, body) | PiKind(var, _, body):
            if not isinstance(e, Lam):
                yield from _lf_binders(e.domain, scope)
            yield var, body, scope
            yield from _lf_binders(body, ref_binder(var, body, scope)[1])


def _quantifiers(f, name, names=(), cnames=()):
    """Each quantifier of `f` with the names of the enclosing quantifiers of
    its kind, innermost first, as `name(g, path)` gives them; and each atom
    with the names of the term quantifiers above it."""
    match f:
        case ForallTm() | ExistsTm():
            yield f, names
            yield from _quantifiers(f.body, name, (name(f, names),) + names, cnames)
        case ForallCtx():
            yield f, cnames
            yield from _quantifiers(f.body, name, names, (name(f, cnames),) + cnames)
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            yield from _quantifiers(l, name, names, cnames)
            yield from _quantifiers(r, name, names, cnames)
        case Holds():
            yield f, names


def _compare_binders(e, scope, primed):
    """Compare both LF rules on every binder of `e` under `scope`; add each
    binder's ("LF", hint, name) to `primed` where the name is not the
    hint."""
    for hint, body, sc in _lf_binders(e, scope):
        got = _binder(hint, body, sc)
        assert got == ref_binder(hint, body, sc), (e, hint, sc)
        if got[0] != hint:
            primed.add(("LF", hint, got[0]))


def _compare_names(f, free, primed):
    """Compare both rules on every binder of `f` as printed, the old
    quantifier rule with `free`; add each binder's (kind, hint, name) to
    `primed` where the name is not the hint."""
    name = lambda g, path: ref_quantifier_name(g, path, free)
    for g, path in _quantifiers(f, name):
        if isinstance(g, Holds):
            for e in lfport.formula._lf_parts(g):
                _compare_binders(e, path, primed)
            continue
        got = lfport.formula._quantifier_name(g, path)
        assert got == name(g, path), (f, g.var, path)
        if got != g.var:
            primed.add((type(g).__name__, g.var, got))


def _api_formulas(cs):
    """Formulas built through the API whose quantifier hints are free names
    their bodies show, beside primed names: the old rule's `free` case."""
    n_atom = Holds(ce(), a("app", a("N"), a("N'")), at("tm"))
    g_atom = Holds(ce(head="G"), a("z"), at("nat"))
    inner_g = ForallCtx("G'", cs, Holds(ce(head=BVar(0)), a("z"), at("nat")))
    return [
        ForallTm("N", O, n_atom),
        quantify(ForallTm, "N", O, ExistsTm("N", O, n_atom)),
        ForallCtx("G", cs, Conj(g_atom, inner_g)),
        quantify(ForallCtx, "G", cs, ForallCtx("G", cs, Conj(g_atom, inner_g))),
        Holds(ce(), lam("y", a("app", a("y"), a("y'"))), pi("z", at("tm"), at("tm"))),
    ]


def test_one_priming_rule_names_every_binder_as_the_two_old_rules(
    lf_exprs, schemas_size, schemas_stlc
):
    # LF binders: every fold input, every block type under its block's
    # scope, the shadowing binders of test_printer_primes_a_shadowing_binder
    # and API-built terms whose hint is a free name their body shows.
    primed: set = set()
    shadowing = lfport.parse.parse_term_text("[y] [y] app y y")
    exprs = [(e, ()) for e in lf_exprs] + [(shadowing, ()), (shadowing, ("y",))]
    for schemas in (schemas_size, schemas_stlc):
        for cs in schemas.values():
            exprs += [(ty, block_scope(b)) for b in cs.blocks for _, ty in b.decl]
    exprs += [
        (Lam("y", a("app", a("y"), a("y'"))), ()),
        (lam("y", Lam("y", a("app", a("y"), a("y'")))), ()),
        (pi("x", at("tm"), at("size", a("x"), a("x'"))), ("x",)),
    ]
    for e, scope in exprs:
        _compare_binders(e, scope, primed)
    assert {("LF", "y", "y'"), ("LF", "y", "y''"), ("LF", "x", "x''")} <= primed
    # Quantifiers and the LF binders of atoms: random and API-built
    # formulas as the printer named them (with its `free`), and the same
    # random formulas as parsed before their hints are chosen (no free
    # names, so the parser passed none).
    api = _api_formulas(schemas_size["Csize"])
    random_formulas = list(_random_formulas(schemas_size))
    for f in random_formulas + api:
        _compare_names(f, ref_printer_free(f), primed)
    for f in random_formulas:
        text = fmt_formula(f)
        _, parsed = _parse_whole(text, lambda p: _parse_formula(p, schemas_size))
        _compare_names(parsed, (), primed)
    for kind, hint, name in (
        ("ForallTm", "N", "N''"), ("ExistsTm", "N", "N''"), ("ForallCtx", "G", "G''"),
        ("LF", "y", "y''"), ("ForallTm", "z", "z'"), ("ForallCtx", "G", "G'"),
    ):
        assert (kind, hint, name) in primed


def test_block_instance_matches_the_old_patterns(sig_stlc, monkeypatch):
    # The random blocks of the brute-force instance test against their
    # segments, a perturbed segment and a segment whose first nominal has
    # another arity: each pattern `block_instance` matches is the old
    # loop's, and it matches all of them on an instance.
    pools = {O: term_pool(sig_stlc, O, 2, 1), Arrow(O, O): term_pool(sig_stlc, Arrow(O, O), 3, 1)}
    matched = []
    match = lfport.schema._match_type
    monkeypatch.setattr(
        lfport.schema, "_match_type", lambda pat, *rest: matched.append(pat) or match(pat, *rest)
    )
    rng = random.Random(29)
    outcomes = set()
    for _ in range(150):
        block = _random_block(rng, rng.randint(1, 4))
        noms = []
        for _, ty in block.decl:
            noms.append(fresh_nominal(erase(ty), {nom(1), *noms}))
        segments = [
            _instantiated(block, noms, [rng.choice(pools[ar]) for _, ar in block.params])
            for _ in range(3)
        ]
        terms = list(pools[O]) + [a(n) for n in noms if n.arity == O]
        segments.append(_perturbed(rng, segments[0], segments, terms))
        (n, ty), *rest = segments[0]
        other = nom(n.index, O if n.arity != O else Arrow(O, O))
        segments.append(((other, ty), *rest))
        for segment in segments:
            matched.clear()
            out = block_instance(sig_stlc, block, segment)
            want = ref_block_patterns(block, segment)
            assert matched == (want or [])[: len(matched)], (block, segment)
            if out is not None:
                assert len(matched) == len(want)
            outcomes.add((out is not None, want is None))
    assert outcomes == {(True, False), (False, False), (False, True)}
