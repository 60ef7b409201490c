"""Subsumption: type-by-formula subordination, context and schema
subsumption, variants, validity analysis, transport checking."""

import itertools
import random

import pytest

from lfport import (
    Arrow,
    Atom,
    Bot,
    BlockSchema,
    ContextSchema,
    CtxExpr,
    Holds,
    LFContext,
    O,
    Top,
    apply_subst,
    block_instance,
    block_subsumes,
    ce_subsumes,
    check_context,
    check_schema,
    make_variant,
    minimize,
    prune_ok,
    schema_subsumes,
    tf_subord,
    transport_check,
    transport_witness,
)
from lfport.lf import LFError, UnknownConstant, erase, free_vars
from lfport.parse import parse_schemas
from lfport.subord import head_constant, type_leq
from lfport.schema import enumerate_instances
import lfport.subsume
from lfport.subsume import (
    BlockMatch,
    DropRecord,
    SearchCapExceeded,
    TransportCertificate,
    TransportFailure,
    _val_deriv,
)
from util import a, at, ce, nom, pi, quantify

B_EMPTY = BlockSchema((), ())
B_SIZE = BlockSchema((), (("x", at("tm")), ("y", at("size", a("x"), a("s", a("z"))))))
C_EMPTY = ContextSchema((B_EMPTY,))
C_SIZE = ContextSchema((B_SIZE,))

SIZE_BINDINGS = (
    (nom(1), at("tm")),
    (nom(2), at("size", a(nom(1)), a("s", a("z")))),
)


# ---------------------------------------------------------------------------
# Fig. 4: subordination of a type by a formula.


def test_tf_subord_nat_in_plus_formula(rel_size, plus_body):
    assert tf_subord(rel_size, at("nat"), plus_body, "G")


def test_tf_subord_tm_not_in_plus_formula(rel_size, plus_body):
    assert not tf_subord(rel_size, at("tm"), plus_body, "G")
    size_ty = at("size", a("x"), a("s", a("z")))
    assert not tf_subord(rel_size, size_ty, plus_body, "G")


def test_tf_subord_explicit_bindings_unconditional(rel_size):
    f = Holds(ce((nom(1), at("tm")), head="G"), a("M"), at("nat"))
    assert tf_subord(rel_size, at("tm"), f, "G")


def test_tf_subord_other_context_variable(rel_size):
    f = Holds(ce(head="H"), a("M"), at("nat"))
    assert not tf_subord(rel_size, at("nat"), f, "G")


# ---------------------------------------------------------------------------
# Fig. 5: context expression subsumption.


def test_ce_subsumes_drops_size_block(rel_size, plus_body):
    assert ce_subsumes(rel_size, "G", (), SIZE_BINDINGS, plus_body)


def test_ce_subsumes_reflexive(rel_size, plus_body):
    for bindings in ((), SIZE_BINDINGS):
        assert ce_subsumes(rel_size, "G", bindings, bindings, plus_body)


def test_ce_subsumes_cannot_drop_nat(rel_size, plus_body):
    assert not ce_subsumes(rel_size, "G", (), ((nom(1), at("nat")),), plus_body)


def test_ce_subsumes_match_and_drop_interleaved(rel_size, plus_body):
    small = ((nom(3), at("nat")),)
    big = (
        (nom(1), at("tm")),
        (nom(3), at("nat")),
        (nom(2), at("size", a(nom(1)), a("s", a("z")))),
    )
    assert ce_subsumes(rel_size, "G", small, big, plus_body)
    assert not ce_subsumes(rel_size, "G", (), big, plus_body)


# ---------------------------------------------------------------------------
# Fig. 6: pruning relative to a schema.


def test_prune_vacuous_for_empty_schema(rel_size):
    decl = (("x", at("tm")), ("y", at("size", a("x"), a("s", a("z")))))
    assert prune_ok(rel_size, C_EMPTY, (), decl)


def test_prune_blocked_by_schema_types(rel_size):
    decl = (("x", at("tm")), ("y", at("size", a("x"), a("s", a("z")))))
    assert not prune_ok(rel_size, C_SIZE, (), decl)


def test_prune_reflexive(rel_size):
    decl = (("x", at("tm")), ("y", at("size", a("x"), a("s", a("z")))))
    assert prune_ok(rel_size, C_SIZE, decl, decl)


# ---------------------------------------------------------------------------
# ce_subsumes and prune_ok share one embedding search; the two recursive
# searches they used to carry are kept here as references.


def _ce_subsumes_by_search(rel, gamma, small, big, f):
    small = tuple(small)
    big = tuple(big)

    def go(i, j):
        if j == 0:
            return i == 0
        name, ty = big[j - 1]
        if (
            i > 0
            and small[i - 1] == (name, ty)
            and go(i - 1, j - 1)
        ):
            return True
        return (not tf_subord(rel, ty, f, gamma)) and go(i, j - 1)

    return go(len(small), len(big))


def _prune_ok_by_search(rel, schema, small, big):
    small = tuple(small)
    big = tuple(big)
    schema_types = [ty for block in schema.blocks for _, ty in block.decl]

    def droppable(ty):
        return all(not type_leq(rel, ty, other) for other in schema_types)

    def go(i, j):
        if j == 0:
            return i == 0
        name, ty = big[j - 1]
        if (
            i > 0
            and small[i - 1] == (name, ty)
            and go(i - 1, j - 1)
        ):
            return True
        return droppable(ty) and go(i, j - 1)

    return go(len(small), len(big))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LFError as err:
        return type(err)


# Declaration types of the fixtures, an alpha-variant pair, and a type
# constant the relation does not cover (type_leq raises UnknownConstant).
_EMBED_TYPES = (
    at("tm"),
    at("nat"),
    at("tp"),
    at("size", a("x"), a("s", a("z"))),
    at("of", a("x"), a("T")),
    pi("u", at("tm"), at("size", a("u"), a("z"))),
    pi("w", at("tm"), at("size", a("w"), a("z"))),
)


def _random_embedding(rng):
    # Few names and types per case, so that bindings repeat and the search
    # backtracks between matching and dropping.
    names = rng.choice(("x", "xy", "xyz"))
    types = rng.sample(_EMBED_TYPES, rng.randint(1, 3))

    def binding():
        ty = at("ghost") if rng.random() < 0.02 else rng.choice(types)
        return (rng.choice(names), ty)

    big = [binding() for _ in range(rng.randint(0, 8))]
    small = [b for b in big if rng.random() < 0.6]
    if small and rng.random() < 0.3:
        small[rng.randrange(len(small))] = binding()
    return small, big


def test_embedding_search_matches_the_recursive_searches(
    rel_stlc, schemas_stlc, plus_body, of_exists_body
):
    rng = random.Random(20)
    outcomes = set()
    for _ in range(1500):
        small, big = _random_embedding(rng)
        for f in (plus_body, of_exists_body):
            want = _outcome(_ce_subsumes_by_search, rel_stlc, "G", small, big, f)
            assert _outcome(ce_subsumes, rel_stlc, "G", small, big, f) == want
            outcomes.add(want)
        for cs in schemas_stlc.values():
            want = _outcome(_prune_ok_by_search, rel_stlc, cs, small, big)
            assert _outcome(prune_ok, rel_stlc, cs, small, big) == want
            outcomes.add(want)
    assert outcomes == {True, False, UnknownConstant}


# ---------------------------------------------------------------------------
# Variants.


def test_variant_identity():
    assert make_variant({}, B_SIZE) == B_SIZE


def test_variant_renames_decl_vars():
    perm = {"x": "u", "y": "v", "u": "x", "v": "y"}
    out = make_variant(perm, B_SIZE)
    assert out == BlockSchema(
        (), (("u", at("tm")), ("v", at("size", a("u"), a("s", a("z")))))
    )


def test_variant_renames_parameters():
    b_of = BlockSchema((("T", O),), (("x", at("tm")), ("y", at("of", a("x"), a("T")))))
    out = make_variant({"T": "S", "S": "T"}, b_of)
    assert out == BlockSchema(
        (("S", O),), (("x", at("tm")), ("y", at("of", a("x"), a("S"))))
    )


def test_variant_preserves_well_formedness(sig_stlc, schemas_stlc):
    # Thm: variants of well-formed block schemas stay well-formed.
    rng = random.Random(7)
    blocks = [b for cs in schemas_stlc.values() for b in cs.blocks]
    names = sorted({v for b in blocks for v, _ in list(b.params) + list(b.decl)})
    pool = names + ["u1", "u2", "u3"]
    for _ in range(50):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        perm = dict(zip(pool, shuffled))
        for block in blocks:
            check_schema(sig_stlc, ContextSchema((make_variant(perm, block),)))


def test_variant_preserves_instances(sig_stlc, schemas_stlc):
    # Thm: block instance verdicts agree between a schema and its variants.
    rng = random.Random(11)
    blocks = [b for cs in schemas_stlc.values() for b in cs.blocks]
    segments = []
    for cs in schemas_stlc.values():
        for g in enumerate_instances(sig_stlc, cs, 1, 2):
            if g.bindings:
                segments.append(g.bindings)
    names = sorted({v for b in blocks for v, _ in list(b.params) + list(b.decl)})
    pool = names + ["u1", "u2"]
    for _ in range(50):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        perm = dict(zip(pool, shuffled))
        for block in blocks:
            variant = make_variant(perm, block)
            for segment in segments:
                before = block_instance(sig_stlc, block, segment) is not None
                after = block_instance(sig_stlc, variant, segment) is not None
                assert before == after


# ---------------------------------------------------------------------------
# Fig. 7: block and schema subsumption.


def test_block_subsumes_into_empty_source(rel_size, plus_body):
    m = block_subsumes(rel_size, B_SIZE, plus_body, "G", C_EMPTY)
    assert m is not None
    assert m.source_index == 0
    assert m.keep_positions == ()
    assert len(m.drops) == 2


def test_block_subsumes_nat_binding_fails(rel_size, plus_body):
    target = BlockSchema((), (("x", at("nat")),))
    assert block_subsumes(rel_size, target, plus_body, "G", C_EMPTY) is None


def test_block_subsumes_reflexive(rel_size, plus_body):
    m = block_subsumes(rel_size, B_SIZE, plus_body, "G", C_SIZE)
    assert m is not None
    assert m.keep_positions == (0, 1)
    assert m.drops == ()


def test_block_subsumes_aligns_renamed_variables(rel_size, plus_body):
    renamed = BlockSchema(
        (), (("u", at("tm")), ("v", at("size", a("u"), a("s", a("z")))))
    )
    m = block_subsumes(rel_size, renamed, plus_body, "G", C_SIZE)
    assert m is not None
    assert dict(m.permutation)["u"] == "x"
    assert dict(m.permutation)["v"] == "y"


def test_schema_subsumes_empty_to_size(rel_size, plus_body):
    out = schema_subsumes(rel_size, C_EMPTY, plus_body, "G", C_SIZE)
    assert not isinstance(out, TransportFailure)


def test_schema_subsumes_fails_for_tm_formula(rel_size, tm_size_body):
    out = schema_subsumes(rel_size, C_EMPTY, tm_size_body, "G", C_SIZE)
    assert isinstance(out, TransportFailure)
    assert out.binding is not None
    assert out.binding[0] == "x"
    assert out.binding[1] == at("tm")


def test_schema_subsumes_empty_target(rel_size, plus_body):
    out = schema_subsumes(rel_size, C_SIZE, plus_body, "G", ContextSchema())
    assert out == ()


# ---------------------------------------------------------------------------
# The variant search tries one alignment per source block, the one that
# keeps exactly the undroppable bindings, renames variants by their atom
# heads, and counts the other alignments in closed form.  The reference
# below tries every alignment in turn, matching each pair afresh, builds
# each variant by hereditary substitution, and decides by the two
# embedding searches, as the search used to.


def _perm_subst(perm, arities):
    """The substitution a variable permutation induces: each moved variable
    is replaced at its assigned arity (base arity when unassigned)."""
    return {x: (Atom(z), arities.get(x, O)) for x, z in perm.items() if x != z}


def _blkctx(sig, block):
    """The arities a block schema induces: the erased signature, the
    block's parameters and the erasures of its declaration types."""
    out = dict(sig.arity_context().terms)
    out.update(dict(block.params))
    for y, ty in block.decl:
        out[y] = erase(ty)
    return out


def _variant_by_substitution(sig, perm, block):
    ps = _perm_subst(perm, _blkctx(sig, block))
    params = tuple((perm.get(x, x), ar) for x, ar in block.params)
    decl = tuple((perm.get(y, y), apply_subst(ty, ps)) for y, ty in block.decl)
    return BlockSchema(params, decl)


def _block_subsumes_by_alignment(rel, sig, target, f, gamma, source, search_cap, tried=None):
    """The per-alignment search; returns the match and the attempts made.
    Each alignment tried is appended to `tried` with the number of its
    leading entry pairs that match."""
    atom_types = lfport.subsume._gamma_atom_types(f, gamma)
    schema_types = [ty for block in source.blocks for _, ty in block.decl]
    tdecl = target.decl
    tgt_vars = {v for v, _ in target.params} | {y for y, _ in tdecl}
    attempts = 0
    for si, src in enumerate(source.blocks):
        sdecl = src.decl
        src_vars = {v for v, _ in src.params} | {y for y, _ in sdecl}
        if len(sdecl) > len(tdecl):
            continue
        for keep in itertools.combinations(range(len(tdecl)), len(sdecl)):
            attempts += 1
            if attempts > search_cap:
                raise SearchCapExceeded(
                    f"variant search exceeded {search_cap} alignment attempts"
                )
            mapping = {}
            matched = 0
            for (sy, sty), ti in zip(sdecl, keep):
                ty_name, tty = tdecl[ti]
                if not lfport.subsume._derive_renaming(
                    sty, tty, tgt_vars, src_vars, mapping
                ):
                    break
                if mapping.setdefault(ty_name, sy) != sy:
                    break
                matched += 1
            if tried is not None:
                tried.append((keep, matched))
            if matched < len(keep) or len(set(mapping.values())) != len(mapping):
                continue
            perm = lfport.subsume._close_permutation(mapping)
            variant = _variant_by_substitution(sig, perm, target)
            vdecl = variant.decl
            if sdecl != tuple(vdecl[i] for i in keep):
                continue
            if not prune_ok(rel, source, sdecl, vdecl):
                continue
            if not ce_subsumes(rel, gamma, sdecl, vdecl, f):
                continue
            drops = []
            for pos, (dv, dty) in enumerate(vdecl):
                if pos in keep:
                    continue
                h = head_constant(dty)
                formula_facts = tuple(sorted({(h, head_constant(a)) for a in atom_types}))
                schema_facts = tuple(sorted({(h, head_constant(a)) for a in schema_types}))
                drops.append(DropRecord(pos, dv, dty, formula_facts, schema_facts))
            match = BlockMatch(
                0, si, tuple(sorted(perm.items())), variant, keep, tuple(drops)
            )
            return match, attempts
    return None, attempts


class _TopLevelCalls:
    """Counts the calls of a recursive function made from outside it."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.depth = 0
        self.limit = None

    def __call__(self, *args):
        if self.depth == 0:
            self.calls += 1
            assert self.limit is None or self.calls <= self.limit, "too many calls"
        self.depth += 1
        try:
            return self.fn(*args)
        finally:
            self.depth -= 1


_BLOCK_NAMES = ("x", "y", "u", "v", "w", "x1", "y1", "T")


def _random_block(rng, size):
    # Names repeat across blocks, and types within one, so that many
    # alignments share entry pairs and renamings conflict.  A parameter of
    # arity o -> o is applied to a bare variable, as the pattern fragment
    # allows, and its name varies so that renamings move it.
    params = (("T", O),) if rng.random() < 0.4 else ()
    if rng.random() < 0.4:
        params += ((rng.choice("FH"), Arrow(O, O)),)
    higher = [v for v, ar in params if ar != O]
    names = [n for n in _BLOCK_NAMES if n not in dict(params)]
    tms = []
    decl = []
    for y in rng.sample(names, size):
        choices = [at("tm")] * 3 + [
            at("nat"),
            at("tp"),
            pi("w", at("tm"), at("size", a("w"), a("z"))),
        ]
        if tms:
            x = rng.choice(tms)
            choices += [
                at("size", a(x), a("s", a("z"))),
                at("size", a(x), a("z")),
                at("of", a(x), a("T") if ("T", O) in params else a("b")),
            ]
            if higher:
                choices += [at("size", a(higher[0], a(x)), a("z"))] * 2
        ty = rng.choice(choices)
        if ty == at("tm"):
            tms.append(y)
        decl.append((y, ty))
    return BlockSchema(params, tuple(decl))


def _long_block(rng, size):
    # A random block padded to `size` entries with closed bindings at
    # random positions, the first and the last included; whether one is
    # undroppable depends on the formula and the source schema.
    block = _random_block(rng, rng.randint(0, 5))
    decl = list(block.decl)
    pads = [at("tm"), at("nat"), at("tp"), pi("w", at("tm"), at("size", a("w"), a("z")))]
    for i in range(size - len(decl)):
        decl.insert(rng.randint(0, len(decl)), (f"p{i}", rng.choice(pads)))
    return BlockSchema(block.params, tuple(decl))


def _undroppable_by_types(rel, decl, f, gamma, source):
    """Whether each binding of a declaration is undroppable, judged type
    by type: subordinate to the formula or to a type of the source schema."""
    schema_types = [ty for block in source.blocks for _, ty in block.decl]
    return tuple(
        tf_subord(rel, ty, f, gamma) or any(type_leq(rel, ty, t) for t in schema_types)
        for _, ty in decl
    )


def _skip_kinds(tried, fixed):
    """How the search that abandons prefixes skips each tried alignment:
    at a skipped undroppable position, at a failed prefix shorter than
    the alignment, or, complete, for an undroppable position after its
    last kept one."""
    kinds = set()
    for keep, matched in tried:
        starts = (0,) + tuple(p + 1 for p in keep)
        if any(
            fixed[p]
            for k in range(min(matched + 1, len(keep)))
            for p in range(starts[k], keep[k])
        ):
            kinds.add("undroppable skipped")
        elif matched < len(keep) - 1:
            kinds.add("prefix skipped")
        elif matched == len(keep) and any(fixed[starts[-1]:]):
            kinds.add("undroppable trailing")
    return kinds


def _search_outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SearchCapExceeded:
        return SearchCapExceeded


def _subsumption_cases(sig):
    """Target blocks of 0-7 entries, then of 12-40, each with a source
    schema of 1-3 random blocks of 0-3 entries, sometimes joined by a
    renamed prefix of the target, so that alignments renaming every kind
    of variable succeed."""
    names = _BLOCK_NAMES + ("F", "H")
    for seed, count, sizes in ((4, 300, (0, 7)), (5, 40, (12, 40))):
        rng = random.Random(seed)
        for _ in range(count):
            blocks = tuple(
                _random_block(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 3))
            )
            size = rng.randint(*sizes)
            target = _random_block(rng, size) if size <= 7 else _long_block(rng, size)
            if rng.random() < 0.3:
                perm = dict(zip(names, rng.sample(names, len(names))))
                longest = len(target.decl) if size <= 7 else 3
                prefix = BlockSchema(target.params, target.decl[: rng.randint(0, longest)])
                blocks += (_variant_by_substitution(sig, perm, prefix),)
            yield target, ContextSchema(blocks)


def test_pair_table_search_matches_the_per_alignment_search(
    sig_stlc, rel_stlc, plus_body, of_exists_body, monkeypatch
):
    counter = _TopLevelCalls(lfport.subsume._derive_renaming)
    monkeypatch.setattr(lfport.subsume, "_derive_renaming", counter)
    kinds = set()

    def variant(perm, block):
        # every variant the search builds, rejected or not, is the one
        # hereditary substitution builds
        out = make_variant(perm, block)
        assert out == _variant_by_substitution(sig_stlc, perm, block)
        if any(
            ar != O and perm.get(v, v) != v and any(v in free_vars(ty) for _, ty in block.decl)
            for v, ar in block.params
        ):
            kinds.add("higher-order renamed")
        return out

    monkeypatch.setattr(lfport.subsume, "make_variant", variant)
    drop_records = lfport.subsume._drop_records

    def drops(vdecl, keep, heads, basis):
        # the search keeps exactly the undroppable bindings
        assert keep == tuple(p for p, undroppable in enumerate(fixed) if undroppable)
        return drop_records(vdecl, keep, heads, basis)

    monkeypatch.setattr(lfport.subsume, "_drop_records", drops)
    # every binding influences a gamma-atom with explicit bindings
    pinned = Holds(ce((nom(9), at("tm")), head="G"), a(nom(9)), at("tm"))
    for target, source in _subsumption_cases(sig_stlc):
        found = []
        for f in (plus_body, of_exists_body, pinned):
            args = (target, f, "G", source)
            fixed = _undroppable_by_types(rel_stlc, target.decl, f, "G", source)
            counter.calls = 0
            tried = []
            want, attempts = _block_subsumes_by_alignment(
                rel_stlc, sig_stlc, *args, 10**9, tried
            )
            parent_calls = counter.calls
            counter.calls = 0
            assert block_subsumes(rel_stlc, *args, search_cap=10**9) == want
            assert counter.calls <= parent_calls
            kinds |= _skip_kinds(tried, fixed)
            if len(target.decl) >= 12 and f is not pinned:
                kinds |= {
                    f"undroppable {end}" for end, p in (("first", 0), ("last", -1)) if fixed[p]
                }
            kinds.add(
                "none" if want is None
                else "drop" if want.drops else "keep-all"
            )
            if want is not None and len(source.blocks[want.source_index].decl) > 1:
                kinds.add("aligned")
            if f is pinned:
                # the rule refuses every drop that the other formulas allow
                assert want is None or want.drops == ()
                if any(m is not None and m.drops for m in found):
                    kinds.add("pinned")
            found.append(want)
            for cap in {0, attempts - 1, attempts, attempts + 1} - {-1}:
                # the reference counts an alignment before trying it, so it
                # raises exactly when it would try more than `cap`; it is
                # rerun where that is cheap, on the short targets
                expect = (
                    _search_outcome(
                        _block_subsumes_by_alignment, rel_stlc, sig_stlc, *args, cap
                    )
                    if len(target.decl) < 12
                    else SearchCapExceeded if cap < attempts else (want, attempts)
                )
                got = _search_outcome(block_subsumes, rel_stlc, *args, search_cap=cap)
                if expect is SearchCapExceeded:
                    kinds.add("capped")
                    assert got is SearchCapExceeded
                else:
                    assert got == expect[0]
    assert kinds == {
        "none", "drop", "keep-all", "aligned", "capped", "pinned",
        "higher-order renamed", "prefix skipped", "undroppable skipped",
        "undroppable trailing", "undroppable first", "undroppable last",
    }


def test_every_target_binding_a_source_entry_matches_is_undroppable(
    sig_stlc, rel_stlc, plus_body, of_exists_body
):
    # The lemma the search rests on: a binding that some source declaration
    # entry matches has that entry's head, which the source schema
    # declares, so subordination's reflexivity makes it undroppable.
    pinned = Holds(ce((nom(9), at("tm")), head="G"), a(nom(9)), at("tm"))
    matched = dict.fromkeys((plus_body, of_exists_body, pinned), 0)
    for target, source in _subsumption_cases(sig_stlc):
        tgt_vars = lfport.schema.block_scope(target)
        for f in matched:
            fixed = _undroppable_by_types(rel_stlc, target.decl, f, "G", source)
            for (_, ty), undroppable in zip(target.decl, fixed):
                if any(
                    lfport.subsume._derive_renaming(
                        sty, ty, tgt_vars, lfport.schema.block_scope(block), {}
                    )
                    for block in source.blocks
                    for _, sty in block.decl
                ):
                    assert undroppable
                    matched[f] += 1
    assert all(matched.values())


def _diagnose_block_by_types(rel, target, f, gamma, source):
    """The diagnosis judging each binding by its type, as it used to."""
    tgt_vars = lfport.schema.block_scope(target)
    for (var, ty), fixed in zip(
        target.decl, _undroppable_by_types(rel, target.decl, f, gamma, source)
    ):
        if fixed and not any(
            lfport.subsume._derive_renaming(
                sty, ty, tgt_vars, lfport.schema.block_scope(block), {}
            )
            for block in source.blocks
            for _, sty in block.decl
        ):
            return (var, ty)
    return None


def test_diagnosis_by_the_drop_basis_matches_the_diagnosis_by_types(
    sig_stlc, rel_stlc, plus_body, of_exists_body
):
    pinned = Holds(ce((nom(9), at("tm")), head="G"), a(nom(9)), at("tm"))
    outcomes = set()
    for target, source in _subsumption_cases(sig_stlc):
        for f in (plus_body, of_exists_body, pinned):
            want = _diagnose_block_by_types(rel_stlc, target, f, "G", source)
            assert _diagnose(rel_stlc, target, f, "G", source) == want
            outcomes.add((f is pinned, want is None))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def _diagnose(rel, target, f, gamma, source):
    basis = lfport.subsume._drop_basis(rel, f, gamma, source)
    _, keep = lfport.subsume._undroppable(basis, target.decl)
    return lfport.subsume._diagnose_block(target, source, keep)


# Names a renamed copy may take: the target blocks' names, and the term
# constants `b` and `z`, which only a parameter may be named like.
_COPY_NAMES = _BLOCK_NAMES + ("F", "H", "b", "z")


def _renamed_copy(sig, rng, block):
    """The block under a random bijective renaming of its names onto
    `_COPY_NAMES`, avoiding the constants the block mentions, so that no
    occurrence is captured."""
    scope = lfport.schema.block_scope(block)
    avoid = {h for _, ty in block.decl for h in free_vars(ty)} - set(scope)
    free = [n for n in _COPY_NAMES if n not in avoid]
    ys = rng.sample([n for n in free if n not in ("b", "z")], len(block.decl))
    ps = rng.sample([n for n in free if n not in ys], len(block.params))
    perm = dict(zip(scope, ps + ys))
    return _variant_by_substitution(sig, perm, block)


def _renamed_copy_cases(sig):
    """`_subsumption_cases` whose source schemas repeat blocks under
    renaming: each source block gets zero to two renamed copies, put
    anywhere in the schema, before their original too.  Each case comes
    with the copies it inserted."""
    rng = random.Random(6)
    for target, source in _subsumption_cases(sig):
        blocks = list(source.blocks)
        copies = []
        for block in source.blocks:
            for _ in range(rng.choice((0, 1, 1, 2))):
                copies.append(_renamed_copy(sig, rng, block))
                blocks.insert(rng.randint(0, len(blocks)), copies[-1])
        yield target, ContextSchema(tuple(blocks)), copies


def test_renamed_copies_are_searched_and_diagnosed_as_the_plain_search_does(
    sig_stlc, rel_stlc, plus_body, of_exists_body
):
    pinned = Holds(ce((nom(9), at("tm")), head="G"), a(nom(9)), at("tm"))
    kinds = set()
    for target, source, copies in _renamed_copy_cases(sig_stlc):
        check_schema(sig_stlc, source)
        if any(v in ("b", "z") for b in copies for v, _ in b.params):
            kinds.add("parameter named like a constant")
        names = set(lfport.schema.block_scope(target))
        if any(names & set(lfport.schema.block_scope(b)) for b in copies):
            kinds.add("name shared with the target")
        for f in (plus_body, of_exists_body, pinned):
            args = (target, f, "G", source)
            want, attempts = _block_subsumes_by_alignment(
                rel_stlc, sig_stlc, *args, 10**9
            )
            for cap in {0, attempts - 1, attempts, attempts + 1} - {-1}:
                got = _search_outcome(block_subsumes, rel_stlc, *args, search_cap=cap)
                assert got == (SearchCapExceeded if cap < attempts else want)
            assert _diagnose(rel_stlc, *args) == _diagnose_block_by_types(rel_stlc, *args)
            if copies:
                kinds.add("copy refused" if want is None else "copy accepted")
    assert kinds == {
        "parameter named like a constant", "name shared with the target",
        "copy refused", "copy accepted",
    }


def ref_drop_records(vdecl, keep, basis):
    """The drop records with the head and both fact tuples computed afresh
    for each drop."""
    formula_heads, schema_heads, _ = basis
    drops = []
    for pos, (var, ty) in enumerate(vdecl):
        if pos not in keep:
            h = head_constant(ty)
            drops.append(DropRecord(
                pos, var, ty,
                tuple((h, b) for b in formula_heads),
                tuple((h, b) for b in schema_heads),
            ))
    return tuple(drops)


def test_alignment_drops_match_the_records_built_per_drop(
    sig_stlc, rel_stlc, schemas_stlc, plus_body, of_exists_body, monkeypatch
):
    # every alignment the search accepts, and the replay of a certificate
    # and of one whose match keeps none of a source declaration
    drop_records = lfport.subsume._drop_records
    kinds = set()

    def checked(vdecl, keep, heads, basis):
        got = drop_records(vdecl, keep, heads, basis)
        assert got == ref_drop_records(vdecl, keep, basis)
        dropped = [head_constant(d.ty) for d in got]
        if len(set(dropped)) < len(dropped):
            kinds.add("a head dropped twice")
        kinds.add("drops" if got else "keep-all")
        if verifying:
            kinds.add("replayed")
        return got

    monkeypatch.setattr(lfport.subsume, "_drop_records", checked)
    verifying = False
    for target, source in _subsumption_cases(sig_stlc):
        for f in (plus_body, of_exists_body):
            block_subsumes(rel_stlc, target, f, "G", source, search_cap=10**9)
    size = schemas_stlc["Csize"]
    cert = transport_check(sig_stlc, rel_stlc, size, size, "G", plus_body)
    verifying = True
    assert cert.verify(sig_stlc, rel_stlc)
    wrong = BlockMatch(0, 0, (), size.blocks[0], (), ())
    bad = TransportCertificate(
        cert.gamma, cert.source, cert.target, cert.formula, (wrong,) + cert.matches[1:],
        cert.valtop,
    )
    assert not bad.verify(sig_stlc, rel_stlc)
    assert kinds == {"replayed", "drops", "keep-all", "a head dropped twice"}


def test_the_search_derives_at_most_one_renaming_per_source_entry(
    sig_stlc, rel_stlc, plus_body, monkeypatch
):
    # The source entries match only the last two of 32 target entries, so
    # every alignment but the last fails; the search derives at most one
    # renaming per source entry.
    pad = tuple((f"p{i}", at("tp")) for i in range(30))
    target = BlockSchema(
        (), pad + (("x", at("tm")), ("y", at("size", a("x"), a("s", a("z"))))),
    )
    source = parse_schemas(
        "schema C := {}(u : tm, v : size u (s z)) | {}(u : nat)."
    )["C"]
    counter = _TopLevelCalls(lfport.subsume._derive_renaming)
    monkeypatch.setattr(lfport.subsume, "_derive_renaming", counter)
    for blocks, hit in ((source.blocks, True), (source.blocks[::-1], True),
                        (source.blocks[1:], False)):
        cs = ContextSchema(blocks)
        counter.calls = 0
        counter.limit = sum(len(b.decl) for b in blocks)
        m = block_subsumes(rel_stlc, target, plus_body, "G", cs)
        assert (m is not None) == hit
        if hit:
            assert m.keep_positions == (30, 31)
            assert dict(m.permutation)["x"] == "u"


def test_a_renaming_that_merges_two_target_names_is_refused(
    sig_stlc, rel_stlc, of_exists_body
):
    # The entries match pair by pair, but the parameter T and the variable
    # t would both be renamed to v.
    schemas = parse_schemas(
        "schema S := {}(u : tm, v : tp, w : of u v)."
        " schema Tgt := {T : o}(x : tm, t : tp, y : of x T)."
    )
    for cs in schemas.values():
        check_schema(sig_stlc, cs)
    (target,) = schemas["Tgt"].blocks
    args = (target, of_exists_body, "G", schemas["S"])
    assert _block_subsumes_by_alignment(rel_stlc, sig_stlc, *args, 10**9) == (None, 1)
    assert block_subsumes(rel_stlc, *args) is None


# ---------------------------------------------------------------------------
# Fig. 8: validity under ill-formed substitutions.


def test_val_axioms():
    assert _val_deriv("G", Top(), True) is not None
    assert _val_deriv("G", Bot(), False) is not None
    assert _val_deriv("G", Bot(), True) is None
    assert _val_deriv("G", Top(), False) is None


def test_val_pos_plus_formula(plus_body):
    assert _val_deriv("G", plus_body, True) is not None


def test_val_pos_rejects_bare_atom():
    assert _val_deriv("G", Holds(ce(head="G"), a("z"), at("nat")), True) is None


def test_val_neg_atom_requires_gamma():
    assert _val_deriv("G", Holds(ce(head="G"), a("z"), at("nat")), False) is not None
    assert _val_deriv("G", Holds(ce(), a("z"), at("nat")), False) is None


# ---------------------------------------------------------------------------
# Fig. 9: the transport check and its certificate.


def test_transport_certificate_for_plus(sig_size, rel_size, plus_body):
    cert = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", plus_body)
    assert isinstance(cert, TransportCertificate)
    assert set(cert.facts()) == {
        ("tm", "nat"),
        ("tm", "plus"),
        ("size", "nat"),
        ("size", "plus"),
    }
    assert cert.verify(sig_size, rel_size)


def test_transport_fails_on_subsumption_side(sig_size, rel_size, tm_size_body):
    out = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", tm_size_body)
    assert isinstance(out, TransportFailure)
    assert out.side == "subsumption"
    assert out.binding == ("x", at("tm"))


def test_transport_identity(sig_size, rel_size, plus_body):
    cert = transport_check(sig_size, rel_size, C_SIZE, C_SIZE, "G", plus_body)
    assert isinstance(cert, TransportCertificate)
    assert cert.verify(sig_size, rel_size)


def test_transport_fails_on_validity_side(sig_size, rel_size):
    f = Holds(ce(head="G"), a("z"), at("nat"))
    out = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", f)
    assert isinstance(out, TransportFailure)
    assert out.side == "validity"


def test_transport_witness_prunes_to_empty(sig_size, rel_size, plus_body):
    cert = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", plus_body)
    assert transport_witness(sig_size, cert, ce(*SIZE_BINDINGS)) == ce()
    assert transport_witness(sig_size, cert, ce()) == ce()


def test_transport_witness_identity(sig_size, rel_size, plus_body):
    cert = transport_check(sig_size, rel_size, C_SIZE, C_SIZE, "G", plus_body)
    g = ce(*SIZE_BINDINGS)
    assert transport_witness(sig_size, cert, g) == g


def test_transport_witness_rejects_non_instance(sig_size, rel_size, plus_body):
    from lfport.subsume import SegmentationMismatch

    cert = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", plus_body)
    with pytest.raises(SegmentationMismatch):
        transport_witness(sig_size, cert, ce((nom(1), at("nat"))))


def test_tampered_certificate_fails_replay(sig_size, rel_size, plus_body):
    import dataclasses

    cert = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", plus_body)
    m = cert.matches[0]
    bad_drop = dataclasses.replace(m.drops[0], formula_facts=(("nat", "plus"),))
    bad_match = dataclasses.replace(m, drops=(bad_drop,) + m.drops[1:])
    tampered = dataclasses.replace(cert, matches=(bad_match,))
    assert not tampered.verify(sig_size, rel_size)
    wrong_val = dataclasses.replace(cert, valtop=("top",))
    assert not wrong_val.verify(sig_size, rel_size)


def test_forged_block_matches_fail_replay(
    sig_stlc, rel_stlc, schemas_stlc, of_exists_body, sig_size, rel_size, plus_body,
    tm_size_body,
):
    import dataclasses

    cmix = schemas_stlc["Cmix"]
    cert = transport_check(sig_stlc, rel_stlc, cmix, cmix, "G", of_exists_body)
    assert cert.verify(sig_stlc, rel_stlc)
    m0, m1 = cert.matches
    assert m0.drops == () and m0.keep_positions == (0, 1)

    def forged(m, **changes):
        return dataclasses.replace(m, **changes)

    drop = DropRecord(1, "y1", m0.variant.decl[1][1], (), ())
    for matches in (
        (m1, m1),  # target block 0 is never checked
        (forged(m0, target_index=-1), m1),
        (forged(m0, target_index=2), m1),
        (m1, m0),
        (forged(m0, keep_positions=(0, 2)), m1),
        (forged(m0, keep_positions=(0, -1)), m1),
        (forged(m0, keep_positions=(0,), drops=(dataclasses.replace(drop, position=2),)), m1),
        (forged(m0, source_index=1), m1),  # keeps another block's declaration
    ):
        # a forged certificate is refuted, and never raises
        assert dataclasses.replace(cert, matches=matches).verify(sig_stlc, rel_stlc) is False

    # drop records that no longer match the derivation: the keep and drop
    # positions must partition the variant, and each drop's facts are the
    # ones the search records
    cert = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", plus_body)
    assert cert.verify(sig_size, rel_size)
    (m,) = cert.matches
    d0, d1 = m.drops
    assert d0.formula_facts == (("tm", "nat"), ("tm", "plus"))
    for drops in (
        (d1,),  # deleted
        (d0, d1, d1),  # duplicated
        (dataclasses.replace(d0, formula_facts=(), schema_facts=()), d1),  # emptied
        (dataclasses.replace(d0, formula_facts=(("tm", "nat"),)), d1),  # edited
    ):
        forged = dataclasses.replace(cert, matches=(dataclasses.replace(m, drops=drops),))
        assert forged.verify(sig_size, rel_size) is False

    # the same drops under a formula that tm is subordinate to, recorded
    # with the facts the search prints for it: the drop of x is refused
    formula_heads, schema_heads, _ = lfport.subsume._drop_basis(
        rel_size, tm_size_body, "G", C_EMPTY
    )
    drops = tuple(
        dataclasses.replace(
            d,
            formula_facts=tuple((head_constant(d.ty), b) for b in formula_heads),
            schema_facts=tuple((head_constant(d.ty), b) for b in schema_heads),
        )
        for d in m.drops
    )
    forged = dataclasses.replace(
        cert,
        formula=tm_size_body,
        valtop=lfport.subsume._val_deriv("G", tm_size_body, True),
        matches=(dataclasses.replace(m, drops=drops),),
    )
    assert forged.verify(sig_size, rel_size) is False

    # permutations the search never closes a renaming into, each with the
    # variant and drop records that follow from it
    def permuted(cert, perm, **changes):
        (m,) = cert.matches
        variant = make_variant(dict(perm), cert.target.blocks[0])
        drops = tuple(
            dataclasses.replace(d, var=variant.decl[d.position][0], ty=variant.decl[d.position][1])
            for d in m.drops
        )
        match = dataclasses.replace(m, permutation=perm, variant=variant, drops=drops)
        return dataclasses.replace(cert, matches=(match,), **changes)

    # a swap with the constant b, which neither block binds, turns Cof's
    # block into the source block {}(x : tm, y : of x b); the witness of an
    # instance of Cof at another type than b is then no source instance
    cof = schemas_stlc["Cof"]
    cert = transport_check(sig_stlc, rel_stlc, cof, cof, "G", of_exists_body)
    assert cert.verify(sig_stlc, rel_stlc)
    source = parse_schemas("schema S := {}(x : tm, y : of x b).")["S"]
    forged = permuted(cert, (("T", "b"), ("b", "T")), source=source)
    assert forged.verify(sig_stlc, rel_stlc) is False
    instance = ce((nom(1), at("tm")), (nom(2), at("of", a(nom(1)), a("arr", a("b"), a("b")))))
    witness = transport_witness(sig_stlc, forged, instance)
    assert witness == instance and not lfport.schema_instance(sig_stlc, source, witness)
    # x -> y, y -> y is not a bijection, and its variant binds y twice; nor
    # are a repeated key or a map onto a name outside its keys
    cert = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", plus_body)
    with pytest.raises(LFError):
        check_schema(sig_size, ContextSchema((make_variant({"x": "y", "y": "y"}, B_SIZE),)))
    for perm in ((("x", "y"), ("y", "y")), (("x", "x"), ("x", "x")), (("x", "y"),)):
        assert permuted(cert, perm).verify(sig_size, rel_size) is False


def test_a_missing_match_or_a_variant_off_its_permutation_fails_replay(
    sig_stlc, rel_stlc, schemas_stlc, of_exists_body
):
    import dataclasses

    cmix = schemas_stlc["Cmix"]
    cert = transport_check(sig_stlc, rel_stlc, cmix, cmix, "G", of_exists_body)
    assert cert.verify(sig_stlc, rel_stlc)
    m0, m1 = cert.matches
    # one match fewer than the target has blocks
    assert dataclasses.replace(cert, matches=(m0,)).verify(sig_stlc, rel_stlc) is False
    # a valid permutation whose variant is not make_variant(permutation, block):
    # the variant of the other block, and one declaration variable renamed
    block = cert.target.blocks[0]
    assert m0.variant == make_variant(dict(m0.permutation), block)
    (_, ty), *rest = m0.variant.decl
    renamed = BlockSchema(m0.variant.params, (("w", ty), *rest))
    for variant in (m1.variant, renamed):
        forged = dataclasses.replace(m0, variant=variant)
        matches = (forged, m1)
        assert dataclasses.replace(cert, matches=matches).verify(sig_stlc, rel_stlc) is False


# ---------------------------------------------------------------------------
# Lemma-level properties over bounded enumerations.


def _subsequences(bindings):
    for k in range(len(bindings) + 1):
        yield from itertools.combinations(bindings, k)


def _formula_atom_types(f):
    from lfport import Conj, Disj, ExistsTm, ForallCtx, ForallTm, Imp

    out = []

    def walk(g):
        match g:
            case Holds(ctx, _, ty):
                out.append((ctx, ty))
            case Imp(l, r) | Conj(l, r) | Disj(l, r):
                walk(l)
                walk(r)
            case ForallTm(_, _, b) | ExistsTm(_, _, b):
                walk(b)
            case ForallCtx(_, _, b):
                walk(b)
            case _:
                pass

    walk(f)
    return out


def test_lemma_minimization_agreement(sig_size, rel_size, plus_body):
    # Bindings subsumed away never change the minimized context at any
    # type occurring in a gamma-headed atom of the formula.
    atom_types = [ty for ctx, ty in _formula_atom_types(plus_body) if ctx.head == "G"]
    for g_big in enumerate_instances(sig_size, C_SIZE, 2, 1):
        for small in _subsequences(g_big.bindings):
            if not ce_subsumes(rel_size, "G", small, g_big.bindings, plus_body):
                continue
            for ty in atom_types:
                left = minimize(rel_size, LFContext(small), ty)
                right = minimize(rel_size, LFContext(g_big.bindings), ty)
                assert left == right


def test_lemma_explicit_binding_atom_forces_identity(sig_size, rel_size):
    f = Holds(ce((nom(9), at("tm")), head="G"), a(nom(9)), at("tm"))
    for g_big in enumerate_instances(sig_size, C_SIZE, 2, 1):
        for small in _subsequences(g_big.bindings):
            if ce_subsumes(rel_size, "G", small, g_big.bindings, f):
                assert small == g_big.bindings


def test_lemma_pruning_preserves_schema_type_minimization(sig_size, rel_size):
    schema_types = [ty for b in C_SIZE.blocks for _, ty in b.decl]
    for g_big in enumerate_instances(sig_size, C_SIZE, 2, 1):
        for small in _subsequences(g_big.bindings):
            if not prune_ok(rel_size, C_SIZE, small, g_big.bindings):
                continue
            for ty in schema_types:
                left = minimize(rel_size, LFContext(small), ty)
                right = minimize(rel_size, LFContext(g_big.bindings), ty)
                assert left == right


def test_witness_obligations_on_enumerated_instances(sig_size, rel_size, plus_body):
    # Constructive content of the subsumption theorem, re-checked by the
    # independent checkers on every enumerated well-formed instance.
    from lfport import schema_instance

    cert = transport_check(sig_size, rel_size, C_EMPTY, C_SIZE, "G", plus_body)
    for g_big in enumerate_instances(sig_size, C_SIZE, 2, 1):
        check_context(sig_size, LFContext(g_big.bindings))
        g_small = transport_witness(sig_size, cert, g_big)
        assert schema_instance(sig_size, C_EMPTY, g_small)
        check_context(sig_size, LFContext(g_small.bindings))
        assert ce_subsumes(rel_size, "G", g_small.bindings, g_big.bindings, plus_body)
        assert prune_ok(rel_size, C_EMPTY, g_small.bindings, g_big.bindings)


def test_atom_verdicts_agree_across_subsumed_contexts(sig_size, rel_size, plus_body):
    # Typing judgements in the formula cannot tell subsumed contexts apart.
    from lfport import check_term, check_type
    from lfport.schema import term_pool
    from lfport.lf import erase

    def atom_ok(bindings, term, ty):
        lctx = LFContext(bindings)
        try:
            check_context(sig_size, lctx)
            check_type(sig_size, lctx, ty)
            check_term(sig_size, lctx, term, ty)
            return True
        except LFError:
            return False

    closed_nats = term_pool(sig_size, O, 2)
    atom_types = [at("nat")] + [
        at("plus", x, y, z_)
        for x, y, z_ in itertools.product(closed_nats, repeat=3)
    ][:8]
    for g_big in enumerate_instances(sig_size, C_SIZE, 2, 1):
        extra = tuple((n, erase(t)) for n, t in g_big.bindings)
        candidates = term_pool(sig_size, O, 3, extra_heads=extra)[:20]
        for small in _subsequences(g_big.bindings):
            if not ce_subsumes(rel_size, "G", small, g_big.bindings, plus_body):
                continue
            try:
                check_context(sig_size, LFContext(small))
            except LFError:
                continue
            for ty in atom_types:
                for m in candidates:
                    assert atom_ok(small, m, ty) == atom_ok(g_big.bindings, m, ty)


def test_val_pos_sound_on_ill_formed_instances(sig_size, plus_body):
    # Structural validity analysis: no ill-formed substitution instance may
    # be refuted by the bounded evaluator.
    from lfport import Bounds, bounded_validity, subst_ctx
    from lfport.oracle import INVALID, VALID

    assert _val_deriv("G", plus_body, True) is not None
    ill_formed = [
        ce((nom(2), at("size", a(nom(1)), a("s", a("z"))))),
        ce((nom(1), at("size", a(nom(1)), a("s", a("z")))), (nom(2), at("tm"))),
        ce((nom(1), at("tm")), (nom(2), at("size", a(nom(3)), a("s", a("z"))))),
    ]
    for g in ill_formed:
        with pytest.raises(LFError):
            check_context(sig_size, LFContext(g.bindings))
        verdict = bounded_validity(
            sig_size, subst_ctx(plus_body, {"G": g}), Bounds(3, 2)
        )
        assert verdict.value != INVALID


def test_val_neg_sound_on_ill_formed_instances(sig_size):
    from lfport import Bounds, ForallTm, bounded_validity, subst_ctx
    from lfport.oracle import VALID

    f = quantify(ForallTm, "N", O, Holds(ce(head="G"), a("N"), at("nat")))
    assert _val_deriv("G", f, False) is not None
    g = ce((nom(2), at("size", a(nom(1)), a("s", a("z")))))
    verdict = bounded_validity(sig_size, subst_ctx(f, {"G": g}), Bounds(3, 2))
    assert verdict.value != VALID
