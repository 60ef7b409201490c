"""Subsumption: type-by-formula subordination, context and schema
subsumption, variants, validity analysis, transport checking."""

import itertools
import random

import pytest

from lfport import (
    Bot,
    BlockSchema,
    ContextSchema,
    CtxExpr,
    Holds,
    LFContext,
    O,
    Top,
    alpha_eq,
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
    val_neg,
    val_pos,
)
from lfport.lf import LFError, UnknownConstant
from lfport.parse import parse_schemas
from lfport.subord import head_constant, type_leq
from lfport.schema import enumerate_instances
import lfport.subsume
from lfport.subsume import (
    BlockMatch,
    DropRecord,
    SearchCapExceeded,
    SubsumptionFailure,
    TransportCertificate,
    TransportFailure,
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
            and small[i - 1][0] == name
            and alpha_eq(small[i - 1][1], ty)
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
            and small[i - 1][0] == name
            and alpha_eq(small[i - 1][1], ty)
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


def test_variant_identity(sig_size):
    assert make_variant(sig_size, {}, B_SIZE) == B_SIZE


def test_variant_renames_decl_vars(sig_size):
    perm = {"x": "u", "y": "v", "u": "x", "v": "y"}
    out = make_variant(sig_size, perm, B_SIZE)
    assert out == BlockSchema(
        (), (("u", at("tm")), ("v", at("size", a("u"), a("s", a("z")))))
    )


def test_variant_renames_parameters(sig_stlc):
    b_of = BlockSchema((("T", O),), (("x", at("tm")), ("y", at("of", a("x"), a("T")))))
    out = make_variant(sig_stlc, {"T": "S", "S": "T"}, b_of)
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
            check_schema(sig_stlc, ContextSchema((make_variant(sig_stlc, perm, block),)))


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
            variant = make_variant(sig_stlc, perm, block)
            for segment in segments:
                before = block_instance(sig_stlc, block, segment) is not None
                after = block_instance(sig_stlc, variant, segment) is not None
                assert before == after


# ---------------------------------------------------------------------------
# Fig. 7: block and schema subsumption.


def test_block_subsumes_into_empty_source(rel_size, sig_size, plus_body):
    m = block_subsumes(rel_size, sig_size, B_SIZE, plus_body, "G", C_EMPTY)
    assert m is not None
    assert m.source_index == 0
    assert m.keep_positions == ()
    assert len(m.drops) == 2


def test_block_subsumes_nat_binding_fails(rel_size, sig_size, plus_body):
    target = BlockSchema((), (("x", at("nat")),))
    assert block_subsumes(rel_size, sig_size, target, plus_body, "G", C_EMPTY) is None


def test_block_subsumes_reflexive(rel_size, sig_size, plus_body):
    m = block_subsumes(rel_size, sig_size, B_SIZE, plus_body, "G", C_SIZE)
    assert m is not None
    assert m.keep_positions == (0, 1)
    assert m.drops == ()


def test_block_subsumes_aligns_renamed_variables(rel_size, sig_size, plus_body):
    renamed = BlockSchema(
        (), (("u", at("tm")), ("v", at("size", a("u"), a("s", a("z")))))
    )
    m = block_subsumes(rel_size, sig_size, renamed, plus_body, "G", C_SIZE)
    assert m is not None
    assert dict(m.permutation)["u"] == "x"
    assert dict(m.permutation)["v"] == "y"


def test_schema_subsumes_empty_to_size(rel_size, sig_size, plus_body):
    out = schema_subsumes(rel_size, sig_size, C_EMPTY, plus_body, "G", C_SIZE)
    assert not isinstance(out, SubsumptionFailure)


def test_schema_subsumes_fails_for_tm_formula(rel_size, sig_size, tm_size_body):
    out = schema_subsumes(rel_size, sig_size, C_EMPTY, tm_size_body, "G", C_SIZE)
    assert isinstance(out, SubsumptionFailure)
    assert out.undroppable is not None
    assert out.undroppable[0] == "x"
    assert out.undroppable[1] == at("tm")


def test_schema_subsumes_empty_target(rel_size, sig_size, plus_body):
    out = schema_subsumes(rel_size, sig_size, C_SIZE, plus_body, "G", ContextSchema())
    assert out == ()


# ---------------------------------------------------------------------------
# The variant search derives each (source entry, target entry) renaming
# once per source block.  The reference below matches every pair afresh
# for each alignment, as the search used to.


def _block_subsumes_by_alignment(rel, sig, target, f, gamma, source, search_cap):
    """The per-alignment search; returns the match and the attempts made."""
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
            ok = True
            for (sy, sty), ti in zip(sdecl, keep):
                ty_name, tty = tdecl[ti]
                if not lfport.subsume._derive_renaming(
                    sty, tty, tgt_vars, src_vars, mapping
                ):
                    ok = False
                    break
                if mapping.setdefault(ty_name, sy) != sy:
                    ok = False
                    break
            if not ok or len(set(mapping.values())) != len(mapping):
                continue
            perm = lfport.subsume._close_permutation(mapping)
            variant = make_variant(sig, perm, target)
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
    # alignments share entry pairs and renamings conflict.
    params = (("T", O),) if rng.random() < 0.4 else ()
    names = [n for n in _BLOCK_NAMES if not (params and n == "T")]
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
                at("of", a(x), a("T") if params else a("b")),
            ]
        ty = rng.choice(choices)
        if ty == at("tm"):
            tms.append(y)
        decl.append((y, ty))
    return BlockSchema(params, tuple(decl))


def _search_outcome(fn, *args):
    try:
        return fn(*args)
    except SearchCapExceeded:
        return SearchCapExceeded


def test_pair_table_search_matches_the_per_alignment_search(
    sig_stlc, rel_stlc, plus_body, of_exists_body, monkeypatch
):
    counter = _TopLevelCalls(lfport.subsume._derive_renaming)
    monkeypatch.setattr(lfport.subsume, "_derive_renaming", counter)
    rng = random.Random(4)
    kinds = set()
    for _ in range(300):
        source = ContextSchema(
            tuple(_random_block(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 3)))
        )
        target = _random_block(rng, rng.randint(0, 7))
        for f in (plus_body, of_exists_body):
            args = (rel_stlc, sig_stlc, target, f, "G", source)
            counter.calls = 0
            want, attempts = _block_subsumes_by_alignment(*args, 10**9)
            parent_calls = counter.calls
            counter.calls = 0
            assert block_subsumes(*args, 10**9) == want
            assert counter.calls <= parent_calls
            kinds.add(
                "none" if want is None
                else "drop" if want.drops else "keep-all"
            )
            if want is not None and len(source.blocks[want.source_index].decl) > 1:
                kinds.add("aligned")
            for cap in {0, attempts - 1, attempts, attempts + 1} - {-1}:
                expect = _search_outcome(_block_subsumes_by_alignment, *args, cap)
                got = _search_outcome(block_subsumes, *args, cap)
                if expect is SearchCapExceeded:
                    kinds.add("capped")
                    assert got is SearchCapExceeded
                else:
                    assert got == expect[0]
    assert kinds == {"none", "drop", "keep-all", "aligned", "capped"}


def test_pair_table_bounds_the_renamings_derived(
    sig_stlc, rel_stlc, plus_body, monkeypatch
):
    # The source entries match only the last two of 32 target entries, so
    # every alignment but the last fails; each source block may derive at
    # most one renaming per (source entry, target entry) pair.
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
        counter.limit = sum(len(b.decl) for b in blocks) * len(target.decl)
        m = block_subsumes(rel_stlc, sig_stlc, target, plus_body, "G", cs)
        assert (m is not None) == hit
        if hit:
            assert m.keep_positions == (30, 31)
            assert dict(m.permutation)["x"] == "u"


# ---------------------------------------------------------------------------
# Fig. 8: validity under ill-formed substitutions.


def test_val_axioms():
    assert val_pos("G", Top())
    assert val_neg("G", Bot())
    assert not val_pos("G", Bot())
    assert not val_neg("G", Top())


def test_val_pos_plus_formula(plus_body):
    assert val_pos("G", plus_body)


def test_val_pos_rejects_bare_atom():
    assert not val_pos("G", Holds(ce(head="G"), a("z"), at("nat")))


def test_val_neg_atom_requires_gamma():
    assert val_neg("G", Holds(ce(head="G"), a("z"), at("nat")))
    assert not val_neg("G", Holds(ce(), a("z"), at("nat")))


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


def test_forged_block_matches_fail_replay(sig_stlc, rel_stlc, schemas_stlc, of_exists_body):
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
    ):
        # a forged certificate is refuted, and never raises
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

    assert val_pos("G", plus_body)
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
    assert val_neg("G", f)
    g = ce((nom(2), at("size", a(nom(1)), a("s", a("z")))))
    verdict = bounded_validity(sig_size, subst_ctx(f, {"G": g}), Bounds(3, 2))
    assert verdict.value != VALID
