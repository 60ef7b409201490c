"""Context schemas: well-formedness, instances, bounded enumeration."""

import itertools
import random

import pytest

from lfport import (
    Arrow,
    BlockSchema,
    ContextSchema,
    CtxExpr,
    LFContext,
    O,
    block_instance,
    check_context,
    check_schema,
    enumerate_instances,
    schema_instance,
)
import lfport.schema
from lfport.lf import AtomicType, LFError, apply_subst, erase, free_vars, fresh_nominal
from lfport.parse import parse_schemas
from lfport.schema import (
    ArityKindFailure,
    DuplicateVariable,
    NonPatternSchema,
    PoolEmpty,
    segment_instance,
    term_pool,
)
from lfport.subsume import (
    SegmentationMismatch,
    TransportCertificate,
    transport_check,
    transport_witness,
)
from test_subsume import _random_block
from util import a, at, ce, lam, nom, pi

B_EMPTY = BlockSchema((), ())
B_SIZE = BlockSchema((), (("x", at("tm")), ("y", at("size", a("x"), a("s", a("z"))))))
B_OF = BlockSchema((("T", O),), (("x", at("tm")), ("y", at("of", a("x"), a("T")))))

C_EMPTY = ContextSchema((B_EMPTY,))
C_SIZE = ContextSchema((B_SIZE,))

SIZE_BLOCK = (
    (nom(1), at("tm")),
    (nom(2), at("size", a(nom(1)), a("s", a("z")))),
)
SIZE_BLOCK2 = (
    (nom(3), at("tm")),
    (nom(4), at("size", a(nom(3)), a("s", a("z")))),
)


def test_check_schema_two_block(sig_stlc):
    check_schema(sig_stlc, ContextSchema((B_SIZE, B_OF)))


def test_check_schema_duplicate_decl_var(sig_size):
    bad = ContextSchema((BlockSchema((), (("x", at("tm")), ("x", at("nat")))),))
    with pytest.raises(DuplicateVariable):
        check_schema(sig_size, bad)


def test_check_schema_unassigned_var(sig_size):
    bad = ContextSchema(
        (BlockSchema((), (("y", at("size", a("x"), a("s", a("z")))),)),)
    )
    with pytest.raises(ArityKindFailure):
        check_schema(sig_size, bad)


def test_block_names_shadow_signature_constants(sig_size):
    def check(text):
        check_schema(sig_size, parse_schemas(f"schema C := {text}.")["C"])

    # the parameter `s` has arity o in its block, not the constant's o -> o
    check("{s : o}(y : size (lam ([s] s)) s)")
    with pytest.raises(ArityKindFailure):
        check("{s : o}(x : tm, y : size x (s z))")
    # a declaration variable is in scope in the later declarations only
    check("{}(x : tm, y : size x z)")
    with pytest.raises(ArityKindFailure):
        check("{}(y : size x z)")
    # a declaration variable may not take a constant's name
    with pytest.raises(DuplicateVariable):
        check("{}(z : tm)")
    with pytest.raises(DuplicateVariable):
        check("{s : o}(s : tm)")


def test_block_instance_size(sig_size):
    assert block_instance(sig_size, B_SIZE, SIZE_BLOCK) == {}


def test_block_instance_of_with_parameter(sig_stlc):
    segment = ((nom(1), at("tm")), (nom(2), at("of", a(nom(1)), a("b"))))
    assert block_instance(sig_stlc, B_OF, segment) == {"T": a("b")}


def test_block_instance_rejects_wrong_shape(sig_size):
    assert block_instance(sig_size, B_SIZE, ((nom(1), at("nat")),)) is None


def test_block_instance_parameter_consistency(sig_stlc):
    both = BlockSchema(
        (("T", O),),
        (("x", at("of", a("z"), a("T"))), ("y", at("of", a("z"), a("T")))),
    )
    same = (
        (nom(1), at("of", a("z"), a("b"))),
        (nom(2), at("of", a("z"), a("b"))),
    )
    differ = (
        (nom(1), at("of", a("z"), a("b"))),
        (nom(2), at("of", a("z"), a("arr", a("b"), a("b")))),
    )
    assert block_instance(sig_stlc, both, same) == {"T": a("b")}
    assert block_instance(sig_stlc, both, differ) is None


def test_schema_instance_mixed(sig_stlc, schemas_stlc):
    g = ce(
        (nom(1), at("tm")),
        (nom(2), at("size", a(nom(1)), a("s", a("z")))),
        (nom(3), at("tm")),
        (nom(4), at("of", a(nom(3)), a("b"))),
    )
    assert schema_instance(sig_stlc, schemas_stlc["Cmix"], g)


def test_schema_instance_empty(sig_size):
    assert schema_instance(sig_size, C_EMPTY, ce())
    assert schema_instance(sig_size, C_SIZE, ce())


def test_schema_instance_rejects_leftover(sig_size):
    assert not schema_instance(sig_size, C_EMPTY, ce((nom(1), at("tm"))))


def test_enumerate_empty_schema(sig_size):
    assert enumerate_instances(sig_size, C_EMPTY, 2, 1) == [ce()]


def test_enumerate_size_depth_one(sig_size):
    assert enumerate_instances(sig_size, C_SIZE, 1, 1) == [ce(), ce(*SIZE_BLOCK)]


def test_enumerate_size_depth_two(sig_size):
    out = enumerate_instances(sig_size, C_SIZE, 2, 1)
    assert out == [ce(), ce(*SIZE_BLOCK), ce(*SIZE_BLOCK, *SIZE_BLOCK2)]


def test_enumerate_pool_empty(sig_size):
    needs_function = ContextSchema(
        (BlockSchema((("F", Arrow(O, O)),), (("x", at("nat")),)),)
    )
    with pytest.raises(PoolEmpty):
        enumerate_instances(sig_size, needs_function, 1, 1)


def test_enumerate_ignores_blocks_that_repeat_segments(sig_stlc, schemas_stlc):
    # A block listed twice adds no instance and moves none.  A block whose
    # every segment another block also gives adds none either: listed
    # after that block it moves none, listed before it moves some.
    for cs in (*schemas_stlc.values(), C_SIZE):
        once = enumerate_instances(sig_stlc, cs, 2, 2)
        assert enumerate_instances(sig_stlc, ContextSchema(cs.blocks * 2), 2, 2) == once
    both = parse_schemas(
        "schema C := {N : o}(x : tm, y : size x N) | {}(x : tm, y : size x (s z))."
    )["C"]
    wide, narrow = both.blocks
    check_schema(sig_stlc, both)
    want = enumerate_instances(sig_stlc, ContextSchema((wide,)), 2, 2)
    assert enumerate_instances(sig_stlc, both, 2, 2) == want
    swapped = enumerate_instances(sig_stlc, ContextSchema((narrow, wide)), 2, 2)
    assert swapped != want and sorted(map(repr, swapped)) == sorted(map(repr, want))


def _enumerate_every_reach(sig, cs, blocks_max, term_size_max):
    """The enumeration that extends an instance each time it is reached,
    and keeps it where it is first reached."""
    results, seen = [], set()

    def extend(bindings, depth):
        if bindings not in seen:
            seen.add(bindings)
            results.append(CtxExpr(None, tuple(bindings)))
        if depth == blocks_max:
            return
        for block in cs.blocks:
            if block.decl:
                for segment in lfport.schema._block_instantiations(
                    sig, block, bindings, term_size_max, 0
                ):
                    extend(bindings + segment, depth + 1)

    extend((), 0)
    return results


def test_enumeration_extends_each_instance_once_per_depth(sig_stlc, schemas_stlc, monkeypatch):
    # On schemas whose blocks give the same segments, the instances and
    # their order are those of the enumeration that extends every reach,
    # and an instance is extended only where it is reached at a smaller
    # depth than before, not at every reach.
    # `{N : o}(x : tm)` gives one segment for every pool term of N.  Under
    # C_TM a context is reached again at a smaller depth, and extended again.
    cof = schemas_stlc["Cof"]
    both = parse_schemas(
        "schema C := {N : o}(x : tm, y : size x N) | {}(x : tm, y : size x (s z))."
    )["C"]
    unused = parse_schemas("schema C := {N : o}(x : tm).")["C"]
    calls = []
    block_instantiations = lfport.schema._block_instantiations
    monkeypatch.setattr(
        lfport.schema,
        "_block_instantiations",
        lambda *args: calls.append(args[2]) or block_instantiations(*args),
    )
    counts = {}
    for name, cs in [
        ("Cof", cof),
        ("Cof | Cof", ContextSchema(cof.blocks * 2)),
        ("Cmix | Cmix", ContextSchema(schemas_stlc["Cmix"].blocks * 2)),
        ("wide | narrow", both),
        ("narrow | wide", ContextSchema(both.blocks[::-1])),
        ("unused", unused),
        ("unused | unused", ContextSchema(unused.blocks * 2)),
        ("C_TM", C_TM),
    ]:
        check_schema(sig_stlc, cs)
        for blocks_max, size in ((1, 2), (2, 2), (3, 2), (2, 3)):
            want = _enumerate_every_reach(sig_stlc, cs, blocks_max, size)
            calls.clear()
            assert enumerate_instances(sig_stlc, cs, blocks_max, size) == want
            counts[name, blocks_max, size] = len(calls), len(want)
            # each instance is extended by each block at most once per depth
            assert len(calls) <= len(want) * len(cs.blocks) * blocks_max
    # extending every reach made 314 and 43 calls for these two
    assert counts["Cof", 3, 2] == (43, 259)
    assert counts["Cof | Cof", 3, 2] == (86, 259)
    assert counts["unused", 3, 2] == (3, 4)


def test_enumerated_instances_satisfy_schema_instance(sig_stlc, schemas_stlc):
    for name in ("Csize", "Cof", "Cmix"):
        cs = schemas_stlc[name]
        for g in enumerate_instances(sig_stlc, cs, 2, 2):
            assert schema_instance(sig_stlc, cs, g)


def test_enumerated_instances_of_closed_schema_well_formed(sig_size, schemas_size):
    for g in enumerate_instances(sig_size, schemas_size["Csize"], 3, 2):
        check_context(sig_size, LFContext(g.bindings))


def test_prefix_closure(sig_stlc, schemas_stlc):
    cs = schemas_stlc["Cmix"]
    for g in enumerate_instances(sig_stlc, cs, 2, 2):
        seg = segment_instance(sig_stlc, cs, g)
        assert seg is not None
        for _, _, end in seg:
            prefix = CtxExpr(None, g.bindings[:end])
            assert schema_instance(sig_stlc, cs, prefix)


def test_ctx_expr_rejects_duplicate_nominals():
    with pytest.raises(ValueError):
        ce((nom(1), at("tm")), (nom(1), at("nat")))


def test_block_instance_higher_order_pattern(sig_size):
    block = BlockSchema(
        (("F", Arrow(O, O)),),
        (
            ("x", at("tm")),
            ("y", pi("w", at("tm"), at("size", a("w"), a("F", a("w"))))),
        ),
    )
    check_schema(sig_size, ContextSchema((block,)))
    segment = (
        (nom(1), at("tm")),
        (
            nom(2, Arrow(O, O)),
            pi("u", at("tm"), at("size", a("u"), a("s", a("z")))),
        ),
    )
    out = block_instance(sig_size, block, segment)
    assert out is not None
    # the target ties F's position to the constant graph, so F is constant
    assert out["F"] == lam("v", a("s", a("z")))


def test_block_instance_keeps_the_targets_own_binders(sig_size):
    # The target's lambda binds its own variable at the index a spine
    # argument has outside it; the solution keeps that variable local.
    from lfport.parse import parse_type_text

    block = parse_schemas("schema C := {F : o -> o}(y : {u : tm} size (F u) z).")[
        "C"
    ].blocks[0]
    for text, want in (
        ("{u : tm} size (lam ([q] q)) z", a("lam", lam("q", a("q")))),
        ("{u : tm} size (lam ([q] app q u)) z", a("lam", lam("q", a("app", a("q"), a("w"))))),
        (
            "{u : tm} size (lam ([q] lam ([r] app r q))) z",
            a("lam", lam("q", a("lam", lam("r", a("app", a("r"), a("q")))))),
        ),
    ):
        segment = ((nom(1, Arrow(O, O)), parse_type_text(text)),)
        assert block_instance(sig_size, block, segment) == {"F": lam("w", want)}, text


def test_block_instance_rejects_non_pattern_spine(sig_size):
    from lfport.schema import NonPatternSchema

    bad = BlockSchema(
        (("F", Arrow(O, O)),),
        (("y", at("size", a("F", a("s", a("z"))), a("z"))),),
    )
    with pytest.raises(NonPatternSchema):
        block_instance(sig_size, bad, ((nom(1), at("size", a("s", a("z")), a("z"))),))


def test_block_instance_rejects_repeated_pattern_args(sig_size):
    from lfport.schema import NonPatternSchema

    bad = BlockSchema(
        (("F", Arrow(O, Arrow(O, O))),),
        (("y", at("size", a("F", a(nom(5)), a(nom(5))), a("z"))),),
    )
    with pytest.raises(NonPatternSchema):
        block_instance(sig_size, bad, ((nom(1), at("size", a("s", a("z")), a("z"))),))


def _instantiated(block, noms, terms):
    """The segment `block` gives with its parameters put as `terms`, and
    then its declaration variables as the nominals `noms`."""
    by_param = {x: (t, ar) for (x, ar), t in zip(block.params, terms)}
    by_var = {y: (a(n), erase(ty)) for (y, ty), n in zip(block.decl, noms)}
    return tuple(
        (n, apply_subst(apply_subst(ty, by_param), by_var))
        for (_, ty), n in zip(block.decl, noms)
    )


def _perturbed(rng, segment, others, terms):
    """`segment` with the type of one binding replaced: by that binding's
    type in another segment, by itself with one argument replaced from
    `terms`, or by another atomic type."""
    i = rng.randrange(len(segment))
    n, ty = segment[i]
    how = rng.randrange(3)
    if how == 0:
        ty = rng.choice(others)[i][1]
    elif how == 1 and isinstance(ty, AtomicType) and ty.args:
        j = rng.randrange(len(ty.args))
        ty = AtomicType(ty.head, ty.args[:j] + (rng.choice(terms),) + ty.args[j + 1 :])
    else:
        ty = at("nat") if ty == at("tm") else at("tm")
    return segment[:i] + ((n, ty),) + segment[i + 1 :]


def test_block_instance_matches_brute_force_over_pool_tuples(sig_stlc):
    # Random checked blocks with parameters T : o and F or H : o -> o,
    # some applied to a declaration variable, against the segments of
    # every tuple of pool terms (with the pool's own nominal n1 among their
    # heads).  Each segment is an instance whose solution instantiates to
    # it and gives back every parameter the block mentions.  A perturbed
    # segment gets only solutions that instantiate to it, and gets one
    # whenever some tuple gives it.
    pools = {O: term_pool(sig_stlc, O, 2, 1), Arrow(O, O): term_pool(sig_stlc, Arrow(O, O), 3, 1)}
    rng = random.Random(29)
    seen = set()
    for _ in range(150):
        block = _random_block(rng, rng.randint(1, 4))
        check_schema(sig_stlc, ContextSchema((block,)))
        noms = []
        for _, ty in block.decl:
            noms.append(fresh_nominal(erase(ty), {nom(1), *noms}))
        mentioned = set().union(*(free_vars(ty) for _, ty in block.decl))
        tuples = {}
        for terms in itertools.product(*(pools[ar] for _, ar in block.params)):
            segment = _instantiated(block, noms, terms)
            tuples.setdefault(segment, terms)
            out = block_instance(sig_stlc, block, segment)
            assert out is not None, (block, segment)
            assert _instantiated(block, noms, [out[x] for x, _ in block.params]) == segment
            for (x, ar), t in zip(block.params, terms):
                if x in mentioned:
                    assert out[x] == t, (block, segment, x)
                    seen.add(ar)
        segments = list(tuples)
        terms = list(pools[O]) + [a(n) for n in noms if n.arity == O]
        for segment in rng.sample(segments, min(len(segments), 12)):
            target = _perturbed(rng, segment, segments, terms)
            out = block_instance(sig_stlc, block, target)
            if out is not None:
                assert _instantiated(block, noms, [out[x] for x, _ in block.params]) == target
            assert out is not None or target not in tuples, (block, target)
            seen.add((out is not None, target in tuples))
    assert seen >= {O, Arrow(O, O), (True, True), (False, False)}


# ---------------------------------------------------------------------------
# Segmentation: one dynamic programme answers both instance questions.

# A context of k tm bindings segments in many ways under this schema.
C_TM = parse_schemas("schema C := {}(x : tm) | {}(x : tm, y : tm).")["C"]


def _segment_by_search(sig, cs, g):
    """The recursive search `segment_instance` used to be: the first block,
    in schema order, whose segment ends the context and whose prefix
    segments.  Exponential in the length of a non-instance."""
    bindings = g.bindings

    def go(k: int):
        if k == 0:
            return []
        for bi, block in enumerate(cs.blocks):
            m = len(block.decl)
            if m == 0 or m > k:
                continue
            if block_instance(sig, block, bindings[k - m : k]) is not None:
                rest = go(k - m)
                if rest is not None:
                    return rest + [(bi, k - m, k)]
        return None

    return go(len(bindings))


def _one_binding_away(g):
    """Every context one binding away from `g`: a binding deleted, retyped,
    or a fresh one inserted."""
    bs = g.bindings
    types = {ty for _, ty in bs} | {at("tm"), at("nat")}
    fresh = nom(max((n.index for n, _ in bs), default=0) + 1)
    for i in range(len(bs)):
        yield ce(*bs[:i], *bs[i + 1 :])
        for ty in types:
            yield ce(*bs[:i], (bs[i][0], ty), *bs[i + 1 :])
    for i in range(len(bs) + 1):
        for ty in types:
            yield ce(*bs[:i], (fresh, ty), *bs[i:])


def _assert_same_segmentation(sig, cs, g):
    want = _segment_by_search(sig, cs, g)
    assert segment_instance(sig, cs, g) == want
    assert schema_instance(sig, cs, g) == (want is not None)
    return want


def test_segmentation_matches_the_recursive_search(sig_stlc, schemas_stlc):
    # Instances under every schema; their neighbours under their own schema
    # and the two-block Cmix.
    schemas = [schemas_stlc[n] for n in ("Cempty", "Csize", "Cof", "Cmix")]
    outcomes = set()
    for name in ("Csize", "Cof", "Cmix"):
        for g in enumerate_instances(sig_stlc, schemas_stlc[name], 2, 2):
            pairs = [(cs, g) for cs in schemas] + [
                (cs, h)
                for h in _one_binding_away(g)
                for cs in {schemas_stlc[name], schemas_stlc["Cmix"]}
            ]
            for cs, h in pairs:
                seg = _assert_same_segmentation(sig_stlc, cs, h)
                outcomes.add(None if seg is None else len(seg))
    assert outcomes == {None, 0, 1, 2}


def test_segmentation_picks_the_recursive_search_split(sig_stlc):
    # Under both block orders, every tm/nat context up to six bindings.
    for cs in (C_TM, ContextSchema(C_TM.blocks[::-1])):
        for n in range(7):
            for kinds in itertools.product(("tm", "nat"), repeat=n):
                g = ce(*((nom(i + 1), at(k)) for i, k in enumerate(kinds)))
                _assert_same_segmentation(sig_stlc, cs, g)


def test_segmentation_of_a_non_instance_is_linear(
    sig_stlc, rel_stlc, of_exists_body, monkeypatch
):
    g = ce((nom(1), at("nat")), *((nom(i), at("tm")) for i in range(2, 42)))
    n = len(g.bindings)
    bound = (n + 1) * len(C_TM.blocks)
    cert = transport_check(sig_stlc, rel_stlc, C_TM, C_TM, "G", of_exists_body)
    assert isinstance(cert, TransportCertificate)
    calls = 0
    matcher = lfport.schema.block_instance

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= bound, "segmentation is not linear in the context"
        return matcher(*args)

    monkeypatch.setattr(lfport.schema, "block_instance", counted)
    assert segment_instance(sig_stlc, C_TM, g) is None
    calls = 0
    with pytest.raises(SegmentationMismatch):
        transport_witness(sig_stlc, cert, g)


# Outside the pattern fragment `block_instance` raises NonPatternSchema on
# some segments, so whether a question raises depends on which segments
# the search matches.  `check_schema` rejects such schemas; unchecked, both
# questions raise where the recursive search raises, and answer where it
# answers.
C_NON_PATTERN = parse_schemas(
    "schema C := {}(x : size z z, y : tm) | {F : o -> o}(y : size (F (s z)) z)."
)["C"]
# The last block is matched against (nat, size) after the prefix (nat) is
# known not to segment; the search still matches it, and raises.
C_NON_PATTERN_PAIR = parse_schemas(
    "schema C := {T : o}(y : size T z) | {}(x : tm)"
    " | {F : o -> o}(x : tm, y : size (F (s z)) z)."
)["C"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonPatternSchema:
        return NonPatternSchema


def test_segmentation_outside_the_pattern_fragment(sig_size):
    size_app = at("size", a("app", a(nom(9)), a(nom(9))), a("z"))
    size_zz = at("size", a("z"), a("z"))
    cases = [
        (C_NON_PATTERN, [size_zz, at("tm")], [(0, 0, 2)]),
        (C_NON_PATTERN, [size_app, at("tm")], None),
        (C_NON_PATTERN, [at("nat"), size_app], NonPatternSchema),
        (C_NON_PATTERN, [size_app], NonPatternSchema),
        (C_NON_PATTERN_PAIR, [at("nat"), at("tm"), size_app], NonPatternSchema),
    ]
    for cs, types, want in cases:
        with pytest.raises(NonPatternSchema):
            check_schema(sig_size, cs)
        g = ce(*((nom(i + 1), ty) for i, ty in enumerate(types)))
        assert _outcome(_segment_by_search, sig_size, cs, g) == want
        assert _outcome(segment_instance, sig_size, cs, g) == want
        assert _outcome(schema_instance, sig_size, cs, g) == (
            want if want is NonPatternSchema else want is not None
        )


# `check_schema` rejects a block exactly when some parameter occurrence is
# not a Miller pattern, with the message `block_instance` raises when its
# matching reaches that occurrence.
_PATTERN_BLOCKS = [
    "{F : o -> o}(x : tm, y : size (F x) z)",
    "{F : o -> o}(y : {w : tm} size (F w) z)",
    "{F : o -> o -> o}(x : tm, y : {w : tm} size (F w x) z)",
    "{F : o}(y : {F : tm} size F z)",
    "{F : o -> o}(x : tm, y : {x : tm} size (F x) z)",
    "{T : o}(x : tm, y : size x T)",
]
_NON_PATTERN_BLOCKS = [
    ("{F : o -> o}(y : size (F (s z)) z)", "non-variable argument", ["size (s z) z"]),
    ("{F : o -> o}(y : size (F z) z)", "the free name z", ["size z z"]),
    ("{F : o -> o, G : o}(y : size (F G) z)", "the free name G", ["size z z"]),
    ("{F : o -> o -> o}(x : tm, y : size (F x x) z)", "repeated arguments",
     ["tm", "size z z"]),
    ("{F : o -> o -> o}(y : size (F z (s z)) z)", "the free name z", ["size z z"]),
    ("{F : o -> o -> o}(x : tm, y : size (F x (s z)) z)", "non-variable argument",
     ["tm", "size z z"]),
    ("{F : o -> o, G : o -> o -> o}(x : tm, y : size (F x) (G x x))",
     "repeated arguments", ["tm", "size z z"]),
]


def test_check_schema_rejects_blocks_outside_the_pattern_fragment(sig_size):
    from lfport.parse import parse_type_text

    for text in _PATTERN_BLOCKS:
        check_schema(sig_size, parse_schemas(f"schema C := {text}.")["C"])
    for text, message, types in _NON_PATTERN_BLOCKS:
        cs = parse_schemas(f"schema C := {text}.")["C"]
        with pytest.raises(NonPatternSchema) as rejected:
            check_schema(sig_size, cs)
        assert message in str(rejected.value), text
        g = ce(*((nom(i + 1), parse_type_text(t)) for i, t in enumerate(types)))
        with pytest.raises(NonPatternSchema) as raised:
            block_instance(sig_size, cs.blocks[0], g.bindings)
        assert str(raised.value) == str(rejected.value), text


def test_block_instance_is_stable_under_shadowing_target_binders(sig_size):
    blocks = [
        parse_schemas(f"schema C := {text}.")["C"].blocks[0]
        for text in (
            "{F : o -> o -> o}(y : {u : tm} {v : tm} size (F u v) z)",
            "{F : o -> o -> o}(y : {u : tm} {v : tm} size (F v u) z)",
            "{F : o -> o}(y : {u : tm} {v : tm} size (F v) z)",
            "{F : o -> o}(y : {u : tm} {v : tm} size (F u) z)",
        )
    ]
    ar = Arrow(O, Arrow(O, O))

    def body(inner):
        # bodies that never mention the outer binder
        return [a("app", a(inner), a(inner)), a(inner), a("z"), a("lam", lam("q", a(inner)))]

    verdicts = set()
    for block in blocks:
        for k in range(4):
            outs = []
            for outer, inner in (("x", "y"), ("y", "x"), ("x", "x")):
                tgt = pi(outer, at("tm"), pi(inner, at("tm"), at(
                    "size", body(inner)[k], a("z"))))
                outs.append(block_instance(sig_size, block, ((nom(1, ar), tgt),)))
            verdicts.add(outs[0] is not None)
            assert all((o is None) == (outs[0] is None) for o in outs), (block, k)
            if outs[0] is not None:
                assert all(o["F"] == outs[0]["F"] for o in outs)
    assert verdicts == {True, False}


def test_parameter_solutions_never_capture_a_binder():
    # F sees only its spine argument, so a target that names the other
    # binder instead has no solution, and a solution never mentions a binder
    # outside it.  Under F v the spine argument is index 0, the index the
    # target's own lambda binder has in its body.
    from lfport.parse import parse_type_text
    from lfport.schema import _match_type

    for x, y in (("u", "v"), ("v", "u")):
        pat = parse_type_text(f"{{u : tm}} {{v : tm}} size (F {x}) z")
        for body, want in (
            (x, lam("w", a("w"))),
            (f"(app {x} {x})", lam("w", a("app", a("w"), a("w")))),
            (y, None),
            (f"(app {x} {y})", None),
            # a binder inside the target is its own, never a spine argument
            ("(lam ([q] q))", lam("w", a("lam", lam("q", a("q"))))),
            (
                f"(lam ([q] app q {x}))",
                lam("w", a("lam", lam("q", a("app", a("q"), a("w"))))),
            ),
            (f"(lam ([q] app q {y}))", None),
        ):
            text = f"{{u : tm}} {{v : tm}} size {body} z"
            solution = {}
            matched = _match_type(pat, parse_type_text(text), {"F": Arrow(O, O)}, solution)
            assert matched == (want is not None), (x, text)
            assert solution.get("F") == want, (x, text)


# ---------------------------------------------------------------------------
# Segmentation against brute force.

# Block 1 ends with block 0's declaration, so a segmentation that takes the
# last binding for block 0 can leave a prefix that does not segment.
C_OVERLAP = parse_schemas(
    "schema C := {}(x : tm) | {}(u : nat, x : tm) | {}(x : tm, y : size x (s z))"
    " | {N : o}(u : nat, x : tm, y : size x N)."
)["C"]


def brute_segmentation(sig, cs, bindings):
    """The first segmentation, blocks tried in schema order from the end of
    the context, by plain backtracking without remembered prefixes."""

    def go(k):
        if k == 0:
            return []
        for bi, block in enumerate(cs.blocks):
            m = len(block.decl)
            if 0 < m <= k and block_instance(sig, block, bindings[k - m : k]) is not None:
                rest = go(k - m)
                if rest is not None:
                    return rest + [(bi, k - m, k)]
        return None

    return go(len(bindings))


def random_overlap_context(rng):
    """Block instantiations of `C_OVERLAP` with stray bindings between."""
    bindings = []

    def fresh(ty):
        bindings.append((nom(len(bindings) + 1), ty))
        return a(bindings[-1][0])

    for _ in range(rng.randrange(6)):
        n = rng.choice((a("z"), a("s", a("z"))))
        kind = rng.randrange(5)
        if kind in (1, 3):
            fresh(at("nat"))
        if kind < 4:
            x = fresh(at("tm"))
            if kind >= 2:
                fresh(at("size", x, n if kind == 3 else a("s", a("z"))))
        else:  # a stray binding, possibly ill-typed for every block
            tms = [a(v) for v, ty in bindings if ty == at("tm")]
            fresh(rng.choice([at("nat"), at("tm")] + [at("size", t, n) for t in tms]))
    return ce(*bindings)


def test_segmentation_backtracks_past_a_dead_prefix(sig_size):
    schema = parse_schemas("schema C := {}(x : tm) | {}(u : nat, x : tm).")["C"]
    g = ce((nom(1), at("nat")), (nom(2), at("tm")))
    assert segment_instance(sig_size, schema, g) == [(1, 0, 2)]
    assert brute_segmentation(sig_size, schema, g.bindings) == [(1, 0, 2)]


def test_segmentation_matches_brute_force_in_linear_block_instance_calls(sig_size, monkeypatch):
    check_schema(sig_size, C_OVERLAP)
    rng = random.Random(5)
    calls = []
    real = lfport.schema.block_instance

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lfport.schema, "block_instance", counted)
    outcomes = set()
    for _ in range(400):
        g = random_overlap_context(rng)
        want = brute_segmentation(sig_size, C_OVERLAP, g.bindings)
        calls.clear()
        got = segment_instance(sig_size, C_OVERLAP, g)
        assert got == want, g
        assert len(calls) <= len(g.bindings) * len(C_OVERLAP.blocks), g
        outcomes.add(got is not None)
    assert outcomes == {True, False}
