"""Acceptance suite: one test per criterion, each timed against its stated
budget and printing a PASS/FAIL line (visible with `pytest -s`)."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from lfport import (
    Bounds,
    LFContext,
    O,
    block_instance,
    ce_subsumes,
    check_context,
    check_schema,
    check_term,
    check_type,
    make_variant,
    verify_minimization,
    verify_transport,
)
from lfport.cli import main
from lfport.lf import LFError, erase
from lfport.schema import ContextSchema, enumerate_instances, term_pool
from conftest import FIXTURES
from util import a, at

SIG = str(FIXTURES / "sig_size.lf")
SIG_STLC = str(FIXTURES / "sig_stlc.lf")
SCHEMAS = str(FIXTURES / "schemas_size.sch")
SCHEMAS_STLC = str(FIXTURES / "schemas_stlc.sch")
PLUS = str(FIXTURES / "plus.fml")
TM_SIZE = str(FIXTURES / "tm_size.fml")
OF_EXISTS = str(FIXTURES / "of_exists.fml")


@contextmanager
def criterion(label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{label}: {elapsed:.2f}s exceeds {budget_s}s"
    print(f"[PASS] {label} ({elapsed:.2f}s < {budget_s:.0f}s)")


def test_criterion_1_subordination_reproduction(capsys):
    with criterion("1. subordination table of the size signature", 1.0):
        code = main(["subord", SIG])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "nat <= nat",
            "nat <= plus",
            "nat <= size",
            "plus <= plus",
            "plus <= size",
            "size <= size",
            "tm <= size",
            "tm <= tm",
        ]


def test_criterion_2_worked_transport(capsys):
    with criterion("2. transport of the plus lemma to the size schema", 1.0):
        code = main([
            "transport", SIG, SCHEMAS,
            "--from", "Cempty", "--to", "Csize", "--formula", PLUS, "--var", "G",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for fact in ("tm !<= nat", "tm !<= plus", "size !<= nat", "size !<= plus"):
            assert fact in out


def test_criterion_3_soundness_direction(capsys):
    with criterion("3. transport refused for a tm-sensitive formula", 1.0):
        code = main([
            "transport", SIG, SCHEMAS,
            "--from", "Cempty", "--to", "Csize", "--formula", TM_SIZE, "--var", "G",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "subsumption" in out
        assert "x : tm" in out


def test_criterion_4_minimization_oracle(sig_size, rel_size):
    with criterion("4. minimization metatheorem over bounded enumeration", 60.0):
        report = verify_minimization(sig_size, rel_size, Bounds(4, 4))
        assert report.counterexamples == []
        assert report.checked > 10000


def test_criterion_5_transport_oracle(sig_size, rel_size, schemas_size, plus_body):
    with criterion("5. transport witnesses re-checked on every instance", 60.0):
        report = verify_transport(
            sig_size,
            rel_size,
            schemas_size["Cempty"],
            schemas_size["Csize"],
            "G",
            plus_body,
            Bounds(4, 3),
        )
        assert report.refused is None
        assert report.counterexamples == []
        assert report.checked >= 20


def test_criterion_6_atom_agreement(sig_size, rel_size, schemas_size, plus_body):
    with criterion("6. judgement verdicts agree across subsumed contexts", 60.0):
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
        ]
        pairs = 0
        comparisons = 0
        for g_big in enumerate_instances(sig_size, schemas_size["Csize"], 2, 1):
            check_context(sig_size, LFContext(g_big.bindings))
            extra = tuple((n, erase(t)) for n, t in g_big.bindings)
            candidates = term_pool(sig_size, O, 3, extra_heads=extra)[:30]
            for k in range(len(g_big.bindings) + 1):
                for small in itertools.combinations(g_big.bindings, k):
                    if not ce_subsumes(
                        rel_size, "G", small, g_big.bindings, plus_body
                    ):
                        continue
                    try:
                        check_context(sig_size, LFContext(small))
                    except LFError:
                        continue
                    pairs += 1
                    for ty in atom_types:
                        for m in candidates:
                            assert atom_ok(small, m, ty) == atom_ok(
                                g_big.bindings, m, ty
                            )
                            comparisons += 1
        assert pairs >= 6
        assert comparisons > 1000


def test_criterion_7_variant_properties(sig_stlc, schemas_stlc):
    with criterion("7. 200 random permutations preserve schema properties", 30.0):
        cmix = schemas_stlc["Cmix"]
        segments = []
        for cs in (cmix, schemas_stlc["Csize"], schemas_stlc["Cof"]):
            for g in enumerate_instances(sig_stlc, cs, 1, 2):
                if g.bindings:
                    segments.append(g.bindings)
        names = sorted(
            {v for b in cmix.blocks for v, _ in list(b.params) + list(b.decl)}
        )
        pool = names + ["u1", "u2", "u3"]
        rng = random.Random(2024)
        for _ in range(200):
            shuffled = pool[:]
            rng.shuffle(shuffled)
            perm = dict(zip(pool, shuffled))
            variants = [make_variant(perm, b) for b in cmix.blocks]
            check_schema(sig_stlc, ContextSchema(tuple(variants)))
            for block, variant in zip(cmix.blocks, variants):
                for segment in segments:
                    before = block_instance(sig_stlc, block, segment) is not None
                    after = block_instance(sig_stlc, variant, segment) is not None
                    assert before == after


def test_criterion_8_multi_block_subsumption(capsys):
    with criterion("8. two-block source subsumes one-block target", 1.0):
        code = main([
            "transport", SIG_STLC, SCHEMAS_STLC,
            "--from", "Cmix", "--to", "Cof", "--formula", OF_EXISTS, "--var", "G",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "transport certificate" in out
        code = main([
            "transport", SIG_STLC, SCHEMAS_STLC,
            "--from", "Cof", "--to", "Cmix", "--formula", OF_EXISTS, "--var", "G",
        ])
        out = capsys.readouterr().out
        assert code == 1
