"""The public surface that library users and the benchmark's tracer rely on.

`perfbench/tracer.py` wraps every public function of every module and files
its time under `<module>.<qualified name>`; `perfbench/run.py` reads the
per-layer metrics back by those names.  A traced function that is deleted,
renamed, made private, moved to another module or turned into a generator
(which the tracer leaves alone) silently reads 0 in its metric.
"""

import importlib
import inspect
import types

import lfport

EXPORTS = [
    "Arity", "Arrow", "Atom", "AtomicType", "BlockSchema", "Bot", "Bounds",
    "Conj", "ContextSchema", "CtxExpr", "Disj", "ExistsTm", "ForallCtx",
    "ForallTm", "Formula", "Holds", "Imp", "Kind", "LFContext", "LFError",
    "Lam", "Nominal", "O", "ParseError", "PiKind", "PiType", "Signature",
    "SubordRel", "TYPE", "Term", "TermDecl", "Top", "TransportCertificate",
    "TransportFailure", "TypeDecl", "TypeExpr", "Verdict3", "WfEnv",
    "apply_subst", "arity_check_term", "arity_check_type",
    "block_instance", "block_subsumes", "bounded_validity", "ce_subsumes",
    "check_context", "check_formula", "check_schema", "check_signature",
    "check_term", "check_type", "compute_subordination",
    "enumerate_instances", "erase", "formula",
    "head_constant", "lf", "make_variant", "minimize", "oracle", "parse",
    "parse_context", "parse_formula", "parse_schemas", "parse_signature",
    "parse_term_text", "parse_type_text", "prune_ok", "schema",
    "schema_instance", "schema_subsumes", "subord", "subst_ctx",
    "subst_terms", "subsume", "term_pool", "tf_subord", "transport_check",
    "transport_witness", "type_leq", "verify_minimization",
    "verify_transport",
]

# Every function `perfbench/run.py` reads a per-layer metric from.
TRACED = [
    "cli.load_workspace", "cli.main",
    "formula.formula_key", "formula.subst_ctx", "formula.subst_terms",
    "lf.Signature.kind_of", "lf.Signature.type_of", "lf.alpha_key",
    "lf.apply_subst", "lf.check_context", "lf.check_signature",
    "lf.check_term", "lf.check_type",
    "oracle.bounded_validity", "oracle.candidate_types",
    "oracle.verify_minimization",
    "parse.parse_formula", "parse.parse_schemas", "parse.parse_signature",
    "pretty.fmt_certificate",
    "schema.check_schema", "schema.enumerate_instances",
    "schema.segment_instance", "schema.term_pool", "schema.term_pool_exact",
    "subord.compute_subordination", "subord.minimize",
    "subsume.block_subsumes", "subsume.ce_subsumes", "subsume.make_variant",
    "subsume.prune_ok", "subsume.transport_check", "subsume.transport_witness",
]


def test_package_exports_are_unchanged():
    assert sorted(lfport.__all__) == EXPORTS


def test_traced_functions_stay_public_functions_of_their_modules():
    for name in TRACED:
        module, *path = name.split(".")
        fn = importlib.import_module(f"lfport.{module}")
        for part in path:
            assert not part.startswith("_"), name
            fn = getattr(fn, part, None)
            assert fn is not None, f"{name} is gone"
        assert isinstance(fn, types.FunctionType), name
        assert not inspect.isgeneratorfunction(fn), name
        assert f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}" == name
    # the oracle's judgement counter wraps the checkers as `oracle` binds them
    oracle = importlib.import_module("lfport.oracle")
    for kind in ("check_context", "check_type", "check_term"):
        assert getattr(oracle, kind) is getattr(lfport.lf, kind)

