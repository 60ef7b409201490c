"""Command-line interface.

Exit codes: 0 when the checked property holds (or the command succeeded),
1 when it was checked and does not hold, 2 for usage or input errors,
including input nested too deeply to process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .formula import ForallCtx, Formula, WfEnv, check_formula, open_ctx
from .lf import LFContext, LFError, Signature, check_context, check_signature, check_type
from .oracle import (
    INVALID,
    Bounds,
    bounded_validity,
    verify_minimization,
    verify_transport,
)
from .parse import (
    ParseError,
    parse_context,
    parse_formula,
    parse_schemas,
    parse_signature,
    parse_type_text,
)
from .pretty import block_scope, fmt_certificate, fmt_head, fmt_type
from .schema import ContextSchema, CtxExpr, check_schema, schema_instance
from .subord import SubordRel, compute_subordination, minimize
from .subsume import (
    SubsumptionFailure,
    TransportFailure,
    schema_subsumes,
    transport_check,
)


class InputError(Exception):
    pass


@dataclass
class Workspace:
    """Parsed and checked inputs shared by the subcommands."""

    sig: Signature
    rel: SubordRel
    schemas: dict[str, ContextSchema] = field(default_factory=dict)


def load_workspace(sig_path: str, schemas_path: str | None = None) -> Workspace:
    sig = parse_signature(_read(sig_path))
    check_signature(sig)
    ws = Workspace(sig, compute_subordination(sig))
    if schemas_path is not None:
        schemas = parse_schemas(_read(schemas_path))
        for name, cs in schemas.items():
            try:
                check_schema(sig, cs)
            except LFError as err:
                raise InputError(f"schema {name}: {err}") from err
        ws.schemas = schemas
    return ws


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {path}")
    return p.read_text(encoding="utf-8")


def _load_open_formula(ws: Workspace, path: str, var: str, source_name: str) -> Formula:
    """Formula for subsumption commands: either the bare body with `var`
    free, or the full context-quantified statement, which is unwrapped."""
    f = parse_formula(_read(path), ws.schemas)
    if isinstance(f, ForallCtx) and f.var == var:
        if f.schema != ws.schemas[source_name]:
            raise InputError(
                f"formula quantifies {var} at schema {f.schema_name}, "
                f"but --from names {source_name}"
            )
        f = open_ctx(f.body, CtxExpr(var))
    check_formula(ws.sig, f, WfEnv(ctx_schemas={var: ws.schemas[source_name]}))
    return f


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_check(args) -> int:
    try:
        sig = parse_signature(_read(args.signature))
    except (ParseError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        check_signature(sig)
    except LFError as err:
        print(f"ill-formed signature: {err}")
        return 1
    print(f"ok: signature with {len(sig.decls)} declarations")
    return 0


def _cmd_subord(args) -> int:
    ws = load_workspace(args.signature)
    for a, b in ws.rel.sorted_pairs():
        print(f"{a} <= {b}")
    return 0


def _cmd_minimize(args) -> int:
    ws = load_workspace(args.signature)
    ce = parse_context(_read(args.ctx))
    ctx = LFContext(ce.bindings)
    try:
        check_context(ws.sig, ctx)
        ty = parse_type_text(args.type, ce)
        check_type(ws.sig, ctx, ty)
    except LFError as err:
        raise InputError(str(err)) from err
    for binder, b in minimize(ws.rel, ctx, ty).bindings:
        print(f"{fmt_head(binder)} : {fmt_type(b)}")
    return 0


def _cmd_schema_check(args) -> int:
    ws = load_workspace(args.signature)
    schemas = parse_schemas(_read(args.schemas))
    status = 0
    for name, cs in schemas.items():
        try:
            check_schema(ws.sig, cs)
            print(f"ok: {name}")
        except LFError as err:
            print(f"ill-formed schema {name}: {err}")
            status = 1
    return status


def _cmd_instance(args) -> int:
    ws = load_workspace(args.signature, args.schemas)
    cs = _require_schema(ws, args.schema)
    ce = parse_context(_read(args.ctx))
    if schema_instance(ws.sig, cs, ce):
        print(f"instance of {args.schema}")
        return 0
    print(f"not an instance of {args.schema}")
    return 1


def _require_schema(ws: Workspace, name: str) -> ContextSchema:
    if name not in ws.schemas:
        raise InputError(f"schema {name} is not defined")
    return ws.schemas[name]


def _cmd_subsumes(args) -> int:
    ws = load_workspace(args.signature, args.schemas)
    source = _require_schema(ws, args.source)
    target = _require_schema(ws, args.target)
    f = _load_open_formula(ws, args.formula, args.var, args.source)
    result = schema_subsumes(
        ws.rel, ws.sig, source, f, args.var, target, args.search_cap
    )
    if isinstance(result, SubsumptionFailure):
        print(f"{args.source} does not subsume {args.target}")
        print(f"failing target block {result.target_index}: {result.message}")
        if result.undroppable is not None:
            v, t = result.undroppable
            print(f"undroppable binding: {v} : {fmt_type(t, block_scope(result.block))}")
        return 1
    print(f"{args.source} subsumes {args.target}")
    for m in result:
        print(f"block {m.target_index} <= source block {m.source_index}")
    return 0


def _cmd_transport(args) -> int:
    ws = load_workspace(args.signature, args.schemas)
    source = _require_schema(ws, args.source)
    target = _require_schema(ws, args.target)
    f = _load_open_formula(ws, args.formula, args.var, args.source)
    result = transport_check(
        ws.sig,
        ws.rel,
        source,
        target,
        args.var,
        f,
        args.search_cap,
        source_name=args.source,
        target_name=args.target,
    )
    if isinstance(result, TransportFailure):
        print(f"transport fails at the {result.side} side condition")
        print(result.message)
        if result.binding is not None:
            v, t = result.binding
            scope = block_scope(target.blocks[result.target_index])
            print(f"undroppable binding: {v} : {fmt_type(t, scope)}")
        return 1
    print(fmt_certificate(result))
    return 0


def _cmd_validate(args) -> int:
    ws = load_workspace(args.signature, args.schemas)
    f = parse_formula(_read(args.formula), ws.schemas)
    try:
        check_formula(ws.sig, f)
    except LFError as err:
        raise InputError(f"formula: {err}") from err
    bounds = Bounds(args.term_size, args.blocks, args.pool_nominals)
    verdict = bounded_validity(ws.sig, f, bounds)
    print(verdict.value.capitalize())
    for line in verdict.trace:
        print(f"  {line}")
    return 1 if verdict.value == INVALID else 0


def _cmd_oracle(args) -> int:
    ws = load_workspace(args.signature, args.schemas)
    bounds = Bounds(args.term_size, args.blocks, args.pool_nominals)
    reports = [verify_minimization(ws.sig, ws.rel, bounds)]
    transport_args = (args.source, args.target, args.var, args.formula)
    if any(a is not None for a in transport_args):
        if not all(a is not None for a in transport_args):
            raise InputError(
                "transport verification needs --from, --to, --var and --formula"
            )
        source = _require_schema(ws, args.source)
        target = _require_schema(ws, args.target)
        f = _load_open_formula(ws, args.formula, args.var, args.source)
        reports.append(
            verify_transport(ws.sig, ws.rel, source, target, args.var, f, bounds)
        )
    status = 0
    for report in reports:
        print(report.render())
        if not report.passed:
            status = 1
    return status


# ---------------------------------------------------------------------------
# Dispatch.


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.  Parsing
    leaves it unchanged, so every `main` call can share it."""
    ap = argparse.ArgumentParser(
        prog="lfport",
        description="Canonical-LF checking, subordination analysis, context "
        "schema subsumption, and theorem transportation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("signature", help="signature file")
        return p

    add("check", _cmd_check, help="check a signature")
    add("subord", _cmd_subord, help="print the subordination relation")

    p = add("minimize", _cmd_minimize, help="minimize a context for a type")
    p.add_argument("--ctx", required=True, help="context file")
    p.add_argument("--type", required=True, help="type expression")

    p = add("schema-check", _cmd_schema_check, help="check context schemas")
    p.add_argument("schemas", help="schema file")

    p = add("instance", _cmd_instance, help="check a schema instance")
    p.add_argument("schemas", help="schema file")
    p.add_argument("--schema", required=True, help="schema name")
    p.add_argument("--ctx", required=True, help="context file")

    for name, fn in (("subsumes", _cmd_subsumes), ("transport", _cmd_transport)):
        p = add(name, fn, help=f"{name} check between two schemas")
        p.add_argument("schemas", help="schema file")
        p.add_argument("--from", dest="source", required=True, help="source schema name")
        p.add_argument("--to", dest="target", required=True, help="target schema name")
        p.add_argument("--formula", required=True, help="formula file")
        p.add_argument("--var", required=True, help="context variable name")
        p.add_argument("--search-cap", type=int, default=10000)

    p = add("validate", _cmd_validate, help="bounded validity of a closed formula")
    p.add_argument("--formula", required=True, help="formula file")
    p.add_argument("--schemas", help="schema file (for ctx quantifiers)")
    p.add_argument("--term-size", type=int, default=4)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--pool-nominals", type=int, default=0)

    p = add("oracle", _cmd_oracle, help="run the metatheorem harnesses")
    p.add_argument("--schemas", help="schema file")
    p.add_argument("--from", dest="source", help="source schema name")
    p.add_argument("--to", dest="target", help="target schema name")
    p.add_argument("--formula", help="formula file")
    p.add_argument("--var", help="context variable name")
    p.add_argument("--term-size", type=int, default=4)
    p.add_argument("--blocks", type=int, default=3)
    p.add_argument("--pool-nominals", type=int, default=0)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, InputError, LFError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
