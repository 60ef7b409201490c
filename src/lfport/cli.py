"""Command-line interface.

Exit codes: 0 when the checked property holds (or the command succeeded),
1 when it was checked and does not hold, 2 for usage or input errors,
including input nested too deeply to process.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

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
from .pretty import fmt_certificate, fmt_head, fmt_type
from .schema import ContextSchema, CtxExpr, block_scope, check_schema, schema_instance
from .subord import SubordRel, compute_subordination, minimize
from .subsume import TransportFailure, schema_subsumes, transport_check


class InputError(Exception):
    pass


@dataclass
class Workspace:
    """Parsed and checked inputs shared by the subcommands."""

    sig: Signature
    rel: SubordRel
    schemas: dict[str, ContextSchema] = field(default_factory=dict)


# Distinct signature texts kept by `_checked_signature`.
_SIGNATURE_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_SIGNATURE_MEMO_SIZE)
def _checked_signature(text: str) -> tuple[Signature, SubordRel]:
    """The signature `text` declares, checked, with its subordination
    relation; parsed and checked once per process for each distinct text.
    Keyed by the text, so an edited file is checked again.  A raised error is
    not kept, so an ill-formed signature fails alike on every call.  Both
    results are frozen, so every call may share them."""
    sig = parse_signature(text)
    check_signature(sig)
    return sig, compute_subordination(sig)


def load_workspace(sig_path: str, schemas_path: str | None = None) -> Workspace:
    ws = Workspace(*_checked_signature(_read(sig_path)))
    if schemas_path is not None:
        schemas = parse_schemas(_read(schemas_path))
        for name, cs in schemas.items():
            try:
                check_schema(ws.sig, cs)
            except LFError as err:
                raise InputError(f"schema {name}: {err}") from err
        ws.schemas = schemas
    return ws


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (FileNotFoundError, NotADirectoryError):
        raise InputError(f"no such file: {path}") from None
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}") from None


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_check(args) -> int:
    try:
        sig, _ = _checked_signature(_read(args.signature))
    except LFError as err:
        _say(f"ill-formed signature: {err}")
        return 1
    _say(f"ok: signature with {len(sig.decls)} declarations")
    return 0


def _cmd_subord(args) -> int:
    ws = load_workspace(args.signature)
    for a, b in ws.rel.sorted_pairs():
        _say(f"{a} <= {b}")
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
        _say(f"{fmt_head(binder)} : {fmt_type(b)}")
    return 0


def _cmd_schema_check(args) -> int:
    ws = load_workspace(args.signature)
    schemas = parse_schemas(_read(args.schemas))
    status = 0
    for name, cs in schemas.items():
        try:
            check_schema(ws.sig, cs)
            _say(f"ok: {name}")
        except LFError as err:
            _say(f"ill-formed schema {name}: {err}")
            status = 1
    return status


def _cmd_instance(args) -> int:
    ws = load_workspace(args.signature, args.schemas)
    cs = _require_schema(ws, args.schema)
    ce = parse_context(_read(args.ctx))
    if schema_instance(ws.sig, cs, ce):
        _say(f"instance of {args.schema}")
        return 0
    _say(f"not an instance of {args.schema}")
    return 1


def _require_schema(ws: Workspace, name: str) -> ContextSchema:
    if name not in ws.schemas:
        raise InputError(f"schema {name} is not defined")
    return ws.schemas[name]


def _transport_inputs(ws: Workspace, args) -> tuple[ContextSchema, ContextSchema, Formula]:
    """The schemas `--from` and `--to` name, then the formula of
    `--formula` with `--var` free: either the bare body, or the full
    context-quantified statement, which is unwrapped."""
    source = _require_schema(ws, args.source)
    target = _require_schema(ws, args.target)
    f = parse_formula(_read(args.formula), ws.schemas)
    if isinstance(f, ForallCtx) and f.var == args.var:
        if f.schema != source:
            raise InputError(
                f"formula quantifies {args.var} at schema {f.schema_name}, "
                f"but --from names {args.source}"
            )
        f = open_ctx(f.body, CtxExpr(args.var))
    check_formula(ws.sig, f, WfEnv(ctx_schemas={args.var: source}))
    return source, target, f


def _print_undroppable(failure: TransportFailure, target: ContextSchema) -> None:
    if failure.binding is not None:
        v, t = failure.binding
        scope = block_scope(target.blocks[failure.target_index])
        _say(f"undroppable binding: {v} : {fmt_type(t, scope)}")


def _cmd_subsumes(args) -> int:
    ws = load_workspace(args.signature, args.schemas)
    source, target, f = _transport_inputs(ws, args)
    result = schema_subsumes(ws.rel, source, f, args.var, target)
    if isinstance(result, TransportFailure):
        _say(f"{args.source} does not subsume {args.target}")
        _say(f"failing {result.message}")
        _print_undroppable(result, target)
        return 1
    _say(f"{args.source} subsumes {args.target}")
    for m in result:
        _say(f"block {m.target_index} <= source block {m.source_index}")
    return 0


def _cmd_transport(args) -> int:
    ws = load_workspace(args.signature, args.schemas)
    source, target, f = _transport_inputs(ws, args)
    result = transport_check(
        ws.sig, ws.rel, source, target, args.var, f,
        source_name=args.source, target_name=args.target,
    )
    if isinstance(result, TransportFailure):
        _say(f"transport fails at the {result.side} side condition")
        _say(result.message)
        _print_undroppable(result, target)
        return 1
    _say(fmt_certificate(result))
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
    _say(verdict.value.capitalize())
    for line in verdict.trace:
        _say(f"  {line}")
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
        source, target, f = _transport_inputs(ws, args)
        reports.append(
            verify_transport(ws.sig, ws.rel, source, target, args.var, f, bounds)
        )
    status = 0
    for report in reports:
        _say(report.render())
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


def _say(*args, **kwargs) -> None:
    """`print` on stdout.  Once its reader has closed it (as `head -n 1`
    does), the rest goes to os.devnull ("Note on SIGPIPE", `signal` module),
    so the command runs on to its own exit code and no later write fails."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
    finally:
        _say(end="", flush=True)


if __name__ == "__main__":
    sys.exit(main())
