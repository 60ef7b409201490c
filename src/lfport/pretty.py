"""Text rendering for the three surface syntaxes.

Printing is the inverse of parsing up to alpha-equivalence; output is
deterministic so it can serve golden tests.
"""

from __future__ import annotations

from .formula import (
    Bot,
    Conj,
    Disj,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Formula,
    Holds,
    Imp,
    Top,
)
from .lf import (
    Arity,
    Arrow,
    Atom,
    AtomicType,
    Kind,
    Lam,
    Nominal,
    PiKind,
    PiType,
    Signature,
    Term,
    TermDecl,
    TypeExpr,
    TypeKind,
    free_vars,
)
from .schema import BlockSchema, ContextSchema, CtxExpr


def fmt_arity(a: Arity) -> str:
    if isinstance(a, Arrow):
        left = fmt_arity(a.left)
        if isinstance(a.left, Arrow):
            left = f"({left})"
        return f"{left} -> {fmt_arity(a.right)}"
    return "o"


def fmt_head(h) -> str:
    if isinstance(h, Nominal):
        return f"n{h.index}"
    return h


def fmt_term(t: Term) -> str:
    match t:
        case Atom(head, args):
            parts = [fmt_head(head)]
            for a in args:
                s = fmt_term(a)
                if isinstance(a, Lam) or (isinstance(a, Atom) and a.args):
                    s = f"({s})"
                parts.append(s)
            return " ".join(parts)
        case Lam(var, body):
            return f"[{var}] {fmt_term(body)}"
    raise TypeError(f"not a term: {t!r}")


def _fmt_type_operand(t: TypeExpr) -> str:
    if isinstance(t, PiType):
        return f"({fmt_type(t)})"
    return fmt_type(t)


def fmt_type(t: TypeExpr) -> str:
    match t:
        case AtomicType(head, args):
            parts = [head]
            for a in args:
                s = fmt_term(a)
                if isinstance(a, Lam) or (isinstance(a, Atom) and a.args):
                    s = f"({s})"
                parts.append(s)
            return " ".join(parts)
        case PiType(var, domain, body):
            if var not in free_vars(body):
                return f"{_fmt_type_operand(domain)} -> {fmt_type(body)}"
            return f"{{{var} : {fmt_type(domain)}}} {fmt_type(body)}"
    raise TypeError(f"not a type expression: {t!r}")


def fmt_kind(k: Kind) -> str:
    match k:
        case TypeKind():
            return "Type"
        case PiKind(var, domain, body):
            if var not in free_vars(body):
                return f"{_fmt_type_operand(domain)} -> {fmt_kind(body)}"
            return f"{{{var} : {fmt_type(domain)}}} {fmt_kind(body)}"
    raise TypeError(f"not a kind: {k!r}")


def fmt_signature(sig: Signature) -> str:
    lines = []
    for d in sig.decls:
        if isinstance(d, TermDecl):
            lines.append(f"{d.name} : {fmt_type(d.type)}.")
        else:
            lines.append(f"{d.name} : {fmt_kind(d.kind)}.")
    return "\n".join(lines)


def fmt_ctx(ce: CtxExpr) -> str:
    parts = []
    if ce.head is not None:
        parts.append(ce.head)
    parts.extend(f"{fmt_head(n)} : {fmt_type(t)}" for n, t in ce.bindings)
    return ", ".join(parts)


def fmt_block(b: BlockSchema) -> str:
    params = ", ".join(f"{v} : {fmt_arity(a)}" for v, a in b.params)
    decls = ", ".join(f"{y} : {fmt_type(t)}" for y, t in b.decl)
    return f"{{{params}}}({decls})"


def fmt_schema(cs: ContextSchema) -> str:
    return " | ".join(fmt_block(b) for b in cs.blocks)


# Precedence levels: 0 quantifier body, 1 implication, 2 disjunction,
# 3 conjunction, 4 atoms.


def fmt_formula(f: Formula, prec: int = 0) -> str:
    def wrap(s: str, needed: int) -> str:
        return f"({s})" if prec > needed else s

    match f:
        case Holds(ctx, term, ty):
            inner = fmt_ctx(ctx)
            if inner:
                inner += " "
            return f"{{{inner}|- {fmt_term(term)} : {fmt_type(ty)}}}"
        case Top():
            return "tt"
        case Bot():
            return "ff"
        case Imp(l, r):
            return wrap(f"{fmt_formula(l, 2)} => {fmt_formula(r, 1)}", 1)
        case Disj(l, r):
            return wrap(f"{fmt_formula(l, 2)} \\/ {fmt_formula(r, 3)}", 2)
        case Conj(l, r):
            return wrap(f"{fmt_formula(l, 3)} /\\ {fmt_formula(r, 4)}", 3)
        case ForallTm(v, ar, body):
            return wrap(f"forall {v} : {fmt_arity(ar)}. {fmt_formula(body)}", 1)
        case ExistsTm(v, ar, body):
            return wrap(f"exists {v} : {fmt_arity(ar)}. {fmt_formula(body)}", 1)
        case ForallCtx(v, cs, body, name):
            shown = name if name is not None else fmt_schema(cs)
            return wrap(f"ctx {v} : {shown}. {fmt_formula(body)}", 1)
    raise TypeError(f"not a formula: {f!r}")


def fmt_valtop(deriv: tuple) -> str:
    tag, *rest = deriv
    if not rest:
        return tag
    return f"{tag}({', '.join(fmt_valtop(d) for d in rest)})"


def fmt_certificate(cert) -> str:
    """Line-oriented certificate rendering: one sub-derivation per line."""

    def schema_line(label, cs, name):
        shown = fmt_schema(cs)
        if name is not None:
            return f"{label}: {name} = {shown}"
        return f"{label}: {shown}"

    lines = [
        "transport certificate",
        f"context variable: {cert.gamma}",
        schema_line("source schema", cert.source, cert.source_name),
        schema_line("target schema", cert.target, cert.target_name),
        f"formula: {fmt_formula(cert.formula)}",
    ]
    for m in cert.matches:
        renaming = ", ".join(f"{a} -> {b}" for a, b in m.permutation if a != b)
        lines.append(
            f"block {m.target_index} <= source block {m.source_index}"
            + (f" via {renaming}" if renaming else " via identity")
        )
        vdecl = m.variant.decl
        for pos in m.keep_positions:
            v, t = vdecl[pos]
            lines.append(f"  keep {v} : {fmt_type(t)}")
        for d in m.drops:
            lines.append(f"  drop {d.var} : {fmt_type(d.ty)}")
    facts = cert.facts()
    if facts:
        lines.append("facts:")
        for a, b in facts:
            lines.append(f"  {a} !<= {b}")
    lines.append(f"valtop: {fmt_valtop(cert.valtop)}")
    return "\n".join(lines)
