"""Text rendering for the three surface syntaxes.

Printing is the inverse of parsing: the printed text parses back to an
equal tree.  Every binder prints as the name one rule (`lf._primed`)
gives it: its hint, primed apart where the hint is a name in scope or a
free name its body shows.  An LF binder's scope holds the names above it
(a block's variables and parameters for block types, the enclosing term
quantifiers for formula atoms), a formula quantifier's those of the
enclosing quantifiers of its kind (`formula._quantifier_name`, which the
parser names quantifiers by too).  A bound variable prints as the name
chosen for its binder.  So a parsed formula prints its hints, and printing
a parsed printed formula gives back the same text.  Output is
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
    _quantifier_name,
)
from .lf import (
    Atom,
    AtomicType,
    BVar,
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
    _dangling,
    _primed,
    free_vars,
    names_in,
)
from .schema import BlockSchema, ContextSchema, CtxExpr, block_scope


def fmt_head(h, scope: tuple = ()) -> str:
    """A head as printed; a bound variable prints as the name `scope`
    gives its binder."""
    if isinstance(h, Nominal):
        return repr(h)
    if isinstance(h, BVar):
        return scope[h.index]
    return h


def _binder(hint: str, body, scope: tuple):
    """The printed name of a binder (`lf._primed`), and the scope of its
    body.  A scope names the binders above an expression, innermost first,
    and may end with names bound outside it (a block's, say)."""
    name = _primed(hint, scope, lambda: free_vars(body), lambda: names_in(body))
    return name, (name,) + scope


def _fmt_spine(head: str, args, scope) -> str:
    parts = [head]
    for a in args:
        s = fmt_term(a, scope)
        if isinstance(a, Lam) or (isinstance(a, Atom) and a.args):
            s = f"({s})"
        parts.append(s)
    return " ".join(parts)


def fmt_term(t: Term, scope: tuple = ()) -> str:
    match t:
        case Atom(head, args):
            return _fmt_spine(fmt_head(head, scope), args, scope)
        case Lam(var, body):
            name, inner = _binder(var, body, scope)
            return f"[{name}] {fmt_term(body, inner)}"
    raise TypeError(f"not a term: {t!r}")


def _fmt_pi(pi, scope, fmt_body) -> str:
    name, inner = _binder(pi.var, pi.body, scope)
    if 0 not in _dangling(pi.body):
        domain = fmt_type(pi.domain, scope)
        if isinstance(pi.domain, PiType):
            domain = f"({domain})"
        return f"{domain} -> {fmt_body(pi.body, inner)}"
    return f"{{{name} : {fmt_type(pi.domain, scope)}}} {fmt_body(pi.body, inner)}"


def fmt_type(t: TypeExpr, scope: tuple = ()) -> str:
    match t:
        case AtomicType(head, args):
            return _fmt_spine(head, args, scope)
        case PiType():
            return _fmt_pi(t, scope, fmt_type)
    raise TypeError(f"not a type expression: {t!r}")


def fmt_kind(k: Kind, scope: tuple = ()) -> str:
    match k:
        case TypeKind():
            return "Type"
        case PiKind():
            return _fmt_pi(k, scope, fmt_kind)
    raise TypeError(f"not a kind: {k!r}")


def fmt_signature(sig: Signature) -> str:
    lines = []
    for d in sig.decls:
        if isinstance(d, TermDecl):
            lines.append(f"{d.name} : {fmt_type(d.type)}.")
        else:
            lines.append(f"{d.name} : {fmt_kind(d.kind)}.")
    return "\n".join(lines)


def fmt_ctx(ce: CtxExpr, scope: tuple = (), cscope: tuple = ()) -> str:
    """`cscope` names the context quantifiers above, innermost first."""
    parts = []
    if ce.head is not None:
        parts.append(fmt_head(ce.head, cscope))
    parts.extend(f"{fmt_head(n)} : {fmt_type(t, scope)}" for n, t in ce.bindings)
    return ", ".join(parts)


def fmt_block(b: BlockSchema) -> str:
    scope = block_scope(b)
    params = ", ".join(f"{v} : {a!r}" for v, a in b.params)
    decls = ", ".join(f"{y} : {fmt_type(t, scope)}" for y, t in b.decl)
    return f"{{{params}}}({decls})"


def fmt_schema(cs: ContextSchema) -> str:
    return " | ".join(fmt_block(b) for b in cs.blocks)


# Precedence levels: 0 quantifier body, 1 implication, 2 disjunction,
# 3 conjunction, 4 atoms.


def fmt_formula(f: Formula, prec: int = 0, names: tuple = (), cnames: tuple = ()) -> str:
    """`names` and `cnames` hold the names the enclosing term and context
    quantifiers print as, innermost first."""

    def wrap(s: str, needed: int) -> str:
        return f"({s})" if prec > needed else s

    def sub(g, p, names=names, cnames=cnames):
        return fmt_formula(g, p, names, cnames)

    match f:
        case Holds(ctx, term, ty):
            inner = fmt_ctx(ctx, names, cnames)
            if inner:
                inner += " "
            return f"{{{inner}|- {fmt_term(term, names)} : {fmt_type(ty, names)}}}"
        case Top():
            return "tt"
        case Bot():
            return "ff"
        case Imp(l, r):
            return wrap(f"{sub(l, 2)} => {sub(r, 1)}", 1)
        case Disj(l, r):
            return wrap(f"{sub(l, 2)} \\/ {sub(r, 3)}", 2)
        case Conj(l, r):
            return wrap(f"{sub(l, 3)} /\\ {sub(r, 4)}", 3)
        case ForallTm(_, ar, body) | ExistsTm(_, ar, body):
            kw = "forall" if isinstance(f, ForallTm) else "exists"
            v = _quantifier_name(f, names)
            return wrap(f"{kw} {v} : {ar!r}. {sub(body, 0, (v,) + names)}", 1)
        case ForallCtx(_, cs, body, name):
            shown = name if name is not None else fmt_schema(cs)
            v = _quantifier_name(f, cnames)
            return wrap(f"ctx {v} : {shown}. {sub(body, 0, cnames=(v,) + cnames)}", 1)
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
        # the variant renames a target block: its types print apart from
        # the names of both
        scope = block_scope(m.variant) + block_scope(cert.target.blocks[m.target_index])
        for pos in m.keep_positions:
            v, t = vdecl[pos]
            lines.append(f"  keep {v} : {fmt_type(t, scope)}")
        for d in m.drops:
            lines.append(f"  drop {d.var} : {fmt_type(d.ty, scope)}")
    facts = cert.facts()
    if facts:
        lines.append("facts:")
        for a, b in facts:
            lines.append(f"  {a} !<= {b}")
    lines.append(f"valtop: {fmt_valtop(cert.valtop)}")
    return "\n".join(lines)
