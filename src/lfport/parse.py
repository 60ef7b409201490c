"""Parsers for the three surface syntaxes: signatures, schemas, formulas.

One file per syntax kind; `%` starts a line comment everywhere.  An LF
binder's name is resolved through the parser's scope: each occurrence it
binds becomes a de Bruijn index, and the name stays on the binder as a
display hint.  Formula quantifiers that reuse a name in scope are renamed
apart.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .formula import (
    BOT,
    TOP,
    Disj,
    Conj,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Formula,
    Holds,
    Imp,
    _rebuild,
    _rename_term_var,
    ctx_var_names,
    formula_term_names,
    rename_ctx_var,
)
from .lf import (
    Arity,
    Arrow,
    Atom,
    AtomicType,
    BVar,
    Kind,
    Lam,
    Nominal,
    O,
    PiKind,
    PiType,
    Signature,
    Term,
    TermDecl,
    TypeDecl,
    TYPE,
    TypeExpr,
    _db_index,
    erase,
    fresh_name,
)
from .schema import BlockSchema, ContextSchema, CtxExpr


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_NOMINAL_RE = re.compile(r"^n([0-9]+)$")
# One alternative per token class, tried in order.  An identifier may
# contain `-`, but not the `-` of a following `->`.
_TOKEN = re.compile(
    r"""(?P<newline>\n)
      | (?P<blank>[ \t\r]+)
      | (?P<comment>%[^\n]*)
      | (?P<punct>\|-|->|=>|:=|/\\|\\/|[{}()\[\]:,.|])
      | (?P<ident>[A-Za-z](?:[A-Za-z0-9_']|-(?!>))*)
      | (?P<other>.)""",
    re.VERBOSE | re.DOTALL,
)


@dataclass
class _Token:
    kind: str  # ident | punct | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "blank":
            col += len(word)
        elif kind == "ident" or kind == "punct":
            tokens.append(_Token(kind, word, line, col))
            col += len(word)
        elif kind == "newline":
            line, col = line + 1, 1
        elif kind == "other":
            raise ParseError(f"unexpected character {word!r}", line, col)
        # a comment does not advance the column
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, nominal_mode: bool = False):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nominal_mode = nominal_mode
        self.nominals: dict[str, Nominal] = {}
        self.scope: list = []  # LF binder names, innermost last
        # each name an LF term mentions, with the scope position of its
        # binder (-1 when free), in the order parsed
        self.uses: list[tuple[str, int]] = []

    def under(self, var, parse):
        """`parse()` with the LF binder `var` innermost in scope."""
        self.scope.append(var)
        out = parse()
        self.scope.pop()
        return out

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected a name, found {tok.text or 'end of input'!r}")
        return self.next().text

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind != "eof" and tok.text == text

    def at_ident(self) -> bool:
        return self.peek().kind == "ident"

    # -- classifiers ------------------------------------------------------

    def classifier(self):
        if self.at("{"):
            self.next()
            var = self.ident()
            self.expect(":")
            dom = self.type_expr()
            self.expect("}")
            return self.pi(var, dom, var)
        if self.at("Type"):
            self.next()
            return TYPE
        t = self.type_operand()
        if self.at("->"):
            self.next()
            return self.pi("x", t, None)  # an arrow's binder binds no name
        return t

    def pi(self, hint: str, dom: TypeExpr, var):
        start, level = len(self.uses), len(self.scope)
        rest = self.under(var, self.classifier)
        if var is None:
            # the hint of `A -> B` avoids the names B mentions from outside
            outside = {name for name, at in self.uses[start:] if at < level}
            hint = fresh_name(hint, outside)
        return (PiKind if isinstance(rest, Kind) else PiType)(hint, dom, rest)

    def type_expr(self) -> TypeExpr:
        t = self.classifier()
        if isinstance(t, Kind):
            self.fail("found a kind where a type was expected")
        return t

    def type_operand(self) -> TypeExpr:
        if self.at("("):
            self.next()
            t = self.type_expr()
            self.expect(")")
            return t
        head = self.ident()
        args = []
        while self.at_ident() or self.at("("):
            args.append(self.term_atom())
        return AtomicType(head, tuple(args))

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        if self.at("["):
            self.next()
            var = self.ident()
            self.expect("]")
            return Lam(var, self.under(var, self.term))
        first = self.term_atom()
        args = []
        while self.at_ident() or self.at("("):
            args.append(self.term_atom())
        if not args:
            return first
        if isinstance(first, Lam):
            self.fail("application of an abstraction would form a redex")
        assert isinstance(first, Atom)
        return Atom(first.head, first.args + tuple(args))

    def term_atom(self) -> Term:
        if self.at("("):
            self.next()
            t = self.term()
            self.expect(")")
            return t
        name = self.ident()
        return Atom(self.resolve_name(name))

    def resolve_name(self, name: str):
        m = _NOMINAL_RE.match(name) if self.nominal_mode else None
        if m:
            return self.nominals.get(name) or Nominal(O, int(m.group(1)))
        i = _db_index(name, self.scope)
        self.uses.append((name, -1 if i is None else len(self.scope) - 1 - i))
        return name if i is None else BVar(i)

    # -- arities ----------------------------------------------------------

    def arity(self) -> Arity:
        a = self.arity_atom()
        if self.at("->"):
            self.next()
            return Arrow(a, self.arity())
        return a

    def arity_atom(self) -> Arity:
        if self.at("("):
            self.next()
            a = self.arity()
            self.expect(")")
            return a
        self.expect("o")
        return O


# ---------------------------------------------------------------------------
# Renaming shadowing formula quantifiers apart.


def _apart(var, body, path, names, rename):
    """Rename the binder `var` of `body` apart from the enclosing binders in
    `path`, avoiding every name `names(body)` lists."""
    if var not in path:
        return var, body
    var2 = fresh_name(var, path | names(body))
    return var2, rename(body, var, var2)


def _std_formula(f: Formula, path: frozenset, cpath: frozenset) -> Formula:
    match f:
        case ForallTm(v, ar, body) | ExistsTm(v, ar, body):
            v2, body = _apart(v, body, path, formula_term_names, _rename_term_var)
            return type(f)(v2, ar, _std_formula(body, path | {v2}, cpath))
        case ForallCtx(v, cs, body, name):
            v2, body = _apart(v, body, cpath, ctx_var_names, rename_ctx_var)
            return ForallCtx(v2, cs, _std_formula(body, path, cpath | {v2}), name)
    return _rebuild(f, lambda g: _std_formula(g, path, cpath))


# ---------------------------------------------------------------------------
# Entry points.


def parse_signature(text: str) -> Signature:
    p = _Parser(text)
    decls = []
    while p.peek().kind != "eof":
        name = p.ident()
        p.expect(":")
        classifier = p.classifier()
        p.expect(".")
        if isinstance(classifier, Kind):
            decls.append(TypeDecl(name, classifier))
        else:
            decls.append(TermDecl(name, classifier))
    return Signature(tuple(decls))


def parse_schemas(text: str) -> dict[str, ContextSchema]:
    p = _Parser(text)
    out: dict[str, ContextSchema] = {}
    while p.peek().kind != "eof":
        kw = p.ident()
        if kw != "schema":
            p.fail(f"expected 'schema', found {kw!r}")
        name = p.ident()
        p.expect(":=")
        blocks = [_parse_block(p)]
        while p.at("|"):
            p.next()
            blocks.append(_parse_block(p))
        p.expect(".")
        if name in out:
            p.fail(f"schema {name} defined twice")
        out[name] = ContextSchema(tuple(blocks))
    return out


def _parse_block(p: _Parser) -> BlockSchema:
    p.expect("{")
    params = []
    while not p.at("}"):
        v = p.ident()
        p.expect(":")
        params.append((v, p.arity()))
        if p.at(","):
            p.next()
    p.expect("}")
    p.expect("(")
    decls = []
    while not p.at(")"):
        y = p.ident()
        p.expect(":")
        decls.append((y, p.type_expr()))
        if p.at(","):
            p.next()
    p.expect(")")
    return BlockSchema(tuple(params), tuple(decls))


def parse_formula(text: str, schemas: Mapping[str, ContextSchema]) -> Formula:
    p = _Parser(text, nominal_mode=True)
    f = _parse_formula(p, schemas)
    if p.peek().kind != "eof":
        p.fail(f"unexpected trailing input {p.peek().text!r}")
    return _std_formula(f, frozenset(), frozenset())


def _parse_formula(p: _Parser, schemas) -> Formula:
    if p.at("ctx"):
        p.next()
        var = p.ident()
        p.expect(":")
        name = p.ident()
        if name not in schemas:
            p.fail(f"schema {name} is not defined")
        p.expect(".")
        return ForallCtx(var, schemas[name], _parse_formula(p, schemas), name)
    if p.at("forall") or p.at("exists"):
        kw = p.next().text
        var = p.ident()
        p.expect(":")
        ar = p.arity()
        p.expect(".")
        body = _parse_formula(p, schemas)
        return ForallTm(var, ar, body) if kw == "forall" else ExistsTm(var, ar, body)
    return _parse_imp(p, schemas)


def _parse_imp(p: _Parser, schemas) -> Formula:
    left = _parse_disj(p, schemas)
    if p.at("=>"):
        p.next()
        return Imp(left, _parse_formula(p, schemas))
    return left


def _parse_disj(p: _Parser, schemas) -> Formula:
    left = _parse_conj(p, schemas)
    while p.at("\\/"):
        p.next()
        left = Disj(left, _parse_conj(p, schemas))
    return left


def _parse_conj(p: _Parser, schemas) -> Formula:
    left = _parse_fatom(p, schemas)
    while p.at("/\\"):
        p.next()
        left = Conj(left, _parse_fatom(p, schemas))
    return left


def _parse_fatom(p: _Parser, schemas) -> Formula:
    if p.at("tt"):
        p.next()
        return TOP
    if p.at("ff"):
        p.next()
        return BOT
    if p.at("("):
        p.next()
        f = _parse_formula(p, schemas)
        p.expect(")")
        return f
    if p.at("{"):
        return _parse_atom(p)
    p.fail(f"expected a formula, found {p.peek().text or 'end of input'!r}")


def _parse_atom(p: _Parser) -> Holds:
    p.expect("{")
    saved = dict(p.nominals)
    head: Optional[str] = None
    bindings: list[tuple[Nominal, TypeExpr]] = []
    if not p.at("|-"):
        first = p.ident()
        if _NOMINAL_RE.match(first):
            bindings.append(_parse_binding_tail(p, first))
        else:
            head = first
        while p.at(","):
            p.next()
            name = p.ident()
            if not _NOMINAL_RE.match(name):
                p.fail(f"explicit context bindings must bind nominals, found {name!r}")
            bindings.append(_parse_binding_tail(p, name))
    p.expect("|-")
    term = p.term()
    p.expect(":")
    ty = p.type_expr()
    p.expect("}")
    p.nominals = saved
    try:
        ctx = CtxExpr(head, tuple(bindings))
    except ValueError as err:
        p.fail(str(err))
    return Holds(ctx, term, ty)


def _parse_binding_tail(p: _Parser, name: str) -> tuple[Nominal, TypeExpr]:
    p.expect(":")
    ty = p.type_expr()
    nom = Nominal(erase(ty), int(_NOMINAL_RE.match(name).group(1)))
    p.nominals[name] = nom
    return (nom, ty)


def parse_context(text: str) -> CtxExpr:
    """A standalone context file: comma-separated nominal bindings."""
    p = _Parser(text, nominal_mode=True)
    bindings = []
    if p.peek().kind != "eof":
        while True:
            name = p.ident()
            if not _NOMINAL_RE.match(name):
                p.fail(f"context bindings must bind nominals, found {name!r}")
            bindings.append(_parse_binding_tail(p, name))
            if p.at(","):
                p.next()
                continue
            break
        if p.peek().kind != "eof":
            p.fail(f"unexpected trailing input {p.peek().text!r}")
    try:
        return CtxExpr(None, tuple(bindings))
    except ValueError as err:
        p.fail(str(err))


def parse_type_text(text: str, ce: Optional[CtxExpr] = None) -> TypeExpr:
    """A standalone type, resolving nominal names against `ce`'s bindings."""
    p = _Parser(text, nominal_mode=True)
    if ce is not None:
        for n, _ in ce.bindings:
            p.nominals[f"n{n.index}"] = n
    ty = p.type_expr()
    if p.peek().kind != "eof":
        p.fail(f"unexpected trailing input {p.peek().text!r}")
    return ty


def parse_term_text(text: str, ce: Optional[CtxExpr] = None) -> Term:
    p = _Parser(text, nominal_mode=True)
    if ce is not None:
        for n, _ in ce.bindings:
            p.nominals[f"n{n.index}"] = n
    t = p.term()
    if p.peek().kind != "eof":
        p.fail(f"unexpected trailing input {p.peek().text!r}")
    return t
