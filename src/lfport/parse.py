"""Parsers for the three surface syntaxes: signatures, schemas, formulas.

One file per syntax kind; `%` starts a line comment everywhere.  Each
input is split into token texts by one regex pass; the line and column
of a token are worked out only when a `ParseError` reports them.  A
binder's name, of an LF binder or a formula quantifier, is resolved
through the parser's scope: each occurrence it binds becomes a de Bruijn
index, and the name stays on the binder as a display hint.  A quantifier
that reuses the name of an enclosing one of its kind is hinted apart from
the enclosing ones and from the names its body mentions.
"""

from __future__ import annotations

import re
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
    _subformulas,
    _term_names,
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
# A token is a punctuation mark or an identifier.  An identifier may
# contain `-`, but not the `-` of a following `->`.
_WORD = re.compile(
    r"\|-|->|=>|:=|/\\|\\/|[{}()\[\]:,.|]|[A-Za-z](?:[A-Za-z0-9_']|-(?!>))*"
)
# Blanks, newlines and comments.
_SKIP = re.compile(r"[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*")
# One token and the skipped text after it; a character that starts no
# token is matched with the rest of the input, so it ends the list.
_TOKEN = re.compile(rf"({_WORD.pattern}|.+){_SKIP.pattern}", re.DOTALL)


def _tokenize(text: str) -> list[str]:
    """The texts of the tokens of `text`, then "" for the end of input."""
    texts = _TOKEN.findall(text, _SKIP.match(text).end())
    if texts and not _WORD.fullmatch(texts[-1]):
        raise ParseError(
            f"unexpected character {texts[-1][0]!r}", *_position(text, len(texts) - 1)
        )
    texts.append("")
    return texts


def _position(text: str, k: int) -> tuple[int, int]:
    """Line and column of the `k`-th token of `text`, or of the end of
    input if there are only `k` tokens.  A comment does not advance the
    column, so the end of input after a final comment is where it starts."""
    starts = [m.start() for m in _TOKEN.finditer(text, _SKIP.match(text).end())]
    if k < len(starts):
        at = starts[k]
    else:  # no token holds a `%`, so the last line's first starts a comment
        at = text.find("%", text.rfind("\n") + 1)
        at = len(text) if at < 0 else at
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class _Parser:
    def __init__(self, text: str, nominal_mode: bool = False):
        self.text = text
        self.texts = _tokenize(text)
        self.pos = 0
        self.nominal_mode = nominal_mode
        self.nominals: dict[str, Nominal] = {}
        self.scope: list = []  # LF binder and term quantifier names, innermost last
        self.ctx_scope: list[str] = []  # context quantifier names
        # each name an LF term mentions, with the scope position of its
        # binder (-1 when free), in the order parsed
        self.uses: list[tuple[str, int]] = []

    def under(self, var, parse):
        """`parse()` with the binder `var` innermost in scope."""
        self.scope.append(var)
        out = parse()
        self.scope.pop()
        return out

    def peek(self) -> str:
        return self.texts[self.pos]  # "" at the end of input

    def next(self) -> str:
        self.pos += 1
        return self.texts[self.pos - 1]

    def fail(self, message: str):
        raise ParseError(message, *_position(self.text, self.pos))

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            self.fail(f"expected {text!r}, found {self.peek() or 'end of input'!r}")
        self.pos += 1

    def ident(self) -> str:
        text = self.texts[self.pos]
        if not text[:1].isalpha():  # only identifiers start with a letter
            self.fail(f"expected a name, found {text or 'end of input'!r}")
        self.pos += 1
        return text

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def at_arg(self) -> bool:
        """Whether a spine argument, a name or `(`, starts here."""
        text = self.texts[self.pos]
        return text == "(" or text[:1].isalpha()

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
        while self.at_arg():
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
        while self.at_arg():
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
# Hints for quantifiers that reuse an enclosing name.


def _choose_hints(f: Formula, path: frozenset, cpath: frozenset) -> Formula:
    """`f` with the hint of each quantifier that reuses the hint of an
    enclosing one of its kind (in `path` or `cpath`) primed apart from those
    and from the names its body mentions.  A hint depends on the hints
    above it, which depend on their whole bodies, so they are chosen once
    the formula is parsed."""
    match f:
        case ForallTm(v, ar, body) | ExistsTm(v, ar, body):
            if v in path:
                v = fresh_name(v, path | _term_names(body))
            return type(f)(v, ar, _choose_hints(body, path | {v}, cpath))
        case ForallCtx(v, cs, body, name):
            if v in cpath:
                v = fresh_name(v, cpath | {
                    g.var if isinstance(g, ForallCtx) else g.ctx.head
                    for g in _subformulas(body)
                    if isinstance(g, (ForallCtx, Holds))
                })
            return ForallCtx(v, cs, _choose_hints(body, path, cpath | {v}), name)
    return _rebuild(f, lambda g: _choose_hints(g, path, cpath))


# ---------------------------------------------------------------------------
# Entry points.


def parse_signature(text: str) -> Signature:
    p = _Parser(text)
    decls = []
    while p.peek():
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
    while p.peek():
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
    if p.peek():
        p.fail(f"unexpected trailing input {p.peek()!r}")
    return _choose_hints(f, frozenset(), frozenset())


def _parse_formula(p: _Parser, schemas) -> Formula:
    if p.at("ctx"):
        p.next()
        var = p.ident()
        p.expect(":")
        name = p.ident()
        if name not in schemas:
            p.fail(f"schema {name} is not defined")
        p.expect(".")
        p.ctx_scope.append(var)
        body = _parse_formula(p, schemas)
        p.ctx_scope.pop()
        return ForallCtx(var, schemas[name], body, name)
    if p.at("forall") or p.at("exists"):
        kw = p.next()
        var = p.ident()
        p.expect(":")
        ar = p.arity()
        p.expect(".")
        body = p.under(var, lambda: _parse_formula(p, schemas))
        return (ForallTm if kw == "forall" else ExistsTm)(var, ar, body)
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
    p.fail(f"expected a formula, found {p.peek() or 'end of input'!r}")


def _parse_atom(p: _Parser) -> Holds:
    p.expect("{")
    saved = dict(p.nominals)
    head = None
    bindings: list[tuple[Nominal, TypeExpr]] = []
    if not p.at("|-"):
        first = p.ident()
        if _NOMINAL_RE.match(first):
            bindings.append(_parse_binding_tail(p, first))
        else:
            i = _db_index(first, p.ctx_scope)
            head = first if i is None else BVar(i)
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
    if p.peek():
        while True:
            name = p.ident()
            if not _NOMINAL_RE.match(name):
                p.fail(f"context bindings must bind nominals, found {name!r}")
            bindings.append(_parse_binding_tail(p, name))
            if p.at(","):
                p.next()
                continue
            break
        if p.peek():
            p.fail(f"unexpected trailing input {p.peek()!r}")
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
    if p.peek():
        p.fail(f"unexpected trailing input {p.peek()!r}")
    return ty


def parse_term_text(text: str, ce: Optional[CtxExpr] = None) -> Term:
    p = _Parser(text, nominal_mode=True)
    if ce is not None:
        for n, _ in ce.bindings:
            p.nominals[f"n{n.index}"] = n
    t = p.term()
    if p.peek():
        p.fail(f"unexpected trailing input {p.peek()!r}")
    return t
