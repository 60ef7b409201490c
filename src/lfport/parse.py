"""Parsers for the three surface syntaxes: signatures, schemas, formulas.

One file per syntax kind; `%` starts a line comment everywhere.  Each
input is split into token texts by one regex pass; the line and column
of a token are worked out only when a `ParseError` reports them.  A
binder's name, of an LF binder or a formula quantifier, is resolved
through the parser's scope: each occurrence it binds becomes a de Bruijn
index, and the name stays on the binder as a display hint.  A quantifier
that reuses an enclosing name of its kind is primed apart, by the rule the
printer shares (`formula._quantifier_name`).  A block's lists and a
context's bindings are comma-separated, with no trailing comma.
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
    _choose_hints,
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
# A token is an identifier, tried first as the most frequent, or a
# punctuation mark, which never starts with a letter.  An identifier may
# contain `-`, but not the `-` of a following `->`.
_WORD = re.compile(
    r"[A-Za-z][A-Za-z0-9_']*(?:-(?!>)[A-Za-z0-9_']*)*|\|-|->|=>|:=|/\\|\\/|[{}()\[\]:,.|]"
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

    def comma_list(self, close: str, item, *args) -> tuple:
        """What `item(*args)` reads, repeated with a comma between, up to the
        token `close`, which is left unread; empty if `close` is next."""
        out = []
        if self.texts[self.pos] != close:
            out.append(item(*args))
            while self.texts[self.pos] == ",":
                self.pos += 1
                out.append(item(*args))
        return tuple(out)

    def spine(self) -> tuple:
        """The arguments of a spine, each a name or a parenthesised term,
        up to the first token that starts neither."""
        args = []
        while True:
            text = self.texts[self.pos]
            if text == "(":
                self.pos += 1
                args.append(self.term())
                self.expect(")")
            elif text[:1].isalpha():  # only identifiers start with a letter
                self.pos += 1
                args.append(Atom(self.resolve_name(text)))
            else:
                return tuple(args)

    # -- classifiers ------------------------------------------------------

    def classifier(self):
        text = self.texts[self.pos]
        if text == "{":
            self.pos += 1
            var = self.ident()
            self.expect(":")
            dom = self.type_expr()
            self.expect("}")
            return self.pi(var, dom, var)
        if text == "Type":
            self.pos += 1
            return TYPE
        t = self.type_operand()
        if self.texts[self.pos] == "->":
            self.pos += 1
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
        if self.texts[self.pos] == "(":
            self.pos += 1
            t = self.type_expr()
            self.expect(")")
            return t
        head = self.ident()
        return AtomicType(head, self.spine())

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        if self.at("["):
            self.next()
            var = self.ident()
            self.expect("]")
            return Lam(var, self.under(var, self.term))
        if not self.at("("):
            return Atom(self.resolve_name(self.ident()), self.spine())
        self.next()
        first = self.term()
        self.expect(")")
        args = self.spine()
        if not args:
            return first
        if isinstance(first, Lam):
            self.fail("application of an abstraction would form a redex")
        return Atom(first.head, first.args + args)

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
        at, name = p.pos, p.ident()
        p.expect(":=")
        blocks = [_parse_block(p)]
        while p.at("|"):
            p.next()
            blocks.append(_parse_block(p))
        p.expect(".")
        if name in out:
            p.pos = at
            p.fail(f"schema {name} defined twice")
        out[name] = ContextSchema(tuple(blocks))
    return out


def _parse_block(p: _Parser) -> BlockSchema:
    p.expect("{")
    params = p.comma_list("}", _parse_named, p, p.arity)
    p.expect("}")
    p.expect("(")
    decls = p.comma_list(")", _parse_named, p, p.type_expr)
    p.expect(")")
    return BlockSchema(params, decls)


def _parse_named(p: _Parser, classifier):
    """`name : C`, with `C` read by `classifier()`."""
    name = p.ident()
    p.expect(":")
    return name, classifier()


def _parse_whole(text: str, parse, ce: Optional[CtxExpr] = None):
    """The parser of `text` in formula syntax, with the nominals `ce` binds
    in scope, and what `parse` reads with it, which must be all of `text`."""
    p = _Parser(text, nominal_mode=True)
    if ce is not None:
        for n, _ in ce.bindings:
            p.nominals[repr(n)] = n
    out = parse(p)
    if p.peek():
        p.fail(f"unexpected trailing input {p.peek()!r}")
    return p, out


def parse_formula(text: str, schemas: Mapping[str, ContextSchema]) -> Formula:
    _, f = _parse_whole(text, lambda p: _parse_formula(p, schemas))
    return _choose_hints(f)


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
    bindings: list[tuple[Nominal, TypeExpr, int]] = []
    if not p.at("|-"):
        first = p.ident()
        if _NOMINAL_RE.match(first):
            bindings.append(_parse_binding_tail(p, first))
        else:
            i = _db_index(first, p.ctx_scope)
            head = first if i is None else BVar(i)
        while p.at(","):
            p.next()
            bindings.append(_parse_binding(p, "explicit context bindings"))
    p.expect("|-")
    term = p.term()
    p.expect(":")
    ty = p.type_expr()
    p.expect("}")
    p.nominals = saved
    return Holds(_ctx_expr(p, head, bindings), term, ty)


def _ctx_expr(p: _Parser, head, bindings) -> CtxExpr:
    """The context expression of the parsed `bindings`, each a nominal, its
    type and the position of its name, which is where a nominal name bound
    a second time is reported, at one arity or at two: the text could not
    tell the two bindings apart."""
    seen = set()
    for n, _, at in bindings:
        if n.index in seen:
            p.pos = at
            p.fail("context expression binds a nominal twice")
        seen.add(n.index)
    return CtxExpr(head, tuple((n, ty) for n, ty, _ in bindings))


def _parse_binding(p: _Parser, what: str) -> tuple[Nominal, TypeExpr, int]:
    name = p.ident()
    if not _NOMINAL_RE.match(name):
        p.fail(f"{what} must bind nominals, found {name!r}")
    return _parse_binding_tail(p, name)


def _parse_binding_tail(p: _Parser, name: str) -> tuple[Nominal, TypeExpr, int]:
    """The binding whose name `name` was just read, with that position."""
    at = p.pos - 1
    p.expect(":")
    ty = p.type_expr()
    nom = Nominal(erase(ty), int(_NOMINAL_RE.match(name).group(1)))
    p.nominals[name] = nom
    return (nom, ty, at)


def parse_context(text: str) -> CtxExpr:
    """A standalone context file: comma-separated nominal bindings."""
    p, bindings = _parse_whole(
        text, lambda p: p.comma_list("", _parse_binding, p, "context bindings")
    )
    return _ctx_expr(p, None, bindings)


def parse_type_text(text: str, ce: Optional[CtxExpr] = None) -> TypeExpr:
    """A standalone type, resolving nominal names against `ce`'s bindings."""
    return _parse_whole(text, _Parser.type_expr, ce)[1]


def parse_term_text(text: str, ce: Optional[CtxExpr] = None) -> Term:
    return _parse_whole(text, _Parser.term, ce)[1]
