"""No public function or method of the package goes unread.

A public function, or a public method of a public class, is read where a
module of the package names it, as a bare name or as an attribute, outside
its own body; an import is not a read, so re-exporting a name from
`__init__.py` does not count.  Methods are matched by name alone.  A
function no module reads is dead code unless `ALLOWED` gives a reason to
keep it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lfport"

ALLOWED = {
    "parse.parse_term_text": "the term parser that ROADMAP item 10 builds on",
    "pretty.fmt_signature": "the printer of the signature round-trip tests",
    "subsume.TransportCertificate.verify": "the certificate replay that perfbench calls",
}


def _reads(node) -> Counter:
    """How often each name is read under `node`, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def unread(sources: dict[str, str]) -> list[str]:
    """`module.function` and `module.Class.method` for each public one that
    no module of `sources` (module name -> source) reads outside its own
    body, in module order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = sum(map(_reads, trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs += [
                    (f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef)
                ]
        for name, node in defs:
            short = name.rsplit(".", 1)[-1]
            if not short.startswith("_") and reads[short] <= _reads(node)[short]:
                out.append(f"{module}.{name}")
    return out


def test_the_check_finds_an_unread_function():
    sources = {
        "a": "def f(): return g()\ndef g(): return 1\ndef h(): return h()\ndef _k(): pass\n",
        "b": "from .a import f\nclass C:\n    def m(self): return self.n\n    def n(self): pass\n"
             "class _D:\n    def p(self): pass\n",
    }
    assert unread(sources) == ["a.f", "a.h", "b.C.m"]


def test_every_public_function_is_read_or_allowed():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 10
    # an allowed function that gains a reader leaves the list
    assert sorted(unread(sources)) == sorted(ALLOWED)
