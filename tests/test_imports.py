"""No module of the package imports a name it never uses.

`__init__.py` imports names to re-export them, so it is exempt.  A name is
used where the module reads it anywhere, as a bare name or as the base of
an attribute; `from __future__` imports are directives, not names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lfport"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, re\nfrom a.b import c, d as e\nre.sub\nc()\n"
    assert unused_imports(source) == ["os", "e"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
