"""Golden command-line outputs: replay them, or record them afresh.

`cli.json` lists command lines (paths relative to the repository root)
with the exit code, stdout and stderr `lfport` gave for each.  Replaying
runs every command through `lfport.cli.main` in this process and reports
the ones whose output differs.  `parse_errors.json` lists seeded
truncations and one-character edits of every fixture file with the
outcome of parsing each (`ok`, or the error's class and message, whose
`line:col` prefix pins the reported position).  `formulas.json` lists
seeded random formulas (`tests/util.py`) over the size fixtures: the
printed text of each, the text printed after parsing it back, and the
outcome of `check_formula` and of `bounded_validity` at two bounds.
`texts.json` lists seeded edits of type and term texts with the outcome of
`parse_type_text` or `parse_term_text` on each, with and without a context
whose nominals they resolve against.
Stdlib only, so it runs on interpreters without pytest:

    PYTHONPATH=src python tests/golden/replay.py            # replay
    PYTHONPATH=src python tests/golden/replay.py --record   # rewrite outputs

Record only when a change of output is intended, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))

from lfport import Arrow, Bounds, O, TermDecl, bounded_validity, check_formula  # noqa: E402
from lfport.cli import main  # noqa: E402
from lfport.lf import erase, nominals_in  # noqa: E402
from lfport.parse import (  # noqa: E402
    parse_context,
    parse_formula,
    parse_schemas,
    parse_signature,
    parse_term_text,
    parse_type_text,
)
from lfport.pretty import fmt_formula, fmt_term, fmt_type  # noqa: E402
from lfport.schema import block_scope, term_pool  # noqa: E402
from util import random_formula  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "cli.json"
PARSE_GOLDEN = Path(__file__).resolve().parent / "parse_errors.json"
FORMULA_GOLDEN = Path(__file__).resolve().parent / "formulas.json"
TEXT_GOLDEN = Path(__file__).resolve().parent / "texts.json"
EDITS_PER_FILE = 30
EDIT_CHARS = "!%\n\t .:,(){}[]|->=a1'"
FORMULAS = 3000
EDITS_PER_TEXT = 12


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one `lfport` command line, run from
    the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def mismatches() -> list[str]:
    """The command lines whose output differs from the recorded one."""
    return [
        " ".join(want["argv"]) for want in load() if run(want["argv"]) != want
    ]


def _edits(rng: random.Random, text: str, count: int):
    """`count` seeded edits of `text`: a truncation, or a character
    replaced, deleted or inserted; each with its description."""
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(EDIT_CHARS)
        op = rng.choice(("truncate", "replace", "delete", "insert"))
        edited = {
            "truncate": text[:i],
            "replace": text[:i] + c + text[i + 1 :],
            "delete": text[:i] + text[i + 1 :],
            "insert": text[:i] + c + text[i:],
        }[op]
        yield f"{op} {i}" + (f" {c!r}" if op in ("replace", "insert") else ""), edited


def parse_outcomes() -> list[list[str]]:
    """[file, edit, outcome, message] for `EDITS_PER_FILE` seeded edits of
    each fixture file: a truncation, or a character replaced, deleted or
    inserted.  Each edited text goes through its syntax's parser; formulas
    see the schemas of both fixture schema files."""
    fixtures = ROOT / "fixtures"
    schemas = {}
    for path in sorted(fixtures.glob("*.sch")):
        schemas.update(parse_schemas(path.read_text(encoding="utf-8")))
    parsers = {
        ".lf": parse_signature,
        ".sch": parse_schemas,
        ".fml": lambda text: parse_formula(text, schemas),
        ".lfc": parse_context,
    }
    rng = random.Random(8)
    out = []
    for path in sorted(fixtures.iterdir()):
        text = path.read_text(encoding="utf-8")
        for edit, edited in _edits(rng, text, EDITS_PER_FILE):
            try:
                parsers[path.suffix](edited)
                outcome = ["ok", ""]
            except Exception as err:  # the class is part of the outcome
                outcome = [type(err).__name__, str(err)]
            out.append([path.name, edit] + outcome)
    return out


def load_parse_outcomes() -> list[list[str]]:
    return json.loads(PARSE_GOLDEN.read_text(encoding="utf-8"))


def text_outcomes() -> list[list]:
    """[parser, text, edit, outcome without a context, outcome with one]
    for the unedited text and `EDITS_PER_TEXT` seeded edits of each type
    and term text: the README's `size n1 (s z)`, the declared types of
    `sig_stlc.lf` and the block declaration types of `schemas_stlc.sch` as
    printed, and a sample of the printed terms of the signature's pools of
    arity `o` and `o -> o` with the context's nominals as heads.  The
    context is `ctx_size.lfc` with `n3 : tm -> tm` added, so a nominal it
    binds resolves to another arity than an unbound one.  An outcome is the
    tree and the arity of each nominal in it, or the error's class and
    message."""
    fixtures = ROOT / "fixtures"
    sig = parse_signature((fixtures / "sig_stlc.lf").read_text(encoding="utf-8"))
    schemas = parse_schemas((fixtures / "schemas_stlc.sch").read_text(encoding="utf-8"))
    ce = parse_context((fixtures / "ctx_size.lfc").read_text(encoding="utf-8") + ", n3 : tm -> tm")
    types = ["size n1 (s z)"]
    types += [fmt_type(d.type) for d in sig.decls if isinstance(d, TermDecl)]
    for cs in schemas.values():
        for block in cs.blocks:
            types += [fmt_type(ty, block_scope(block)) for _, ty in block.decl]
    extra = tuple((n, erase(ty)) for n, ty in ce.bindings)
    terms = [fmt_term(t) for t in term_pool(sig, O, 3, extra_heads=extra)[::8]]
    terms += [fmt_term(t) for t in term_pool(sig, Arrow(O, O), 3, extra_heads=extra)[::5]]
    rng = random.Random(13)
    out = []
    for name, parser, texts in (
        ("type", parse_type_text, types),
        ("term", parse_term_text, terms),
    ):
        for text in dict.fromkeys(texts):
            for edit, edited in [("none", text), *_edits(rng, text, EDITS_PER_TEXT)]:
                row = [name, text, edit]
                for context in (None, ce):
                    tree = _outcome(lambda: parser(edited, context))
                    if not isinstance(tree, list):
                        arities = sorted(f"{n!r} : {n.arity!r}" for n in nominals_in(tree))
                        tree = [repr(tree), arities]
                    row.append(tree)
                out.append(row)
    return out


def load_text_outcomes() -> list[list]:
    return json.loads(TEXT_GOLDEN.read_text(encoding="utf-8"))


def _outcome(call):
    """The result of `call()`, or the class and message of what it raised."""
    try:
        return call()
    except Exception as err:  # the class is part of the outcome
        return [type(err).__name__, str(err)]


def formula_outcomes() -> list[list]:
    """[text, text printed after parsing it back, check outcome, verdict at
    (2, 1), verdict at (3, 2)] for `FORMULAS` seeded random formulas; a
    verdict is its value and trace lines."""
    fixtures = ROOT / "fixtures"
    sig = parse_signature((fixtures / "sig_size.lf").read_text(encoding="utf-8"))
    schemas = parse_schemas((fixtures / "schemas_size.sch").read_text(encoding="utf-8"))
    out = []
    for seed in range(FORMULAS):
        f = random_formula(random.Random(seed), schemas)
        text = fmt_formula(f)
        row = [text, _outcome(lambda: fmt_formula(parse_formula(text, schemas)))]
        row.append(_outcome(lambda: check_formula(sig, f) or "ok"))
        for bounds in (Bounds(2, 1), Bounds(3, 2)):
            verdict = _outcome(lambda: bounded_validity(sig, f, bounds))
            if not isinstance(verdict, list):
                verdict = [verdict.value, list(verdict.trace)]
            row.append(verdict)
        out.append(row)
    return out


def load_formula_outcomes() -> list[list]:
    return json.loads(FORMULA_GOLDEN.read_text(encoding="utf-8"))


def record() -> None:
    runs = [run(want["argv"]) for want in load()]
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    PARSE_GOLDEN.write_text(json.dumps(parse_outcomes(), indent=1) + "\n", encoding="utf-8")
    rows = ",\n".join(map(json.dumps, formula_outcomes()))  # one formula a line
    FORMULA_GOLDEN.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    rows = ",\n".join(map(json.dumps, text_outcomes()))  # one text a line
    TEXT_GOLDEN.write_text(f"[\n{rows}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
        sys.exit(0)
    bad = mismatches()
    for line in bad:
        print(f"differs: lfport {line}")
    total = len(load())
    print(f"{total - len(bad)} of {total} golden commands match")
    parsed = parse_outcomes() == load_parse_outcomes()
    print(f"parse outcomes {'match' if parsed else 'differ'}")
    formulas = formula_outcomes() == load_formula_outcomes()
    print(f"random formula outcomes {'match' if formulas else 'differ'}")
    texts = text_outcomes() == load_text_outcomes()
    print(f"type and term text outcomes {'match' if texts else 'differ'}")
    sys.exit(1 if bad or not parsed or not formulas or not texts else 0)
