"""Golden command-line outputs: replay them, or record them afresh.

`cli.json` lists command lines (paths relative to the repository root)
with the exit code, stdout and stderr `lfport` gave for each.  Replaying
runs every command through `lfport.cli.main` in this process and reports
the ones whose output differs.  `parse_errors.json` lists seeded
truncations and one-character edits of every fixture file with the
outcome of parsing each (`ok`, or the error's class and message, whose
`line:col` prefix pins the reported position).  Stdlib only, so it runs on
interpreters without pytest:

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

from lfport.cli import main
from lfport.parse import parse_context, parse_formula, parse_schemas, parse_signature

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "cli.json"
PARSE_GOLDEN = Path(__file__).resolve().parent / "parse_errors.json"
EDITS_PER_FILE = 30
EDIT_CHARS = "!%\n\t .:,(){}[]|->=a1'"


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
        for _ in range(EDITS_PER_FILE):
            i = rng.randrange(len(text) + 1)
            c = rng.choice(EDIT_CHARS)
            op = rng.choice(("truncate", "replace", "delete", "insert"))
            edited = {
                "truncate": text[:i],
                "replace": text[:i] + c + text[i + 1 :],
                "delete": text[:i] + text[i + 1 :],
                "insert": text[:i] + c + text[i:],
            }[op]
            edit = f"{op} {i}" + (f" {c!r}" if op in ("replace", "insert") else "")
            try:
                parsers[path.suffix](edited)
                outcome = ["ok", ""]
            except Exception as err:  # the class is part of the outcome
                outcome = [type(err).__name__, str(err)]
            out.append([path.name, edit] + outcome)
    return out


def load_parse_outcomes() -> list[list[str]]:
    return json.loads(PARSE_GOLDEN.read_text(encoding="utf-8"))


def record() -> None:
    runs = [run(want["argv"]) for want in load()]
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    PARSE_GOLDEN.write_text(json.dumps(parse_outcomes(), indent=1) + "\n", encoding="utf-8")


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
    sys.exit(1 if bad or not parsed else 0)
