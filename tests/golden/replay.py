"""Golden command-line outputs: replay them, or record them afresh.

`cli.json` lists command lines (paths relative to the repository root)
with the exit code, stdout and stderr `lfport` gave for each.  Replaying
runs every command through `lfport.cli.main` in this process and reports
the ones whose output differs.  Stdlib only, so it runs on interpreters
without pytest:

    PYTHONPATH=src python tests/golden/replay.py            # replay
    PYTHONPATH=src python tests/golden/replay.py --record   # rewrite outputs

Record only when a change of output is intended, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from lfport.cli import main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "cli.json"


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


def record() -> None:
    runs = [run(want["argv"]) for want in load()]
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
        sys.exit(0)
    bad = mismatches()
    for line in bad:
        print(f"differs: lfport {line}")
    total = len(load())
    print(f"{total - len(bad)} of {total} golden commands match")
    sys.exit(1 if bad else 0)
