"""Every seed-3 and seed-7 transport-batch decision gives its recorded output.

The benchmark's generator (`perfbench/gen.py`, imported, never changed)
writes both decision streams into a temporary directory, and each decision
runs through `lfport.cli.main` in this process.  `decisions.json` holds,
per decision, a SHA-256 prefix of its exit code, stdout and stderr.  The
check takes 10 to 30 s, so CI runs it as a step of its own, not as a test:

    PYTHONPATH=src python tests/golden/decisions.py            # compare
    PYTHONPATH=src python tests/golden/decisions.py --record   # rewrite

Record only when a change of output is intended, or after a change to
`gen.py`, and say so in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave the benchmark's directory as it is

import gen  # noqa: E402
from lfport.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "decisions.json"
SEEDS = (3, 7)
COUNT = 2400  # decisions per stream, as the benchmark makes them


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digests() -> dict[str, list[str]]:
    """Seed -> the digest of each decision's output, in stream order."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                out[str(seed)] = []
                for i, d in enumerate(gen.decisions(seed, COUNT)):
                    Path(f"d{i}.sch").write_text(d["schemas"], encoding="utf-8")
                    Path(f"d{i}.fml").write_text(d["formula"], encoding="utf-8")
                    sig = str(ROOT / "perfbench" / "inputs" / f"sig_{d['signature']}.lf")
                    out[str(seed)].append(_digest([
                        "transport", sig, f"d{i}.sch", "--from", d["source"],
                        "--to", d["target"], "--formula", f"d{i}.fml", "--var", d["var"],
                    ]))
        finally:
            os.chdir(cwd)
    return out


if __name__ == "__main__":
    got = digests()
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(got, indent=0) + "\n", encoding="utf-8")
        sys.exit(0)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = [
        f"seed {seed} decision {i}"
        for seed in want
        for i, (a, b) in enumerate(itertools.zip_longest(want[seed], got[seed]))
        if a != b
    ]
    for line in bad[:20]:
        print(f"differs: {line}")
    total = sum(map(len, want.values()))
    print(f"{total - len(bad)} of {total} decisions match")
    sys.exit(1 if bad else 0)
