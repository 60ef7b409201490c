"""Every seed-3 and seed-7 transport-batch decision gives its recorded output.

The benchmark's generator (`perfbench/gen.py`, imported, never changed)
writes both decision streams into a temporary directory, and each decision
runs through `lfport.cli.main` in this process.  `decisions.json` holds,
per decision, a SHA-256 prefix of its exit code, stdout and stderr.  Each
accepted decision's certificate is also rebuilt from the inputs the command
line loads and must pass `TransportCertificate.verify`.  The check takes
10 to 30 s, so CI runs it as a step of its own, not as a test:

    PYTHONPATH=src python tests/golden/decisions.py            # compare
    PYTHONPATH=src python tests/golden/decisions.py --record   # rewrite

Record only when a change of output is intended, or after a change to
`gen.py`, and say so in the change.
"""

from __future__ import annotations

import argparse
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
from lfport.cli import _say, _transport_inputs, load_workspace, main  # noqa: E402
from lfport.subsume import TransportCertificate, transport_check  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "decisions.json"
SEEDS = (3, 7)
COUNT = 2400  # decisions per stream, as the benchmark makes them


def _run(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _replays(sig: str, d: dict, sch: str, fml: str) -> bool:
    """Whether the certificate of an accepted decision passes `verify`."""
    ws = load_workspace(sig, sch)
    args = argparse.Namespace(source=d["source"], target=d["target"], formula=fml, var=d["var"])
    source, target, f = _transport_inputs(ws, args)
    cert = transport_check(ws.sig, ws.rel, source, target, d["var"], f)
    return isinstance(cert, TransportCertificate) and cert.verify(ws.sig, ws.rel)


def digests(replayed: dict[str, bool]) -> dict[str, list[str]]:
    """Seed -> the digest of each decision's output, in stream order; each
    accepted decision goes into `replayed` with whether it replays."""
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
                    code, digest = _run([
                        "transport", sig, f"d{i}.sch", "--from", d["source"],
                        "--to", d["target"], "--formula", f"d{i}.fml", "--var", d["var"],
                    ])
                    out[str(seed)].append(digest)
                    if code == 0:
                        replayed[f"seed {seed} decision {i}"] = _replays(
                            sig, d, f"d{i}.sch", f"d{i}.fml"
                        )
        finally:
            os.chdir(cwd)
    return out


if __name__ == "__main__":
    replayed: dict[str, bool] = {}
    got = digests(replayed)
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
        _say(f"differs: {line}")
    refuted = [label for label, ok in replayed.items() if not ok]
    for line in refuted[:20]:
        _say(f"certificate refuted: {line}")
    total = sum(map(len, want.values()))
    _say(f"{total - len(bad)} of {total} decisions match")
    _say(f"{len(replayed) - len(refuted)} of {len(replayed)} accepted certificates replay")
    _say(end="", flush=True)  # a closed stdout keeps the exit code
    sys.exit(1 if bad or refuted else 0)
