"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD setup|run [--trace] [--stream FILE]

`setup` times `import lfport` and loading the workload's inputs, then exits.
`run` also runs the timed phase once and reports what the program answered,
without judging it; `run.py` compares the answers with the known ones.  The
report is one JSON object on the last line of standard output.

Times are taken twice: as wall time and as work at a reference machine
speed (clock.py), which is what the benchmark reports.

With `--trace` the tracer is installed right after `import lfport`, so the
per-layer counts cover loading the inputs and the timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from clock import Clock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"


def _read(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


def _load_signature(L, name: str):
    sig = L.parse_signature(_read(name))
    L.check_signature(sig)
    return sig, L.compute_subordination(sig)


def _load_schemas(L, sig, name: str):
    schemas = L.parse_schemas(_read(name))
    for cs in schemas.values():
        L.check_schema(sig, cs)
    return schemas


def setup_minimize(L) -> dict:
    sig, rel = _load_signature(L, "sig_size.lf")
    return {"sig": sig, "rel": rel}


def setup_transport(L) -> dict:
    sig, rel = _load_signature(L, "sig_size.lf")
    schemas = _load_schemas(L, sig, "schemas_size.sch")
    plus = L.parse_formula(_read("plus.fml"), schemas)
    return {"sig": sig, "rel": rel, "schemas": schemas, "plus": plus}


def setup_batch(L) -> dict:
    import lfport.cli  # the decisions go through the command line

    tables = {}
    for name in ("size", "stlc"):
        sig, rel = _load_signature(L, f"sig_{name}.lf")
        _load_schemas(L, sig, f"schemas_{name}.sch")
        tables[name] = rel.sorted_pairs()
    return {"cli": lfport.cli, "subordination": tables}


def _harness(call):
    """Time one oracle harness call and describe its report."""
    start = perf_counter()
    try:
        report = call()
    except Exception as exc:  # a crash is an answer the checker rejects
        raised = {"raised": repr(exc)}
        return [(start, perf_counter())], lambda: [raised]
    span = (start, perf_counter())
    return [span], lambda: [{
        "passed": report.passed,
        "refused": report.refused,
        "checked": report.checked,
        "counterexamples": len(report.counterexamples),
        "summary": report.render().splitlines()[-1],
    }]


# A run function performs the timed phase and returns the perf_counter()
# spans of its operations, and a function giving the answers to check.


def run_minimize(L, ws, stream):
    return _harness(lambda: L.verify_minimization(ws["sig"], ws["rel"], L.Bounds(4, 4)))


def run_transport(L, ws, stream):
    cs = ws["schemas"]
    return _harness(
        lambda: L.verify_transport(
            ws["sig"], ws["rel"], cs["Cempty"], cs["Csize"], "G", ws["plus"], L.Bounds(4, 3)
        )
    )


def run_batch(L, ws, stream):
    main = ws["cli"].main
    decisions = json.loads(Path(stream).read_text(encoding="utf-8"))
    argvs = [
        ["transport", d["signature"], d["schemas"], "--from", d["source"],
         "--to", d["target"], "--formula", d["formula"], "--var", d["var"]]
        for d in decisions
    ]
    outputs = []
    spans = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an answer the checker rejects
            code = f"raised {exc!r}"
        spans.append((start, perf_counter()))
        outputs.append((code, out.getvalue(), err.getvalue()))
    return spans, lambda: [_answer(L, d, o) for d, o in zip(decisions, outputs)]


def _answer(L, d: dict, output) -> dict:
    """The decision's exit code and first line; for an accepted decision,
    whether its certificate replays and is the one printed."""
    code, out, err = output
    lines = out.splitlines()
    answer = {"code": code, "first_line": lines[0] if lines else "", "stderr": err}
    if code == 0:
        answer["replayed"] = _replay(L, d, out)
    return answer


def _replay(L, d: dict, printed: str) -> bool:
    from lfport.pretty import fmt_certificate

    def read(key):
        return Path(d[key]).read_text(encoding="utf-8")

    sig = L.parse_signature(read("signature"))
    L.check_signature(sig)
    rel = L.compute_subordination(sig)
    schemas = L.parse_schemas(read("schemas"))
    f = L.parse_formula(read("formula"), schemas)
    cert = L.transport_check(
        sig, rel, schemas[d["source"]], schemas[d["target"]], d["var"], f,
        source_name=d["source"], target_name=d["target"],
    )
    return (
        isinstance(cert, L.TransportCertificate)
        and cert.verify(sig, rel)
        and fmt_certificate(cert) == printed.rstrip("\n")
    )


WORKLOADS = {
    "oracle-transport": (setup_transport, run_transport),
    "oracle-minimize": (setup_minimize, run_minimize),
    "transport-batch": (setup_batch, run_batch),
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--stream", help="decision list for transport-batch")
    args = ap.parse_args()
    setup, run = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    clock = Clock()
    clock.start()
    start = perf_counter()
    import lfport as L

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(L)
    ws = setup(L)
    setup_span = (start, perf_counter())
    result = {"lfport": L.__file__}
    spans = []
    if args.mode == "run":
        spans, answers = run(L, ws, args.stream)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.stop()
    result["setup_s"] = clock.normalised(*setup_span)
    result["setup_wall_s"] = setup_span[1] - setup_span[0]
    if spans:
        phase = (spans[0][0], spans[-1][1])
        result["run_s"] = clock.normalised(*phase)
        result["run_wall_s"] = phase[1] - phase[0]
        result["latencies_ms"] = [clock.normalised(a, b) * 1000 for a, b in spans]
        if "subordination" in ws:
            result["subordination"] = ws["subordination"]
        if tracer is not None:
            result["trace"] = tracer.snapshot()
        result["answers"] = answers()  # checked outside the timed phase
    print(json.dumps(result))


if __name__ == "__main__":
    main()
