"""The lfport benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

- oracle-transport: `verify_transport` on the size signature, Cempty to
  Csize, the plus formula, Bounds(4, 3) (acceptance criterion 5);
- oracle-minimize: `verify_minimization` on the size signature at
  Bounds(4, 4) (acceptance criterion 4);
- transport-batch: a seeded stream of `lfport transport` decisions, made one
  after another (a closed loop with one client) in-process through
  `lfport.cli.main` on generated files (see gen.py).

Each repetition runs in a fresh interpreter (worker.py), started one at a
time by this process, because a command-line user pays cold caches on every
invocation.  Repetitions continue while the next one is expected to end
within `--seconds`; there is always at least one.  Extra set-up-only
interpreters bring the set-up samples to SETUP_SAMPLES.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
it holds the per-layer metrics of one traced repetition (tracer.py), next to
one untraced repetition of the same work that gives the tracing overhead and
must give the same answers.

Every answer is checked against a known one: both oracles must pass with the
seed's obligation counts, and every decision must give the exit code and
first line fixed by construction, with each accepted certificate replayed.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 15
DECISIONS = 2400  # per transport-batch repetition; p99 then has 24 samples beyond it
DEADLINE_S = 170  # a run must end within 180 s

ORACLE_ANSWERS = {
    "oracle-transport": {
        "passed": True,
        "refused": None,
        "checked": 20,
        "counterexamples": 0,
        "summary": "PASS (20 obligations, 0 counterexamples)",
    },
    "oracle-minimize": {
        "passed": True,
        "refused": None,
        "checked": 213148,
        "counterexamples": 0,
        "summary": "PASS (213148 obligations, 0 counterexamples)",
    },
}

# Golden subordination tables (acceptance criterion 1, and the same
# signature extended with tp and of); the padding in gen.py relies on them.
_SIZE_TABLE = [
    ["nat", "nat"], ["nat", "plus"], ["nat", "size"], ["plus", "plus"],
    ["plus", "size"], ["size", "size"], ["tm", "size"], ["tm", "tm"],
]
SUBORDINATION = {
    "size": _SIZE_TABLE,
    "stlc": sorted(_SIZE_TABLE + [["of", "of"], ["tm", "of"], ["tp", "of"], ["tp", "tp"]]),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "decisions_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _calls(*names):
    return lambda st: sum(st.get(n, {}).get("calls", 0) for n in names)


def _self(name):
    return lambda st: st.get(name, {}).get("self_s", 0.0)


def _incl(name):
    return lambda st: st.get(name, {}).get("incl_s", 0.0)


def _items(*names):
    return lambda st: sum(st.get(n, {}).get("items", 0) for n in names)


def _distinct_ratio(st):
    j = st["oracle.judgements"]
    return j["distinct"] / j["calls"] if j["calls"] else 0.0


def _per_layer():
    """Per-layer metric name -> (unit, function of the trace snapshot)."""
    table = {
        "oracle.bounded_validity.self_s": ("s", _self("oracle.bounded_validity")),
        "oracle.bounded_validity.incl_s": ("s", _incl("oracle.bounded_validity")),
        "oracle.judgements": ("count", _calls("oracle.judgements")),
        "oracle.judgements_distinct_ratio": ("ratio", _distinct_ratio),
        "oracle.verify_minimization.self_s": ("s", _self("oracle.verify_minimization")),
        "oracle.candidate_types.self_s": ("s", _self("oracle.candidate_types")),
        "lf.sig_lookup.calls": ("count", _calls("lf.Signature.kind_of", "lf.Signature.type_of")),
        "lf.check_signature.self_s": ("s", _self("lf.check_signature")),
        "formula.subst_ctx.self_s": ("s", _self("formula.subst_ctx")),
        "formula.formula_key.calls": ("count", _calls("formula.formula_key")),
        "schema.pool_terms": ("count", _items("schema.term_pool", "schema.term_pool_exact")),
        "schema.enumerate_instances.self_s": ("s", _self("schema.enumerate_instances")),
        "schema.instances": ("count", _items("schema.enumerate_instances")),
        "schema.check_schema.self_s": ("s", _self("schema.check_schema")),
        "subord.compute_subordination.self_s": ("s", _self("subord.compute_subordination")),
        "subsume.transport_check.self_s": ("s", _self("subsume.transport_check")),
        "subsume.alignments": ("count", _calls("subsume.make_variant")),
        "subsume.transport_witness.self_s": ("s", _self("subsume.transport_witness")),
        "parse.parse_signature.self_s": ("s", _self("parse.parse_signature")),
        "parse.parse_schemas.self_s": ("s", _self("parse.parse_schemas")),
        "parse.parse_formula.self_s": ("s", _self("parse.parse_formula")),
        "pretty.fmt_certificate.self_s": ("s", _self("pretty.fmt_certificate")),
        "cli.main.self_s": ("s", _self("cli.main")),
        "cli.load_workspace.incl_s": ("s", _incl("cli.load_workspace")),
    }
    for fn in (
        "lf.check_context", "lf.check_type", "lf.check_term", "lf.apply_subst",
        "lf.alpha_key", "formula.subst_terms", "schema.term_pool",
        "schema.term_pool_exact", "schema.segment_instance", "subord.minimize",
        "subsume.block_subsumes", "subsume.ce_subsumes", "subsume.prune_ok",
    ):
        table[f"{fn}.calls"] = ("count", _calls(fn))
        table[f"{fn}.self_s"] = ("s", _self(fn))
    return table


PER_LAYER = _per_layer()


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs.


def write_stream(seed: int, work: Path) -> tuple[Path, list]:
    """Write the transport-batch decisions as files; return the decision
    list for the worker and the verdict each one must get."""
    sigs = {}
    for name in ("size", "stlc"):
        sigs[name] = work / f"sig_{name}.lf"
        shutil.copyfile(HERE / "inputs" / f"sig_{name}.lf", sigs[name])
    stream, expected = [], []
    for i, d in enumerate(gen.decisions(seed, DECISIONS)):
        sch, fml = work / f"d{i}.sch", work / f"d{i}.fml"
        sch.write_text(d["schemas"], encoding="utf-8")
        fml.write_text(d["formula"], encoding="utf-8")
        stream.append({
            "signature": str(sigs[d["signature"]]),
            "schemas": str(sch),
            "formula": str(fml),
            "source": d["source"],
            "target": d["target"],
            "var": d["var"],
        })
        expected.append((d["code"], d["first_line"]))
    path = work / "stream.json"
    path.write_text(json.dumps(stream), encoding="utf-8")
    return path, expected


# ---------------------------------------------------------------------------
# Repetitions.


class Runner:
    def __init__(self, workload: str, stream: Path | None, deadline: float):
        self.workload = workload
        self.stream = stream
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")  # same work in every interpreter

    def spawn(self, mode: str, trace: bool = False) -> tuple[dict, float]:
        cmd = [sys.executable, str(WORKER), self.workload, mode]
        if trace:
            cmd.append("--trace")
        if self.stream is not None:
            cmd += ["--stream", str(self.stream)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload} {mode}: no result within the time limit") from exc
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"{self.workload} {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(lines[-1])
        src = ROOT / "src"
        if not Path(result["lfport"]).resolve().is_relative_to(src):
            raise BenchError(f"imported lfport from {result['lfport']}, not from {src}")
        return result, wall


def judge(workload: str, reps: list[dict], expected: list | None) -> tuple[int, list[str]]:
    """Operations attempted by the repetitions, and the answers that were
    wrong: one problem per failed operation."""
    attempted, problems = 0, []
    for rep in reps:
        answers = rep["answers"]
        if workload in ORACLE_ANSWERS:
            want = ORACLE_ANSWERS[workload]
            attempted += len(answers)
            problems += [f"oracle answered {a}, expected {want}" for a in answers if a != want]
            continue
        attempted += len(expected) + 1  # the decisions and the golden-table check
        if rep["subordination"] != SUBORDINATION:
            problems.append("subordination tables differ from the golden ones")
        if len(answers) != len(expected):
            problems.append(f"{len(answers)} answers for {len(expected)} decisions")
        for i, (a, (code, first)) in enumerate(zip(answers, expected)):
            if a["code"] != code or a["first_line"] != first or a["stderr"]:
                problems.append(f"decision {i}: got {a['code']!r} {a['first_line']!r} {a['stderr']!r}")
            elif code == 0 and not a.get("replayed"):
                problems.append(f"decision {i}: the certificate does not replay")
    return attempted, problems


def p99(values: list[float]) -> float:
    """The 99th percentile; below 100 samples, the largest."""
    if len(values) < 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def timed_run(runner: Runner, seconds: int, expected) -> tuple[dict, int, list]:
    reps = []
    start = time.perf_counter()
    while True:
        rep, wall = runner.spawn("run")
        reps.append(rep)
        if time.perf_counter() - start + wall > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("setup")[0]["setup_s"])
    attempted, problems = judge(runner.workload, reps, expected)
    latencies = [x for r in reps for x in r["latencies_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "decisions_per_s": len(latencies) / sum(r["run_s"] for r in reps),
        "decision_p50_ms": statistics.median(latencies),
        "decision_p99_ms": p99(latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    print(
        f"{runner.workload}: {len(reps)} repetitions, {len(latencies)} decisions, "
        f"{len(setups)} set-up samples; run_s (wall) per repetition: "
        + " ".join(f"{r['run_s']:.4f} ({r['run_wall_s']:.4f})" for r in reps)
    )
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, attempted, problems


def traced_run(runner: Runner, expected) -> tuple[dict, int, list]:
    plain, _ = runner.spawn("run")
    traced, _ = runner.spawn("run", trace=True)
    attempted, problems = judge(runner.workload, [plain, traced], expected)
    attempted += 1  # the two repetitions agree
    if traced["answers"] != plain["answers"]:
        problems.append("the traced run answered differently from the untraced run")
    stats = traced["trace"]
    # Per-layer times are wall times; scale them to the reference speed of
    # the traced run as a whole.
    speed = traced["run_s"] / traced["run_wall_s"]
    metrics = {
        name: {"value": fn(stats) * speed if unit == "s" else fn(stats), "unit": unit}
        for name, (unit, fn) in PER_LAYER.items()
    }
    metrics["trace.overhead_frac"] = {
        "value": traced["run_s"] / plain["run_s"] - 1,
        "unit": "ratio",
    }
    print(
        f"{runner.workload}: run_s untraced {plain['run_s']:.4f} s "
        f"(wall {plain['run_wall_s']:.4f} s), traced {traced['run_s']:.4f} s "
        f"(wall {traced['run_wall_s']:.4f} s)"
    )
    print(f"  oracle judgements (calls, distinct) by kind: {stats['oracle.judgements']['by_kind']}")
    by_module: dict[str, float] = {}
    for name, s in stats.items():
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + s.get("self_s", 0.0)
    print(
        "  share of traced wall time, by module self time: "
        + ", ".join(
            f"{m} {t / traced['run_wall_s']:.1%}"
            for m, t in sorted(by_module.items(), key=lambda kv: -kv[1])
            if t
        )
    )
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].get("self_s", 0.0))[:25]:
        print(f"  {name:45s} calls {s['calls']:>10}  self {s.get('self_s', 0.0):9.4f} s")
    return metrics, attempted, problems


# ---------------------------------------------------------------------------


def check_checkout() -> None:
    if not (ROOT / "src" / "lfport" / "__init__.py").is_file():
        raise BenchError(f"no lfport sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise BenchError("BENCHMARK.json end_to_end metrics differ from the benchmark's")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, (unit, _) in PER_LAYER.items()}
    emitted["trace.overhead_frac"] = "ratio"
    if declared != emitted:
        raise BenchError("BENCHMARK.json per_layer metrics differ from the benchmark's")
    # Compile ahead, so that no repetition pays for it.
    if not compileall.compile_dir(ROOT / "src" / "lfport", quiet=1):
        raise BenchError("lfport does not compile")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload",
        required=True,
        choices=("oracle-transport", "oracle-minimize", "transport-batch"),
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    try:
        check_checkout()
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
        try:
            stream = expected = None
            if args.workload == "transport-batch":
                stream, expected = write_stream(args.seed, work)
            runner = Runner(args.workload, stream, deadline)
            if args.trace:
                metrics, attempted, problems = traced_run(runner, expected)
            else:
                metrics, attempted, problems = timed_run(runner, args.seconds, expected)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()  # only if no other run is using it
    except (BenchError, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2

    for p in problems[:20]:
        print(f"wrong answer: {p}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
