"""Command-line interface: subcommands, output, exit codes."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lfport
from lfport import cli
from lfport.cli import main
from conftest import FIXTURES, read
from golden import replay

SIG = str(FIXTURES / "sig_size.lf")
SIG_STLC = str(FIXTURES / "sig_stlc.lf")
SCHEMAS = str(FIXTURES / "schemas_size.sch")
SCHEMAS_STLC = str(FIXTURES / "schemas_stlc.sch")
PLUS = str(FIXTURES / "plus.fml")
PLUS_CTX = str(FIXTURES / "plus_ctx.fml")
TM_SIZE = str(FIXTURES / "tm_size.fml")
CTX_SIZE = str(FIXTURES / "ctx_size.lfc")
CTX_EMPTY = str(FIXTURES / "ctx_empty.lfc")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", SIG)
    assert code == 0
    assert "12 declarations" in out


def test_check_duplicate_is_a_refutation(tmp_path, capsys):
    bad = tmp_path / "bad.lf"
    bad.write_text("nat : Type.\nnat : Type.\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "ill-formed" in out


def test_check_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.lf"
    bad.write_text("c : .\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


def test_subord_golden(capsys):
    code, out, _ = run(capsys, "subord", SIG)
    assert code == 0
    assert out.splitlines() == [
        "nat <= nat",
        "nat <= plus",
        "nat <= size",
        "plus <= plus",
        "plus <= size",
        "size <= size",
        "tm <= size",
        "tm <= tm",
    ]


def test_minimize_keeps_relevant_bindings(capsys):
    code, out, _ = run(
        capsys, "minimize", SIG, "--ctx", CTX_SIZE, "--type", "size n1 (s z)"
    )
    assert code == 0
    assert out.splitlines() == ["n1 : tm", "n2 : size n1 (s z)"]


def test_minimize_drops_everything_for_nat(capsys):
    code, out, _ = run(capsys, "minimize", SIG, "--ctx", CTX_SIZE, "--type", "nat")
    assert code == 0
    assert out == ""


def test_minimize_primes_a_shadowing_binder(tmp_path, capsys):
    # A binding type read from a context file prints its shadowing inner
    # binder primed, as every other command prints such a type.
    sig = tmp_path / "r.lf"
    sig.write_text("nat : Type.\nz : nat.\ntm : Type.\nr : {x : tm} {x : tm} nat -> Type.\n")
    ctx = tmp_path / "r.lfc"
    ctx.write_text("n1 : tm, n2 : {x : tm} {x : tm} r x x z\n")
    code, out, _ = run(
        capsys, "minimize", str(sig), "--ctx", str(ctx), "--type", "r n1 n1 z"
    )
    assert code == 0
    assert out.splitlines() == ["n1 : tm", "n2 : tm -> {x' : tm} r x' x' z"]


def test_schema_check(capsys):
    code, out, _ = run(capsys, "schema-check", SIG, SCHEMAS)
    assert code == 0
    assert "ok: Cempty" in out and "ok: Csize" in out


def test_instance_yes(capsys):
    code, out, _ = run(
        capsys, "instance", SIG, SCHEMAS, "--schema", "Csize", "--ctx", CTX_SIZE
    )
    assert code == 0
    assert "instance of Csize" in out


def test_instance_no(capsys):
    code, out, _ = run(
        capsys, "instance", SIG, SCHEMAS, "--schema", "Cempty", "--ctx", CTX_SIZE
    )
    assert code == 1
    assert "not an instance" in out


def test_subsumes_ok(capsys):
    code, out, _ = run(
        capsys, "subsumes", SIG, SCHEMAS,
        "--from", "Cempty", "--to", "Csize", "--formula", PLUS, "--var", "G",
    )
    assert code == 0
    assert "Cempty subsumes Csize" in out


def test_subsumes_failure_names_block(capsys):
    code, out, _ = run(
        capsys, "subsumes", SIG, SCHEMAS,
        "--from", "Cempty", "--to", "Csize", "--formula", TM_SIZE, "--var", "G",
    )
    assert code == 1
    assert "undroppable binding: x : tm" in out


def test_transport_accepts_context_quantified_formula(capsys):
    code, out, _ = run(
        capsys, "transport", SIG, SCHEMAS,
        "--from", "Cempty", "--to", "Csize", "--formula", PLUS_CTX, "--var", "G",
    )
    assert code == 0
    assert "transport certificate" in out


def test_transport_schema_mismatch_is_input_error(capsys):
    code, _, err = run(
        capsys, "transport", SIG, SCHEMAS,
        "--from", "Csize", "--to", "Csize", "--formula", PLUS_CTX, "--var", "G",
    )
    assert code == 2
    assert "error" in err


def test_transport_checks_each_input_once(monkeypatch, capsys):
    # load_workspace checks the two schemas of the file and
    # _transport_inputs the formula; the transport check relies on them
    calls = {}
    for fn in (lfport.check_schema, lfport.check_formula):
        def counted(*args, _fn=fn):
            calls[_fn.__name__] = calls.get(_fn.__name__, 0) + 1
            return _fn(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "lfport" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    code, _, _ = run(
        capsys, "transport", SIG, SCHEMAS,
        "--from", "Cempty", "--to", "Csize", "--formula", PLUS, "--var", "G",
    )
    assert code == 0
    assert calls == {"check_schema": 2, "check_formula": 1}


def test_validate_atom(tmp_path, capsys):
    f = tmp_path / "atom.fml"
    f.write_text("{ |- plus-z z : plus z z z }\n")
    code, out, _ = run(capsys, "validate", SIG, "--formula", str(f))
    assert code == 0
    assert out.splitlines()[0] == "Valid"


def test_validate_bottom(tmp_path, capsys):
    f = tmp_path / "bot.fml"
    f.write_text("ff\n")
    code, out, _ = run(capsys, "validate", SIG, "--formula", str(f))
    assert code == 1
    assert out.splitlines()[0] == "Invalid"


def test_validate_binder_named_like_a_constant(tmp_path, capsys):
    # The binder z shares its name with the constant z.  Instantiating N
    # with a term mentioning z renames nothing: the trace names the binder
    # z, as the formula writes it.
    f = tmp_path / "z.fml"
    f.write_text("forall N : o. forall z : o. { |- N : nat } => { |- z : nat }\n")
    code, out, _ = run(capsys, "validate", SIG, "--formula", str(f))
    assert code == 1
    assert out == (
        "Invalid\n"
        "  counterexample N = Atom(head='z', args=())\n"
        "  counterexample z = Atom(head='plus-z', args=(Atom(head='z', args=()),))\n"
        "  judgement fails: synthesized AtomicType(head='plus', args=("
        "Atom(head='z', args=()), Atom(head='z', args=()), Atom(head='z', args=()))),"
        " expected AtomicType(head='nat', args=())\n"
    )


def test_transport_prints_a_doubly_shadowed_declaration_variable(tmp_path, capsys):
    # The block binds x, and y's type binds x twice more below it: each
    # inner binder is printed apart from every name in scope.
    sig = tmp_path / "r.lf"
    sig.write_text("nat : Type.\nz : nat.\ntm : Type.\nr : {x : tm} {x : tm} nat -> Type.\n")
    sch = tmp_path / "r.sch"
    sch.write_text("schema A := {}(x : tm, y : {x : tm} {x : tm} r x x z).\n")
    f = tmp_path / "r.fml"
    f.write_text("{ G |- z : nat } => tt\n")
    code, out, _ = run(
        capsys, "transport", str(sig), str(sch), "--from", "A", "--to", "A",
        "--formula", str(f), "--var", "G",
    )
    assert code == 0
    assert "source schema: A = {}(x : tm, y : tm -> {x'' : tm} r x'' x'' z)" in (
        out.splitlines()
    )


def test_validate_open_formula_is_input_error(capsys):
    code, _, err = run(capsys, "validate", SIG, "--formula", PLUS)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text",
    [
        "{ |- " + "s (" * 3000 + "z" + ")" * 3000 + " : nat }",
        "(" * 3000 + "{ |- z : nat }" + ")" * 3000,
    ],
    ids=["term", "formula"],
)
def test_validate_deep_input_is_input_error(tmp_path, capsys, text):
    f = tmp_path / "deep.fml"
    f.write_text(text + "\n")
    code, out, err = run(capsys, "validate", SIG, "--formula", str(f))
    assert code == 2
    assert out == ""
    assert err == "error: input nested too deeply\n"


def test_validate_deep_open_term_is_decided(tmp_path, capsys):
    # Substituting each pool term for N walks all 400 levels; the reach that
    # lets it share closed subtrees is found without recursion, so it takes
    # no frames from that walk or from the checkers.
    f = tmp_path / "deep.fml"
    f.write_text("forall N : o. { |- " + "s (" * 400 + "N" + ")" * 400 + " : nat }\n")
    code, out, err = run(capsys, "validate", SIG, "--formula", str(f))
    assert code == 1
    assert out.splitlines()[0] == "Invalid"
    assert err == ""


def test_oracle_small(capsys):
    code, out, _ = run(capsys, "oracle", SIG, "--term-size", "3", "--blocks", "2")
    assert code == 0
    assert "PASS" in out


def test_oracle_with_transport_harness(capsys):
    code, out, _ = run(
        capsys, "oracle", SIG, "--schemas", SCHEMAS,
        "--from", "Cempty", "--to", "Csize", "--formula", PLUS, "--var", "G",
        "--term-size", "3", "--blocks", "2",
    )
    assert code == 0
    assert out.count("PASS") == 2


def test_oracle_incomplete_transport_flags(capsys):
    code, _, err = run(
        capsys, "oracle", SIG, "--schemas", SCHEMAS, "--from", "Cempty",
        "--term-size", "3", "--blocks", "2",
    )
    assert code == 2
    assert "error" in err


def test_sixth_section_size_existence_formula_parses(capsys, tmp_path):
    f = tmp_path / "size_exists.fml"
    f.write_text(
        "forall M : o. { |- M : tm } =>\n"
        "  exists N : o. exists D : o. { |- D : size M N }\n"
    )
    code, out, _ = run(capsys, "validate", SIG, "--formula", str(f),
                       "--term-size", "2", "--blocks", "1")
    assert code == 0
    assert out.splitlines()[0] == "Unknown"


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "subord", "no-such-file.lf")
    assert code == 2
    assert "no such file" in err
    # a path through a regular file names no file either
    assert run(capsys, "check", SIG + "/x") == (2, "", f"error: no such file: {SIG}/x\n")


def test_unreadable_path_is_input_error(capsys):
    code, out, err = run(capsys, "check", str(FIXTURES))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {FIXTURES}: ")
    assert err.count("\n") == 1


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minimize", SIG])
    assert exc.value.code == 2


def test_multi_block_subsumption(capsys):
    code, out, _ = run(
        capsys, "subsumes", SIG_STLC, SCHEMAS_STLC,
        "--from", "Cmix", "--to", "Cof",
        "--formula", str(FIXTURES / "of_exists.fml"), "--var", "G",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "subsumes", SIG_STLC, SCHEMAS_STLC,
        "--from", "Cof", "--to", "Cmix",
        "--formula", str(FIXTURES / "of_exists.fml"), "--var", "G",
    )
    assert code == 1


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call(monkeypatch):
    # Subcommands with defaults and explicit options, a usage error and
    # --help, interleaved in one process: the shared parser gives what a
    # freshly built one gives.
    transport = ["transport", SIG, SCHEMAS, "--from", "Cempty", "--to", "Csize",
                 "--formula", PLUS, "--var", "G"]
    calls = [
        transport,
        ["check", SIG],
        transport + ["--to", "Cnone"],
        ["minimize", SIG],
        transport,
        ["subsumes", SIG, SCHEMAS, "--from", "Csize", "--to", "Cempty",
         "--formula", TM_SIZE, "--var", "G"],
        ["transport", "--help"],
        ["validate", SIG, "--formula", PLUS_CTX, "--schemas", SCHEMAS,
         "--term-size", "2", "--blocks", "1"],
        ["--help"],
        ["oracle", SIG, "--term-size", "2", "--blocks", "1"],
        ["transport", SIG, SCHEMAS, "--from", "Cempty"],
        transport + ["--from", "Csize"],
        ["check", SIG],
    ]
    shared = [_outcome(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_outcome(argv) for argv in calls]
    assert shared == fresh
    assert {code for code, _, _ in shared} == {0, 1, 2}
    assert shared[0] == shared[4] and shared[2][0] == 2 and shared[11][0] == 0


def test_signature_memo_is_transparent():
    # every golden command line gives the same outcome with the memo cleared
    # before it as in one warm sequence of calls
    argvs = [case["argv"] for case in replay.load()]
    cold = []
    for argv in argvs:
        cli._checked_signature.cache_clear()
        cold.append(replay.run(argv))
    cli._checked_signature.cache_clear()
    warm = [replay.run(argv) for argv in argvs]
    assert cli._checked_signature.cache_info().hits > 0
    assert warm == cold


def test_signature_memo_answers_for_the_current_text(tmp_path, capsys):
    # one path, rewritten between calls: each call answers for the text the
    # file holds then
    sig = tmp_path / "sig.lf"
    path = str(sig)
    sig.write_text(read("sig_size.lf"))
    assert run(capsys, "check", path) == (0, "ok: signature with 12 declarations\n", "")
    sig.write_text("nat : Type.\nnat : Type.\n")
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert out.startswith("ill-formed signature: ")
    sig.write_text(read("sig_stlc.lf"))
    assert run(capsys, "check", path) == (0, "ok: signature with 18 declarations\n", "")
    assert run(capsys, "subord", path) == run(capsys, "subord", SIG_STLC)


@pytest.mark.parametrize(
    "text, code",
    [("nat : Type.\nnat : Type.\n", 1), ("c : .\n", 2)],
    ids=["ill-formed", "parse-error"],
)
def test_signature_memo_keeps_no_failure(tmp_path, capsys, text, code):
    bad = tmp_path / "bad.lf"
    bad.write_text(text)
    first = run(capsys, "check", str(bad))
    assert first[0] == code
    assert run(capsys, "check", str(bad)) == first


def test_signature_memo_is_bounded():
    assert cli._checked_signature.cache_info().maxsize is not None


def _with_stdout_closed(*argv, stdin=None):
    """Exit code and stderr of `lfport` run in a child process whose stdout
    is a pipe with no reader: the read end is closed before the child
    starts, so its first write to stdout fails, whenever it comes.  The
    child's stdin is the text `stdin`, if given."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(lfport.__file__).resolve().parents[1])
    try:
        child = subprocess.run(
            [sys.executable, "-m", "lfport.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            input=None if stdin is None else stdin.encode(),
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write_end)
    return child.returncode, child.stderr.decode()


_TRANSPORT = ["transport", SIG, SCHEMAS, "--formula", PLUS, "--var", "G"]
_MANY = "".join(f"schema C{i} := {{}}(x : tm).\n" for i in range(2000))
_BAD = "schema Cbad := {}(x : size).\n"


@pytest.mark.parametrize(
    "argv, schemas, code",
    [
        (_TRANSPORT + ["--from", "Cempty", "--to", "Csize"], None, 0),
        (_TRANSPORT + ["--from", "Csize", "--to", "Cempty"], None, 1),
        (["schema-check", SIG, "/dev/stdin"], _MANY, 0),
        (["schema-check", SIG, "/dev/stdin"], _MANY + _BAD, 1),
    ],
    ids=["certificate", "refusal", "long-ok", "long-ill-formed"],
)
def test_a_closed_stdout_keeps_the_exit_code(argv, schemas, code):
    # a certificate and a refusal fit the output buffer, so the write fails
    # at the final flush; a check of 2,000 schemas does not, so it fails
    # while the command runs, which still decides on the whole schema file,
    # read once from stdin
    assert _with_stdout_closed(*argv, stdin=schemas) == (code, "")
