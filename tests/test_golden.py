"""Recorded command-line outputs stay byte-identical.

`tests/golden/cli.json` holds the exit code, stdout and stderr of every
README command, of `instance`/`transport`/`validate`/`oracle` on the stlc
fixtures, of `validate` on formulas whose traces name binders named
like a constant, of `check`/`minimize` on ill-formed declarations (of
terms and of type constants) and types whose messages name the nominal
chosen for a binder, or whose scope applies its bound variable to too many
arguments, and of
`check`/`schema-check`/`validate` on malformed files whose parse errors
report a line and column; and of `validate`/`transport` on formulas whose
quantifiers shadow, rebind the context variable or are named like a
constant; and of `validate` on nested context quantifiers, on a nominal
that an instance and an atom both bind, and on a context counterexample
under a term quantifier; and of `schema-check`/`transport`/`instance` on
blocks whose higher-order parameter is applied to a declaration variable;
and of the error paths no other test reaches: `schema-check`/`transport`
on ill-formed schemas and on a schema defined twice, `instance` on an
undefined schema, `validate` on atoms with a kind for a type, a redex, a
nominal bound twice or a type that does not arity-kind, and `minimize` on
a context file that binds a nominal twice; and of `transport`/`subsumes`
from a source schema that repeats a refused block under renaming; and
of `transport`/`subsumes` from a four-entry block to the same block after
21 bindings the search drops, which it decides with one renaming; and of
`minimize`/`validate` on a context that binds one nominal name at two
arities; and of `schema-check`/`transport` on schema
declarations typed by a kind or by a Pi type, and on a parameter or
declaration list with a trailing comma; and of `validate` on traces that
end in a type argument that does not check: in an atom's type, under a Pi
binder the message names, and in an explicit context binding; and of
`transport` refused at the validity side condition; and of
`transport`/`subsumes` under a formula whose atoms bind a nominal after
the context variable, so that no binding may be dropped; and of
`validate` at `--pool-nominals` 0 and 1 on a witness only a pool nominal
gives; and of `validate` on term quantifiers guarded by their body's first
atom: with an empty range, with a guard type or context binding that forms
for some choices only, under a conjunction that ends in a counterexample,
and over pool nominals that take their types from the guard's context; and
of `oracle` on a formula valid on both sides of every transport instance.
`tests/golden/parse_errors.json` holds the parse outcome of
seeded edits of every fixture file, and `tests/golden/formulas.json` the
printed text, reprinted text, check outcome and bounded validity of
seeded random formulas.  `tests/golden/texts.json` holds the outcome of
`parse_type_text` and `parse_term_text` on seeded edits of type and term
texts, which the command line reaches only through `minimize --type`.
`tests/golden/replay.py` replays them (and re-records them when an output
change is intended).
"""

from golden import replay


def test_golden_cli_outputs_are_unchanged():
    assert replay.load()
    assert replay.mismatches() == []


def test_parse_outcomes_of_edited_fixtures_are_unchanged():
    want = replay.load_parse_outcomes()
    assert len(want) == 300
    assert replay.parse_outcomes() == want


def test_random_formula_outcomes_are_unchanged():
    want = replay.load_formula_outcomes()
    assert len(want) == replay.FORMULAS
    assert replay.formula_outcomes() == want


def test_type_and_term_text_outcomes_are_unchanged():
    want = replay.load_text_outcomes()
    assert len(want) == 442
    assert replay.text_outcomes() == want


def test_rebinding_the_context_variable_transports_like_its_alpha_variant():
    # `{G |- ..} \/ (ctx G : Cempty. tt)` with G free, and the same body under
    # `ctx G : Cempty.`, whose inner binder the parser hints G'
    argv = [
        "transport", "fixtures/sig_size.lf", "fixtures/schemas_size.sch",
        "--from", "Cempty", "--to", "Csize", "--var", "G", "--formula",
    ]
    free, closed = (
        replay.run(argv + [f"tests/golden/{name}.fml"])
        for name in ("gamma_rebound", "gamma_rebound_closed")
    )
    assert free["exit"] == closed["exit"] == 0
    assert "valtop: or-right(ctx(top))" in free["stdout"]
    assert free["stdout"].replace("ctx G :", "ctx G' :") == closed["stdout"]
