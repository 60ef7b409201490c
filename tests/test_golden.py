"""Recorded command-line outputs stay byte-identical.

`tests/golden/cli.json` holds the exit code, stdout and stderr of every
README command, of `instance`/`transport`/`validate`/`oracle` on the stlc
fixtures, of `validate` on a formula whose trace names a renamed
binder, of `check`/`minimize` on ill-formed declarations and types
whose messages name the nominal chosen for a binder, or whose scope
applies its bound variable to too many arguments, and of
`check`/`schema-check`/`validate` on malformed files whose parse errors
report a line and column.  `tests/golden/parse_errors.json` holds the
parse outcome of seeded edits of every fixture file.
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
