"""Recorded command-line outputs stay byte-identical.

`tests/golden/cli.json` holds the exit code, stdout and stderr of every
README command, of `instance`/`transport`/`validate`/`oracle` on the stlc
fixtures, and of `validate` on a formula whose trace names a renamed
binder.  `tests/golden/replay.py` replays them (and re-records them when an
output change is intended).
"""

from golden import replay


def test_golden_cli_outputs_are_unchanged():
    assert replay.load()
    assert replay.mismatches() == []
