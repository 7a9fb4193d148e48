"""The mutation catalogue (tests/mutants.py) cannot go stale: every row still
applies to the tree and names a test module that exists."""

from mutants import ROOT, ROWS


def test_every_mutant_applies_exactly_once():
    assert len({row.id for row in ROWS}) == len(ROWS)
    for row in ROWS:
        assert (ROOT / row.file).read_text().count(row.old) == 1, row.id
        assert row.old != row.new and (ROOT / row.module).is_file(), row.id
