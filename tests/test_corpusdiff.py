"""tests/corpusdiff.py on small in-memory corpora."""

import io
import json

from corpusdiff import diff, key_paths


def _corpus(*reports):
    return [json.dumps({"case": case, "report": report}, sort_keys=True) for case, report in reports]


OLD = _corpus(
    ("a", {"cases": 5, "verdict": "verified"}),
    ("b", {"cases": 3, "verdict": "counterexample", "witness": {"X": [1, 2], "alpha": "0"}}),
    ("c", {"checks": [{"cases": 1, "property": "p"}, {"cases": 2, "property": "q"}]}),
    ("d", {"cases": 4, "notes": ["x"]}),
)
NEW = _corpus(
    ("a", {"cases": 4, "verdict": "verified"}),
    ("b", {"cases": 2, "verdict": "counterexample", "witness": {"X": [1, 3], "alpha": "0"}}),
    ("c", {"checks": [{"cases": 0, "property": "p"}, {"cases": 1, "property": "q"}]}),
    ("d", {"cases": 4}),
)


def _run(old, new):
    out = io.StringIO()
    code = diff(old, new, out)
    return code, out.getvalue().splitlines()


def test_key_paths_name_each_differing_leaf_once():
    assert key_paths({"a": 1}, {"a": 1}) == []
    assert key_paths({"a": {"b": 1, "c": 2}}, {"a": {"b": 1, "c": 3}}) == ["a.c"]
    assert key_paths({"l": [{"n": 1}, {"n": 2}]}, {"l": [{"n": 0}, {"n": 0}]}) == ["l[].n"]
    assert key_paths({"l": [1]}, {"l": [1, 2]}) == ["l"]
    assert key_paths({"a": 1}, {"b": 1}) == ["a", "b"]


def test_lines_that_differ_and_the_tally_per_key_path():
    code, lines = _run(OLD, NEW)
    assert code == 0
    assert lines == [
        "a: report.cases",
        "b: report.cases, report.witness.X[]",
        "c: report.checks[].cases",
        "d: report.notes",
        "4 of 4 lines differ",
        "      2  report.cases",
        "      1  report.checks[].cases",
        "      1  report.notes",
        "      1  report.witness.X[]",
    ]


def test_equal_corpora_differ_in_no_line():
    assert _run(OLD, OLD) == (0, ["0 of 4 lines differ"])


def test_line_count_or_case_order_that_differs_is_an_error():
    code, lines = _run(OLD, NEW[:3])
    assert (code, lines) == (1, ["line count differs: 4 against 3"])
    code, lines = _run(OLD, [NEW[1], NEW[0], *NEW[2:]])
    assert (code, lines) == (1, ["case order differs at line 1: a against b"])
