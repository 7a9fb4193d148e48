"""Scenario IO, CLI dispatch, report determinism, exit codes."""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from condind.cli import EXIT_COUNTEREXAMPLE, EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, run
from condind.errors import ParseError, ValidationError
from condind.scenario import (
    CANONICAL_DOC,
    canonical_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from conftest import pairs_doc


def write_scenario(tmp_path, doc, name="s.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def mutated_doc(**overrides):
    doc = json.loads(json.dumps(CANONICAL_DOC))
    doc.update(overrides)
    return doc


def test_canonical_loads(tmp_path):
    path = write_scenario(tmp_path, CANONICAL_DOC)
    s = load_scenario(path)
    assert s.space.atoms == ("a", "b", "c", "d")
    assert s.filtration is not None and s.filtration.times == ("F0", "H", "F2")


def test_null_atom_rejected(tmp_path):
    doc = mutated_doc(atoms=[
        {"label": "a", "prob": "0"},
        {"label": "b", "prob": "1"},
    ])
    doc["partitions"] = {"H": [["a", "b"]]}
    doc["filtration"] = []
    doc["variables"] = {}
    with pytest.raises(ValidationError, match="null atom"):
        load_scenario(write_scenario(tmp_path, doc))


def test_wrong_filtration_order_rejected(tmp_path):
    doc = mutated_doc(filtration=["H", "F0"])
    with pytest.raises(ValidationError, match="refinement"):
        load_scenario(write_scenario(tmp_path, doc))


def test_parse_error_carries_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"atoms": [\n  broken\n]}')
    with pytest.raises(ParseError) as err:
        load_scenario(str(p))
    assert err.value.line == 2


def test_non_partition_rejected():
    doc = mutated_doc(partitions={"H": [["a", "b"], ["b", "c", "d"]]})
    with pytest.raises(ValidationError, match="partition 'H'"):
        parse_scenario(doc)


def test_decimal_and_inf_values(tmp_path):
    doc = mutated_doc(variables={"W": {"a": "0.5", "b": "inf", "c": "-inf", "d": 2}})
    s = load_scenario(write_scenario(tmp_path, doc))
    W = s.variables["W"]
    assert str(W.values[0]) == "1/2"
    assert W.values[1].is_pos_inf and W.values[2].is_neg_inf


def _with_atom(prob):
    doc = mutated_doc()
    doc["atoms"][0]["prob"] = prob
    return doc


def _with_value(value):
    doc = mutated_doc()
    doc["variables"]["X"]["a"] = value
    return doc


_TWO_ATOMS = {"atoms": [{"label": "a", "prob": "1/2"}, {"label": "b", "prob": "1/2"}],
              "variables": {"X": {"a": "1", "b": "2"}}}

# each document would load, or crash, without its shape or literal check
MALFORMED_SCENARIOS = {
    "prob-text": _with_atom("abc"),
    "prob-zero-denominator": _with_atom("1/0"),
    "prob-infinity": _with_atom(float("inf")),
    "prob-bool": {"atoms": [{"label": "a", "prob": True}], "partitions": {"H": [["a"]]},
                  "variables": {"X": {"a": "1"}}},
    "value-bool": _with_value(True),
    "value-text": _with_value("abc"),
    "partitions-list": mutated_doc(partitions=[["a", "b", "c", "d"]]),
    "variables-list": mutated_doc(variables=[{"a": "1", "b": "1", "c": "1", "d": "1"}]),
    "cells-string": dict(_TWO_ATOMS, partitions={"H": "ab"}),
    "filtration-string": mutated_doc(filtration="H"),
    "missing-file": None,
    "cell-repeats-atom": dict(_TWO_ATOMS, partitions={"H": [["a", "a", "b"]]}),
    "value-oversized-exponent": _with_value("1e5000"),
    "value-oversized-integer": _with_value(10**200),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_exits_2_with_json_error(case, tmp_path, capsys):
    doc = MALFORMED_SCENARIOS[case]
    path = str(tmp_path / "missing.json") if doc is None else write_scenario(tmp_path, doc)
    code = run(["apply", "--scenario", path, "--indicator", "esssup", "--sigma", "H", "--var", "X"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION, err
    assert "error" in json.loads(err)
    assert "Traceback" not in err


# inputs outside the scenario: argparse conversions and options that do not exist
BAD_INVOCATIONS = {
    "samples-zero": ["--samples", "0"],
    "samples-negative": ["--samples", "-1"],
    "cap-removed": ["--cap", "5"],
    "tol-removed": ["--tol", "1/2"],
}


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_invocation_exits_2_without_traceback(case, capsys):
    code = run(["apply", "--indicator", "esssup", "--sigma", "H", "--var", "X", *BAD_INVOCATIONS[case]])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION, err
    assert "Traceback" not in err
    assert "error" in json.loads(err)


BAD_INDICATORS = {
    "famsup:,": "'famsup:,': empty family",
    "lowext:esssup": "'lowext:esssup': expected lowext:<name>:<E-vars>",
    "nope:x": "unknown indicator 'nope:x'",
}


@pytest.mark.parametrize("name", sorted(BAD_INDICATORS))
def test_bad_indicator_name_exits_2_with_its_error(name, capsys):
    code = run(["apply", "--indicator", name, "--sigma", "H", "--var", "X"])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {"error": BAD_INDICATORS[name]}


FILTRATION_VERBS = {
    "tower": ["--family", "esssup", "--s", "F0", "--t", "H"],
    "envelope": ["--family", "esssup", "--payoff", "X"],
    "project": ["--var", "X", "--time", "H"],
}


@pytest.mark.parametrize("verb", sorted(FILTRATION_VERBS))
def test_verb_without_scenario_filtration_exits_2(verb, tmp_path, capsys):
    doc = mutated_doc()
    del doc["filtration"]
    code = run([verb, "--scenario", write_scenario(tmp_path, doc), *FILTRATION_VERBS[verb]])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {"error": f"{verb} needs a scenario filtration"}


def test_help_exits_0_with_usage_text(capsys):
    assert run(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: condind")


BAD_GRIDS = {
    "grid-text": "abc",
    "grid-zero-denominator": "1/0",
    "grid-oversized-exponent": "1e5000",
    # refused by its length before Fraction expands it, which takes over a second
    "grid-two-million-digits": "1e2000000",
}


@pytest.mark.parametrize("case", sorted(BAD_GRIDS))
def test_bad_project_grid_exits_2_with_json_error(case, capsys):
    code = run(["project", "--var", "X", "--time", "H", "--grid", BAD_GRIDS[case]])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION, err
    assert "error" in json.loads(err)
    assert "Traceback" not in err


BAD_AMERICAN = {
    "unknown-time": "Q=Z",
    "repeated-time": "H=Z,H=Z",
    "no-variable": "H",
}


@pytest.mark.parametrize("case", sorted(BAD_AMERICAN))
def test_bad_envelope_american_exits_2_with_json_error(case, capsys):
    code = run(["envelope", "--family", "esssup", "--payoff", "X", "--american", BAD_AMERICAN[case]])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION, err
    assert "error" in json.loads(err)
    assert "Traceback" not in err


# JSON texts that json.loads itself refuses with other errors than a decode error
RAW_SCENARIO_TEXTS = {
    "integer-past-digit-limit":
        '{"atoms": [{"label": "a", "prob": 1}], "variables": {"X": {"a": %s}}}' % ("9" * 5000),
    "nesting-past-recursion-limit": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("case", sorted(RAW_SCENARIO_TEXTS))
def test_json_past_interpreter_limits_exits_2(case, tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text(RAW_SCENARIO_TEXTS[case])
    code = run(["apply", "--scenario", str(p), "--indicator", "esssup", "--var", "X"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION, err
    assert "error" in json.loads(err)


def test_unrenderable_result_exits_3_with_json_error(tmp_path, capsys):
    # every literal is within the digit bound, but the mean of 50 values whose
    # 91-digit denominators share few factors has more digits than str() may print
    labels = [f"w{i}" for i in range(50)]
    doc = {
        "atoms": [{"label": a, "prob": "1/50"} for a in labels],
        "variables": {"X": {a: f"1/{10**90 + i}" for i, a in enumerate(labels)}},
    }
    code = run(["condexp-ext", "--scenario", write_scenario(tmp_path, doc), "--var", "X"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL, captured.err
    assert "internal-error" in json.loads(captured.err)
    assert "Traceback" not in captured.err and captured.out == ""


def test_round_trip(tmp_path):
    s = canonical_scenario()
    out = tmp_path / "echo.json"
    dump_scenario(s, out)
    again = load_scenario(out)
    assert scenario_to_dict(again) == scenario_to_dict(s)
    assert again.space == s.space
    assert again.partitions == s.partitions
    assert again.variables == s.variables


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_apply_command():
    code, out = capture(["apply", "--indicator", "esssup", "--sigma", "H", "--var", "X"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["value"] == {"a": "3", "b": "3", "c": "6", "d": "6"}


def test_apply_composed_indicators():
    for name, expected in [
        ("dual:esssup", {"a": "1", "b": "1", "c": "2", "d": "2"}),
        ("mix:esssup", {"a": "2", "b": "2", "c": "4", "d": "4"}),
        ("famsup:essinf,esssup", {"a": "3", "b": "3", "c": "6", "d": "6"}),
        ("faminf:condexp,esssup", {"a": "2", "b": "2", "c": "4", "d": "4"}),
        ("lowext:esssup:Y", {"a": "3", "b": "3", "c": "6", "d": "6"}),
        ("upext:condexp:Y,Z", {"a": "3", "b": "3", "c": "4", "d": "4"}),
        ("dual:mix:esssup", {"a": "2", "b": "2", "c": "4", "d": "4"}),
        ("weighted:rho0", {"a": "5/2", "b": "5/2", "c": "4", "d": "4"}),
    ]:
        code, out = capture(["apply", "--indicator", name, "--sigma", "H", "--var", "X"])
        assert code == EXIT_OK, name
        assert json.loads(out)["results"]["value"] == expected, name


def test_check_command_and_exit_codes():
    code, out = capture(["check", "--indicator", "esssup", "--sigma", "H",
                         "--property", "axioms", "--samples", "60"])
    assert code == EXIT_OK
    code, out = capture(["check", "--indicator", "esssup", "--sigma", "H",
                         "--property", "linear", "--samples", "200"])
    assert code == EXIT_COUNTEREXAMPLE
    doc = json.loads(out)
    assert doc["failed"] is True
    code, _ = capture(["check", "--indicator", "esssup", "--property", "nonsense"])
    assert code == EXIT_VALIDATION


def test_unknown_names_are_validation_errors():
    assert capture(["apply", "--indicator", "esssup", "--sigma", "H", "--var", "NOPE"])[0] == EXIT_VALIDATION
    assert capture(["apply", "--indicator", "wat", "--sigma", "H", "--var", "X"])[0] == EXIT_VALIDATION
    assert capture(["apply", "--indicator", "esssup", "--sigma", "NOPE", "--var", "X"])[0] == EXIT_VALIDATION


def test_tower_and_project_commands():
    code, out = capture(["tower", "--family", "esssup", "--s", "F0", "--t", "F2",
                         "--samples", "60"])
    assert code == EXIT_OK
    code, out = capture(["project", "--var", "X", "--time", "H"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["count"] == 1
    assert doc["results"]["solutions"][0] == {"a": "3", "b": "3", "c": "6", "d": "6"}


def test_risk_command_with_axioms():
    code, out = capture(["risk", "--indicator", "condexp", "--var", "X",
                         "--axioms", "--samples", "60"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["rho"] == {"a": "-2", "b": "-2", "c": "-4", "d": "-4"}
    assert all(c["verdict"] == "verified" for c in doc["checks"])


def test_default_sigma_is_the_first_partition_by_name(tmp_path):
    # with no filtration of 2 or more times, a verb without --sigma conditions
    # on the partition whose name sorts first, not the first one listed
    doc = dict(_TWO_ATOMS, partitions={"Z": [["a"], ["b"]], "A": [["a", "b"]]}, filtration=["Z"])
    code, out = capture(["apply", "--scenario", write_scenario(tmp_path, doc),
                         "--indicator", "esssup", "--var", "X"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["value"] == {"a": "2", "b": "2"}


def test_condexp_ext_command():
    code, out = capture(["condexp-ext", "--var", "spike", "--sigma", "H"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["value"] == {
        "a": "inf", "b": "inf", "c": "1", "d": "1"
    }


def test_additivity_and_recover_commands():
    code, out = capture(["additivity-set", "--x", "X", "--y", "spike", "--sigma", "H"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["tags"] == {"0": "F4", "1": "F1"}
    code, out = capture(["recover-density", "--indicator", "weighted:rho0",
                         "--sigma", "H", "--samples", "40"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["report"]["density"] == {
        "a": "1/2", "b": "3/2", "c": "1", "d": "1"
    }
    code, out = capture(["recover-density", "--indicator", "esssup", "--sigma", "H",
                         "--samples", "40"])
    assert code == EXIT_OK
    assert "additivity" in json.loads(out)["results"]["hypothesis_failed"]


def test_envelope_command_with_american():
    code, out = capture(["envelope", "--family", "esssup", "--payoff", "X",
                         "--american", "H=Z"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["V"]["H"] == {"a": "3", "b": "3", "c": "6", "d": "6"}
    assert doc["results"]["V"]["F0"] == {"a": "6", "b": "6", "c": "6", "d": "6"}


def test_verify_all_small_and_deterministic():
    argv = ["verify-all", "--seed", "11", "--samples", "25"]
    code1, out1 = capture(argv)
    code2, out2 = capture(argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["results"]["tallies"]["counterexample"] == 0


def test_scenario_flag_and_env_cap(tmp_path, monkeypatch):
    # --scenario is read; CONDIND_CAP is not, not even a malformed one
    monkeypatch.setenv("CONDIND_CAP", "abc")
    path = write_scenario(tmp_path, CANONICAL_DOC)
    code, out = capture(["apply", "--scenario", path, "--indicator", "essinf",
                         "--sigma", "H", "--var", "X"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["value"] == {"a": "1", "b": "1", "c": "2", "d": "2"}


def test_env_cap_is_not_read(monkeypatch):
    argv = ["verify-all", "--samples", "10"]
    monkeypatch.delenv("CONDIND_CAP", raising=False)
    default = capture(argv)
    monkeypatch.setenv("CONDIND_CAP", "1")
    assert capture(argv) == default
    assert default[0] == EXIT_OK


@pytest.fixture(scope="module")
def pairs42(tmp_path_factory):
    # H has 21 cells: 2^21 events, more than EVENT_SAMPLES and one cell past the event cap
    return write_scenario(tmp_path_factory.mktemp("pairs42"), pairs_doc(42))


PAST_CAP = re.compile(r"partial: sampled [1-9][0-9]* of 2\^21 events")


def test_verify_all_past_the_cap_samples_events_and_says_so(pairs42):
    # every property that checks events of H samples 64 of its 2^21;
    # locality checks the empty event and the cells, so it never samples, nor
    # do the guards whose conclusion it is
    code, out = capture(["verify-all", "--scenario", pairs42, "--samples", "10"])
    assert code == EXIT_OK
    sampled = {c["property"] for c in json.loads(out)["checks"]
               if any(PAST_CAP.fullmatch(n) for n in c.get("notes", []))}
    assert sampled == {
        "averaging:esssup", "averaging:essinf", "averaging:condexp", "averaging:condexp-ext",
        "additive-implies-regular:esssup", "additive-implies-regular:condexp-ext",
        "condexp-ext-identities", "projection:esssup",
    }


def test_check_and_project_past_the_cap(pairs42, capsys):
    code, out = capture(["check", "--scenario", pairs42, "--indicator", "esssup", "--sigma", "H",
                         "--property", "additive-implies-regular", "--samples", "10"])
    assert code == EXIT_OK
    (check,) = json.loads(out)["checks"]
    assert any(PAST_CAP.fullmatch(n) for n in check["notes"]), check["notes"]
    # a projection solution is claimed over every event, so there is no sampled fallback
    # and a sweep over 2^21 events is over its budget whatever the grid
    code = run(["project", "--scenario", pairs42, "--var", "X", "--time", "H"])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {
        "error": "candidate sweep over 2^21 events needs > 200000 evaluations; shrink the grid"
    }


FATOU_SKIP = ("partial: exact checks see finitely many terms, which fix the limit only for "
              "eventually-constant sequences")
CHECK = ["check", "--indicator", "esssup", "--sigma", "H", "--property"]


@pytest.mark.parametrize("argv,code,lines", [
    (["apply", "--indicator", "esssup", "--sigma", "H", "--var", "X"], EXIT_OK,
     ["command: apply  seed=7 samples=500", "failed: False"]),
    (CHECK + ["axioms"], EXIT_OK, ["  [ok] axioms:esssup: 1626 cases", "failed: False"]),
    (CHECK + ["superadditive"], EXIT_COUNTEREXAMPLE,
     ["  [FAIL] superadditive:esssup: 12 cases", "failed: True"]),
    (CHECK + ["fatou"], EXIT_OK, [f"  [skip] fatou:esssup: 0 cases ({FATOU_SKIP})", "failed: False"]),
], ids=["apply", "ok", "fail", "skip"])
def test_text_format(argv, code, lines):
    got, out = capture(argv + ["--format", "text"])
    assert got == code
    assert set(lines) <= set(out.splitlines())


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "condind.cli", "apply", "--indicator", "condexp",
         "--sigma", "H", "--var", "X"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["value"]["d"] == "4"


_COLD_RUN = """
import contextlib, io, sys
from condind import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("condind.")))
"""


@pytest.mark.parametrize("argv,runs,skips", [
    (["apply", "--indicator", "esssup", "--sigma", "H", "--var", "X"], {"indicators"},
     {"battery", "checks", "risk", "stochastic", "expectation_ext", "sampling"}),
    (["envelope", "--family", "esssup", "--payoff", "X"], {"stochastic"},
     {"battery", "risk", "expectation_ext"}),
], ids=["apply", "envelope"])
def test_cold_verb_imports_only_the_modules_it_runs(argv, runs, skips):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN, *argv],
                          capture_output=True, text=True, timeout=120, env=env, check=True)
    code, *modules = proc.stdout.split()
    loaded = {m.removeprefix("condind.") for m in modules}
    assert code == str(EXIT_OK)
    assert runs <= loaded
    assert not loaded & skips, sorted(loaded & skips)


# -- fuzzed input contract ----------------------------------------------------

_LABELS = ("a", "b", "c")
_VALID_LITERALS = st.one_of(
    st.fractions(max_denominator=6, min_value=-9, max_value=9).map(str),
    st.integers(-9, 9),
    st.sampled_from(["inf", "-inf", "0.5", " 1/3 "]),
)
_ANY_LITERALS = st.one_of(
    _VALID_LITERALS,
    st.sampled_from(["abc", "1/0", "", "1e5000", "1e-5000", "1e2000000", "nan", "1_0"]),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-10**7, 10**7)),
    st.integers(4300, 10**7).map("1e{}".format),  # past the int-to-str limit once expanded
    st.text(alphabet="0123456789/.-+eE_ ", max_size=8),
    st.integers(min_value=10**90, max_value=10**4000),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
)
_JSON_JUNK = st.recursive(
    st.one_of(_ANY_LITERALS, st.sampled_from(_LABELS)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(_LABELS), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def _valid_scenario_docs(draw):
    """A scenario document that loads: 1-3 atoms with drawn masses, three
    nested partitions, a filtration over some of them and two variables."""
    labels = list(_LABELS[: draw(st.integers(1, 3))])
    masses = [draw(st.integers(1, 9)) for _ in labels]
    return {
        "atoms": [{"label": a, "prob": f"{m}/{sum(masses)}"} for a, m in zip(labels, masses)],
        "partitions": {
            "F0": [labels],
            "H": draw(st.sampled_from([[labels[:1], labels[1:]] if labels[1:] else [labels], [labels]])),
            "F2": [[a] for a in labels],
        },
        "filtration": draw(st.sampled_from([["F0", "H", "F2"]] * 3 + [["F0", "F2"], ["H", "F2"], []])),
        "variables": {v: {a: draw(_VALID_LITERALS) for a in labels} for v in ("X", "Y")},
    }


@st.composite
def _scenario_docs(draw):
    """A valid scenario, or one with a bad value, probability, filtration
    order or section."""
    doc = draw(_valid_scenario_docs())
    labels = [atom["label"] for atom in doc["atoms"]]
    fault = draw(st.sampled_from(["none", "none", "value", "prob", "filtration", "section"]))
    if fault == "value":
        doc["variables"][draw(st.sampled_from(["X", "Y"]))][labels[-1]] = draw(_ANY_LITERALS)
    elif fault == "prob":
        doc["atoms"][0]["prob"] = draw(_ANY_LITERALS)
    elif fault == "filtration":
        doc["filtration"] = ["F2", "F0"]
    elif fault == "section":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON_JUNK)
    return doc


_INDICATORS = st.sampled_from([
    "esssup", "essinf", "condexp", "condexp-ext", "dual:esssup", "mix:condexp",
    "famsup:esssup,essinf", "weighted:X", "lowext:esssup:Y", "upext:condexp:X,Y", "nope",
])
_NAMES = st.sampled_from(["X", "Y"] * 3 + ["nope"])
_PARTS = st.sampled_from(["F0", "H", "F2"] * 2 + ["nope"])
_FAMILIES = st.sampled_from(["esssup", "essinf", "condexp", "condexp-ext"])
_TEXT = _ANY_LITERALS.map(str)
_ARGVS = st.one_of(
    st.tuples(_INDICATORS, _PARTS, _NAMES).map(
        lambda t: ["apply", "--indicator", t[0], "--sigma", t[1], "--var", t[2]]),
    st.tuples(_INDICATORS, st.sampled_from(["axioms", "regular", "hplus", "linear", "self_dual",
                                            "fatou", "nope"])).map(
        lambda t: ["check", "--indicator", t[0], "--sigma", "H", "--property", t[1], "--samples", "3"]),
    st.tuples(_FAMILIES, _PARTS, _PARTS).map(
        lambda t: ["tower", "--family", t[0], "--s", t[1], "--t", t[2], "--samples", "3"]),
    st.tuples(_NAMES, _PARTS, st.lists(_TEXT, max_size=3)).map(
        lambda t: ["project", "--var", t[0], "--time", t[1], "--grid=" + ",".join(t[2])]),
    st.tuples(_FAMILIES, _NAMES).map(lambda t: ["envelope", "--family", t[0], "--payoff", t[1]]),
    st.tuples(_INDICATORS, _NAMES).map(lambda t: ["risk", "--indicator", t[0], "--var", t[1]]),
    st.tuples(_NAMES, _PARTS).map(lambda t: ["condexp-ext", "--var", t[0], "--sigma", t[1]]),
    st.tuples(_NAMES, _NAMES).map(lambda t: ["additivity-set", "--x", t[0], "--y", t[1]]),
    _INDICATORS.map(lambda i: ["recover-density", "--indicator", i, "--samples", "3"]),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(doc=_scenario_docs(), argv=_ARGVS)
def test_fuzzed_input_exits_0_1_or_2_without_traceback(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([*argv, "--scenario", path])
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_COUNTEREXAMPLE, EXIT_VALIDATION), err
    assert "Traceback" not in err
    if code == EXIT_VALIDATION:
        assert "error" in json.loads(err)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(doc=_valid_scenario_docs())
def test_scenario_to_dict_round_trips_exactly(doc):
    s = parse_scenario(doc)
    back = parse_scenario(scenario_to_dict(s))
    assert back.space == s.space
    assert back.partitions == s.partitions
    assert back.filtration == s.filtration
    assert back.variables == s.variables
