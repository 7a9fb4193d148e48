"""Scenario IO, CLI dispatch, report determinism, exit codes."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from condind.cli import EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_VALIDATION, run
from condind.errors import ParseError, ValidationError
from condind.scenario import (
    CANONICAL_DOC,
    canonical_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)


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


# inputs outside the scenario: argparse conversions and the env cap
BAD_INVOCATIONS = {
    "tol-text": (["--tol", "abc"], {}),
    "tol-zero-denominator": (["--tol", "1/0"], {}),
    "cap-env-text": ([], {"CONDIND_CAP": "abc"}),
}


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_invocation_exits_2_without_traceback(case, monkeypatch, capsys):
    extra, env = BAD_INVOCATIONS[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code = run(["apply", "--indicator", "esssup", "--sigma", "H", "--var", "X", *extra])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION, err
    assert "Traceback" not in err
    if env:  # past argument parsing, errors are JSON
        assert "error" in json.loads(err)


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
    path = write_scenario(tmp_path, CANONICAL_DOC)
    code, out = capture(["apply", "--scenario", path, "--indicator", "essinf",
                         "--sigma", "H", "--var", "X"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["value"] == {"a": "1", "b": "1", "c": "2", "d": "2"}
    monkeypatch.setenv("CONDIND_CAP", "1")
    code, out = capture(["check", "--indicator", "esssup", "--sigma", "H",
                         "--property", "regular", "--samples", "30"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert any("exceed cap 1" in n for n in doc["checks"][0].get("notes", []))


def test_text_format():
    code, out = capture(["apply", "--indicator", "esssup", "--sigma", "H",
                         "--var", "X", "--format", "text"])
    assert code == EXIT_OK
    assert "command: apply" in out and "failed: False" in out


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "condind.cli", "apply", "--indicator", "condexp",
         "--sigma", "H", "--var", "X"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["value"]["d"] == "4"
