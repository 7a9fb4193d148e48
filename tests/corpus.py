"""Differential corpus: `cli.jsonable` reports, one JSON line per case.

    PYTHONPATH=src python tests/corpus.py > corpus.jsonl
    PYTHONPATH=src python tests/corpus.py --fast | sha256sum

Run it on two trees and compare the outputs: a pure refactor gives the same
bytes, and a semantic change shows which cases and fields moved. `--fast`
is the subset whose sha256 `tests/test_corpus.py` pins.

The corpus covers, on the canonical scenario and on a five-atom scenario
with unequal masses, infinities and a density that is 0 on one atom, under
three partitions each:
- every checker and every structural flag (and fatou) on the built-ins, the
  violators of `tests/test_checks.py`, duals, self-dual mixes, families and
  a weighted indicator; outside the fast subset also `check_prop_rm` and
  `check_rm_coherent` of `rho_from_indicator` on each of them;
- `rho` (exact fast path and bisection), `recover_density`, the lower and
  upper extensions; outside the fast subset also `check_contractive` and
  `is_conditional_expectation` on each indicator;
- outside the fast subset, `check_projection_uniqueness_premises` on essinf,
  and a condexp whose domain also asks for a nonnegative first atom, so that
  it rejects finite draws: `check_rm_axioms` of its `rho_from_indicator`,
  `check_rho_correspondence`, `check_projection_uniqueness_premises` and
  `recover_density` on it;
- each CLI verb through `cli.dispatch`, `project` (`projection_solve`)
  included; outside the fast subset also an American `envelope` whose
  exercise variable is measurable, and `apply` on each head of the indicator
  grammar (`dual:`, `famsup:`, `faminf:`, `lowext:`, `upext:`) and on four
  malformed specs;
- `verify-all` at seeds 1-5 x samples {10, 30} (the fast subset: seed 1,
  samples 10, canonical scenario only);
- outside the fast subset, the parser: the `--help` text of `condind` and of
  each verb at a fixed width, each verb's usage error for a missing required
  option, and an unknown option, a bad `--family`, `risk --tol abc` (no
  verb takes `--tol`: rho bisects to the fixed `DEFAULT_TOL`), an unknown
  verb and an unknown `--property`; and `check_additive_implies_regular`
  on a 7-cell partition, whose 2^7 events are more than `EVENT_SAMPLES`, so
  the checker samples them; and `check_prop_rm` on esssup declared
  superadditive, which it is not.

A case that raises a package error records the error's type and message.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from dataclasses import replace
from typing import Callable, Iterator
from unittest import mock

from condind import (
    FiniteProbabilitySpace,
    Flag,
    Partition,
    ZERO,
    check_additive_implies_regular,
    check_axioms,
    check_contractive,
    check_convex_implies_regular,
    check_hplus_decomposition,
    check_projection_uniqueness_premises,
    check_prop_rm,
    check_regular,
    check_rho_correspondence,
    check_rm_axioms,
    check_rm_coherent,
    check_structural,
    condexp_ext_indicator,
    condexp_indicator,
    dual,
    essinf_indicator,
    esssup_indicator,
    family_inf,
    family_sup,
    is_conditional_expectation,
    lower_extension,
    mix_self_dual,
    parse_scenario,
    recover_density,
    rho,
    rho_from_indicator,
    upper_extension,
    weighted_indicator,
)
from condind.cli import build_parser, dispatch, jsonable
from condind.errors import CondIndError
from condind.scenario import CANONICAL_DOC
from test_checks import global_mean_indicator, shifted_esssup, sign_switch_indicator

UNEVEN_DOC = {
    "atoms": [
        {"label": "a", "prob": "1/6"},
        {"label": "b", "prob": "1/3"},
        {"label": "c", "prob": "1/12"},
        {"label": "d", "prob": "1/4"},
        {"label": "e", "prob": "1/6"},
    ],
    "partitions": {
        "F0": [["a", "b", "c", "d", "e"]],
        "H": [["a", "b"], ["c", "d", "e"]],
        "F2": [["a"], ["b"], ["c", "d"], ["e"]],
    },
    "filtration": ["F0", "H", "F2"],
    "variables": {
        "X": {"a": "1/2", "b": "-3", "c": "2/3", "d": "inf", "e": "0"},
        "Y": {"a": "-1", "b": "5/4", "c": "-inf", "d": "2", "e": "1/3"},
        "Z": {"a": "1", "b": "-2", "c": "1/3", "d": "5", "e": "-1/2"},
        "rho0": {"a": "2", "b": "1/2", "c": "0", "d": "1", "e": "3/2"},
        "spike": {"a": "inf", "b": "-inf", "c": "1", "d": "1", "e": "-7/5"},
    },
}
SCENARIOS = {"canonical": CANONICAL_DOC, "uneven": UNEVEN_DOC}
CHECKERS = {
    "axioms": check_axioms,
    "regular": check_regular,
    "hplus": check_hplus_decomposition,
    "convex-implies-regular": check_convex_implies_regular,
    "additive-implies-regular": check_additive_implies_regular,
}
# check_structural on the regular flag is check_regular, listed above
STRUCTURAL = [f.value for f in Flag if f is not Flag.REGULAR] + ["fatou"]
VERBS = ("apply", "check", "tower", "project", "envelope", "risk", "condexp-ext",
         "additivity-set", "recover-density", "verify-all")
# the indicator grammar of `cli.resolve_indicator`, and four malformed specs
GRAMMAR = ("dual:esssup", "famsup:esssup,condexp", "faminf:essinf,condexp-ext",
           "lowext:esssup:Y,Z", "upext:condexp:Y")
MALFORMED = ("famsup:", "famsup:,", "lowext:esssup", "nope:esssup")
USAGE_ERRORS = [
    ["apply", "--indicator", "esssup", "--var", "X", "--bogus"],
    ["tower", "--family", "nope", "--s", "F0", "--t", "F2"],
    ["risk", "--indicator", "esssup", "--var", "X", "--tol", "abc"],
    ["frobnicate"],
    ["check", "--indicator", "esssup", "--property", "nope"],
]


def _indicators(scenario, H: Partition) -> list:
    space = H.space
    esssup, essinf = esssup_indicator(H), essinf_indicator(H)
    condexp, condexp_ext = condexp_indicator(H), condexp_ext_indicator(H)
    out = [
        esssup, essinf, condexp, condexp_ext,
        global_mean_indicator(space, H), shifted_esssup(space, H), sign_switch_indicator(space),
        dual(esssup), dual(condexp), mix_self_dual(esssup), mix_self_dual(condexp_ext),
        family_sup([esssup, condexp]), family_inf([essinf, condexp_ext]),
    ]
    try:
        out.append(weighted_indicator(H, scenario.variable("rho0"), label="weighted:rho0"))
    except CondIndError:  # rho0 has conditional mean 1 on some partitions only
        pass
    return out


def _first_atom_nonneg(H: Partition):
    """condexp on H, with the first atom also asked to be nonnegative: a
    domain that rejects finite draws."""
    condexp = condexp_indicator(H)
    return replace(condexp, name="condexp|first>=0",
                   domain_fn=lambda X: condexp.in_domain(X) and X.values[0] >= ZERO)


def _cli(scenario, argv: list[str]):
    args = build_parser().parse_args(argv)
    return dispatch(args, scenario).to_dict()


def _help(argv: list[str]) -> dict:
    out = io.StringIO()
    # argparse wraps help text to $COLUMNS; fix it so the text is terminal-independent
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            return {"exit": exc.code, "stdout": out.getvalue()}
    raise AssertionError(f"{argv} did not exit")


def _guarded(fn: Callable[[], object]) -> object:
    try:
        return jsonable(fn())
    except CondIndError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def cases(fast: bool) -> Iterator[tuple[str, Callable[[], object]]]:
    seeds = (0,) if fast else (0, 1, 2)
    samples = 8 if fast else 40
    for sname, doc in SCENARIOS.items():
        scenario = parse_scenario(doc)
        variables = sorted(scenario.variables)
        finite = [v for v in variables if scenario.variable(v).is_finite()]
        for pname in sorted(scenario.partitions):
            H = scenario.partition(pname)
            at = f"{sname}/{pname}"
            indicators = _indicators(scenario, H)
            for I in indicators:
                for seed in seeds:
                    for cname, check in CHECKERS.items():
                        yield f"{at}/{I.name}/{cname}/{seed}", lambda: check(I, samples, seed)
                    for flag in STRUCTURAL:
                        yield f"{at}/{I.name}/{flag}/{seed}", lambda: check_structural(I, flag, samples, seed)
                    if not fast:
                        yield f"{at}/{I.name}/prop-rm/{seed}", lambda: check_prop_rm(I, samples, seed)
                        yield (f"{at}/{I.name}/rm-coherent/{seed}",
                               lambda: check_rm_coherent(rho_from_indicator(I), samples, seed))
                for v in finite:
                    yield f"{at}/{I.name}/rho/{v}", lambda: rho(I, scenario.variable(v))
                for v in variables:
                    X = scenario.variable(v)
                    anchors = [scenario.variable(e) for e in variables if e != v]
                    yield f"{at}/{I.name}/lowext/{v}", lambda: lower_extension(I, anchors, X)
                    yield f"{at}/{I.name}/upext/{v}", lambda: upper_extension(I, anchors, X)
                yield f"{at}/{I.name}/recover-density", lambda: recover_density(I, samples, seeds[-1])
                if not fast:
                    yield f"{at}/{I.name}/contractive", lambda: check_contractive(I, samples, seeds[-1])
                    yield (f"{at}/{I.name}/is-conditional-expectation",
                           lambda: is_conditional_expectation(I, samples, seeds[-1]))
            if not fast:
                J = _first_atom_nonneg(H)
                for seed in seeds:
                    yield (f"{at}/essinf/uniqueness-premises/{seed}",
                           lambda: check_projection_uniqueness_premises(essinf_indicator(H), samples, seed))
                    yield f"{at}/{J.name}/rm-axioms/{seed}", lambda: check_rm_axioms(
                        rho_from_indicator(J), samples, seed)
                    yield f"{at}/{J.name}/rho-iff/{seed}", lambda: check_rho_correspondence(J, samples, seed)
                    yield (f"{at}/{J.name}/uniqueness-premises/{seed}",
                           lambda: check_projection_uniqueness_premises(J, samples, seed))
                yield f"{at}/{J.name}/recover-density", lambda: recover_density(J, samples, seeds[-1])
            verbs = [["condexp-ext", "--var", v] for v in variables]
            verbs += [["apply", "--indicator", i, "--var", v]
                      for i in ("esssup", "essinf", "condexp-ext", "mix:esssup", "weighted:rho0")
                      for v in variables]
            verbs += [["additivity-set", "--x", x, "--y", y] for x in variables for y in variables]
            verbs += [["risk", "--indicator", i, "--var", v, "--axioms"]
                      for i in ("esssup", "condexp-ext") for v in finite]
            verbs += [["check", "--indicator", "condexp", "--property", p] for p in sorted(CHECKERS)]
            verbs += [["recover-density", "--indicator", i] for i in ("condexp", "weighted:rho0")]
            if not fast:
                verbs += [["apply", "--indicator", i, "--var", v] for i in GRAMMAR for v in variables]
                verbs += [["apply", "--indicator", i, "--var", "X"] for i in MALFORMED]
            for argv in verbs:
                argv = [argv[0], "--sigma", pname, "--seed", "3", "--samples", str(samples), *argv[1:]]
                yield f"{at}/cli/{' '.join(argv)}", lambda: _cli(scenario, argv)
        common = ["--seed", "3", "--samples", str(samples)]
        verbs = [["tower", "--family", f, "--s", "F0", "--t", "F2"] for f in ("esssup", "condexp-ext")]
        verbs += [["envelope", "--family", f, "--payoff", v] for f in ("esssup", "essinf", "condexp-ext")
                  for v in variables]
        verbs += [["envelope", "--family", "esssup", "--payoff", "Z", "--american", "H=X"]]
        if not fast:  # Z is H-measurable on the canonical scenario only, X on neither
            verbs += [["envelope", "--family", "esssup", "--payoff", "X", "--american", "H=Z"]]
        verbs += [["project", "--var", v, "--time", t] for v in finite for t in ("H", "F2")]
        verbs += [["project", "--var", "Z", "--time", "H", "--i0", "condexp", "--grid", "-2,0,1/3,1"]]
        for argv in verbs:
            argv = [argv[0], *common, *argv[1:]]
            yield f"{sname}/cli/{' '.join(argv)}", lambda: _cli(scenario, argv)
        if fast and sname != "canonical":
            continue
        for seed in (1,) if fast else range(1, 6):
            for n in (10,) if fast else (10, 30):
                argv = ["verify-all", "--seed", str(seed), "--samples", str(n)]
                yield f"{sname}/cli/{' '.join(argv)}", lambda: _cli(scenario, argv)
    if fast:
        return
    # seven cells have 2^7 events, more than EVENT_SAMPLES: the checker samples them
    space8 = FiniteProbabilitySpace.uniform(list("abcdefgh"))
    seven = Partition.from_cells(space8, [[0, 1], *[[i] for i in range(2, 8)]])
    yield "seven-cells/esssup/additive-implies-regular", lambda: check_additive_implies_regular(
        esssup_indicator(seven), samples, seeds[-1])
    # a declared flag the indicator lacks: prop-rm reports the inherited law's counterexample
    sup = esssup_indicator(parse_scenario(CANONICAL_DOC).partition("H"))
    declared = replace(sup, flags=sup.flags | {Flag.SUPERADDITIVE})
    for seed in seeds:
        yield f"canonical/H/esssup-declared-superadditive/prop-rm/{seed}", lambda: check_prop_rm(
            declared, samples, seed)
    for argv in [["--help"]] + [[verb, "--help"] for verb in VERBS]:
        yield f"parser/{' '.join(argv)}", lambda: _help(argv)
    scenario = parse_scenario(CANONICAL_DOC)
    # verify-all has no required option
    for argv in [[verb] for verb in VERBS[:-1]] + USAGE_ERRORS:
        yield f"parser/{' '.join(argv)}", lambda: _cli(scenario, argv)


def lines(fast: bool) -> Iterator[str]:
    # each thunk closes over loop variables, so it runs before `cases` resumes
    for name, fn in cases(fast):
        yield json.dumps({"case": name, "report": _guarded(fn)}, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fast", action="store_true", help="only the subset pinned in tier-1")
    args = parser.parse_args(argv)
    for line in lines(args.fast):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
