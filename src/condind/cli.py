"""Command-line front end: scenario ingestion, command dispatch, and
deterministic JSON reports.

Exit codes: 0 success, 1 counterexample or contradiction alarm, 2 validation
or usage error, 3 internal error. Reports on stdout carry no wall-clock
data, so identical (scenario, command, seed, samples) runs are byte-identical;
timing goes to stderr in text mode only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import CondIndError, HypothesisFailedError, UnknownNameError, ValidationError
from .extreal import ExtReal, ext
from .indicators import (
    BUILTIN_NAMES,
    Flag,
    IndicatorSpec,
    builtin_indicator,
    dual,
    ext_cond_expectation_closed_form,
    family_inf,
    family_sup,
    lower_extension,
    mix_self_dual,
    upper_extension,
)
from .scenario import Scenario, _literal, canonical_scenario, load_scenario
from .space import DEFAULT_SAMPLES, Event, Filtration, Partition, RandomVariable

if TYPE_CHECKING:
    from .checks import CheckReport

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


@dataclass
class RunReport:
    command: str
    seed: int
    samples: int
    results: dict
    checks: list[CheckReport]
    timing_ms: float = 0.0

    def failed(self) -> bool:
        return any(not c.ok for c in self.checks)

    def to_dict(self) -> dict:
        # timing deliberately excluded: reports must be byte-stable per seed
        return {
            "command": self.command,
            "seed": self.seed,
            "samples": self.samples,
            "results": jsonable(self.results),
            "checks": [jsonable(c) for c in self.checks],
            "failed": self.failed(),
        }


def jsonable(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, ExtReal):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, RandomVariable):
        return obj.as_mapping()
    if isinstance(obj, Event):
        return list(obj.labels)
    if isinstance(obj, Partition):
        return obj.label_cells()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    from .checks import CheckReport

    if isinstance(obj, CheckReport):
        out = {
            "property": obj.prop,
            "verdict": obj.verdict.value,
            "cases": obj.cases,
        }
        if obj.witness is not None:
            out["witness"] = {k: jsonable(v) for k, v in sorted(obj.witness.items())}
        if obj.reason:
            out["reason"] = obj.reason
        if obj.notes:
            out["notes"] = list(obj.notes)
        if obj.alarm:
            out["alarm"] = True
        return out
    from .expectation_ext import DensityReport

    if isinstance(obj, DensityReport):
        return {
            "density": jsonable(obj.density),
            "conditional_mean_one": obj.conditional_mean_one,
            "reconstruction_ok": obj.reconstruction_ok,
            "mismatch_witness": jsonable(obj.mismatch_witness),
        }
    return str(obj)


# -- indicator name grammar ---------------------------------------------------


def resolve_indicator(name: str, scenario: Scenario, sigma: Partition) -> IndicatorSpec:
    """`esssup|essinf|condexp|condexp-ext`, `weighted:<var>`, `dual:<name>`,
    `mix:<name>`, `famsup:<n1,n2,...>`, `faminf:<...>`,
    `lowext:<name>:<E-vars>`, `upext:<name>:<E-vars>`."""
    if name in BUILTIN_NAMES:
        return builtin_indicator(name, sigma)
    head, _, rest = name.partition(":")
    if not rest:
        raise UnknownNameError(f"unknown indicator {name!r}")
    if head == "weighted":
        from .expectation_ext import weighted_indicator

        return weighted_indicator(sigma, scenario.variable(rest), label=name)
    if head == "dual":
        return dual(resolve_indicator(rest, scenario, sigma))
    if head == "mix":
        return mix_self_dual(resolve_indicator(rest, scenario, sigma))
    if head in ("famsup", "faminf"):
        members = [resolve_indicator(n, scenario, sigma) for n in rest.split(",") if n]
        if not members:
            raise UnknownNameError(f"{name!r}: empty family")
        return family_sup(members) if head == "famsup" else family_inf(members)
    if head in ("lowext", "upext"):
        inner_name, sep, evar_csv = rest.rpartition(":")
        if not sep:
            raise UnknownNameError(f"{name!r}: expected {head}:<name>:<E-vars>")
        inner = resolve_indicator(inner_name, scenario, sigma)
        evars = [scenario.variable(v) for v in evar_csv.split(",") if v]
        fn = lower_extension if head == "lowext" else upper_extension
        return IndicatorSpec(
            name=name,
            target=sigma,
            eval_fn=lambda X: fn(inner, evars, X),
            flags=frozenset({Flag.INCREASING, Flag.REGULAR}),
        )
    raise UnknownNameError(f"unknown indicator {name!r}")


# -- command implementations ----------------------------------------------------


def _sigma(scenario: Scenario, name: str | None) -> Partition:
    if name is not None:
        return scenario.partition(name)
    if scenario.filtration is not None and len(scenario.filtration.times) >= 2:
        return scenario.filtration.partitions[1]
    if scenario.partitions:
        return next(iter(sorted(scenario.partitions.items())))[1]
    return Partition.trivial(scenario.space)


# property -> function of condind.checks
_CHECK_DISPATCH = {
    "axioms": "check_axioms",
    "regular": "check_regular",
    "hplus": "check_hplus_decomposition",
    "convex-implies-regular": "check_convex_implies_regular",
    "additive-implies-regular": "check_additive_implies_regular",
}


def _indicator(args: argparse.Namespace, scenario: Scenario) -> IndicatorSpec:
    return resolve_indicator(args.indicator, scenario, _sigma(scenario, args.sigma))


def _filtration(args: argparse.Namespace, scenario: Scenario) -> Filtration:
    if scenario.filtration is None:
        raise ValidationError(f"{args.command} needs a scenario filtration")
    return scenario.filtration


# Each handler maps (args, scenario) to the report's (results, checks). It
# imports the modules it runs when it runs, so a verb loads only those.


def _apply(args, scenario):
    sigma = _sigma(scenario, args.sigma)
    I = resolve_indicator(args.indicator, scenario, sigma)
    X = scenario.variable(args.var)
    return {"indicator": I.name, "sigma": sigma, "value": I(X)}, []


def _check(args, scenario):
    from . import checks

    I = _indicator(args, scenario)
    prop = args.property
    if prop in _CHECK_DISPATCH:
        report = getattr(checks, _CHECK_DISPATCH[prop])(I, args.samples, args.seed)
    else:
        if prop != "fatou":
            try:
                Flag(prop)
            except ValueError:
                raise UnknownNameError(
                    f"unknown property {prop!r}; pick a structural flag, 'fatou', "
                    f"or one of {sorted(_CHECK_DISPATCH)}"
                ) from None
        report = checks.check_structural(I, prop, args.samples, args.seed)
    return {"indicator": I.name, "property": prop}, [report]


def _tower(args, scenario):
    from .stochastic import StochasticIndicator, check_tower

    SI = StochasticIndicator.from_builtin(_filtration(args, scenario), args.family)
    checks = [check_tower(SI, args.s, args.t, args.samples, args.seed)]
    return {"family": args.family, "s": args.s, "t": args.t}, checks


def _project(args, scenario):
    from .stochastic import projection_solve

    filtration = _filtration(args, scenario)
    I0 = resolve_indicator(args.i0, scenario, filtration.partitions[0])
    X = scenario.variable(args.var)
    Ft = filtration.at(args.time)
    grid = [_literal(v, "--grid") for v in (args.grid.split(",") if args.grid else [])]
    if not grid:
        grid = sorted(dict.fromkeys([*X.values, ext(0)]))
    solutions = projection_solve(I0, X, Ft, grid)
    results = {
        "i0": I0.name,
        "time": args.time,
        "grid": grid,
        "solutions": solutions,
        "count": len(solutions),
    }
    return results, []


def _envelope(args, scenario):
    from .stochastic import AdaptedProcess, StochasticIndicator, backward_envelope

    filtration = _filtration(args, scenario)
    SI = StochasticIndicator.from_builtin(filtration, args.family)
    payoff = scenario.variable(args.payoff)
    american = None
    if args.american:
        by_index: dict[int, RandomVariable] = {}
        for chunk in args.american.split(","):
            t, _, var = chunk.partition("=")
            if not var:
                raise ValidationError("--american expects time=var[,time=var...]")
            k = filtration.index_of(t)
            if k in by_index:
                raise ValidationError(f"--american gives time {t!r} twice")
            by_index[k] = scenario.variable(var)
        lowest = RandomVariable.constant(scenario.space, "-inf")
        values = tuple(by_index.get(k, lowest) for k in range(len(filtration.times)))
        american = AdaptedProcess(filtration, values)
    V = backward_envelope(SI, payoff, american)
    return {"V": {t: v for t, v in zip(filtration.times, V.values)}}, []


def _risk(args, scenario):
    from .risk import check_rm_axioms, check_rm_coherent, rho, rho_from_indicator

    I = _indicator(args, scenario)
    results = {"indicator": I.name, "rho": rho(I, scenario.variable(args.var))}
    if not args.axioms:
        return results, []
    rm = rho_from_indicator(I)
    return results, [check_rm_axioms(rm, args.samples, args.seed),
                     check_rm_coherent(rm, args.samples, args.seed)]


def _condexp_ext(args, scenario):
    sigma = _sigma(scenario, args.sigma)
    X = scenario.variable(args.var)
    return {"sigma": sigma, "value": ext_cond_expectation_closed_form(X, sigma)}, []


def _additivity_set(args, scenario):
    from .expectation_ext import additivity_set, check_additivity_on_F

    sigma = _sigma(scenario, args.sigma)
    X = scenario.variable(args.x)
    Y = scenario.variable(args.y)
    F, tags = additivity_set(X, Y, sigma)
    checks = [check_additivity_on_F(X, Y, sigma)]
    return {"F": F, "tags": {str(ci): tag for ci, tag in sorted(tags.items())}}, checks


def _recover_density(args, scenario):
    from .expectation_ext import recover_density

    I = _indicator(args, scenario)
    try:
        report = recover_density(I, samples=args.samples, seed=args.seed)
    except HypothesisFailedError as exc:
        return {"indicator": I.name, "hypothesis_failed": list(exc.failed)}, []
    return {"indicator": I.name, "report": report}, []


def _verify_all(args, scenario):
    from .battery import verify_all

    checks = verify_all(scenario, seed=args.seed, samples=args.samples)
    tallies = {"verified": 0, "counterexample": 0, "skipped": 0}
    for c in checks:
        tallies[c.verdict.value] += 1
    return {"properties": len(checks), "tallies": tallies}, checks


# -- the verb table ------------------------------------------------------------


def _at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" names the type
    return parse


_REQUIRED = {"required": True}
_FAMILY = {"required": True, "choices": BUILTIN_NAMES}
_COMMON = {
    "--scenario": {"help": "path to a scenario JSON (default: built-in 4-atom tree)"},
    "--seed": {"type": int, "default": 7},
    "--samples": {"type": _at_least(1), "default": DEFAULT_SAMPLES},
    "--format": {"choices": ("json", "text"), "default": "json"},
}

# verb -> (help, its own options after the common ones, handler)
VERBS = {
    "apply": ("evaluate an indicator on a variable",
              {"--indicator": _REQUIRED, "--sigma": {}, "--var": _REQUIRED}, _apply),
    "check": ("run one property check against an indicator",
              {"--indicator": _REQUIRED, "--sigma": {}, "--property": {"default": "axioms"}},
              _check),
    "tower": ("tower property of a builtin family",
              {"--family": _FAMILY, "--s": _REQUIRED, "--t": _REQUIRED}, _tower),
    "project": ("solve the projection equality by grid sweep",
                {"--var": _REQUIRED, "--time": _REQUIRED, "--i0": {"default": "esssup"},
                 "--grid": {"help": "comma list of rational values"}}, _project),
    "envelope": ("backward value envelope of a payoff",
                 {"--family": _FAMILY, "--payoff": _REQUIRED,
                  "--american": {"help": "time=var[,time=var...] intermediate payoffs"}},
                 _envelope),
    "risk": ("least acceptable cash adjustment",
             {"--indicator": _REQUIRED, "--sigma": {}, "--var": _REQUIRED,
              "--axioms": {"action": "store_true"}}, _risk),
    "condexp-ext": ("extended conditional expectation",
                    {"--var": _REQUIRED, "--sigma": {}}, _condexp_ext),
    "additivity-set": ("classify cells where additivity holds",
                       {"--x": _REQUIRED, "--y": _REQUIRED, "--sigma": {}}, _additivity_set),
    "recover-density": ("invert an additive self-dual indicator",
                        {"--indicator": _REQUIRED, "--sigma": {}}, _recover_density),
    "verify-all": ("run the whole lemma battery", {}, _verify_all),
}


def dispatch(args: argparse.Namespace, scenario: Scenario) -> RunReport:
    started = time.perf_counter()
    results, checks = VERBS[args.command][2](args, scenario)
    elapsed = (time.perf_counter() - started) * 1000
    return RunReport(
        command=args.command,
        seed=args.seed,
        samples=args.samples,
        results=results,
        checks=checks,
        timing_ms=elapsed,
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they exit 2 with a JSON error."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="condind",
        description="Exact conditional-indicator calculus over JSON scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for verb, (help_text, options, _) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flag, kwargs in {**_COMMON, **options}.items():
            p.add_argument(flag, **kwargs)
    return parser


def _render_text(report: RunReport) -> str:
    lines = [f"command: {report.command}  seed={report.seed} samples={report.samples}"]
    doc = report.to_dict()
    for key, value in sorted(doc["results"].items()):
        lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
    for c in report.checks:
        mark = {"verified": "ok", "counterexample": "FAIL", "skipped": "skip"}[c.verdict.value]
        suffix = f" ({c.reason})" if c.reason else ""
        lines.append(f"  [{mark}] {c.prop}: {c.cases} cases{suffix}")
    lines.append(f"failed: {doc['failed']}")
    return "\n".join(lines)


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        scenario = load_scenario(args.scenario) if args.scenario else canonical_scenario()
        report = dispatch(args, scenario)
        if args.format == "json":
            text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        else:
            text = _render_text(report)
    except SystemExit:  # --help printed its text; usage errors raise ValidationError
        return EXIT_OK
    except CondIndError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - the contract maps unknowns to 3
        print(json.dumps({"internal-error": repr(exc)}, sort_keys=True), file=sys.stderr)
        return EXIT_INTERNAL
    print(text)
    if args.format == "text":
        print(f"timing: {report.timing_ms:.1f} ms", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE if report.failed() else EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
