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
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from . import battery
from .checks import (
    CheckReport,
    check_additive_implies_regular,
    check_axioms,
    check_convex_implies_regular,
    check_hplus_decomposition,
    check_regular,
    check_structural,
)
from .errors import (
    CondIndError,
    UnknownCommandError,
    UnknownNameError,
    ValidationError,
)
from .expectation_ext import (
    DensityReport,
    additivity_set,
    check_additivity_on_F,
    recover_density,
    weighted_indicator,
)
from .errors import HypothesisFailedError
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
from .risk import (
    DEFAULT_TOL,
    RhoSide,
    check_rm_axioms,
    check_rm_coherent,
    rho,
    rho_from_indicator,
)
from .scenario import Scenario, _literal, canonical_scenario, load_scenario
from .space import DEFAULT_EVENT_CAP, Event, Partition, RandomVariable
from .stochastic import (
    AdaptedProcess,
    StochasticIndicator,
    backward_envelope,
    check_tower,
    projection_solve,
)

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
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, RandomVariable):
        return obj.as_mapping()
    if isinstance(obj, Event):
        return list(obj.labels)
    if isinstance(obj, Partition):
        return obj.label_cells()
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
    if isinstance(obj, DensityReport):
        return {
            "density": jsonable(obj.density),
            "conditional_mean_one": obj.conditional_mean_one,
            "reconstruction_ok": obj.reconstruction_ok,
            "mismatch_witness": jsonable(obj.mismatch_witness),
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
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


_CHECK_DISPATCH = {
    "axioms": lambda I, n, s, cap: check_axioms(I, n, s),
    "regular": lambda I, n, s, cap: check_regular(I, n, s, cap),
    "hplus": lambda I, n, s, cap: check_hplus_decomposition(I, n, s),
    "convex-implies-regular": lambda I, n, s, cap: check_convex_implies_regular(I, n, s, cap),
    "additive-implies-regular": lambda I, n, s, cap: check_additive_implies_regular(I, n, s, cap),
}


def dispatch(args: argparse.Namespace, scenario: Scenario) -> RunReport:
    started = time.perf_counter()
    command = args.command
    seed, samples, cap, tol = args.seed, args.samples, args.cap, args.tol
    results: dict = {}
    checks: list[CheckReport] = []

    if command == "apply":
        sigma = _sigma(scenario, args.sigma)
        I = resolve_indicator(args.indicator, scenario, sigma)
        X = scenario.variable(args.var)
        results = {"indicator": I.name, "sigma": sigma, "value": I(X)}

    elif command == "check":
        sigma = _sigma(scenario, args.sigma)
        I = resolve_indicator(args.indicator, scenario, sigma)
        prop = args.property
        if prop in _CHECK_DISPATCH:
            checks = [_CHECK_DISPATCH[prop](I, samples, seed, cap)]
        else:
            if prop != "fatou":
                try:
                    Flag(prop)
                except ValueError:
                    raise UnknownNameError(
                        f"unknown property {prop!r}; pick a structural flag, 'fatou', "
                        f"or one of {sorted(_CHECK_DISPATCH)}"
                    ) from None
            checks = [check_structural(I, prop, samples, seed)]
        results = {"indicator": I.name, "property": prop}

    elif command == "tower":
        if scenario.filtration is None:
            raise ValidationError("tower needs a scenario filtration")
        SI = StochasticIndicator.from_builtin(scenario.filtration, args.family)
        checks = [check_tower(SI, args.s, args.t, samples, seed)]
        results = {"family": args.family, "s": args.s, "t": args.t}

    elif command == "project":
        if scenario.filtration is None:
            raise ValidationError("project needs a scenario filtration")
        filtration = scenario.filtration
        F0 = filtration.partitions[0]
        I0 = resolve_indicator(args.i0, scenario, F0)
        X = scenario.variable(args.var)
        Ft = filtration.at(args.time)
        grid = [_literal(v, "--grid") for v in (args.grid.split(",") if args.grid else [])]
        if not grid:
            grid = sorted({*X.values, ext(0)}, key=lambda v: (v.kind, v.frac))
        solutions = projection_solve(I0, X, Ft, grid, cap=cap)
        results = {
            "i0": I0.name,
            "time": args.time,
            "grid": grid,
            "solutions": solutions,
            "count": len(solutions),
        }

    elif command == "envelope":
        if scenario.filtration is None:
            raise ValidationError("envelope needs a scenario filtration")
        filtration = scenario.filtration
        SI = StochasticIndicator.from_builtin(filtration, args.family)
        payoff = scenario.variable(args.payoff)
        american = None
        if args.american:
            by_time: dict[str, RandomVariable] = {}
            for chunk in args.american.split(","):
                t, _, var = chunk.partition("=")
                if not var:
                    raise ValidationError("--american expects time=var[,time=var...]")
                by_time[t] = scenario.variable(var)
            lowest = RandomVariable.constant(scenario.space, "-inf")
            values = tuple(
                by_time[t] if t in by_time else lowest for t in filtration.times
            )
            american = AdaptedProcess(filtration, values)
        V = backward_envelope(SI, payoff, american)
        results = {"V": {t: v for t, v in zip(filtration.times, V.values)}}

    elif command == "risk":
        sigma = _sigma(scenario, args.sigma)
        I = resolve_indicator(args.indicator, scenario, sigma)
        X = scenario.variable(args.var)
        value = rho(I, X, tol)
        results = {"indicator": I.name, "rho": value}
        if args.axioms:
            rm = rho_from_indicator(I, RhoSide.NEG_VALUE)
            checks = [check_rm_axioms(rm, samples, seed), check_rm_coherent(rm, samples, seed)]

    elif command == "condexp-ext":
        sigma = _sigma(scenario, args.sigma)
        X = scenario.variable(args.var)
        results = {"sigma": sigma, "value": ext_cond_expectation_closed_form(X, sigma)}

    elif command == "additivity-set":
        sigma = _sigma(scenario, args.sigma)
        X = scenario.variable(args.x)
        Y = scenario.variable(args.y)
        F, tags = additivity_set(X, Y, sigma)
        checks = [check_additivity_on_F(X, Y, sigma)]
        results = {
            "F": F,
            "tags": {str(ci): tag for ci, tag in sorted(tags.items())},
        }

    elif command == "recover-density":
        sigma = _sigma(scenario, args.sigma)
        I = resolve_indicator(args.indicator, scenario, sigma)
        try:
            report = recover_density(I, samples=samples, seed=seed)
            results = {"indicator": I.name, "report": report}
        except HypothesisFailedError as exc:
            results = {"indicator": I.name, "hypothesis_failed": list(exc.failed)}

    elif command == "verify-all":
        checks = battery.verify_all(scenario, seed=seed, samples=samples, cap=cap, tol=tol)
        tallies = {"verified": 0, "counterexample": 0, "skipped": 0}
        for c in checks:
            tallies[c.verdict.value] += 1
        results = {"properties": len(checks), "tallies": tallies}

    else:
        raise UnknownCommandError(f"unknown command {command!r}")

    elapsed = (time.perf_counter() - started) * 1000
    return RunReport(
        command=command,
        seed=seed,
        samples=samples,
        results=results,
        checks=checks,
        timing_ms=elapsed,
    )


# -- argument parsing -----------------------------------------------------------


def _fraction(text: str) -> Fraction:
    # argparse reports only ValueError/TypeError/ArgumentTypeError as usage errors
    try:
        value = _literal(text, "tol")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not value.is_finite:
        raise argparse.ArgumentTypeError(f"--tol must be finite, got {text!r}")
    return value.frac


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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", help="path to a scenario JSON (default: built-in 4-atom tree)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--samples", type=int, default=500)
        p.add_argument("--cap", type=int, default=None,
                       help=f"event-enumeration cap (default {DEFAULT_EVENT_CAP}; env CONDIND_CAP)")
        p.add_argument("--tol", type=_fraction, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("apply", help="evaluate an indicator on a variable")
    common(p)
    p.add_argument("--indicator", required=True)
    p.add_argument("--sigma", default=None)
    p.add_argument("--var", required=True)

    p = sub.add_parser("check", help="run one property check against an indicator")
    common(p)
    p.add_argument("--indicator", required=True)
    p.add_argument("--sigma", default=None)
    p.add_argument("--property", default="axioms")

    p = sub.add_parser("tower", help="tower property of a builtin family")
    common(p)
    p.add_argument("--family", required=True, choices=BUILTIN_NAMES)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)

    p = sub.add_parser("project", help="solve the projection equality by grid sweep")
    common(p)
    p.add_argument("--var", required=True)
    p.add_argument("--time", required=True)
    p.add_argument("--i0", default="esssup")
    p.add_argument("--grid", default=None, help="comma list of rational values")

    p = sub.add_parser("envelope", help="backward value envelope of a payoff")
    common(p)
    p.add_argument("--family", required=True, choices=BUILTIN_NAMES)
    p.add_argument("--payoff", required=True)
    p.add_argument("--american", default=None, help="time=var[,time=var...] intermediate payoffs")

    p = sub.add_parser("risk", help="least acceptable cash adjustment")
    common(p)
    p.add_argument("--indicator", required=True)
    p.add_argument("--sigma", default=None)
    p.add_argument("--var", required=True)
    p.add_argument("--axioms", action="store_true")

    p = sub.add_parser("condexp-ext", help="extended conditional expectation")
    common(p)
    p.add_argument("--var", required=True)
    p.add_argument("--sigma", default=None)

    p = sub.add_parser("additivity-set", help="classify cells where additivity holds")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--sigma", default=None)

    p = sub.add_parser("recover-density", help="invert an additive self-dual indicator")
    common(p)
    p.add_argument("--indicator", required=True)
    p.add_argument("--sigma", default=None)

    p = sub.add_parser("verify-all", help="run the whole lemma battery")
    common(p)

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
        if args.cap is None:
            env_cap = os.environ.get("CONDIND_CAP", str(DEFAULT_EVENT_CAP))
            try:
                args.cap = int(env_cap)
            except ValueError:
                raise ValidationError(f"CONDIND_CAP must be an integer, got {env_cap!r}") from None
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
