"""The mutation catalogue: small faults planted in a copy of `src/`, each of
which the fast corpus or one test module should catch.

    PYTHONPATH=src python tests/mutants.py              # every row
    PYTHONPATH=src python tests/mutants.py ID [ID ...]  # the named rows

A row replaces one piece of text, which occurs exactly once in its file
(tier-1 checks this), in a temporary copy of `src/`. The row is killed when
`tests/corpus.py --fast` on the copy prints other lines than on the
unmutated tree, or when its test module fails against the copy; otherwise
it survived. A row with a reason is a known survivor. The script prints one
line per row and exits 1 when a row without a reason survives or a known
survivor is killed. Rows run one after the other, about 10-30 s each.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 900  # seconds per child; a mutant that loops forever counts as killed


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    old: str
    new: str
    module: str  # the test module expected to catch it, relative to the root
    survives: str | None = None  # why no test can catch it, for a known survivor


ROWS: tuple[Mutant, ...] = (
    Mutant(
        "within-one-sided", "src/condind/risk.py",
        "return (a - b).le(slack) and (b - a).le(slack)",
        "return (a - b).le(slack)",
        "tests/test_risk.py",
    ),
    Mutant(
        "shift-identity-on-every-cell", "src/condind/expectation_ext.py",
        "kept = [i for cell in H.cells if not all(_infinite_halves(X, cell)) for i in cell]",
        "kept = [i for cell in H.cells for i in cell]",
        "tests/test_expectation.py",
    ),
    Mutant(
        "additivity-verdict-on-whole-variable", "src/condind/expectation_ext.py",
        "if failure is None and restrict(lhs, ev) != restrict(rhs, ev):",
        "if failure is None and lhs != rhs:",
        "tests/test_expectation.py",
    ),
    Mutant(
        "projection-candidates-unsorted", "src/condind/stochastic.py",
        "values = sorted(dict.fromkeys([*grid, per_cell_max.values[cell[0]]]))",
        "values = list(dict.fromkeys([*grid, per_cell_max.values[cell[0]]]))",
        "tests/test_stochastic.py",
    ),
    Mutant(
        "dump-drops-filtration", "src/condind/scenario.py",
        '"filtration": list(s.filtration.times if s.filtration else ()),',
        '"filtration": [],',
        "tests/test_cli.py",
    ),
    Mutant(
        "structural-stream-by-argument", "src/condind/checks.py",
        'rng = derive_rng(seed, f"structural:{I.name}:Flag.{flag.name}")',
        'rng = derive_rng(seed, f"structural:{I.name}:{which}")',
        "tests/test_checks.py",
    ),
    Mutant(
        "reconstruction-without-conditional-mean", "src/condind/expectation_ext.py",
        "reconstruction_ok=cond_mean_one and mismatch is None,",
        "reconstruction_ok=mismatch is None,",
        "tests/test_expectation.py",
    ),
    Mutant(
        "rho-freeze-ge", "src/condind/risk.py",
        "todo = [c for c in todo if (hi[c] - lo[c]) * td > tn * d]",
        "todo = [c for c in todo if (hi[c] - lo[c]) * td >= tn * d]",
        "tests/test_risk.py",
    ),
    Mutant(
        "kernel-doubly-infinite-cell-plus-inf", "src/condind/space.py",
        "means.append((pos_inf - neg_inf, 0, 1) if pos_inf or neg_inf else (0, s, m))",
        "means.append((1 if pos_inf else -1, 0, 1) if pos_inf or neg_inf else (0, s, m))",
        "tests/test_space.py",
    ),
    Mutant(
        "kernel-zero-weight-infinity-counted", "src/condind/space.py",
        "            elif weights[i]:\n",
        "            else:\n",
        "tests/test_expectation.py",
    ),
    Mutant(
        "packed-without-gcd", "src/condind/space.py",
        "g = gcd(den, *nums)",
        "g = 1",
        "tests/test_space.py",
    ),
    Mutant(
        "cells-den-not-divided", "src/condind/space.py",
        "nums, den = [n // g for n in nums], den // g",
        "nums = [n // g for n in nums]",
        "tests/test_space.py",
    ),
    Mutant(
        "cells-infinite-tags-dropped", "src/condind/space.py",
        "if any(kinds) else space._finite_kinds",
        "if all(kinds) else space._finite_kinds",
        "tests/test_space.py",
    ),
    Mutant(
        "inf-plus-neg-inf-is-plus-inf", "src/condind/extreal.py",
        "return ZERO  # inf + (-inf)",
        "return POS_INF  # inf + (-inf)",
        "tests/test_extreal.py",
    ),
    Mutant(
        "extreal-add-without-gcd", "src/condind/extreal.py",
        "            d = self.den * other.den\n            g = gcd(n, d)\n",
        "            d = self.den * other.den\n            g = 1\n",
        "tests/test_extreal.py",
    ),
    Mutant(
        "extreal-order-without-cross-multiply", "src/condind/extreal.py",
        "return self.kind == _FIN and self.num * other.den < other.num * self.den",
        "return self.kind == _FIN and self.num < other.num",
        "tests/test_extreal.py",
    ),
    Mutant(
        "partition-overlap-unchecked", "src/condind/space.py",
        "clash = clash or cell_of[i] >= 0",
        "clash = clash",
        "tests/test_space.py",
    ),
    Mutant(
        "sandwich-witness-hi-is-lo", "src/condind/checks.py",
        'dict(axiom="sandwich", X=X, value=IX, lo=lo, hi=hi)',
        'dict(axiom="sandwich", X=X, value=IX, lo=lo, hi=lo)',
        "tests/test_checks.py",
    ),
    Mutant(
        "sample-measurable-cells-reversed", "src/condind/sampling.py",
        "[_draw(rng, allow_inf, nonneg) for _ in partition.cells]",
        "[_draw(rng, allow_inf, nonneg) for _ in partition.cells][::-1]",
        "tests/test_battery.py",
    ),
    Mutant(
        "dominating-pair-extra-draw", "src/condind/sampling.py",
        "    X = sample_rv(space, rng, allow_inf)\n    bump",
        "    rng.random()\n    X = sample_rv(space, rng, allow_inf)\n    bump",
        "tests/test_checks.py",
    ),
    Mutant(
        "battery-law-stream-by-law-name", "src/condind/battery.py",
        "return falsify(prop, law(subject, derive_rng(seed, prop), *args))",
        "return falsify(prop, law(subject, derive_rng(seed, law.__name__), *args))",
        "tests/test_battery.py",
    ),
    Mutant(
        "samples-lower-bound-dropped", "src/condind/cli.py",
        '"--samples": {"type": _at_least(1)',
        '"--samples": {"type": _at_least(-10)',
        "tests/test_cli.py",
    ),
    Mutant(
        "literal-digits-without-exponent", "src/condind/scenario.py",
        "return len(text) + abs(int(exponent.group(1)))",
        "return len(text)",
        "tests/test_cli.py",
    ),
    Mutant(
        "rho-settled-cells-probe-at-lo", "src/condind/risk.py",
        "probe = [y + y for y in hi]",
        "probe = [y + y for y in lo]",
        "tests/test_risk.py",
    ),
    Mutant(
        "acceptance-set-convex-by-either-flag", "src/condind/risk.py",
        "I.has(Flag.SUPERADDITIVE) and I.has(Flag.POS_HOMOGENEOUS)",
        "I.has(Flag.SUPERADDITIVE) or I.has(Flag.POS_HOMOGENEOUS)",
        "tests/test_risk.py",
    ),
    Mutant(
        "additivity-f2-ignores-y", "src/condind/expectation_ext.py",
        "elif xp and not xm and not ym:",
        "elif xp and not xm:",
        "tests/test_expectation.py",
    ),
    Mutant(
        "esssup-skips-last-atom", "src/condind/indicators.py",
        "        for i in cell[1:]:\n            v = keys[i]\n            if v > m:",
        "        for i in cell[1:-1]:\n            v = keys[i]\n            if v > m:",
        "tests/test_indicators.py",
    ),
    Mutant(
        "restrict-keeps-finite-values", "src/condind/space.py",
        "[n if i in m else 0 for i, n in enumerate(X.nums)]",
        "list(X.nums)",
        "tests/test_space.py",
    ),
    Mutant(
        "atom-labels-may-repeat", "src/condind/space.py",
        "if len(set(self.atoms)) != len(self.atoms):",
        "if False:",
        "tests/test_space.py",
    ),
    Mutant(
        "falsify-miscounts-failing-trial", "src/condind/checks.py",
        "return CheckReport.counterexample(prop, witness, cases, notes=notes)",
        "return CheckReport.counterexample(prop, witness, cases - 1, notes=notes)",
        "tests/test_checks.py",
    ),
    Mutant(
        "prop-rm-subadditivity-without-slack", "src/condind/risk.py",
        "slack = RandomVariable.constant(I.target.space, axiom_tol + axiom_tol)",
        "slack = RandomVariable.constant(I.target.space, 0)",
        "tests/test_risk.py",
    ),
    Mutant(
        "rm-convexity-without-slack", "src/condind/risk.py",
        "return lhs.le(rhs + slack)",
        "return lhs.le(rhs)",
        "tests/test_risk.py",
    ),
    Mutant(
        "rho-iff-label-without-convention", "src/condind/risk.py",
        'prop = f"rho-iff:{I.name}[-I(X)]"',
        'prop = f"rho-iff:{I.name}"',
        "tests/test_risk.py",
    ),
    Mutant(
        "regular-without-restrict-statement", "src/condind/checks.py",
        '                        ("restrict", IXH == IX_ev, dict(X=X, H=ev, lhs=IXH, rhs=IX_ev)),\n',
        "",
        "tests/test_checks.py",
    ),
    Mutant(
        "regular-without-empty-event", "src/condind/checks.py",
        "events = [Event.empty(space)] + [H.cell_event(c) for c in range(H.cell_count)]",
        "events = [H.cell_event(c) for c in range(H.cell_count)]",
        "tests/test_checks.py",
    ),
    Mutant(
        "regular-without-last-cell", "src/condind/checks.py",
        "[H.cell_event(c) for c in range(H.cell_count)]",
        "[H.cell_event(c) for c in range(H.cell_count - 1)]",
        "tests/test_checks.py",
    ),
    Mutant(
        "rho-probe-off-midpoint", "src/condind/risk.py",
        "probe[c] = lo[c] + hi[c]  # the midpoint over 2d",
        "probe[c] = lo[c] + hi[c] + 1  # the midpoint over 2d",
        "tests/test_risk.py",
    ),
    Mutant(
        "battery-law-generator-built-with-row", "src/condind/battery.py",
        "return prop, partial(checker, prop, *args)",
        "return prop, partial(falsify, prop, args[1](args[2], derive_rng(args[0], prop), *args[3:]))"
        " if checker is _law else partial(checker, prop, *args)",
        "tests/test_battery.py",
    ),
    Mutant(
        "projection-row-drops-seed", "src/condind/battery.py",
        "rep = check_projection(I0, Z, X, Ft, seed=seed + case)",
        "rep = check_projection(I0, Z, X, Ft)",
        "tests/test_battery.py",
    ),
    Mutant(
        "projection-row-drops-case", "src/condind/battery.py",
        "Ft, seed=seed + case)",
        "Ft, seed=seed)",
        "tests/test_battery.py",
    ),
    Mutant(
        "projection-events-on-row-stream", "src/condind/stochastic.py",
        'rng = derive_rng(seed, f"projection-events:{I0.name}")',
        "rng = derive_rng(seed, prop)",
        "tests/test_stochastic.py",
    ),
    Mutant(
        "past-cap-note-dropped", "src/condind/checks.py",
        'return list(events), (f"partial: sampled {len(events)} of 2^{H.cell_count} events",)',
        "return list(events), ()",
        "tests/test_cli.py",
    ),
    Mutant(
        "rho-tol-not-default", "src/condind/risk.py",
        "tn, td = DEFAULT_TOL.as_integer_ratio()",
        "tn, td = (2 * DEFAULT_TOL).as_integer_ratio()",
        "tests/test_risk.py",
    ),
    Mutant(
        "projection-solve-signed-for-nonneg-x", "src/condind/stochastic.py",
        "nonneg = X.is_nonnegative()",
        "nonneg = False",
        "tests/test_stochastic.py",
    ),
    Mutant(
        "projection-row-note-dropped", "src/condind/battery.py",
        "return replace(falsify(prop, trials()), notes=tuple(inner_notes))",
        "return falsify(prop, trials())",
        "tests/test_battery.py",
    ),
    Mutant(
        "event-doubling-reversed", "src/condind/space.py",
        "unions += [u.union(cell) for u in unions]",
        "unions = [u.union(cell) for u in unions] + unions",
        "tests/test_space.py",
    ),
    Mutant(
        "past-cap-draws-one-too-many", "src/condind/checks.py",
        "while len(events) < EVENT_SAMPLES:",
        "while len(events) <= EVENT_SAMPLES:",
        "tests/test_checks.py",
    ),
    Mutant(
        "event-samples-threshold-strict", "src/condind/checks.py",
        "if 1 << H.cell_count <= EVENT_SAMPLES:",
        "if 1 << H.cell_count < EVENT_SAMPLES:",
        "tests/test_checks.py",
    ),
    Mutant(
        "event-samples-threshold-on-cells", "src/condind/checks.py",
        "if 1 << H.cell_count <= EVENT_SAMPLES:",
        "if H.cell_count <= EVENT_SAMPLES:",
        "tests/test_checks.py",
    ),
    Mutant(
        "projection-solve-samples-events", "src/condind/stochastic.py",
        "events = enumerate_events(Ft) if combos else []",
        'events = enumerate_or_sample(Ft, derive_rng(0, "projection-events"))[0] if combos else []',
        "tests/test_stochastic.py",
    ),
    Mutant(
        "solve-budget-ignores-events", "src/condind/stochastic.py",
        "if combos << Ft.cell_count > SOLVE_BUDGET:",
        "if combos > SOLVE_BUDGET:",
        "tests/test_stochastic.py",
    ),
    Mutant(
        "prop-rm-pos-hom-note-reverted", "src/condind/risk.py",
        '"pos-hom inheritance not checked (bisection path)"',
        '"pos-hom inheritance observed only within tol (bisection path)"',
        "tests/test_risk.py",
    ),
    Mutant(
        "structural-regular-on-another-stream", "src/condind/checks.py",
        "    if flag is Flag.REGULAR:\n        return check_regular(I, samples, seed)",
        "    if flag is Flag.REGULAR:\n        return check_regular(I, samples, seed + 1)",
        "tests/test_checks.py",
    ),
    Mutant(
        "battery-fallback-partition-discrete", "src/condind/battery.py",
        'part_items = [("trivial", Partition.trivial(space))]',
        'part_items = [("trivial", Partition.discrete(space))]',
        "tests/test_battery.py",
    ),
    Mutant(
        "default-sigma-in-listed-order", "src/condind/cli.py",
        "return next(iter(sorted(scenario.partitions.items())))[1]",
        "return next(iter(scenario.partitions.items()))[1]",
        "tests/test_cli.py",
    ),
    Mutant(
        "combination-drops-second-coefficient", "src/condind/checks.py",
        "rhs = A * FX + B * FY",
        "rhs = A * FX + FY",
        "tests/test_checks.py",
    ),
    Mutant(
        "combination-second-image-reuses-first", "src/condind/checks.py",
        "FX, FY = F(X), F(Y)",
        "FX = FY = F(X)",
        "tests/test_checks.py",
    ),
    Mutant(
        "scaling-compares-with-unscaled-image", "src/condind/checks.py",
        "lhs, rhs = F(AX), A * FX",
        "lhs, rhs = F(AX), FX",
        "tests/test_checks.py",
    ),
    Mutant(
        "grid-coefficients-without-measurable", "src/condind/checks.py",
        "[(A, A) for A in (*constants, sample_measurable(H, rng, nonneg=nonneg))]",
        "[(A, A) for A in constants]",
        "tests/test_checks.py",
    ),
    Mutant(
        "atom-measure-den-without-D", "src/condind/expectation_ext.py",
        "mu.append((0, sum(map(operator.mul, w, V.nums)), V.den * D))",
        "mu.append((0, sum(map(operator.mul, w, V.nums)), V.den))",
        "tests/test_expectation.py",
    ),
    Mutant(
        "atom-measure-finite-test-inverted", "src/condind/expectation_ext.py",
        "        if V.kinds is finite:\n",
        "        if V.kinds is not finite:\n",
        "tests/test_expectation.py",
    ),
    Mutant(
        "replay-divides-by-q-mass", "src/condind/expectation_ext.py",
        "cells = [(cell, sum(w[i] for i in cell) * density.den) for cell in H.cells]",
        "cells = [(cell, sum(wr[i] for i in cell)) for cell in H.cells]",
        "tests/test_expectation.py",
    ),
    Mutant(
        "replay-checks-first-atom-only", "src/condind/expectation_ext.py",
        "if any([v[i] * r != s for i in cell]):",
        "if v[cell[0]] * r != s:",
        "tests/test_expectation.py",
    ),
    Mutant(
        "replay-ignores-infinite-image", "src/condind/expectation_ext.py",
        "if V.space is not X.space and V.space != X.space or any(V.kinds):",
        "if V.space is not X.space and V.space != X.space:",
        "tests/test_expectation.py",
    ),
    Mutant(
        "broadcast-bare-one-index-itemgetter", "src/condind/space.py",
        "operator.itemgetter(*cell_of) if n > 1 else tuple",
        "operator.itemgetter(*cell_of)",
        "tests/test_space.py",
    ),
    Mutant(
        "domain-cases-unfiltered", "src/condind/checks.py",
        "return filter(F.in_domain, iter_cases(F.target.space, rng, samples, allow_inf, nonneg))",
        "return iter_cases(F.target.space, rng, samples, allow_inf, nonneg)",
        "tests/test_checks.py",
    ),
    Mutant(
        "domain-pairs-guards-x-only", "src/condind/checks.py",
        "if F.in_domain(X) and F.in_domain(Y):",
        "if F.in_domain(X):",
        "tests/test_checks.py",
    ),
    Mutant(
        "dominated-pairs-guards-lower-only", "src/condind/checks.py",
        "if F.in_domain(lower) and F.in_domain(upper):",
        "if F.in_domain(lower):",
        "tests/test_checks.py",
    ),
    Mutant(
        "restricted-images-unrestricted", "src/condind/checks.py",
        "yield ev, F(XH)",
        "yield ev, F(X)",
        "tests/test_checks.py",
    ),
    Mutant(
        "regular-glue-reversed", "src/condind/checks.py",
        "glued = patch(IX, ev, IY)",
        "glued = patch(IY, ev, IX)",
        "tests/test_checks.py",
    ),
    Mutant(
        "axioms-sandwich-drops-lower-bound", "src/condind/checks.py",
        "lo.le(IX) and IX.le(hi)",
        "IX.le(hi)",
        "tests/test_checks.py",
    ),
    Mutant(
        "sign-split-drops-negative-part", "src/condind/checks.py",
        "h.pos() * I(X) + h.neg() * I(-X)",
        "h.pos() * I(X)",
        "tests/test_checks.py",
    ),
    Mutant(
        "unit-grid-drops-a-strict-weight", "src/condind/sampling.py",
        "(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))",
        "(Fraction(1, 4), Fraction(3, 4))",
        "tests/test_checks.py",
    ),
    Mutant(
        "esssup-keeps-later-equal-key", "src/condind/indicators.py",
        "            if v > m:\n",
        "            if v >= m:\n",
        "tests/test_indicators.py",
        survives="equivalent: equal order keys are the same value, so either one is the maximum",
    ),
)


def _run(cmd: list[str], src: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)


def _corpus_digest(src: Path) -> str:
    proc = _run([sys.executable, "tests/corpus.py", "--fast"], src)
    return hashlib.sha256(proc.stdout).hexdigest() if proc.returncode == 0 else "failed"


def kill(row: Mutant, reference: str) -> list[str]:
    """What catches the row: "corpus", its test module, both, or nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / row.file
        text = target.read_text()
        if text.count(row.old) != 1:
            raise SystemExit(f"{row.id}: old text occurs {text.count(row.old)} times in {row.file}")
        target.write_text(text.replace(row.old, row.new))
        caught = []
        try:
            if _corpus_digest(src) != reference:
                caught.append("corpus")
            cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", row.module]
            if _run(cmd, src).returncode != 0:
                caught.append(row.module)
        except subprocess.TimeoutExpired:
            caught.append("timeout")
        return caught


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.ids) - {row.id for row in ROWS}
    if unknown:
        parser.error(f"unknown rows: {sorted(unknown)}")
    reference = _corpus_digest(ROOT / "src")
    unexpected = 0
    for row in ROWS:
        if args.ids and row.id not in args.ids:
            continue
        caught = kill(row, reference)
        if caught:
            status = "killed" + ("  UNEXPECTED, listed as a survivor" if row.survives else "")
        else:
            status = f"survived  known: {row.survives}" if row.survives else "SURVIVED"
        unexpected += bool(caught) == bool(row.survives)
        print(f"{row.id:42} {status}  {', '.join(caught)}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
