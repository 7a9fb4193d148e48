"""Risk measures derived from conditional indicators: acceptance sets, the
least acceptable cash adjustment rho, axiom checkers, and the
correspondence between indicator flags and risk-measure axioms.

rho is never computed by materializing the acceptance set. When the source
indicator is translation invariant the answer is -I(X) exactly; otherwise a
monotone bisection brackets the least cash amount of every cell. All cells
are bisected together, one indicator evaluation per step: the probe adds a
measurable M that holds each cell's own midpoint, and regularity (the
locality of conditional risk measures, Detlefsen & Scandolo 2005, Finance
Stoch. 9) makes I(X + M) on a cell depend only on that cell's midpoint.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import lcm

from .checks import (CheckReport, Verdict, additivity_trials, combination_trials, domain_cases,
                     dominated_pairs, falsify, scaling_trials)
from .errors import (
    DomainViolationError,
    NotIncreasingError,
    NotRegularError,
    ValidationError,
)
from .indicators import EvalFn, Flag, IndicatorSpec, essinf_cond, esssup_cond
from .sampling import (
    NONNEG_ALPHA_GRID,
    UNIT_GRID,
    derive_rng,
    sample_measurable,
    sample_rv,
)
from .space import DEFAULT_SAMPLES, DEFAULT_TOL, RandomVariable, _on_cells


def rho(I: IndicatorSpec, X: RandomVariable) -> RandomVariable:
    """Least measurable cash addition making X acceptable, cell by cell.

    Translation-invariant indicators give the exact closed form -I(X). The
    general path bisects each cell inside the bracket
    [-cellmax(X), -cellmin(X)]: below it the sandwich axiom forbids
    acceptability, at the top it forces it. The cells are bisected together,
    one evaluation of I per step (the lo and hi probes are one each): a cell
    whose bracket is within DEFAULT_TOL = 2^-40, a fixed constant, stops
    moving, and by regularity every cell sees the same midpoints, and
    returns the same value, as when bisected alone. Cells with no finite
    solution come back +inf (empty acceptance intersection convention).
    Brackets are int numerators over one denominator that doubles at each
    step, and each probe reads only the packed tag and numerator of the
    image on every cell.
    """
    if not I.has(Flag.INCREASING):
        raise NotIncreasingError(f"{I.name}: rho needs the increasing flag")
    if not X.is_finite():
        raise ValidationError("rho expects a finite-valued position")
    H = I.target
    if I.has(Flag.TRANSLATION_INVARIANT):
        return -I(X)
    if not I.has(Flag.REGULAR):
        raise NotRegularError(f"{I.name}: bisection path needs the regular flag")

    cells = H.cells
    firsts = [cell[0] for cell in cells]
    hi_rv, lo_rv = esssup_cond(X, H), essinf_cond(X, H)
    # each bracket end is an int numerator over the one denominator d
    d = lcm(hi_rv.den, lo_rv.den)
    lo = [-hi_rv.nums[i] * (d // hi_rv.den) for i in firsts]  # g(lo) < 0 unless lo is optimal
    hi = [-lo_rv.nums[i] * (d // lo_rv.den) for i in firsts]  # g(hi) >= 0 by the sandwich axiom
    finite = [0] * len(cells)
    tn, td = DEFAULT_TOL.as_integer_ratio()

    def accepts(levels: list[int]) -> list[bool]:
        # One evaluation at X + M, M holding levels[c] / d (d as it is now) on
        # cell c; regularity gives I(X + M) = I(X + levels[c] / d) on cell c,
        # so every cell reads its own probe, I >= 0 or not, from one call.
        shifted = X + _on_cells(H, finite, levels, d)
        if not I.in_domain(shifted):
            raise DomainViolationError(f"{I.name}: shifted position left the domain")
        img = I(shifted)
        kinds, nums = img.kinds, img.nums
        return [kinds[i] > 0 or (kinds[i] == 0 and nums[i] >= 0) for i in firsts]

    at_lo = accepts(lo)
    # +1 where no finite cash level is acceptable on the cell
    no_level = finite
    if not all(at_lo):
        no_level = [int(not (a or b)) for a, b in zip(at_lo, accepts(hi))]
    # open cells probe their midpoints and settled ones sit at hi, so each
    # cell sees the midpoints a bisection of that cell alone would see
    todo = [
        c for c in range(len(cells))
        if not (at_lo[c] or no_level[c]) and (hi[c] - lo[c]) * td > tn * d
    ]
    while todo:
        probe = [y + y for y in hi]
        for c in todo:
            probe[c] = lo[c] + hi[c]  # the midpoint over 2d
        d += d
        lo = [y + y for y in lo]
        hi = [y + y for y in hi]
        ok = accepts(probe)
        for c in todo:
            if ok[c]:
                hi[c] = probe[c]
            else:
                lo[c] = probe[c]
        todo = [c for c in todo if (hi[c] - lo[c]) * td > tn * d]
    nums = [0 if n else y if a else h for a, n, y, h in zip(at_lo, no_level, lo, hi)]
    return _on_cells(H, no_level, nums, d)


def _risk_measure(I: IndicatorSpec, label: str, eval_fn: EvalFn) -> IndicatorSpec:
    # the label stays in the name: it names rm-axioms streams and reports
    return IndicatorSpec(f"rho[{label}]:{I.name}", I.target, eval_fn,
                         lambda X: X.is_finite() and I.in_domain(X))


def rho_from_indicator(I: IndicatorSpec) -> IndicatorSpec:
    """Risk measure -I(X) on the finite positions of I's domain. The other
    sign convention, I(-X), is -I*(X): `rho_from_indicator(dual(I))`."""
    return _risk_measure(I, "-I(X)", lambda X: -I(X))


def rho_from_acceptance(I: IndicatorSpec) -> IndicatorSpec:
    """Risk measure computed through the acceptance-set optimization, on the
    finite positions of I's domain."""
    return _risk_measure(I, "acceptance", lambda X: rho(I, X))


def check_rm_axioms(
    rm: IndicatorSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: Fraction = Fraction(0),
) -> CheckReport:
    """Normalization, antitonicity, cash invariance. `tol` stays 0 except
    when judging a bisection-backed measure."""
    prop = f"rm-axioms:{rm.name}"
    rng = derive_rng(seed, prop)
    space = rm.target.space
    zero = RandomVariable.constant(space, 0)
    slack = RandomVariable.constant(space, tol)

    def within(a: RandomVariable, b: RandomVariable) -> bool:
        # |a - b| <= tol atomwise: equal infinities differ by inf - inf = 0,
        # any other infinite mismatch is infinite on one side
        return (a - b).le(slack) and (b - a).le(slack)

    def trials():
        if rm.in_domain(zero):
            r0 = rm(zero)
            yield within(r0, zero), dict(axiom="normalization", value=r0)
        for X2, X1 in dominated_pairs(rm, rng, samples, allow_inf=False):  # X1 >= X2
            r1, r2 = rm(X1), rm(X2)
            yield r1.le(r2 + slack), dict(axiom="antitone", X1=X1, X2=X2, lhs=r1, rhs=r2)
            M = sample_measurable(rm.target, rng, allow_inf=False)
            if rm.in_domain(X1 + M):
                lhs, rhs = rm(X1 + M), r1 - M
                yield within(lhs, rhs), dict(axiom="cash-invariance", X=X1, alpha=M, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


def check_rm_convexity(
    rm: IndicatorSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: Fraction = Fraction(0),
) -> CheckReport:
    """rho(aX + (1-a)Y) <= a rho(X) + (1-a) rho(Y). `tol` stays 0 except
    when judging a bisection-backed measure, which overshoots by at most tol."""
    prop = f"rm-convex:{rm.name}"
    space = rm.target.space
    slack = RandomVariable.constant(space, tol)
    const = lambda a: RandomVariable.constant(space, a)
    weights = [(a, const(a), const(1 - a)) for a in UNIT_GRID]

    def holds(lhs: RandomVariable, rhs: RandomVariable) -> bool:
        return lhs.le(rhs + slack)

    rng = derive_rng(seed, prop)
    trials = combination_trials(rm, rng, samples, lambda _: weights, holds, allow_inf=False)
    return falsify(prop, trials)


def check_rm_pos_hom(
    rm: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    prop = f"rm-pos-hom:{rm.name}"
    scales = [(a, RandomVariable.constant(rm.target.space, a)) for a in NONNEG_ALPHA_GRID]
    trials = scaling_trials(rm, derive_rng(seed, prop), samples, lambda _: scales, allow_inf=False)
    return falsify(prop, trials)


def check_rm_coherent(
    rm: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """Coherent = conditionally convex + conditionally positively homogeneous."""
    conv = check_rm_convexity(rm, samples, seed)
    hom = check_rm_pos_hom(rm, samples, seed)
    prop = f"rm-coherent:{rm.name}"
    notes = (f"convexity={conv.verdict.value}", f"pos-hom={hom.verdict.value}")
    for rep in (conv, hom):
        if rep.verdict is Verdict.COUNTEREXAMPLE:
            return CheckReport.counterexample(prop, rep.witness or {}, conv.cases + hom.cases, notes=notes)
    return CheckReport.verified(prop, conv.cases + hom.cases, notes=notes)


def _acceptance_set_convex(I: IndicatorSpec) -> bool:
    # {I >= 0} is convex when the indicator is linear or concave
    # (superadditive + positively homogeneous); function convexity alone
    # does not make a superlevel set convex.
    return I.has(Flag.LINEAR) or (
        I.has(Flag.SUPERADDITIVE) and I.has(Flag.POS_HOMOGENEOUS)
    )


def check_dom_closure(
    I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """Closure of the finite-rho domain: scaling, addition, upward closure,
    and convexity, each gated on the flag that claims it."""
    prop = f"dom-closure:{I.name}"
    if not I.has(Flag.INCREASING):
        return CheckReport.skipped(prop, "rho undefined without the increasing flag")
    rng = derive_rng(seed, prop)
    space = I.target.space
    notes: list[str] = []

    def in_dom(X: RandomVariable) -> bool:
        return rho(I, X).is_finite()

    members = [X for X in domain_cases(I, rng, max(8, samples // 4), allow_inf=False) if in_dom(X)]
    if not members:
        return CheckReport.skipped(prop, "vacuous: no finite-rho members sampled")

    claims = (
        ("scaling", I.has(Flag.POS_HOMOGENEOUS), Flag.POS_HOMOGENEOUS.value),
        ("addition", I.has(Flag.SUPERADDITIVE), Flag.SUPERADDITIVE.value),
        ("upward", True, Flag.INCREASING.value),  # checked on entry
        ("convexity", _acceptance_set_convex(I), "convex acceptance set"),
    )

    def trials():
        for claim, claimed, premise in claims:
            if not claimed:
                notes.append(f"{claim}: vacuous ({premise} absent)")
                continue
            for X in members:
                if claim == "scaling":
                    for a in NONNEG_ALPHA_GRID:
                        yield in_dom(X.scale(a)), dict(claim=claim, X=X, alpha=a)
                elif claim == "addition":
                    Y = members[rng.randrange(len(members))]
                    yield in_dom(X + Y), dict(claim=claim, X=X, Y=Y)
                elif claim == "upward":
                    bump = sample_rv(space, rng, allow_inf=False, nonneg=True)
                    yield in_dom(X + bump), dict(claim=claim, X=X, bump=bump)
                else:
                    Y = members[rng.randrange(len(members))]
                    for a in UNIT_GRID:
                        A = RandomVariable.constant(space, a)
                        B = RandomVariable.constant(space, Fraction(1) - a)
                        yield in_dom(A * X + B * Y), dict(claim=claim, X=X, Y=Y, alpha=a)

    # notes name the vacuous claims met before the run ended
    report = falsify(prop, trials())
    return replace(report, notes=tuple(notes))


def check_prop_rm(
    I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """rho built from an increasing indicator is a risk measure; convexity,
    homogeneity and subadditivity are inherited from the matching flags."""
    if not I.has(Flag.INCREASING):
        raise NotIncreasingError(f"{I.name}: check_prop_rm needs the increasing flag")
    prop = f"prop-rm:{I.name}"
    exact = I.has(Flag.TRANSLATION_INVARIANT)
    rm = rho_from_acceptance(I)
    axiom_tol = Fraction(0) if exact else DEFAULT_TOL
    reports = [check_rm_axioms(rm, samples, seed, tol=axiom_tol)]
    notes = [f"fast-path={'exact' if exact else f'bisection tol={DEFAULT_TOL}'}"]
    if _acceptance_set_convex(I):
        reports.append(check_rm_convexity(rm, samples, seed, tol=axiom_tol))
    else:
        notes.append("convexity inheritance skipped (acceptance set not certified convex)")
    if I.has(Flag.POS_HOMOGENEOUS) and exact:
        reports.append(check_rm_pos_hom(rm, samples, seed))
    elif I.has(Flag.POS_HOMOGENEOUS):
        notes.append("pos-hom inheritance not checked (bisection path)")
    else:
        notes.append("pos-hom inheritance skipped (flag absent)")
    if I.has(Flag.SUPERADDITIVE):
        rng = derive_rng(seed, prop + ":subadd")
        slack = RandomVariable.constant(I.target.space, axiom_tol + axiom_tol)
        holds = lambda lhs, rhs: lhs.le(rhs + slack)
        trials = additivity_trials(rm, rng, samples, holds, allow_inf=False)
        reports.append(falsify(prop + ":subadd", trials))
    else:
        notes.append("subadditivity inheritance skipped (superadditive flag absent)")
    cases = sum(r.cases for r in reports)
    for r in reports:
        if r.verdict is Verdict.COUNTEREXAMPLE:
            return CheckReport.counterexample(prop, r.witness or {}, cases, notes=tuple(notes + [r.prop]))
    return CheckReport.verified(prop, cases, notes=tuple(notes))


def check_rho_correspondence(
    I: IndicatorSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CheckReport:
    """rho(X) = -I(X) is a risk measure exactly when the indicator is
    increasing and translation invariant (for rho(X) = I(-X), pass dual(I)).

    Both sides of the equivalence are evaluated on the same inputs case by
    case; any per-case disagreement is a contradiction alarm. The flag side
    is read off I. The aggregate axiom/flag verdicts go into the notes.
    """
    # the [-I(X)] suffix stays: the label names the report and seeds its stream
    prop = f"rho-iff:{I.name}[-I(X)]"
    rm = rho_from_indicator(I)
    rng = derive_rng(seed, prop)
    held = {"axioms": True, "flags": True}

    def trials():
        for X2, X1 in dominated_pairs(rm, rng, samples, allow_inf=False):  # X1 >= X2
            r1 = rm(X1)
            p2 = r1.le(rm(X2))
            inc = I(X2).le(I(X1))
            held["axioms"] &= p2
            held["flags"] &= inc
            yield p2 == inc, dict(step="antitone<->increasing", X1=X1, X2=X2)
            M = sample_measurable(rm.target, rng, allow_inf=False)
            if not rm.in_domain(X1 + M):
                continue
            p3 = rm(X1 + M) == r1 - M
            ti = I(X1 + M) == I(X1) + M
            held["axioms"] &= p3
            held["flags"] &= ti
            yield p3 == ti, dict(step="cash<->translation", X=X1, alpha=M)

    rep = falsify(prop, trials())
    notes = tuple(f"{k}={'verified' if ok else 'counterexample'}" for k, ok in held.items())
    if rep.verdict is Verdict.COUNTEREXAMPLE:
        return replace(rep, notes=notes + ("iff violated per-case",), alarm=True)
    return replace(rep, notes=notes)
