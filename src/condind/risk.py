"""Risk measures derived from conditional indicators: acceptance sets, the
least acceptable cash adjustment rho, axiom checkers, and the
correspondence between indicator flags and risk-measure axioms.

rho is never computed by materializing the acceptance set. When the source
indicator is translation invariant the answer is -I(X) exactly; otherwise a
per-cell monotone bisection brackets the least cellwise cash amount, valid
because regularity decouples the cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable

from .checks import CheckReport, Verdict, falsify
from .errors import (
    DomainViolationError,
    NotIncreasingError,
    NotRegularError,
    ValidationError,
)
from .extreal import POS_INF, ZERO, ExtReal, ext
from .indicators import Flag, IndicatorSpec, essinf_cond, esssup_cond
from .sampling import (
    DEFAULT_SAMPLES,
    NONNEG_ALPHA_GRID,
    UNIT_GRID,
    derive_rng,
    iter_cases,
    sample_dominating_pair,
    sample_measurable,
    sample_rv,
)
from .space import Partition, RandomVariable

DEFAULT_TOL = Fraction(1, 2**40)


class RhoSide(str, Enum):
    NEG_ARG = "I(-X)"
    NEG_VALUE = "-I(X)"


class Provenance(str, Enum):
    FROM_INDICATOR_ACCEPTANCE = "from_indicator_acceptance"
    FROM_INDICATOR_NEG = "from_indicator_neg"
    CUSTOM = "custom"


@dataclass(frozen=True)
class RiskMeasureSpec:
    name: str
    target: Partition
    eval_fn: Callable[[RandomVariable], RandomVariable]
    domain_fn: Callable[[RandomVariable], bool] | None = None
    provenance: Provenance = Provenance.CUSTOM
    source: IndicatorSpec | None = None
    side: RhoSide | None = None

    def in_domain(self, X: RandomVariable) -> bool:
        if not X.is_finite():
            return False
        return self.domain_fn is None or self.domain_fn(X)

    def __call__(self, X: RandomVariable) -> RandomVariable:
        if not self.in_domain(X):
            raise DomainViolationError(f"{self.name}: argument outside declared domain")
        return self.eval_fn(X)


def acceptance_contains(I: IndicatorSpec, X: RandomVariable) -> bool:
    """Membership in the acceptance set: the indicator's value is >= 0."""
    if not I.in_domain(X):
        raise DomainViolationError(f"{I.name}: X outside the indicator domain")
    return I(X).is_nonnegative()


def rho(
    I: IndicatorSpec, X: RandomVariable, tol: Fraction = DEFAULT_TOL
) -> RandomVariable:
    """Least measurable cash addition making X acceptable, cell by cell.

    Translation-invariant indicators give the exact closed form -I(X). The
    general path bisects per cell inside the bracket
    [-cellmax(X), -cellmin(X)]: below it the sandwich axiom forbids
    acceptability, at the top it forces it. Cells with no finite solution
    come back +inf (empty acceptance intersection convention).
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
    if tol <= 0:
        raise ValidationError("tol must be positive")

    hi_rv = esssup_cond(X, H)
    lo_rv = essinf_cond(X, H)
    out: list[ExtReal] = [ZERO] * X.space.size

    def image_at(y: Fraction, atom: int) -> ExtReal:
        shifted = X.shift(y)
        if not I.in_domain(shifted):
            raise DomainViolationError(f"{I.name}: shifted position left the domain")
        return I(shifted).values[atom]

    for cell in H.cells:
        a = cell[0]
        lo = -hi_rv.values[a].frac  # g(lo) < 0 unless lo is already optimal
        hi = -lo_rv.values[a].frac  # g(hi) >= 0 by the sandwich axiom
        if image_at(lo, a) >= ZERO:
            val = ext(lo)
        elif image_at(hi, a) < ZERO:
            val = POS_INF  # no finite cash level is acceptable on this cell
        else:
            width = hi - lo
            while width > tol:
                mid = (lo + hi) / 2
                if image_at(mid, a) >= ZERO:
                    hi = mid
                else:
                    lo = mid
                width = hi - lo
            val = ext(hi)
        for i in cell:
            out[i] = val
    return RandomVariable(X.space, tuple(out))


def rho_from_indicator(I: IndicatorSpec, side: RhoSide) -> RiskMeasureSpec:
    """Risk measure from an indicator through either sign convention."""
    if side is RhoSide.NEG_ARG:
        ev = lambda X: I(-X)
        dom = None if I.domain_fn is None else (lambda X: I.domain_fn(-X))
    else:
        ev = lambda X: -I(X)
        dom = I.domain_fn
    return RiskMeasureSpec(
        name=f"rho[{side.value}]:{I.name}",
        target=I.target,
        eval_fn=ev,
        domain_fn=dom,
        provenance=Provenance.FROM_INDICATOR_NEG,
        source=I,
        side=side,
    )


def rho_from_acceptance(I: IndicatorSpec, tol: Fraction = DEFAULT_TOL) -> RiskMeasureSpec:
    """Risk measure computed through the acceptance-set optimization."""
    return RiskMeasureSpec(
        name=f"rho[acceptance]:{I.name}",
        target=I.target,
        eval_fn=lambda X: rho(I, X, tol),
        provenance=Provenance.FROM_INDICATOR_ACCEPTANCE,
        source=I,
    )


def _within(a: ExtReal, b: ExtReal, tol: Fraction) -> bool:
    if a == b:
        return True
    if a.is_finite and b.is_finite:
        return abs(a.frac - b.frac) <= tol
    return False


def check_rm_axioms(
    rm: RiskMeasureSpec,
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

    def trials():
        if rm.in_domain(zero):
            r0 = rm(zero)
            ok = all(_within(v, ZERO, tol) for v in r0.values)
            yield ok, dict(axiom="normalization", value=r0)
        for _ in range(samples):
            X2, X1 = sample_dominating_pair(space, rng, allow_inf=False)  # X1 >= X2
            if not (rm.in_domain(X1) and rm.in_domain(X2)):
                continue
            r1, r2 = rm(X1), rm(X2)
            yield r1.le(r2 + slack), dict(axiom="antitone", X1=X1, X2=X2, lhs=r1, rhs=r2)
            M = sample_measurable(rm.target, rng, allow_inf=False)
            if rm.in_domain(X1 + M):
                lhs, rhs = rm(X1 + M), r1 - M
                ok = all(_within(a, b, tol) for a, b in zip(lhs.values, rhs.values))
                yield ok, dict(axiom="cash-invariance", X=X1, alpha=M, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


def check_rm_convexity(
    rm: RiskMeasureSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    prop = f"rm-convex:{rm.name}"
    rng = derive_rng(seed, prop)
    space = rm.target.space

    def trials():
        for X in iter_cases(space, rng, samples, allow_inf=False):
            Y = sample_rv(space, rng, allow_inf=False)
            if not (rm.in_domain(X) and rm.in_domain(Y)):
                continue
            for a in UNIT_GRID:
                A = RandomVariable.constant(space, a)
                B = RandomVariable.constant(space, Fraction(1) - a)
                Z = A * X + B * Y
                if rm.in_domain(Z):
                    lhs, rhs = rm(Z), A * rm(X) + B * rm(Y)
                    yield lhs.le(rhs), dict(alpha=a, X=X, Y=Y, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


def check_rm_pos_hom(
    rm: RiskMeasureSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    prop = f"rm-pos-hom:{rm.name}"
    rng = derive_rng(seed, prop)
    space = rm.target.space

    def trials():
        for X in iter_cases(space, rng, samples, allow_inf=False):
            if not rm.in_domain(X):
                continue
            for a in NONNEG_ALPHA_GRID:
                A = RandomVariable.constant(space, a)
                AX = A * X
                if rm.in_domain(AX):
                    lhs, rhs = rm(AX), A * rm(X)
                    yield lhs == rhs, dict(alpha=a, X=X, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


def check_rm_coherent(
    rm: RiskMeasureSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
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
    I: IndicatorSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: Fraction = DEFAULT_TOL,
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
        return all(v.is_finite for v in rho(I, X, tol).values)

    members = [
        X for X in iter_cases(space, rng, max(8, samples // 4), allow_inf=False)
        if I.in_domain(X) and in_dom(X)
    ]
    if not members:
        return CheckReport.verified(prop, 0, notes=("vacuous guard: no finite-rho members sampled",))

    claims = (
        ("scaling", I.has(Flag.POS_HOMOGENEOUS), Flag.POS_HOMOGENEOUS.value),
        ("addition", I.has(Flag.SUPERADDITIVE), Flag.SUPERADDITIVE.value),
        ("upward", I.has(Flag.INCREASING), Flag.INCREASING.value),
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
    I: IndicatorSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: Fraction = DEFAULT_TOL,
) -> CheckReport:
    """rho built from an increasing indicator is a risk measure; convexity,
    homogeneity and subadditivity are inherited from the matching flags."""
    if not I.has(Flag.INCREASING):
        raise NotIncreasingError(f"{I.name}: check_prop_rm needs the increasing flag")
    prop = f"prop-rm:{I.name}"
    exact = I.has(Flag.TRANSLATION_INVARIANT)
    rm = rho_from_acceptance(I, tol)
    axiom_tol = Fraction(0) if exact else tol
    reports = [check_rm_axioms(rm, samples, seed, tol=axiom_tol)]
    notes = [f"fast-path={'exact' if exact else f'bisection tol={tol}'}"]
    if _acceptance_set_convex(I):
        reports.append(check_rm_convexity(rm, samples, seed))
    else:
        notes.append("convexity inheritance skipped (acceptance set not certified convex)")
    if I.has(Flag.POS_HOMOGENEOUS) and exact:
        reports.append(check_rm_pos_hom(rm, samples, seed))
    elif I.has(Flag.POS_HOMOGENEOUS):
        notes.append("pos-hom inheritance observed only within tol (bisection path)")
    else:
        notes.append("pos-hom inheritance skipped (flag absent)")
    if I.has(Flag.SUPERADDITIVE):
        rng = derive_rng(seed, prop + ":subadd")
        space = I.target.space
        slack = RandomVariable.constant(space, axiom_tol + axiom_tol)

        def subadd_trials():
            for X in iter_cases(space, rng, samples, allow_inf=False):
                Y = sample_rv(space, rng, allow_inf=False)
                if rm.in_domain(X) and rm.in_domain(Y) and rm.in_domain(X + Y):
                    lhs, rhs = rm(X + Y), rm(X) + rm(Y)
                    yield lhs.le(rhs + slack), dict(X=X, Y=Y, lhs=lhs, rhs=rhs)

        reports.append(falsify(prop + ":subadd", subadd_trials()))
    else:
        notes.append("subadditivity inheritance skipped (superadditive flag absent)")
    cases = sum(r.cases for r in reports)
    for r in reports:
        if r.verdict is Verdict.COUNTEREXAMPLE:
            return CheckReport.counterexample(prop, r.witness or {}, cases, notes=tuple(notes + [r.prop]))
    return CheckReport.verified(prop, cases, notes=tuple(notes))


def check_rho_correspondence(
    I: IndicatorSpec,
    side: RhoSide,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CheckReport:
    """rho(X)=I(-X) (or -I(X)) is a risk measure exactly when the indicator
    is increasing and translation invariant.

    Both sides of the equivalence are evaluated on the same inputs case by
    case; any per-case disagreement is a contradiction alarm. The aggregate
    axiom/flag verdicts go into the notes.
    """
    prop = f"rho-iff:{I.name}[{side.value}]"
    rm = rho_from_indicator(I, side)
    rng = derive_rng(seed, prop)
    space = I.target.space
    held = {"axioms": True, "flags": True}

    def trials():
        for _ in range(samples):
            X2, X1 = sample_dominating_pair(space, rng, allow_inf=False)  # X1 >= X2
            if not (rm.in_domain(X1) and rm.in_domain(X2)):
                continue
            r1 = rm(X1)
            p2 = r1.le(rm(X2))
            if side is RhoSide.NEG_VALUE:
                inc = I(X2).le(I(X1))
            else:
                inc = I(-X1).le(I(-X2))
            held["axioms"] &= p2
            held["flags"] &= inc
            yield p2 == inc, dict(step="antitone<->increasing", X1=X1, X2=X2)
            M = sample_measurable(rm.target, rng, allow_inf=False)
            if not rm.in_domain(X1 + M):
                continue
            p3 = rm(X1 + M) == r1 - M
            if side is RhoSide.NEG_VALUE:
                ti = I(X1 + M) == I(X1) + M
            else:
                # translation invariance instantiated at -X1-M with shift +M
                ti = I(-X1) == I(-X1 - M) + M
            held["axioms"] &= p3
            held["flags"] &= ti
            yield p3 == ti, dict(step="cash<->translation", X=X1, alpha=M)

    rep = falsify(prop, trials())
    notes = tuple(f"{k}={'verified' if ok else 'counterexample'}" for k, ok in held.items())
    if rep.verdict is Verdict.COUNTEREXAMPLE:
        return replace(rep, notes=notes + ("iff violated per-case",), alarm=True)
    return replace(rep, notes=notes)
