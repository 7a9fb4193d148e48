"""Falsification checkers for declared indicator properties.

Every checker returns a CheckReport: Verified with a case count, a
Counterexample whose witness re-evaluates to a genuine violation, or Skipped
with a reason. Exact arithmetic means there is no tolerance anywhere.

A checker states its law as a generator of trials, one ``(ok, witness)``
pair per evaluated case, and hands it to ``falsify``. The first failing
trial ends the law's run and becomes the counterexample; since the generator
is never resumed after that, no further cases are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from .errors import CapExceededError
from .indicators import Flag, IndicatorSpec, essinf_cond, esssup_cond
from .sampling import (
    DEFAULT_SAMPLES,
    NONNEG_ALPHA_GRID,
    UNIT_GRID,
    derive_rng,
    iter_cases,
    sample_dominating_pair,
    sample_event,
    sample_measurable,
    sample_rv,
)
from .space import (
    DEFAULT_EVENT_CAP,
    RandomVariable,
    enumerate_events,
    is_measurable,
    patch,
    restrict,
)


class Verdict(str, Enum):
    VERIFIED = "verified"
    COUNTEREXAMPLE = "counterexample"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckReport:
    prop: str
    verdict: Verdict
    cases: int = 0
    witness: Mapping[str, Any] | None = None
    reason: str | None = None
    notes: tuple[str, ...] = ()
    alarm: bool = False

    @property
    def ok(self) -> bool:
        return self.verdict is not Verdict.COUNTEREXAMPLE and not self.alarm

    @staticmethod
    def verified(prop: str, cases: int, notes: tuple[str, ...] = ()) -> "CheckReport":
        return CheckReport(prop, Verdict.VERIFIED, cases=cases, notes=notes)

    @staticmethod
    def counterexample(
        prop: str,
        witness: Mapping[str, Any],
        cases: int,
        notes: tuple[str, ...] = (),
        alarm: bool = False,
    ) -> "CheckReport":
        return CheckReport(
            prop, Verdict.COUNTEREXAMPLE, cases=cases, witness=dict(witness), notes=notes, alarm=alarm
        )

    @staticmethod
    def skipped(prop: str, reason: str, notes: tuple[str, ...] = ()) -> "CheckReport":
        return CheckReport(prop, Verdict.SKIPPED, reason=reason, notes=notes)


Trial = tuple[bool, Mapping[str, Any] | None]


def falsify(prop: str, trials: Iterable[Trial], notes: tuple[str, ...] = ()) -> CheckReport:
    """Count trials until the first failing one, which is the counterexample."""
    cases = 0
    for ok, witness in trials:
        cases += 1
        if not ok:
            return CheckReport.counterexample(prop, witness, cases, notes=notes)
    return CheckReport.verified(prop, cases, notes=notes)


# -- core axioms ---------------------------------------------------------------


def check_axioms(I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> CheckReport:
    """Sandwich between the cell extremes, idempotence, positivity, and
    closure of the domain under adding measurable variables."""
    rng = derive_rng(seed, f"axioms:{I.name}")
    H = I.target
    space = H.space
    zero = RandomVariable.constant(space, 0)

    def trials():
        yield I.in_domain(zero), dict(axiom="domain-contains-zero")
        for X in iter_cases(space, rng, samples):
            if not I.in_domain(X):
                continue
            IX = I(X)
            lo, hi = essinf_cond(X, H), esssup_cond(X, H)
            yield lo.le(IX) and IX.le(hi), dict(axiom="sandwich", X=X, value=IX, lo=lo, hi=hi)
            yield is_measurable(IX, H), dict(axiom="measurability", X=X, value=IX)
            if X.is_nonnegative():
                yield IX.ge(zero), dict(axiom="positivity", X=X, value=IX)
            # P2 sampled: the domain absorbs measurable summands
            M = sample_measurable(H, rng, allow_inf=True)
            yield I.in_domain(X + M), dict(axiom="domain-closure", X=X, M=M)

        for _ in range(max(1, samples // 4)):
            M = sample_measurable(H, rng, allow_inf=True)
            if I.in_domain(M):
                IM = I(M)
                yield IM == M, dict(axiom="idempotence", X=M, value=IM)

    return falsify(f"axioms:{I.name}", trials())


# -- regularity (cell locality) -----------------------------------------------


def check_regular(
    I: IndicatorSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    cap: int = DEFAULT_EVENT_CAP,
) -> CheckReport:
    """Three equivalent locality statements, cross-reported.

    (1) agreement on an event forces agreement of the images on it,
    (2) I(X 1_H) = I(X) 1_H,
    (3) I splices across H and its complement,
    plus the averaging identity I(X 1_H) 1_{H^c} = 0.

    One trial per draw of (X, Y): every event of a failing draw is still
    evaluated, so the notes report each statement's verdict on that draw.
    """
    rng = derive_rng(seed, f"regular:{I.name}")
    H = I.target
    space = H.space
    notes: list[str] = []
    try:
        events = enumerate_events(H, cap)
    except CapExceededError:
        events = [sample_event(H, rng) for _ in range(min(samples, 64))]
        notes.append(f"partial: 2^{H.cell_count} events exceed cap {cap}; sampled {len(events)}")
    zero = RandomVariable.constant(space, 0)
    failed: set[str] = set()

    def draws():
        for _ in range(samples):
            X = sample_rv(space, rng)
            Y = sample_rv(space, rng)
            first = None
            if I.in_domain(X) and I.in_domain(Y):
                IX, IY = I(X), I(Y)
                for ev in events:
                    XH = restrict(X, ev)
                    spliced = patch(X, ev, Y)
                    if not (I.in_domain(XH) and I.in_domain(spliced)):
                        continue
                    IXH, ISp, IX_ev = I(XH), I(spliced), restrict(IX, ev)
                    glued = IX_ev + restrict(IY, ev.complement())
                    off = restrict(IXH, ev.complement())
                    for name, ok, witness in (
                        ("agree", restrict(ISp, ev) == IX_ev, dict(X=X, Y=spliced, H=ev)),
                        ("restrict", IXH == IX_ev, dict(X=X, H=ev, lhs=IXH, rhs=IX_ev)),
                        ("splice", ISp == glued, dict(X=X, Y=Y, H=ev, lhs=ISp, rhs=glued)),
                        ("avg", off == zero, dict(X=X, H=ev, lhs=off)),
                    ):
                        if not ok:
                            failed.add(name)
                            first = first or witness
            yield first is None, first

    report = falsify(f"regular:{I.name}", draws())
    verdicts = {k: k not in failed for k in ("agree", "restrict", "splice")}
    if len(set(verdicts.values())) > 1:
        notes.append(f"statement disagreement under sampling: {verdicts}")
    notes.append("statements: " + ", ".join(f"{k}={'ok' if v else 'fail'}" for k, v in verdicts.items()))
    return replace(report, notes=tuple(notes))


# -- structural flags -----------------------------------------------------------


def check_structural(
    I: IndicatorSpec,
    which: Flag | str,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    sequences: Sequence[Sequence[RandomVariable]] | None = None,
) -> CheckReport:
    """Falsification check for one structural property; `which` is a flag
    name or "fatou" (checkable but never declarable)."""
    flag = None if which == "fatou" else Flag(which)
    rng = derive_rng(seed, f"structural:{I.name}:{which}")
    H = I.target
    space = H.space
    prop = f"{which if flag is None else flag.value}:{I.name}"

    if flag is Flag.REGULAR:
        return check_regular(I, samples, seed)

    def trials():
        if flag is Flag.SELF_DUAL:
            for X in iter_cases(space, rng, samples):
                if I.in_domain(X) and I.in_domain(-X):
                    lhs, rhs = I(X), -I(-X)
                    yield lhs == rhs, dict(X=X, lhs=lhs, rhs=rhs)

        elif flag is Flag.INCREASING:
            for _ in range(samples):
                X, Y = sample_dominating_pair(space, rng)
                if I.in_domain(X) and I.in_domain(Y):
                    lhs, rhs = I(X), I(Y)
                    yield lhs.le(rhs), dict(X=X, Y=Y, lhs=lhs, rhs=rhs)

        elif flag is Flag.TRANSLATION_INVARIANT:
            for X in iter_cases(space, rng, samples):
                if not I.in_domain(X):
                    continue
                M = sample_measurable(H, rng, allow_inf=False)
                XM = X + M
                if I.in_domain(XM):
                    lhs, rhs = I(XM), I(X) + M
                    yield lhs == rhs, dict(X=X, alpha=M, lhs=lhs, rhs=rhs)

        elif flag is Flag.POS_HOMOGENEOUS:
            for X in iter_cases(space, rng, samples):
                if not I.in_domain(X):
                    continue
                alphas = [RandomVariable.constant(space, a) for a in NONNEG_ALPHA_GRID]
                alphas.append(sample_measurable(H, rng, nonneg=True))
                for A in alphas:
                    AX = A * X
                    if I.in_domain(AX):
                        lhs, rhs = I(AX), A * I(X)
                        yield lhs == rhs, dict(X=X, alpha=A, lhs=lhs, rhs=rhs)

        elif flag is Flag.LINEAR:
            for X in iter_cases(space, rng, samples):
                Y = sample_rv(space, rng)
                if not (I.in_domain(X) and I.in_domain(Y)):
                    continue
                A = sample_measurable(H, rng, allow_inf=False)
                for coeff in (RandomVariable.constant(space, 1), A):
                    Z = coeff * X + Y
                    if I.in_domain(Z):
                        lhs, rhs = I(Z), coeff * I(X) + I(Y)
                        yield lhs == rhs, dict(X=X, Y=Y, alpha=coeff, lhs=lhs, rhs=rhs)

        elif flag in (Flag.SUBADDITIVE, Flag.SUPERADDITIVE):
            for X in iter_cases(space, rng, samples):
                Y = sample_rv(space, rng)
                if I.in_domain(X) and I.in_domain(Y) and I.in_domain(X + Y):
                    lhs, rhs = I(X + Y), I(X) + I(Y)
                    ok = lhs.le(rhs) if flag is Flag.SUBADDITIVE else lhs.ge(rhs)
                    yield ok, dict(X=X, Y=Y, lhs=lhs, rhs=rhs)

        elif flag is Flag.CONVEX:
            for X in iter_cases(space, rng, samples):
                Y = sample_rv(space, rng)
                if not (I.in_domain(X) and I.in_domain(Y)):
                    continue
                for a in UNIT_GRID:
                    A = RandomVariable.constant(space, a)
                    one_minus = RandomVariable.constant(space, 1) - A
                    Z = A * X + one_minus * Y
                    if I.in_domain(Z):
                        lhs, rhs = I(Z), A * I(X) + one_minus * I(Y)
                        yield lhs.le(rhs), dict(X=X, Y=Y, alpha=A, lhs=lhs, rhs=rhs)

        else:
            # Fatou: on a finite space a.s. convergence is eventually constant,
            # so only supplied finite prefixes are checkable and the tail collapses.
            for seq in sequences:
                if seq and all(I.in_domain(Xn) for Xn in seq):
                    limit = seq[-1]  # the constant tail
                    yield I(limit).ge(I(seq[-1])), dict(sequence=list(seq))

    if flag is None and sequences is None:
        return CheckReport.skipped(
            prop, "partial: finite spaces only admit eventually-constant sequences; supply them explicitly"
        )
    rep = falsify(prop, trials())
    if flag is None and rep.verdict is Verdict.VERIFIED:
        return CheckReport.skipped(
            prop, "partial", notes=(f"eventually-constant prefixes checked: {rep.cases}",)
        )
    return rep


# -- sign-split decomposition ----------------------------------------------------


def check_hplus_decomposition(
    I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """I(hX) = h+ I(X) + h- I(-X) for measurable finite h of mixed sign."""
    prop = f"sign-split:{I.name}"
    if not (I.has(Flag.REGULAR) and I.has(Flag.POS_HOMOGENEOUS)):
        return CheckReport.skipped(prop, "needs regular and pos_homogeneous flags")
    rng = derive_rng(seed, prop)
    H = I.target

    def trials():
        for X in iter_cases(H.space, rng, samples):
            h = sample_measurable(H, rng, allow_inf=False)
            for coeff in (h, RandomVariable.constant(H.space, -1)):
                hX = coeff * X
                if I.in_domain(X) and I.in_domain(-X) and I.in_domain(hX):
                    lhs, rhs = I(hX), coeff.pos() * I(X) + coeff.neg() * I(-X)
                    yield lhs == rhs, dict(X=X, h=coeff, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


# -- implication guards (must never fire) ----------------------------------------


def check_convex_implies_regular(
    I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """Conditional convexity forces regularity; a verified premise with a
    falsified conclusion is a contradiction alarm."""
    prop = f"convex-implies-regular:{I.name}"
    premise = check_structural(I, Flag.CONVEX, samples, seed)
    if premise.verdict is not Verdict.VERIFIED:
        return CheckReport.verified(
            prop, premise.cases, notes=("premise falsified or skipped; implication vacuous",)
        )
    conclusion = check_regular(I, samples, seed)
    if conclusion.verdict is Verdict.COUNTEREXAMPLE:
        return CheckReport.counterexample(
            prop, conclusion.witness or {}, premise.cases + conclusion.cases,
            notes=("contradiction alarm: convexity verified but regularity falsified",),
            alarm=True,
        )
    return CheckReport.verified(prop, premise.cases + conclusion.cases)


def check_additive_implies_regular(
    I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """Additivity forces regularity; subadditivity alone still gives the
    one-sided bound 1_H I(X) <= I(1_H X)."""
    prop = f"additive-implies-regular:{I.name}"
    sub = check_structural(I, Flag.SUBADDITIVE, samples, seed)
    sup = check_structural(I, Flag.SUPERADDITIVE, samples, seed)
    if sub.verdict is Verdict.VERIFIED and sup.verdict is Verdict.VERIFIED:
        conclusion = check_regular(I, samples, seed)
        if conclusion.verdict is Verdict.COUNTEREXAMPLE:
            return CheckReport.counterexample(
                prop, conclusion.witness or {}, conclusion.cases,
                notes=("contradiction alarm: additivity verified but regularity falsified",),
                alarm=True,
            )
        return CheckReport.verified(prop, sub.cases + sup.cases + conclusion.cases)
    if sub.verdict is Verdict.VERIFIED:
        rng = derive_rng(seed, prop)
        H = I.target
        try:
            events = enumerate_events(H)
        except CapExceededError:
            events = [sample_event(H, rng) for _ in range(32)]

        def trials():
            for X in iter_cases(H.space, rng, samples):
                if not I.in_domain(X):
                    continue
                IX = I(X)
                for ev in events:
                    XH = restrict(X, ev)
                    if I.in_domain(XH):
                        lhs, rhs = restrict(IX, ev), I(XH)
                        yield lhs.le(rhs), dict(X=X, H=ev, lhs=lhs, rhs=rhs)

        return falsify(prop, trials(), notes=("subadditive only: checked the half inequality",))
    return CheckReport.verified(prop, sub.cases + sup.cases, notes=("premise falsified; implication vacuous",))
