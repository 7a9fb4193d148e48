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
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .indicators import Flag, IndicatorSpec, essinf_cond, esssup_cond
from .sampling import (
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
    DEFAULT_SAMPLES,
    EVENT_SAMPLES,
    Event,
    Partition,
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


# -- domain guards ---------------------------------------------------------------
#
# An indicator need not be total (condexp's domain is the cellwise integrable or
# measurable variables), so a law drops every draw outside its subject's domain.
# A helper drops a draw only once all of it is drawn, so a rejected draw uses
# the stream as a kept one does and the draws do not depend on the domain.
# Guards left inline: check_regular counts a draw it never evaluated as a passing
# trial, check_hplus_decomposition draws h before its guard, the martingale and
# envelope laws guard on every time's indicator, and every guard on a derived
# variable (X + Y, AX, X + M, -X, hX, a splice).

Pair = tuple[RandomVariable, RandomVariable]


def domain_cases(F, rng, samples: int, allow_inf=True, nonneg=False) -> Iterator[RandomVariable]:
    """The cases of iter_cases in F's domain."""
    return filter(F.in_domain, iter_cases(F.target.space, rng, samples, allow_inf, nonneg))


def domain_pairs(F, rng, samples: int, allow_inf: bool = True) -> Iterator[Pair]:
    """Each case X with a Y drawn right after it, kept when both are in F's domain."""
    space = F.target.space
    for X in iter_cases(space, rng, samples, allow_inf=allow_inf):
        Y = sample_rv(space, rng, allow_inf=allow_inf)
        if F.in_domain(X) and F.in_domain(Y):
            yield X, Y


def dominated_pairs(F, rng, samples: int, allow_inf: bool = True) -> Iterator[Pair]:
    """The draws of sample_dominating_pair, kept when both variables are in F's domain."""
    for _ in range(samples):
        lower, upper = sample_dominating_pair(F.target.space, rng, allow_inf)
        if F.in_domain(lower) and F.in_domain(upper):
            yield lower, upper


def restricted_images(F, X: RandomVariable, events: Iterable[Event]) -> Iterator[tuple[Event, RandomVariable]]:
    """Each event H, in order, with F(X 1_H), whenever X 1_H is in F's domain."""
    for ev in events:
        XH = restrict(X, ev)
        if F.in_domain(XH):
            yield ev, F(XH)


# -- shared laws -----------------------------------------------------------------
#
# The laws an indicator may or may not share with the conditional expectation,
# each written once. A checker passes its own rng, so the draws, and with
# them the reports, are those of the checker that owns the stream.


def additivity_trials(
    F,
    rng,
    samples: int,
    holds: Callable[[RandomVariable, RandomVariable], bool],
    allow_inf: bool = True,
) -> Iterator[Trial]:
    """holds(F(X+Y), F(X)+F(Y)); F is an indicator or a risk measure."""
    for X, Y in domain_pairs(F, rng, samples, allow_inf):
        if F.in_domain(X + Y):
            lhs, rhs = F(X + Y), F(X) + F(Y)
            yield holds(lhs, rhs), dict(X=X, Y=Y, lhs=lhs, rhs=rhs)


def self_duality_trials(
    I: IndicatorSpec, rng, samples: int, allow_inf: bool = True
) -> Iterator[Trial]:
    """I(X) = -I(-X)."""
    for X in domain_cases(I, rng, samples, allow_inf):
        if I.in_domain(-X):
            lhs, rhs = I(X), -I(-X)
            yield lhs == rhs, dict(X=X, lhs=lhs, rhs=rhs)


def scaling_trials(
    F, rng, samples: int, coefficients: Callable[[Any], Iterable[tuple]], allow_inf: bool = True
) -> Iterator[Trial]:
    """F(AX) = A F(X) for each pair (alpha, A) of coefficients(rng), drawn
    once X is in F's domain; alpha is the coefficient the witness shows."""
    for X in domain_cases(F, rng, samples, allow_inf):
        FX = F(X)
        for alpha, A in coefficients(rng):
            AX = A * X
            if F.in_domain(AX):
                lhs, rhs = F(AX), A * FX
                yield lhs == rhs, dict(X=X, alpha=alpha, lhs=lhs, rhs=rhs)


def grid_coefficients(H: Partition, grid: Sequence[Fraction]) -> Callable[[Any], list[tuple]]:
    """The scaling coefficients: the constants of the grid, then one sampled
    finite H-measurable A, nonnegative exactly when the grid is."""
    constants = [RandomVariable.constant(H.space, a) for a in grid]
    nonneg = all(a >= 0 for a in grid)
    return lambda rng: [(A, A) for A in (*constants, sample_measurable(H, rng, nonneg=nonneg))]


def combination_trials(
    F,
    rng,
    samples: int,
    coefficients: Callable[[Any], Iterable[tuple]],
    holds: Callable[[RandomVariable, RandomVariable], bool],
    allow_inf: bool = True,
) -> Iterator[Trial]:
    """holds(F(AX + BY), A F(X) + B F(Y)) for each triple (alpha, A, B) of
    coefficients(rng), drawn once X and Y are in F's domain; alpha is the
    coefficient the witness shows. F(X) and F(Y) are evaluated once per
    draw, right after F(Z) of the first triple whose Z is in F's domain; a
    draw with no such Z evaluates nothing."""
    for X, Y in domain_pairs(F, rng, samples, allow_inf):
        FX = FY = None
        for alpha, A, B in coefficients(rng):
            Z = A * X + B * Y
            if F.in_domain(Z):
                lhs = F(Z)
                if FX is None:
                    FX, FY = F(X), F(Y)
                rhs = A * FX + B * FY
                yield holds(lhs, rhs), dict(X=X, Y=Y, alpha=alpha, lhs=lhs, rhs=rhs)


# -- core axioms ---------------------------------------------------------------


def check_axioms(I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> CheckReport:
    """Sandwich between the cell extremes, idempotence, and closure of the
    domain under adding measurable variables. Positivity needs no trial of
    its own: for X >= 0 the sandwich gives I(X) >= essinf(X|H) >= 0."""
    rng = derive_rng(seed, f"axioms:{I.name}")
    H = I.target
    space = H.space
    zero = RandomVariable.constant(space, 0)

    def trials():
        yield I.in_domain(zero), dict(axiom="domain-contains-zero")
        for X in domain_cases(I, rng, samples):
            IX = I(X)
            lo, hi = essinf_cond(X, H), esssup_cond(X, H)
            yield lo.le(IX) and IX.le(hi), dict(axiom="sandwich", X=X, value=IX, lo=lo, hi=hi)
            yield is_measurable(IX, H), dict(axiom="measurability", X=X, value=IX)
            # P2 sampled: the domain absorbs measurable summands
            M = sample_measurable(H, rng, allow_inf=True)
            yield I.in_domain(X + M), dict(axiom="domain-closure", X=X, M=M)

        for _ in range(max(1, samples // 4)):
            M = sample_measurable(H, rng, allow_inf=True)
            if I.in_domain(M):
                IM = I(M)
                yield IM == M, dict(axiom="idempotence", X=M, value=IM)

    return falsify(f"axioms:{I.name}", trials())


# -- events of a partition: all of them, or EVENT_SAMPLES drawn ------------------


def enumerate_or_sample(H: Partition, rng) -> tuple[list[Event], tuple[str, ...]]:
    """Every event of H when there are at most EVENT_SAMPLES of them (k <= 6
    cells); else the first EVENT_SAMPLES distinct events drawn from rng, in
    first-drawn order, and the note saying how many of the 2^k; a check
    never claims events it did not see."""
    if 1 << H.cell_count <= EVENT_SAMPLES:
        return enumerate_events(H), ()
    events: dict[Event, None] = {}
    while len(events) < EVENT_SAMPLES:
        events[sample_event(H, rng)] = None
    return list(events), (f"partial: sampled {len(events)} of 2^{H.cell_count} events",)


# -- regularity (cell locality) -----------------------------------------------


def check_regular(I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> CheckReport:
    """Three equivalent locality statements, cross-reported.

    (1) agreement on an event forces agreement of the images on it,
    (2) I(X 1_H) = I(X) 1_H,
    (3) I splices across H and its complement.
    Statement (2) gives the averaging identity I(X 1_H) 1_{H^c} = 0 on the same draw.

    The statements are checked on the empty event and on each cell, which
    gives them on every union H of cells. For (1), put Z = X 1_H + Y 1_{H^c}:
    on a cell C inside H, X 1_C + Z 1_{C^c} = Z, so I(Z) 1_C = I(X) 1_C, and
    summing over the cells of H gives I(Z) 1_H = I(X) 1_H. (3) is (1) on H
    and on H^c. For (2), on a cell C inside H both sides are I(X 1_C); on a
    cell outside H the value is I(0), which (2) on the empty event makes 0.

    One trial per draw of (X, Y): every event of a failing draw is still
    evaluated, so the notes report each statement's verdict on that draw.
    """
    rng = derive_rng(seed, f"regular:{I.name}")
    H = I.target
    space = H.space
    events = [Event.empty(space)] + [H.cell_event(c) for c in range(H.cell_count)]
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
                    glued = patch(IX, ev, IY)
                    for name, ok, witness in (
                        ("agree", restrict(ISp, ev) == IX_ev, dict(X=X, Y=spliced, H=ev)),
                        ("restrict", IXH == IX_ev, dict(X=X, H=ev, lhs=IXH, rhs=IX_ev)),
                        ("splice", ISp == glued, dict(X=X, Y=Y, H=ev, lhs=ISp, rhs=glued)),
                    ):
                        if not ok:
                            failed.add(name)
                            first = first or witness
            yield first is None, first

    report = falsify(f"regular:{I.name}", draws())
    verdicts = {k: k not in failed for k in ("agree", "restrict", "splice")}
    notes = []
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
) -> CheckReport:
    """Falsification check for one structural property; `which` is a flag
    name or "fatou" (never declarable, and always skipped).

    Fatou compares I(lim X_n) with the limit of I(X_n). Exact arithmetic
    sees a sequence only through finitely many terms, and those fix the
    limit only when the sequence is eventually constant; then both sides
    are I(lim X_n), so every case would hold by construction.
    """
    if which == "fatou":
        return CheckReport.skipped(
            f"fatou:{I.name}",
            "partial: exact checks see finitely many terms, which fix the limit only for "
            "eventually-constant sequences",
        )
    flag = Flag(which)
    # one stream for a Flag and for its name, spelled as a Flag formats on 3.11+
    rng = derive_rng(seed, f"structural:{I.name}:Flag.{flag.name}")
    H = I.target
    space = H.space
    prop = f"{flag.value}:{I.name}"

    if flag is Flag.REGULAR:
        return check_regular(I, samples, seed)

    def trials():
        if flag is Flag.SELF_DUAL:
            yield from self_duality_trials(I, rng, samples)

        elif flag is Flag.INCREASING:
            for X, Y in dominated_pairs(I, rng, samples):
                lhs, rhs = I(X), I(Y)
                yield lhs.le(rhs), dict(X=X, Y=Y, lhs=lhs, rhs=rhs)

        elif flag is Flag.TRANSLATION_INVARIANT:
            for X in domain_cases(I, rng, samples):
                M = sample_measurable(H, rng, allow_inf=False)
                XM = X + M
                if I.in_domain(XM):
                    lhs, rhs = I(XM), I(X) + M
                    yield lhs == rhs, dict(X=X, alpha=M, lhs=lhs, rhs=rhs)

        elif flag is Flag.POS_HOMOGENEOUS:
            yield from scaling_trials(I, rng, samples, grid_coefficients(H, NONNEG_ALPHA_GRID))

        elif flag is Flag.LINEAR:
            # A X + Y for A = 1 and one sampled finite measurable A
            one = RandomVariable.constant(space, 1)
            triples = lambda r: [(A, A, one) for A in (one, sample_measurable(H, r))]
            yield from combination_trials(I, rng, samples, triples, RandomVariable.__eq__)

        elif flag in (Flag.SUBADDITIVE, Flag.SUPERADDITIVE):
            holds = RandomVariable.le if flag is Flag.SUBADDITIVE else RandomVariable.ge
            yield from additivity_trials(I, rng, samples, holds)

        elif flag is Flag.CONVEX:
            one = RandomVariable.constant(space, 1)
            weights = [(A, A, one - A) for A in [RandomVariable.constant(space, a) for a in UNIT_GRID]]
            yield from combination_trials(I, rng, samples, lambda _: weights, RandomVariable.le)

    return falsify(prop, trials())


# -- sign-split decomposition ----------------------------------------------------


def check_hplus_decomposition(
    I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """I(hX) = h+ I(X) + h- I(-X) for a sampled measurable finite h; at the
    constant h = -1 it reads I(-X) = 0 I(X) + 1 I(-X) and cannot fail."""
    prop = f"sign-split:{I.name}"
    if not (I.has(Flag.REGULAR) and I.has(Flag.POS_HOMOGENEOUS)):
        return CheckReport.skipped(prop, "needs regular and pos_homogeneous flags")
    rng = derive_rng(seed, prop)
    H = I.target

    def trials():
        for X in iter_cases(H.space, rng, samples):
            h = sample_measurable(H, rng, allow_inf=False)
            hX = h * X
            if I.in_domain(X) and I.in_domain(-X) and I.in_domain(hX):
                lhs, rhs = I(hX), h.pos() * I(X) + h.neg() * I(-X)
                yield lhs == rhs, dict(X=X, h=h, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


# -- implication guards (must never fire) ----------------------------------------


def _guard(prop: str, premise: str, premise_cases: int, conclusion: CheckReport) -> CheckReport:
    """A guard's report once its premise is verified: a falsified conclusion
    is the contradiction alarm."""
    cases = premise_cases + conclusion.cases
    if conclusion.verdict is Verdict.COUNTEREXAMPLE:
        alarm = f"contradiction alarm: {premise} verified but regularity falsified"
        return CheckReport.counterexample(prop, conclusion.witness or {}, cases, notes=(alarm,), alarm=True)
    return CheckReport.verified(prop, cases)


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
    return _guard(prop, "convexity", premise.cases, check_regular(I, samples, seed))


def check_additive_implies_regular(
    I: IndicatorSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CheckReport:
    """Additivity forces regularity; subadditivity alone still gives the
    one-sided bound 1_H I(X) <= I(1_H X)."""
    prop = f"additive-implies-regular:{I.name}"
    sub = check_structural(I, Flag.SUBADDITIVE, samples, seed)
    sup = check_structural(I, Flag.SUPERADDITIVE, samples, seed)
    if sub.verdict is Verdict.VERIFIED and sup.verdict is Verdict.VERIFIED:
        return _guard(prop, "additivity", sub.cases + sup.cases, check_regular(I, samples, seed))
    if sub.verdict is Verdict.VERIFIED:
        rng = derive_rng(seed, prop)
        H = I.target
        events, partial = enumerate_or_sample(H, rng)

        def trials():
            for X in domain_cases(I, rng, samples):
                IX = I(X)
                for ev, IXH in restricted_images(I, X, events):
                    lhs = restrict(IX, ev)
                    yield lhs.le(IXH), dict(X=X, H=ev, lhs=lhs, rhs=IXH)

        return falsify(prop, trials(), notes=("subadditive only: checked the half inequality", *partial))
    return CheckReport.verified(prop, sub.cases + sup.cases, notes=("premise falsified; implication vacuous",))
