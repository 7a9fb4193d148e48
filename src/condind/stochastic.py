"""Indicators over a filtration: tower and projection properties,
uniqueness sweeps, indicator-martingales, and backward value envelopes.

The backward recursion V_t = I_t(V_{t+1}) (optionally maxed with an
intermediate payoff) is the minimal discrete-time transplant of
backward-computed superhedging values; it is not tied to any particular
market model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .checks import CheckReport, falsify
from .errors import (
    CapExceededError,
    GridTooLargeError,
    SpaceMismatchError,
    ValidationError,
)
from .extreal import ZERO, ExtReal, ext
from .indicators import (
    Flag,
    IndicatorSpec,
    builtin_indicator,
    esssup_cond,
)
from .sampling import DEFAULT_SAMPLES, derive_rng, iter_cases, sample_event, sample_rv
from .space import (
    DEFAULT_EVENT_CAP,
    Event,
    Filtration,
    Partition,
    RandomVariable,
    enumerate_events,
    is_measurable,
    restrict,
)

DEFAULT_SOLVE_BUDGET = 200_000


@dataclass(frozen=True)
class StochasticIndicator:
    """One conditional indicator per filtration time, targets aligned."""

    filtration: Filtration
    indicators: tuple[IndicatorSpec, ...]

    def __post_init__(self):
        if len(self.indicators) != len(self.filtration.times):
            raise ValidationError("need exactly one indicator per time")
        for ind, part in zip(self.indicators, self.filtration.partitions):
            if ind.target != part:
                raise ValidationError(
                    f"indicator {ind.name!r} does not target its time's partition"
                )

    @staticmethod
    def from_builtin(filtration: Filtration, name: str) -> "StochasticIndicator":
        return StochasticIndicator(
            filtration,
            tuple(builtin_indicator(name, p) for p in filtration.partitions),
        )

    def at(self, time: str) -> IndicatorSpec:
        return self.indicators[self.filtration.index_of(time)]


@dataclass(frozen=True)
class AdaptedProcess:
    """One random variable per time, measurable w.r.t. that time's partition."""

    filtration: Filtration
    values: tuple[RandomVariable, ...]

    def __post_init__(self):
        if len(self.values) != len(self.filtration.times):
            raise ValidationError("need exactly one variable per time")
        for rv, part in zip(self.values, self.filtration.partitions):
            if rv.space != part.space:
                raise SpaceMismatchError("process variables must live on the filtration's space")
            if not is_measurable(rv, part):
                raise ValidationError("process value not measurable at its time")

    def at(self, time: str) -> RandomVariable:
        return self.values[self.filtration.index_of(time)]


def check_tower(
    SI: StochasticIndicator,
    s: str,
    t: str,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CheckReport:
    """I_s(I_t(X)) = I_s(X) for s <= t, plus domain nesting when custom."""
    si, ti = SI.filtration.index_of(s), SI.filtration.index_of(t)
    if si > ti:
        raise ValidationError(f"tower needs s <= t, got {s!r} after {t!r}")
    Is, It = SI.indicators[si], SI.indicators[ti]
    prop = f"tower:{Is.name}@{s}<={t}"
    rng = derive_rng(seed, prop)
    custom = Is.domain_fn is not None or It.domain_fn is not None

    def trials():
        for X in iter_cases(SI.filtration.space, rng, samples):
            if not Is.in_domain(X):
                continue
            if custom:
                yield It.in_domain(X), dict(nesting="D(I_s) inside D(I_t)", X=X)
            if not It.in_domain(X):
                continue
            inner = It(X)
            if custom:
                yield Is.in_domain(inner), dict(nesting="I_t maps into D(I_s)", X=X)
            if Is.in_domain(inner):
                lhs, rhs = Is(inner), Is(X)
                yield lhs == rhs, dict(X=X, lhs=lhs, rhs=rhs)

    notes = ("custom domains: nesting verified per sample",) if custom else ()
    return falsify(prop, trials(), notes=notes)


def check_projection(
    I0: IndicatorSpec,
    Z: RandomVariable,
    X: RandomVariable,
    Ft: Partition,
    cap: int = DEFAULT_EVENT_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CheckReport:
    """I_0(X 1_F) = I_0(Z 1_F) over every event of the time-t algebra."""
    if not is_measurable(Z, Ft):
        raise ValidationError("Z must be measurable w.r.t. the time-t partition")
    prop = f"projection:{I0.name}"
    notes: list[str] = []
    try:
        events = enumerate_events(Ft, cap)
    except CapExceededError:
        rng = derive_rng(seed, prop)
        events = [sample_event(Ft, rng) for _ in range(min(samples, 256))]
        notes.append(f"partial: 2^{Ft.cell_count} events exceed cap {cap}; sampled {len(events)}")

    def trials():
        for ev in events:
            lhs_arg, rhs_arg = restrict(X, ev), restrict(Z, ev)
            if I0.in_domain(lhs_arg) and I0.in_domain(rhs_arg):
                lhs, rhs = I0(lhs_arg), I0(rhs_arg)
                yield lhs == rhs, dict(F=ev, lhs=lhs, rhs=rhs)

    return falsify(prop, trials(), notes=tuple(notes))


def projection_solve(
    I0: IndicatorSpec,
    X: RandomVariable,
    Ft: Partition,
    value_grid: Sequence[ExtReal | int | str],
    budget: int = DEFAULT_SOLVE_BUDGET,
    cap: int = DEFAULT_EVENT_CAP,
    restrict_nonneg: bool | None = None,
) -> list[RandomVariable]:
    """Every cell-constant candidate on the grid satisfying the projection
    equality against X.

    The grid is always augmented with the exact per-cell maxima of X so
    discretization cannot miss the canonical solution. For X >= 0 the
    candidate values are restricted to >= 0 (the uniqueness regime) unless
    `restrict_nonneg` overrides the default; signed X searches the whole
    grid and makes no uniqueness claim.
    """
    grid = [ext(v) for v in value_grid]
    per_cell_max = esssup_cond(X, Ft)
    nonneg = X.is_nonnegative() if restrict_nonneg is None else restrict_nonneg

    events = enumerate_events(Ft, cap)
    survivors_per_cell: list[list[ExtReal]] = []
    for ci, cell in enumerate(Ft.cells):
        candidates: list[ExtReal] = []
        seen: set[ExtReal] = set()
        for v in [*grid, per_cell_max.values[cell[0]]]:
            if v in seen or (nonneg and v < ZERO):
                continue
            seen.add(v)
            candidates.append(v)
        ev = Ft.cell_event(ci)
        x_cell = restrict(X, ev)
        if not I0.in_domain(x_cell):
            raise ValidationError("X restricted to a cell leaves the indicator domain")
        target = I0(x_cell)
        kept = []
        for v in candidates:
            z_cell = RandomVariable(
                X.space,
                tuple(v if i in ev.members else ZERO for i in range(X.space.size)),
            )
            if I0.in_domain(z_cell) and I0(z_cell) == target:
                kept.append(v)
        survivors_per_cell.append(sorted(kept))

    combos = 1
    for kept in survivors_per_cell:
        combos *= len(kept)
        if combos * len(events) > budget:
            raise GridTooLargeError(
                f"candidate sweep needs > {budget} evaluations; shrink the grid"
            )

    solutions: list[RandomVariable] = []
    for combo in itertools.product(*survivors_per_cell):
        vals: list[ExtReal] = [ZERO] * X.space.size
        for v, cell in zip(combo, Ft.cells):
            for i in cell:
                vals[i] = v
        Z = RandomVariable(X.space, tuple(vals))
        report = check_projection(I0, Z, X, Ft, cap=cap)
        if report.ok and report.verdict.value == "verified":
            solutions.append(Z)
    solutions.sort(key=lambda rv: tuple((v.kind, v.frac) for v in rv.values))
    return solutions


def check_projection_uniqueness_premises(
    I0: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """Premises of the uniqueness statement: superadditivity (only when the
    indicator declares it) and the degeneracy condition — a nonnegative
    variable whose image is <= 0 everywhere must be the zero variable."""
    prop = f"uniqueness-premises:{I0.name}"
    rng = derive_rng(seed, prop)
    space = I0.target.space
    zero = RandomVariable.constant(space, 0)
    superadditive = I0.has(Flag.SUPERADDITIVE)

    def trials():
        if superadditive:
            for X in iter_cases(space, rng, samples):
                Y = sample_rv(space, rng)
                if I0.in_domain(X) and I0.in_domain(Y) and I0.in_domain(X + Y):
                    lhs, rhs = I0(X + Y), I0(X) + I0(Y)
                    yield lhs.ge(rhs), dict(premise="superadditivity", X=X, Y=Y, lhs=lhs, rhs=rhs)
        for Y in iter_cases(space, rng, samples, nonneg=True):
            if I0.in_domain(Y):
                value = I0(Y)
                yield value.le(zero) == (Y == zero), dict(premise="degeneracy", Y=Y, value=value)

    notes = ("superadditive flag absent: premise not claimed, not sampled",)
    return falsify(prop, trials(), notes=() if superadditive else notes)


def is_indicator_martingale(SI: StochasticIndicator, M: AdaptedProcess) -> CheckReport:
    """I_s(M_t) = M_s for every ordered pair of times."""
    if M.filtration != SI.filtration:
        raise ValidationError("process and indicator must share the filtration")
    times = SI.filtration.times

    def trials():
        for si, ti in itertools.combinations_with_replacement(range(len(times)), 2):
            Is, Ms, Mt = SI.indicators[si], M.values[si], M.values[ti]
            if Is.in_domain(Mt):
                lhs = Is(Mt)
                yield lhs == Ms, dict(s=times[si], t=times[ti], lhs=lhs, rhs=Ms)

    return falsify("indicator-martingale", trials())


def backward_envelope(
    SI: StochasticIndicator,
    payoff: RandomVariable,
    american: AdaptedProcess | None = None,
) -> AdaptedProcess:
    """V_T = payoff; V_t = I_t(V_{t+1}), maxed with the intermediate payoff
    when one is supplied (American mode)."""
    filtration = SI.filtration
    if not is_measurable(payoff, filtration.partitions[-1]):
        raise ValidationError("payoff must be measurable at the terminal time")
    if american is not None and american.filtration != filtration:
        raise ValidationError("intermediate process must share the filtration")
    values: list[RandomVariable] = [payoff]
    current = payoff
    for ti in range(len(filtration.times) - 2, -1, -1):
        It = SI.indicators[ti]
        current = It(current)
        if american is not None:
            current = current.max_with(american.values[ti])
        values.append(current)
    values.reverse()
    return AdaptedProcess(filtration, tuple(values))


def check_esssup_shift_rigidity(
    F0: Partition,
    Ft_event: Event,
    X: RandomVariable,
    eps_grid: Sequence,
) -> CheckReport:
    """Shifting down on a carrying event must strictly move the conditional
    supremum: equality on the grid forces the shift to be zero.

    Hypotheses: the event carries X (X vanishes off it) and the conditional
    supremum is not identically zero. The companion statement for
    (X - eps)1_F reduces to the same check on X 1_F.
    """
    prop = "esssup-shift-rigidity"
    if Ft_event.is_empty():
        return CheckReport.skipped(prop, "event must have positive probability")
    if restrict(X, Ft_event) != X:
        return CheckReport.skipped(prop, "X must vanish off the event")
    base = esssup_cond(X, F0)
    if base == RandomVariable.constant(X.space, 0):
        return CheckReport.skipped(prop, "conditional supremum identically zero")
    one_F = RandomVariable.indicator(Ft_event)

    def trials():
        for raw in eps_grid:
            eps = ext(raw)
            if eps < ZERO:
                continue
            shifted = esssup_cond(X - one_F.scale(eps), F0)
            ok = shifted == base if eps == ZERO else shifted != base
            yield ok, dict(eps=eps, lhs=shifted, rhs=base, X=X)

    return falsify(prop, trials())
