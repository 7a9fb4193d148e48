"""Extended conditional expectation: shift/scale identities, additivity
sets, measure-weighted expectations, and density recovery.

The closed form E(X+|H) - E(X-|H) is total here; additivity of the extended
operator only holds on the union of five cell classes determined by which
half-means are infinite, and that classification is what `additivity_set`
computes. `recover_density` inverts an additive self-dual indicator into the
density of an absolutely continuous measure, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .checks import CheckReport, Verdict, falsify
from .errors import BadDensityError, CapExceededError, HypothesisFailedError
from .extreal import ONE, ZERO, ExtReal, ext
from .indicators import (
    IndicatorSpec,
    _cell_half_mean,
    ext_cond_expectation_closed_form,
)
from .indicators import Flag
from .sampling import (
    ALPHA_GRID,
    DEFAULT_SAMPLES,
    FINITE_GRID,
    derive_rng,
    exhaustive_grid_rvs,
    iter_cases,
    sample_measurable,
    sample_rv,
)
from .space import (
    DEFAULT_EVENT_CAP,
    Event,
    Partition,
    RandomVariable,
    _require_same_space,
    enumerate_events,
    expectation,
    restrict,
)


# E(X+|H) - E(X-|H), exported under a second name; the package calls the first
cond_exp_extended = ext_cond_expectation_closed_form


def check_lemm_cond_exp(
    H: Partition,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    cap: int = DEFAULT_EVENT_CAP,
) -> CheckReport:
    """Restriction, scalar, and shift identities of the extended operator.

    The shift identity is only claimed off the doubly infinite set
    {E(X+|H) = E(X-|H) = +inf} and is checked atomwise there.
    """
    prop = "condexp-ext-identities"
    k = H.cell_count
    if k > cap:
        raise CapExceededError(k, cap)
    rng = derive_rng(seed, prop)
    space = H.space
    events = enumerate_events(H, cap)

    def I(X: RandomVariable) -> RandomVariable:
        return ext_cond_expectation_closed_form(X, H)

    def trials():
        for X in iter_cases(space, rng, samples):
            IX = I(X)
            for ev in events:
                ok = I(restrict(X, ev)) == restrict(IX, ev)
                yield ok, dict(identity="restriction", X=X, H=ev)

            alphas = [RandomVariable.constant(space, a) for a in ALPHA_GRID]
            alphas.append(sample_measurable(H, rng, allow_inf=False))
            for A in alphas:
                lhs, rhs = I(A * X), A * IX
                yield lhs == rhs, dict(identity="scalar", X=X, alpha=A, lhs=lhs, rhs=rhs)

            M = sample_measurable(H, rng, allow_inf=False)
            shifted = I(X + M)
            expected = IX + M
            # claimed only off the cells where both half-means are infinite
            ok = all(
                shifted.values[i] == expected.values[i]
                for cell in H.cells
                if not (
                    _cell_half_mean(X, cell, True).is_pos_inf
                    and _cell_half_mean(X, cell, False).is_pos_inf
                )
                for i in cell
            )
            yield ok, dict(identity="shift", X=X, alpha=M, lhs=shifted, rhs=expected)

    return falsify(prop, trials())


ADDITIVITY_TAGS = ("F1", "F2", "F3", "F4", "F5")


def additivity_set(
    X: RandomVariable, Y: RandomVariable, H: Partition
) -> tuple[Event, dict[int, str | None]]:
    """Classify each cell into the five additivity classes (or none).

    Classes by which half-means blow up: all four finite; E(X+)=inf with
    E(X-),E(Y-) finite; E(X-)=inf with E(X+),E(Y+) finite; and the two
    symmetric classes with X and Y swapped. Returns the union event and the
    per-cell tag map.
    """
    _require_same_space(X, Y)
    _require_same_space(X, H)
    tags: dict[int, str | None] = {}
    members: set[int] = set()
    for ci, cell in enumerate(H.cells):
        xp = _cell_half_mean(X, cell, True)
        xm = _cell_half_mean(X, cell, False)
        yp = _cell_half_mean(Y, cell, True)
        ym = _cell_half_mean(Y, cell, False)
        fin = lambda v: v.is_finite
        tag: str | None = None
        if fin(xp) and fin(xm) and fin(yp) and fin(ym):
            tag = "F1"
        elif xp.is_pos_inf and fin(xm) and fin(ym):
            tag = "F2"
        elif xm.is_pos_inf and fin(xp) and fin(yp):
            tag = "F3"
        elif yp.is_pos_inf and fin(xm) and fin(ym):
            tag = "F4"
        elif ym.is_pos_inf and fin(xp) and fin(yp):
            tag = "F5"
        tags[ci] = tag
        if tag is not None:
            members.update(cell)
    return Event(H.space, frozenset(members)), tags


def check_additivity_on_F(
    X: RandomVariable, Y: RandomVariable, H: Partition
) -> CheckReport:
    """Assert additivity of the extended operator on the classified set only;
    off it, observe without asserting."""
    prop = "additivity-on-F"
    F, tags = additivity_set(X, Y, H)
    lhs = ext_cond_expectation_closed_form(X + Y, H)
    rhs = ext_cond_expectation_closed_form(X, H) + ext_cond_expectation_closed_form(Y, H)
    notes: list[str] = []
    failure = None
    on_cells = 0
    for ci, cell in enumerate(H.cells):
        i = cell[0]
        if tags[ci] is None:
            notes.append(
                f"cell {ci} off-F: lhs={lhs.values[i]} rhs={rhs.values[i]} "
                f"equal={lhs.values[i] == rhs.values[i]} (not asserted)"
            )
            continue
        on_cells += 1
        if any(lhs.values[j] != rhs.values[j] for j in cell) and failure is None:
            failure = {"X": X, "Y": Y, "cell": ci, "tag": tags[ci], "lhs": lhs, "rhs": rhs}
    notes.insert(0, "tags: " + ", ".join(f"{ci}:{t or '-'}" for ci, t in sorted(tags.items())))
    if failure is not None:
        return CheckReport.counterexample(prop, failure, on_cells, notes=tuple(notes))
    if F.is_empty():
        return CheckReport.skipped(prop, "off-F", notes=tuple(notes))
    return CheckReport.verified(prop, on_cells, notes=tuple(notes))


# -- measure-weighted expectation and density recovery ------------------------


def _validate_density(density: RandomVariable, H: Partition) -> None:
    if not density.is_finite():
        raise BadDensityError("density must be finite-valued")
    if not density.is_nonnegative():
        raise BadDensityError("density must be nonnegative")
    if expectation(density) != ONE:
        raise BadDensityError("density must integrate to 1")
    if ext_cond_expectation_closed_form(density, H) != RandomVariable.constant(density.space, 1):
        raise BadDensityError("density must have conditional mean 1")


def weighted_expectation(
    X: RandomVariable, H: Partition, density: RandomVariable
) -> RandomVariable:
    """E(rho X | H) for a normalized density rho (finite, >= 0, both means 1)."""
    _validate_density(density, H)
    return ext_cond_expectation_closed_form(density * X, H)


def weighted_indicator(H: Partition, density: RandomVariable, label: str = "weighted") -> IndicatorSpec:
    _validate_density(density, H)
    return IndicatorSpec(
        name=label,
        target=H,
        eval_fn=lambda X: ext_cond_expectation_closed_form(density * X, H),
        flags=frozenset(
            {Flag.INCREASING, Flag.POS_HOMOGENEOUS, Flag.REGULAR, Flag.SELF_DUAL}
        ),
    )


@dataclass(frozen=True)
class DensityReport:
    density: RandomVariable
    conditional_mean_one: bool
    reconstruction_ok: bool
    mismatch_witness: RandomVariable | None = None


def _hypothesis_reports(
    I: IndicatorSpec, samples: int, seed: int
) -> tuple[CheckReport, CheckReport]:
    rng = derive_rng(seed, f"recover:{I.name}")
    space = I.target.space

    def additivity():
        for X in iter_cases(space, rng, samples, allow_inf=False):
            Y = sample_rv(space, rng, allow_inf=False)
            if I.in_domain(X) and I.in_domain(Y) and I.in_domain(X + Y):
                lhs, rhs = I(X + Y), I(X) + I(Y)
                yield lhs == rhs, dict(X=X, Y=Y, lhs=lhs, rhs=rhs)

    def self_duality():
        for X in iter_cases(space, rng, samples, allow_inf=False):
            if I.in_domain(X) and I.in_domain(-X):
                lhs, rhs = I(X), -I(-X)
                yield lhs == rhs, dict(X=X, lhs=lhs, rhs=rhs)

    # consumed in order: the self-duality draws follow the additivity draws
    add = falsify(f"additivity:{I.name}", additivity())
    return add, falsify(f"self-dual:{I.name}", self_duality())


def recover_density(
    I: IndicatorSpec, samples: int = 200, seed: int = 0
) -> DensityReport:
    """Invert an additive self-dual indicator into its defining density.

    The measure of each atom is the plain expectation of the indicator's
    value on that atom's indicator variable; dividing by the base mass gives
    the density. Verification replays the indicator against the weighted
    expectation on grid and sampled finite inputs, all bit-exact.
    """
    add_rep, sd_rep = _hypothesis_reports(I, samples, seed)
    failed = tuple(
        name
        for name, rep in (("additivity", add_rep), ("self-duality", sd_rep))
        if rep.verdict is Verdict.COUNTEREXAMPLE
    )
    if failed:
        raise HypothesisFailedError(failed, (add_rep, sd_rep))

    space = I.target.space
    H = I.target
    mu: list[ExtReal] = []
    for i in range(space.size):
        one_atom = RandomVariable.indicator(Event(space, frozenset({i})))
        mu.append(expectation(I(one_atom)))
    measure_ok = (
        all(m.is_finite and Fraction(0) <= m.frac <= Fraction(1) for m in mu)
        and sum((m.frac for m in mu), Fraction(0)) == 1
    )
    density = RandomVariable(
        space,
        tuple(
            ext(m.frac / p) if m.is_finite else m
            for m, p in zip(mu, space.probs)
        ),
    )
    ones = RandomVariable.constant(space, 1)
    cond_mean_one = measure_ok and ext_cond_expectation_closed_form(density, H) == ones

    mismatch: RandomVariable | None = None
    if measure_ok:
        rng = derive_rng(seed, f"recover-verify:{I.name}")
        small_grid = FINITE_GRID if space.size <= 3 else (ext(-1), ZERO, ext(1), ext(2))
        trial: list[RandomVariable] = []
        if space.size <= 4:
            trial.extend(exhaustive_grid_rvs(space, small_grid))
        trial.extend(iter_cases(space, rng, samples, allow_inf=False))
        for X in trial:
            if not I.in_domain(X):
                continue
            if I(X) != ext_cond_expectation_closed_form(density * X, H):
                mismatch = X
                break
    ok = (
        measure_ok
        and cond_mean_one
        and mismatch is None
        and density.is_nonnegative()
    )
    return DensityReport(
        density=density,
        conditional_mean_one=cond_mean_one,
        reconstruction_ok=ok,
        mismatch_witness=mismatch,
    )


def is_conditional_expectation(
    I: IndicatorSpec, samples: int = 200, seed: int = 0
) -> tuple[bool, DensityReport | None]:
    """True iff the indicator is exactly conditional expectation under the
    base measure, decided through density recovery."""
    try:
        report = recover_density(I, samples, seed)
    except HypothesisFailedError:
        return False, None
    ones = RandomVariable.constant(I.target.space, 1)
    return report.reconstruction_ok and report.density == ones, report


def check_contractive(
    I: IndicatorSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> CheckReport:
    """E|I(X)| <= E|X| on sampled finite inputs."""
    rng = derive_rng(seed, f"contractive:{I.name}")

    def trials():
        for X in iter_cases(I.target.space, rng, samples, allow_inf=False):
            if I.in_domain(X):
                yield expectation(abs_rv(I(X))) <= expectation(abs_rv(X)), dict(X=X)

    return falsify(f"contractive:{I.name}", trials())


def abs_rv(X: RandomVariable) -> RandomVariable:
    return RandomVariable(X.space, tuple(abs(v) for v in X.values))
