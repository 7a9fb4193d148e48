"""Extended conditional expectation: shift/scale identities, additivity
sets, measure-weighted expectations, and density recovery.

The closed form E(X+|H) - E(X-|H) is total here; additivity of the extended
operator only holds on the union of five cell classes determined by which
half-means are infinite, and that classification is what `additivity_set`
computes. `recover_density` inverts an additive self-dual indicator into the
density of an absolutely continuous measure, exactly.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import lcm

from .checks import (
    CheckReport,
    Verdict,
    additivity_trials,
    domain_cases,
    enumerate_or_sample,
    falsify,
    grid_coefficients,
    restricted_images,
    self_duality_trials,
)
from .errors import BadDensityError, HypothesisFailedError
from .extreal import ONE, ZERO, ext
from .indicators import (_EXT_FLAGS, EvalFn, IndicatorSpec, condexp_ext_indicator,
                         ext_cond_expectation_closed_form)
from .sampling import (
    ALPHA_GRID,
    FINITE_GRID,
    derive_rng,
    exhaustive_grid_rvs,
    iter_cases,
    sample_measurable,
)
from .space import (
    DEFAULT_SAMPLES,
    Event,
    Partition,
    RandomVariable,
    _cell_means,
    _packed,
    _require_same_space,
    cell_means,
    expectation,
    restrict,
)


def _infinite_halves(X: RandomVariable, cell: tuple[int, ...]) -> tuple[bool, bool]:
    # Whether E(X+|cell) and E(X-|cell) are +inf: a +inf (resp. -inf) atom
    # carries positive mass, and no finite atom can make a half-mean infinite.
    kinds = [X.kinds[i] for i in cell]
    return 1 in kinds, -1 in kinds


def check_lemm_cond_exp(
    H: Partition,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CheckReport:
    """Restriction, scalar, and shift identities of the extended operator.

    The shift identity is only claimed off the doubly infinite set
    {E(X+|H) = E(X-|H) = +inf}, so both sides are compared restricted to
    the other cells.
    """
    prop = "condexp-ext-identities"
    rng = derive_rng(seed, prop)
    space = H.space
    events, notes = enumerate_or_sample(H, rng)
    scales = grid_coefficients(H, ALPHA_GRID)
    I = condexp_ext_indicator(H)

    def trials():
        for X in iter_cases(space, rng, samples):
            IX = I(X)
            for ev, IXH in restricted_images(I, X, events):
                yield IXH == restrict(IX, ev), dict(identity="restriction", X=X, H=ev)

            for _, A in scales(rng):
                lhs, rhs = I(A * X), A * IX
                yield lhs == rhs, dict(identity="scalar", X=X, alpha=A, lhs=lhs, rhs=rhs)

            M = sample_measurable(H, rng, allow_inf=False)
            shifted = I(X + M)
            expected = IX + M
            # claimed only off the cells where both half-means are infinite
            kept = [i for cell in H.cells if not all(_infinite_halves(X, cell)) for i in cell]
            claimed = Event(space, frozenset(kept))
            ok = restrict(shifted, claimed) == restrict(expected, claimed)
            yield ok, dict(identity="shift", X=X, alpha=M, lhs=shifted, rhs=expected)

    return falsify(prop, trials(), notes=notes)


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
        xp, xm = _infinite_halves(X, cell)
        yp, ym = _infinite_halves(Y, cell)
        tag: str | None = None
        if not (xp or xm or yp or ym):
            tag = "F1"
        elif xp and not xm and not ym:
            tag = "F2"
        elif xm and not xp and not yp:
            tag = "F3"
        elif yp and not xm and not ym:
            tag = "F4"
        elif ym and not xp and not yp:
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
        ev = H.cell_event(ci)
        if failure is None and restrict(lhs, ev) != restrict(rhs, ev):
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


def _weighted_cell_means(H: Partition, density: RandomVariable) -> EvalFn:
    """X -> E(density * X | H) as cell means under Q = density * P.

    Q's integer atom weights are q_i = w_i * rho_i * L, with w the space's
    weights and L = density.den, so rho_i * L is density.nums[i]. A
    validated density has E(rho|C) = 1 on every cell C, so sum_C q_i =
    L * D * P(C) (D = sum(w)) and sum_C q_i x_i / sum_C q_i is E(rho X|C)
    as the same rational; q_i > 0 exactly when rho_i > 0, so infinite
    atoms give the same tags, and no product rho * X is formed.
    """
    weights = density.space._weights  # type: ignore[attr-defined]
    q = tuple(w * n for w, n in zip(weights, density.nums))

    def means(X: RandomVariable) -> RandomVariable:
        _require_same_space(X, H)
        return cell_means(X, H, q)

    return means


def weighted_indicator(H: Partition, density: RandomVariable, label: str = "weighted") -> IndicatorSpec:
    _validate_density(density, H)
    return IndicatorSpec(
        name=label,
        target=H,
        eval_fn=_weighted_cell_means(H, density),
        flags=_EXT_FLAGS,
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
    # consumed in order: the self-duality draws follow the additivity draws
    add = additivity_trials(I, rng, samples, operator.eq, allow_inf=False)
    add_rep = falsify(f"additivity:{I.name}", add)
    self_dual = self_duality_trials(I, rng, samples, allow_inf=False)
    return add_rep, falsify(f"self-dual:{I.name}", self_dual)


# the replay's value grid on 4 atoms (FINITE_GRID on fewer)
_GRID4 = (ext(-1), ZERO, ext(1), ext(2))


def _is_product_mean(
    V: RandomVariable, X: RandomVariable, wr: list[int], cells: list[tuple[tuple[int, ...], int]]
) -> bool:
    """V == E(density * X | H) for a finite X, decided in ints.

    With density = nums / L and wr_i = w_i * nums_i (w the space's atom
    weights), the reference on cell C is the finite sum_C wr_i X.nums_i
    over sum_C w_i * L * X.den, the cell's entry in `cells`. As in
    RandomVariable.__eq__, V must live on an equal space and carry no
    infinite tag; then each atom's numerator over V.den is cross-multiplied.
    """
    if V.space is not X.space and V.space != X.space or any(V.kinds):
        return False
    v, dv, x, dx = V.nums, V.den, X.nums, X.den
    for cell, mass in cells:
        s = sum([wr[i] * x[i] for i in cell]) * dv
        r = mass * dx
        if any([v[i] * r != s for i in cell]):
            return False
    return True


def recover_density(
    I: IndicatorSpec, samples: int = 200, seed: int = 0
) -> DensityReport:
    """Invert an additive self-dual indicator into its defining density.

    The measure of each atom is the plain expectation of the indicator's
    value on that atom's indicator variable, read as a tag and an int
    numerator over a denominator; dividing by the base mass gives the
    density, built in ints over one denominator. Verification replays the
    indicator on the exhaustive grid (spaces of at most 4 atoms only) and
    on sampled finite inputs against E(density * X | H), bit-exact: the
    products density_i * x_i averaged over the base mass in ints, with no
    kernel shared with the indicator under test. A replayed input outside
    the indicator's domain is a mismatch.
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
    n, w, finite = space.size, space._weights, space._finite_kinds  # type: ignore[attr-defined]
    D = sum(w)
    mu: list[tuple[int, int, int]] = []  # atom i's measure: tag, num / den
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        V = I(_packed(space, finite, unit, 1))
        if V.kinds is finite:
            # the mean of the one cell, as _cell_means gives it: sum_j w_j V_j / D
            mu.append((0, sum(map(operator.mul, w, V.nums)), V.den * D))
        else:
            (tag,), (num,), den = _cell_means(V, (range(n),), w)
            mu.append((tag, num, den))
    # density_i = mu_i / p_i = num_i * D / (den_i * w_i), over their lcm L;
    # an infinite measure keeps its tag and numerator 0
    L = lcm(*[den * wi for (_, _, den), wi in zip(mu, w)])
    nums = [num * D * (L // (den * wi)) for (_, num, den), wi in zip(mu, w)]
    density = _packed(space, [tag for tag, _, _ in mu], nums, L)
    # E(density) = sum_i mu_i must be 1: sum_i w_i * nums_i = D * L
    measure_ok = (
        all(tag == 0 and 0 <= num <= den for tag, num, den in mu)
        and sum(map(operator.mul, w, nums)) == D * L
    )
    ones = RandomVariable.constant(space, 1)
    cond_mean_one = measure_ok and ext_cond_expectation_closed_form(density, H) == ones

    mismatch: RandomVariable | None = None
    if measure_ok:
        rng = derive_rng(seed, f"recover-verify:{I.name}")
        trial = iter_cases(space, rng, samples, allow_inf=False)
        if n <= 4:
            trial = itertools.chain(exhaustive_grid_rvs(space, FINITE_GRID if n <= 3 else _GRID4), trial)
        # the product rho_i * x_i, weighted by P's atom weights w_i: built
        # once as ints here, and checked against no library kernel
        wr = list(map(operator.mul, w, density.nums))
        cells = [(cell, sum(w[i] for i in cell) * density.den) for cell in H.cells]
        for X in trial:
            if not (I.in_domain(X) and _is_product_mean(I(X), X, wr, cells)):
                mismatch = X
                break
    return DensityReport(
        density=density,
        conditional_mean_one=cond_mean_one,
        reconstruction_ok=cond_mean_one and mismatch is None,
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
        for X in domain_cases(I, rng, samples, allow_inf=False):
            yield expectation(abs_rv(I(X))) <= expectation(abs_rv(X)), dict(X=X)

    return falsify(f"contractive:{I.name}", trials())


def abs_rv(X: RandomVariable) -> RandomVariable:
    return X.max_with(-X)
