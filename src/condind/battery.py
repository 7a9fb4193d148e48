"""The full seeded verification battery behind `verify-all`.

Each property produces one CheckReport; the battery is deterministic given
(scenario, seed, samples) and a run is considered failing iff some report is
a counterexample or carries a contradiction alarm.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from fractions import Fraction

from .checks import (
    CheckReport,
    Verdict,
    check_additive_implies_regular,
    check_axioms,
    check_convex_implies_regular,
    check_hplus_decomposition,
    check_regular,
    check_structural,
    falsify,
)
from .errors import HypothesisFailedError
from .expectation_ext import (
    additivity_set,
    check_additivity_on_F,
    check_lemm_cond_exp,
    recover_density,
    weighted_indicator,
)
from .extreal import NEG_INF, POS_INF, ZERO, ext
from .indicators import (
    BUILTIN_NAMES,
    Flag,
    builtin_indicator,
    dual,
    essinf_cond,
    esssup_cond,
    lower_extension,
    mix_self_dual,
    upper_extension,
)
from .risk import (
    DEFAULT_TOL,
    RhoSide,
    check_dom_closure,
    check_prop_rm,
    check_rho_correspondence,
)
from .sampling import (
    ALPHA_GRID,
    DEFAULT_SAMPLES,
    derive_rng,
    iter_cases,
    sample_measurable,
    sample_rv,
)
from .scenario import Scenario
from .space import (
    DEFAULT_EVENT_CAP,
    Event,
    Partition,
    RandomVariable,
    enumerate_events,
    restrict,
)
from .stochastic import (
    AdaptedProcess,
    StochasticIndicator,
    backward_envelope,
    check_esssup_shift_rigidity,
    check_projection,
    check_projection_uniqueness_premises,
    check_tower,
    is_indicator_martingale,
)

_EPS_GRID = (0, Fraction(1, 4), Fraction(1, 2), 1, 2, 3)


def _convention_table_report() -> CheckReport:
    two = ext(2)
    pos, neg = POS_INF, NEG_INF
    add_table = {
        (two, two): ext(4), (two, pos): pos, (two, neg): neg,
        (pos, two): pos, (pos, pos): pos, (pos, neg): ZERO,
        (neg, two): neg, (neg, pos): ZERO, (neg, neg): neg,
    }
    sub_table = {
        (two, two): ZERO, (two, pos): neg, (two, neg): pos,
        (pos, two): pos, (pos, pos): ZERO, (pos, neg): pos,
        (neg, two): neg, (neg, pos): neg, (neg, neg): ZERO,
    }
    mul_table = {
        (two, two): ext(4), (two, pos): pos, (two, neg): neg,
        (pos, two): pos, (pos, pos): pos, (pos, neg): neg,
        (neg, two): neg, (neg, pos): neg, (neg, neg): pos,
    }
    zero_rules = [
        (ZERO * pos == ZERO, "0*inf"),
        (ZERO * neg == ZERO, "0*-inf"),
        (pos - pos == ZERO, "inf-inf"),
        (neg - neg == ZERO, "-inf--inf"),
    ]

    tables = {operator.add: add_table, operator.sub: sub_table, operator.mul: mul_table}

    def trials():
        for fn, table in tables.items():
            for (a, b), want in table.items():
                got = fn(a, b)
                yield got == want, dict(op=fn.__name__, a=a, b=b, got=got, want=want)
        for ok, label in zero_rules:
            yield ok, dict(op=label)

    return falsify("conv-table", trials())


def _dual_involution(I, samples, seed) -> CheckReport:
    prop = f"dual-involution:{I.name}"
    rng = derive_rng(seed, prop)
    star = dual(I)
    double = dual(star)
    swap_ok = (
        (Flag.SUBADDITIVE in I.flags) == (Flag.SUPERADDITIVE in star.flags)
        and (Flag.SUPERADDITIVE in I.flags) == (Flag.SUBADDITIVE in star.flags)
    )

    def trials():
        yield swap_ok, dict(step="flag-swap", flags=sorted(fl.value for fl in star.flags))
        for X in iter_cases(I.target.space, rng, samples):
            if I.in_domain(X) and double.in_domain(X):
                lhs, rhs = double(X), I(X)
                yield lhs == rhs, dict(X=X, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


def _averaging(I, samples, seed, cap) -> CheckReport:
    prop = f"averaging:{I.name}"
    rng = derive_rng(seed, prop)
    events = enumerate_events(I.target, cap)
    zero = RandomVariable.constant(I.target.space, 0)

    def trials():
        for X in iter_cases(I.target.space, rng, samples):
            if not I.in_domain(X):
                continue
            for ev in events:
                XH = restrict(X, ev)
                if I.in_domain(XH):
                    IXH = I(XH)
                    yield restrict(IXH, ev.complement()) == zero, dict(X=X, H=ev, value=IXH)

    return falsify(prop, trials())


def _extension_sandwich(I, samples, seed) -> CheckReport:
    prop = f"extension-sandwich:{I.name}"
    rng = derive_rng(seed, prop)
    space = I.target.space

    def trials():
        for X in iter_cases(space, rng, samples):
            if not I.in_domain(X):
                continue
            anchors = [sample_rv(space, rng) for _ in range(2)] + [X]
            anchors = [A for A in anchors if I.in_domain(A)]
            low = lower_extension(I, anchors, X)
            high = upper_extension(I, anchors, X)
            IX = I(X)
            yield low.le(IX) and IX.le(high), dict(step="sandwich", X=X, low=low, high=high)
            coincide = all(
                lower_extension(I, anchors, A) == I(A) == upper_extension(I, anchors, A)
                for A in anchors
            )
            yield coincide, dict(step="coincidence-on-anchors", X=X)
            # with no anchors only measurable minorants/majorants remain
            collapse = (
                lower_extension(I, [], X) == essinf_cond(X, I.target)
                and upper_extension(I, [], X) == esssup_cond(X, I.target)
            )
            yield collapse, dict(step="empty-anchor-collapse", X=X)

    return falsify(prop, trials())


def _extension_duality(I, samples, seed) -> CheckReport:
    prop = f"extension-duality:{I.name}"
    rng = derive_rng(seed, prop)
    space = I.target.space
    star = dual(I)

    def trials():
        for X in iter_cases(space, rng, samples):
            anchors = [sample_rv(space, rng) for _ in range(3)]
            flipped = [-A for A in anchors]
            lhs = -lower_extension(I, anchors, -X)  # (I^{L(E)})*(X)
            rhs = upper_extension(star, flipped, X)  # (I*)^{U(-E)}(X)
            yield lhs == rhs, dict(step="lower-upper", X=X, lhs=lhs, rhs=rhs)
            lhs = -upper_extension(I, anchors, -X)
            rhs = lower_extension(star, flipped, X)
            yield lhs == rhs, dict(step="upper-lower", X=X, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


def _mix_self_duality(I, samples, seed) -> CheckReport:
    prop = f"mix-self-dual:{I.name}"
    rng = derive_rng(seed, prop)
    T = mix_self_dual(I)
    Tstar = dual(T)

    def trials():
        for X in iter_cases(I.target.space, rng, samples):
            if T.in_domain(X) and Tstar.in_domain(X):
                lhs, rhs = T(X), Tstar(X)
                yield lhs == rhs, dict(X=X, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


def _linear_scaling_selfdual(I, samples, seed) -> CheckReport:
    # additive + self-dual collapses to exact rational scaling on a finite space
    prop = f"linear-scaling:{I.name}"
    rng = derive_rng(seed, prop)
    space = I.target.space

    def trials():
        for X in iter_cases(space, rng, samples, allow_inf=False):
            if not I.in_domain(X):
                continue
            coeffs = [RandomVariable.constant(space, a) for a in ALPHA_GRID]
            coeffs.append(sample_measurable(I.target, rng, allow_inf=False))
            for A in coeffs:
                AX = A * X
                if I.in_domain(AX):
                    lhs, rhs = I(AX), A * I(X)
                    yield lhs == rhs, dict(X=X, alpha=A, lhs=lhs, rhs=rhs)

    return falsify(prop, trials())


def _projection_property(SI, t_index, samples, seed, cap) -> CheckReport:
    prop = f"projection:{SI.indicators[0].name}"
    rng = derive_rng(seed, prop)
    filtration = SI.filtration
    I0 = SI.indicators[0]
    Ft = filtration.partitions[t_index]

    def trials():
        for _ in range(samples):
            X = sample_rv(filtration.space, rng, allow_inf=False, nonneg=True)
            Z = SI.indicators[t_index](X)
            rep = check_projection(I0, Z, X, Ft, cap=cap)
            yield rep.verdict is Verdict.VERIFIED, dict(X=X, Z=Z, inner=rep.witness)

    return falsify(prop, trials())


def _martingale_property(SI, samples, seed) -> CheckReport:
    prop = f"martingale:{SI.indicators[0].name}"
    rng = derive_rng(seed, prop)
    filtration = SI.filtration

    def trials():
        for _ in range(samples):
            X = sample_rv(filtration.space, rng, allow_inf=False)
            if all(ind.in_domain(X) for ind in SI.indicators):
                M = AdaptedProcess(filtration, tuple(ind(X) for ind in SI.indicators))
                rep = is_indicator_martingale(SI, M)
                yield rep.verdict is Verdict.VERIFIED, dict(X=X, inner=rep.witness)

    return falsify(prop, trials())


def _envelope_tower(SI, samples, seed) -> CheckReport:
    prop = f"envelope-tower:{SI.indicators[0].name}"
    rng = derive_rng(seed, prop)
    filtration = SI.filtration

    def trials():
        for _ in range(samples):
            payoff = sample_measurable(filtration.partitions[-1], rng, allow_inf=True)
            if not all(ind.in_domain(payoff) for ind in SI.indicators):
                continue
            V = backward_envelope(SI, payoff)
            ok = True
            current = payoff
            for ti in range(len(filtration.times) - 2, -1, -1):
                current = SI.indicators[ti](current)
                if V.values[ti] != current:
                    ok = False
            yield ok, dict(payoff=payoff, V0=V.values[0])

    return falsify(prop, trials())


def _shift_rigidity(filtration, samples, seed) -> CheckReport:
    prop = "esssup-shift-rigidity"
    rng = derive_rng(seed, prop)
    F0 = filtration.partitions[0]
    finest = filtration.partitions[-1]
    space = filtration.space
    zero = RandomVariable.constant(space, 0)

    def trials():
        cases = attempts = 0
        while cases < samples and attempts < samples * 20:
            attempts += 1
            members: set[int] = set()
            for cell in finest.cells:
                if rng.random() < 0.6:
                    members.update(cell)
            event = Event(space, frozenset(members))
            if event.is_empty():
                continue
            X = restrict(sample_rv(space, rng, allow_inf=False), event)
            if esssup_cond(X, F0) == zero:
                continue
            cases += 1
            rep = check_esssup_shift_rigidity(F0, event, X, _EPS_GRID)
            yield rep.verdict is Verdict.VERIFIED, dict(X=X, event=event, inner=rep.witness)
            # companion statement: (X' - eps)1_F for arbitrary X' carried to X'1_F
            X2 = sample_rv(space, rng, allow_inf=False)
            carried = restrict(X2, event)
            if esssup_cond(carried, F0) != zero:
                rep2 = check_esssup_shift_rigidity(F0, event, carried, _EPS_GRID)
                yield rep2.verdict is Verdict.VERIFIED, dict(X=X2, event=event, inner=rep2.witness)

    return falsify(prop, trials())


def sample_normalized_density(H: Partition, rng) -> RandomVariable:
    """Strictly positive rational density with unit mean on every cell."""
    space = H.space
    vals: list[Fraction] = [Fraction(0)] * space.size
    for cell in H.cells:
        weights = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in cell]
        cell_mass = sum(space.probs[i] for i in cell)
        weighted = sum(w * space.probs[i] for w, i in zip(weights, cell))
        for w, i in zip(weights, cell):
            vals[i] = w * cell_mass / weighted
    return RandomVariable(space, tuple(ext(v) for v in vals))


def _density_roundtrip(H, samples, seed) -> CheckReport:
    prop = "density-roundtrip"
    rng = derive_rng(seed, prop)
    inner = max(8, samples // 50)

    def trials():
        for case in range(samples):
            rho0 = sample_normalized_density(H, rng)
            I = weighted_indicator(H, rho0, label=f"weighted#{case}")
            try:
                rep = recover_density(I, samples=inner, seed=seed + case)
            except HypothesisFailedError as exc:
                yield False, dict(rho0=rho0, failed=list(exc.failed))
            else:
                ok = rep.density == rho0 and rep.reconstruction_ok
                yield ok, dict(rho0=rho0, recovered=rep.density)

    return falsify(prop, trials())


def _density_hypothesis_failure(H, seed) -> CheckReport:
    prop = "density-hypofail:esssup"
    if all(len(c) == 1 for c in H.cells):
        # over the discrete algebra the supremum is the identity, which is a
        # genuine conditional expectation; nothing should fail there
        return CheckReport.skipped(prop, "partition is discrete: supremum degenerates to the identity")
    I = builtin_indicator("esssup", H)
    try:
        recover_density(I, samples=64, seed=seed)
    except HypothesisFailedError as exc:
        if "additivity" in exc.failed:
            return CheckReport.verified(prop, 1, notes=(f"failed={list(exc.failed)}",))
        return CheckReport.counterexample(prop, {"failed": list(exc.failed)}, 1)
    return CheckReport.counterexample(
        prop, {"error": "recovery unexpectedly succeeded"}, 1
    )


def _engineered_additivity(space, partition, seed) -> CheckReport:
    prop = "additivity-sets"
    cell = next((c for c in partition.cells if len(c) >= 2), None)
    if cell is None:
        return CheckReport.skipped(prop, "needs a partition cell with at least 2 atoms")
    ci = partition.cells.index(cell)
    i0 = cell[0]

    def spiked(value, where, rest=ext(1)) -> RandomVariable:
        vals = [rest] * space.size
        vals[where] = value
        return RandomVariable(space, tuple(vals))

    ones = RandomVariable.constant(space, 1)
    cases = [
        ("F1", ones, ones),
        ("F2", spiked(POS_INF, i0), ones),
        ("F3", spiked(NEG_INF, i0), ones),
        ("F4", ones, spiked(POS_INF, i0)),
        ("F5", ones, spiked(NEG_INF, i0)),
    ]

    def trials():
        for want, X, Y in cases:
            _, tags = additivity_set(X, Y, partition)
            yield tags[ci] == want, dict(want=want, got=tags[ci], X=X, Y=Y)
            rep = check_additivity_on_F(X, Y, partition)
            yield rep.ok, dict(want=want, inner=rep.witness, X=X, Y=Y)
        # doubly infinite cell: unclassified, equality observed but never asserted
        X = spiked(POS_INF, i0)
        Y = spiked(NEG_INF, i0)
        _, tags = additivity_set(X, Y, partition)
        yield tags[ci] is None, dict(want=None, got=tags[ci], X=X, Y=Y)
        rep = check_additivity_on_F(X, Y, partition)
        yield rep.verdict is not Verdict.COUNTEREXAMPLE, dict(step="off-F-not-asserted")
        if space.size >= 2:
            X1 = spiked(POS_INF, 0, rest=ZERO)
            bothbad = X1 + spiked(NEG_INF, 1, rest=ZERO)  # +inf and -inf inside the single cell
            verdict = check_additivity_on_F(X1, bothbad, Partition.trivial(space)).verdict
            yield verdict is Verdict.SKIPPED, dict(step="fully-off-F-skips", got=verdict.value)

    return falsify(prop, trials())


def verify_all(
    scenario: Scenario,
    seed: int = 7,
    samples: int = DEFAULT_SAMPLES,
    cap: int = DEFAULT_EVENT_CAP,
    tol: Fraction = DEFAULT_TOL,
) -> list[CheckReport]:
    """Run the whole lemma battery against one scenario."""
    reports: list[CheckReport] = [_convention_table_report()]
    space = scenario.space

    part_items = sorted(scenario.partitions.items())
    if not part_items:
        part_items = [("trivial", Partition.trivial(space))]
    # the partition that actually conditions: strictly between trivial and discrete
    main = next(
        (p for _, p in part_items if 1 < p.cell_count < space.size),
        part_items[0][1],
    )

    light = min(samples, max(50, samples // 2))
    few = max(20, light // 5)
    # library checkers are renamed to the battery's property names; the
    # battery's own checkers (the underscored ones) already report under them
    for pname, partition in part_items:
        n = samples if partition == main else light
        for name in BUILTIN_NAMES:
            I = builtin_indicator(name, partition)
            reports.append(replace(check_axioms(I, n, seed), prop=f"axioms:{name}@{pname}"))
            reports.append(replace(check_regular(I, n, seed, cap), prop=f"locality:{name}@{pname}"))

    for name in BUILTIN_NAMES:
        I = builtin_indicator(name, main)
        reports.append(_averaging(I, samples, seed, cap))
        reports.append(_dual_involution(I, samples, seed))
        for flag in sorted(I.flags, key=lambda fl: fl.value):
            if flag is Flag.REGULAR:
                continue
            reports.append(
                replace(
                    check_structural(I, flag, samples, seed),
                    prop=f"structural:{name}:{flag.value}",
                )
            )
        if I.has(Flag.INCREASING):
            reports.append(_extension_sandwich(I, samples, seed))
            reports.append(_extension_duality(I, samples, seed))
        reports.append(_mix_self_duality(I, samples, seed))
        reports.append(
            replace(check_hplus_decomposition(I, samples, seed), prop=f"sign-split:{name}")
        )
        reports.append(
            replace(
                check_convex_implies_regular(I, light, seed),
                prop=f"convex-implies-regular:{name}",
            )
        )
        reports.append(
            replace(
                check_additive_implies_regular(I, light, seed),
                prop=f"additive-implies-regular:{name}",
            )
        )

    reports.append(_linear_scaling_selfdual(builtin_indicator("condexp", main), samples, seed))
    reports.append(
        replace(check_lemm_cond_exp(main, samples, seed, cap), prop="condexp-ext-identities")
    )

    for name in ("esssup", "essinf", "condexp"):
        I = builtin_indicator(name, main)
        reports.append(replace(check_prop_rm(I, light, seed, tol), prop=f"risk:prop-rm:{name}"))
        reports.append(
            replace(check_dom_closure(I, few, seed, tol), prop=f"risk:dom-closure:{name}")
        )
    sup = builtin_indicator("esssup", main)
    reports.append(
        replace(
            check_rho_correspondence(sup, RhoSide.NEG_VALUE, light, seed),
            prop="risk:rho-iff:esssup",
        )
    )

    reports.append(_density_roundtrip(main, max(20, samples // 10), seed))
    reports.append(_density_hypothesis_failure(main, seed))
    reports.append(_engineered_additivity(space, main, seed))

    filtration = scenario.filtration
    if filtration is not None and len(filtration.times) >= 2:
        times = filtration.times
        for name in ("esssup", "essinf", "condexp"):
            SI = StochasticIndicator.from_builtin(filtration, name)
            for si in range(len(times)):
                for ti in range(si + 1, len(times)):
                    reports.append(
                        replace(
                            check_tower(SI, times[si], times[ti], samples, seed),
                            prop=f"tower:{name}:{times[si]}<={times[ti]}",
                        )
                    )
        sup_family = StochasticIndicator.from_builtin(filtration, "esssup")
        mid = min(1, len(times) - 1)
        reports.append(_projection_property(sup_family, mid, few, seed, cap))
        reports.append(
            replace(
                check_projection_uniqueness_premises(sup_family.indicators[0], light, seed),
                prop="uniqueness-premises:esssup",
            )
        )
        for name in ("esssup", "condexp"):
            SI = StochasticIndicator.from_builtin(filtration, name)
            reports.append(_martingale_property(SI, few, seed))
            reports.append(_envelope_tower(SI, few, seed))
        reports.append(_shift_rigidity(filtration, light, seed))
    else:
        reports.append(
            CheckReport.skipped("tower", "scenario provides no filtration with >= 2 times")
        )

    return reports


def battery_failed(reports: list[CheckReport]) -> bool:
    return any(not r.ok for r in reports)
