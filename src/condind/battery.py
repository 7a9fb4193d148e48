"""The full seeded verification battery behind `verify-all`.

`properties` is the battery as a table: one `(name, run)` row per property,
in report order, where `run()` returns that property's CheckReport and
depends on no other row. `verify_all` runs every row and names each report.
The battery is deterministic given (scenario, seed, samples) and a run is
considered failing iff some report is a counterexample or carries a
contradiction alarm.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator

from .checks import (
    CheckReport,
    Trial,
    Verdict,
    check_additive_implies_regular,
    check_axioms,
    check_convex_implies_regular,
    check_hplus_decomposition,
    check_regular,
    check_structural,
    domain_cases,
    enumerate_or_sample,
    falsify,
    grid_coefficients,
    restricted_images,
    scaling_trials,
    self_duality_trials,
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
from .risk import check_dom_closure, check_prop_rm, check_rho_correspondence
from .sampling import (
    ALPHA_GRID,
    derive_rng,
    iter_cases,
    sample_measurable,
    sample_rv,
)
from .scenario import Scenario
from .space import DEFAULT_SAMPLES, Event, Partition, RandomVariable, restrict
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


def _convention_table(prop: str) -> CheckReport:
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

    return falsify(prop, trials())


def _dual_involution(I, rng, samples) -> Iterator[Trial]:
    star = dual(I)
    double = dual(star)
    swap_ok = (
        (Flag.SUBADDITIVE in I.flags) == (Flag.SUPERADDITIVE in star.flags)
        and (Flag.SUPERADDITIVE in I.flags) == (Flag.SUBADDITIVE in star.flags)
    )
    yield swap_ok, dict(step="flag-swap", flags=sorted(fl.value for fl in star.flags))
    # dual(dual(I)) has I's domain: -(-X) is X
    for X in domain_cases(I, rng, samples):
        lhs, rhs = double(X), I(X)
        yield lhs == rhs, dict(X=X, lhs=lhs, rhs=rhs)


def _averaging(prop, I, samples, seed) -> CheckReport:
    rng = derive_rng(seed, prop)
    events, notes = enumerate_or_sample(I.target, rng)

    def trials():
        for X in domain_cases(I, rng, samples):
            for ev, IXH in restricted_images(I, X, events):
                yield IXH == restrict(IXH, ev), dict(X=X, H=ev, value=IXH)

    return falsify(prop, trials(), notes=notes)


def _extension_sandwich(I, rng, samples) -> Iterator[Trial]:
    space = I.target.space
    for X in domain_cases(I, rng, samples):
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


def _extension_duality(I, rng, samples) -> Iterator[Trial]:
    space = I.target.space
    star = dual(I)
    steps = (("lower-upper", lower_extension, upper_extension),
             ("upper-lower", upper_extension, lower_extension))
    for X in iter_cases(space, rng, samples):
        anchors = [sample_rv(space, rng) for _ in range(3)]
        flipped = [-A for A in anchors]
        # (I^{L(E)})*(X) = (I*)^{U(-E)}(X), and the same with L and U swapped
        for step, outer, inner in steps:
            lhs = -outer(I, anchors, -X)
            rhs = inner(star, flipped, X)
            yield lhs == rhs, dict(step=step, X=X, lhs=lhs, rhs=rhs)


def _projection_property(prop, SI, t_index, samples, seed) -> CheckReport:
    rng = derive_rng(seed, prop)
    filtration = SI.filtration
    I0 = SI.indicators[0]
    Ft = filtration.partitions[t_index]
    inner_notes: set[str] = set()  # past 64 events, the one "partial: sampled" note of every trial

    def trials():
        for case in range(samples):
            X = sample_rv(filtration.space, rng, allow_inf=False, nonneg=True)
            Z = SI.indicators[t_index](X)
            rep = check_projection(I0, Z, X, Ft, seed=seed + case)
            inner_notes.update(rep.notes)
            yield rep.verdict is Verdict.VERIFIED, dict(X=X, Z=Z, inner=rep.witness)

    return replace(falsify(prop, trials()), notes=tuple(inner_notes))


def _martingale_property(SI, rng, samples) -> Iterator[Trial]:
    filtration = SI.filtration
    for _ in range(samples):
        X = sample_rv(filtration.space, rng, allow_inf=False)
        if all(ind.in_domain(X) for ind in SI.indicators):
            M = AdaptedProcess(filtration, tuple(ind(X) for ind in SI.indicators))
            rep = is_indicator_martingale(SI, M)
            yield rep.verdict is Verdict.VERIFIED, dict(X=X, inner=rep.witness)


def _envelope_tower(SI, rng, samples) -> Iterator[Trial]:
    filtration = SI.filtration
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


def _shift_rigidity(filtration, rng, samples) -> Iterator[Trial]:
    F0 = filtration.partitions[0]
    finest = filtration.partitions[-1]
    space = filtration.space
    zero = RandomVariable.constant(space, 0)
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


def _density_roundtrip(H, rng, samples, seed) -> Iterator[Trial]:
    inner = max(8, samples // 50)
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


def _density_hypothesis_failure(prop, H, seed) -> CheckReport:
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


def _engineered_additivity(prop, partition) -> CheckReport:
    space = partition.space
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


Row = tuple[str, Callable[[], CheckReport]]


def _named(prop: str, checker: Callable[..., CheckReport], *args) -> Row:
    """The row of a checker that takes its property name first: the name is
    both its report name and the label of its random stream."""
    return prop, partial(checker, prop, *args)


def _law(prop: str, seed: int, law: Callable[..., Iterator[Trial]], subject, *args) -> CheckReport:
    """A law's report: the trials `law(subject, rng, *args)` yields on the
    stream labelled by the row's name."""
    return falsify(prop, law(subject, derive_rng(seed, prop), *args))


def properties(scenario: Scenario, seed: int, samples: int) -> Iterator[Row]:
    """The battery's rows in report order. Each row is built when the
    generator reaches it and runs alone: every checker draws from its own
    `derive_rng(seed, label)` stream, so a row's report does not depend on
    which rows ran before it."""
    yield _named("conv-table", _convention_table)
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
    for pname, partition in part_items:
        n = samples if partition == main else light
        for name in BUILTIN_NAMES:
            I = builtin_indicator(name, partition)
            yield f"axioms:{name}@{pname}", partial(check_axioms, I, n, seed)
            yield f"locality:{name}@{pname}", partial(check_regular, I, n, seed)

    for name in BUILTIN_NAMES:
        I = builtin_indicator(name, main)
        yield _named(f"averaging:{name}", _averaging, I, samples, seed)
        yield _named(f"dual-involution:{name}", _law, seed, _dual_involution, I, samples)
        for flag in sorted(I.flags - {Flag.REGULAR}, key=lambda fl: fl.value):
            yield f"structural:{name}:{flag.value}", partial(check_structural, I, flag, samples, seed)
        if I.has(Flag.INCREASING):
            yield _named(f"extension-sandwich:{name}", _law, seed, _extension_sandwich, I, samples)
            yield _named(f"extension-duality:{name}", _law, seed, _extension_duality, I, samples)
        yield _named(f"mix-self-dual:{name}", _law, seed, self_duality_trials, mix_self_dual(I), samples)
        yield f"sign-split:{name}", partial(check_hplus_decomposition, I, samples, seed)
        yield f"convex-implies-regular:{name}", partial(check_convex_implies_regular, I, light, seed)
        yield f"additive-implies-regular:{name}", partial(check_additive_implies_regular, I, light, seed)

    condexp = builtin_indicator("condexp", main)
    # additive + self-dual collapses to exact rational scaling on a finite space
    scales = grid_coefficients(main, ALPHA_GRID)
    yield _named("linear-scaling:condexp", _law, seed, scaling_trials, condexp, samples, scales, False)
    yield "condexp-ext-identities", partial(check_lemm_cond_exp, main, samples, seed)

    for name in ("esssup", "essinf", "condexp"):
        I = builtin_indicator(name, main)
        yield f"risk:prop-rm:{name}", partial(check_prop_rm, I, light, seed)
        yield f"risk:dom-closure:{name}", partial(check_dom_closure, I, few, seed)
    sup = builtin_indicator("esssup", main)
    yield "risk:rho-iff:esssup", partial(check_rho_correspondence, sup, light, seed)

    yield _named("density-roundtrip", _law, seed, _density_roundtrip, main, max(20, samples // 10), seed)
    yield _named("density-hypofail:esssup", _density_hypothesis_failure, main, seed)
    yield _named("additivity-sets", _engineered_additivity, main)

    filtration = scenario.filtration
    if filtration is None or len(filtration.times) < 2:
        yield _named("tower", CheckReport.skipped, "scenario provides no filtration with >= 2 times")
        return
    times = filtration.times
    for name in ("esssup", "essinf", "condexp"):
        SI = StochasticIndicator.from_builtin(filtration, name)
        for si in range(len(times)):
            for ti in range(si + 1, len(times)):
                yield (
                    f"tower:{name}:{times[si]}<={times[ti]}",
                    partial(check_tower, SI, times[si], times[ti], samples, seed),
                )
    sup_family = StochasticIndicator.from_builtin(filtration, "esssup")
    mid = min(1, len(times) - 1)
    yield _named("projection:esssup", _projection_property, sup_family, mid, few, seed)
    yield (
        "uniqueness-premises:esssup",
        partial(check_projection_uniqueness_premises, sup_family.indicators[0], light, seed),
    )
    for name in ("esssup", "condexp"):
        SI = StochasticIndicator.from_builtin(filtration, name)
        yield _named(f"martingale:{name}", _law, seed, _martingale_property, SI, few)
        yield _named(f"envelope-tower:{name}", _law, seed, _envelope_tower, SI, few)
    yield _named("esssup-shift-rigidity", _law, seed, _shift_rigidity, filtration, light)


def verify_all(
    scenario: Scenario, seed: int = 7, samples: int = DEFAULT_SAMPLES
) -> list[CheckReport]:
    """Run the whole lemma battery against one scenario; the runner names
    every report after its row."""
    return [replace(run(), prop=name) for name, run in properties(scenario, seed, samples)]
