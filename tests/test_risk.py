"""Acceptance sets, rho, risk-measure axioms, and flag correspondence."""

import dataclasses
from fractions import Fraction

import pytest

from condind import (
    DEFAULT_TOL,
    FiniteProbabilitySpace,
    Flag,
    IndicatorSpec,
    RandomVariable,
    RiskMeasureSpec,
    Verdict,
    check_dom_closure,
    check_prop_rm,
    check_rho_correspondence,
    check_rm_axioms,
    check_rm_coherent,
    check_rm_convexity,
    condexp_ext_indicator,
    condexp_indicator,
    dual,
    essinf_cond,
    essinf_indicator,
    esssup_cond,
    esssup_indicator,
    rho,
    rho_from_acceptance,
    rho_from_indicator,
)
from condind.errors import NotIncreasingError, NotRegularError, ValidationError
from condind.extreal import NEG_INF, POS_INF, ZERO, ext
from condind.space import Event, Partition, is_measurable, patch
from condind.sampling import derive_rng, sample_rv
from conftest import rv, values_reads


def strip_flags(I: IndicatorSpec, *flags: Flag) -> IndicatorSpec:
    return dataclasses.replace(I, flags=I.flags - set(flags))


def test_acceptance_contains_examples(space4, H):
    ce = condexp_indicator(H)
    assert ce(rv(space4, -1, 3, 2, 6)).is_nonnegative()  # cell means 1 and 4
    inf = essinf_indicator(H)
    assert not inf(rv(space4, -1, 3, 2, 6)).is_nonnegative()
    sup = esssup_indicator(H)
    rng = derive_rng(0, "accept")
    for _ in range(50):
        X = sample_rv(space4, rng, nonneg=True)
        for I in (ce, inf, sup, condexp_ext_indicator(H)):
            if I.in_domain(X):
                assert I(X).is_nonnegative()  # positivity of indicators


def test_rho_fast_path_examples(space4, H):
    X = rv(space4, 1, 3, 2, 6)
    assert rho(condexp_indicator(H), X) == rv(space4, -2, -2, -4, -4)
    assert rho(esssup_indicator(H), X) == rv(space4, -3, -3, -6, -6)
    measurable = rv(space4, 5, 5, -1, -1)
    assert rho(esssup_indicator(H), measurable) == -measurable
    assert rho(condexp_indicator(H), measurable) == -measurable


def test_rho_requires_increasing_and_finite(space4, H):
    bare = IndicatorSpec("bare", H, lambda X: X, flags=frozenset())
    with pytest.raises(NotIncreasingError):
        rho(bare, rv(space4, 1, 2, 3, 4))
    with pytest.raises(ValidationError):
        rho(esssup_indicator(H), RandomVariable.of(space4, {"a": "inf", "b": 1, "c": 1, "d": 1}))


def test_rho_bisection_needs_regular(space4, H):
    sup = strip_flags(esssup_indicator(H), Flag.TRANSLATION_INVARIANT, Flag.REGULAR)
    with pytest.raises(NotRegularError):
        rho(sup, rv(space4, 1, 2, 3, 4))


def test_rho_bisection_agrees_with_fast_path(space4, H):
    rng = derive_rng(1, "rho-bisect")
    for name_I in (esssup_indicator(H), essinf_indicator(H), condexp_indicator(H)):
        forced = strip_flags(name_I, Flag.TRANSLATION_INVARIANT)
        for _ in range(40):
            X = sample_rv(space4, rng, allow_inf=False)
            if not name_I.in_domain(X):
                continue
            exact = rho(name_I, X)
            approx = rho(forced, X)
            for a, b in zip(exact.values, approx.values):
                assert a.is_finite and b.is_finite
                assert abs(a.frac - b.frac) <= DEFAULT_TOL


def test_rho_bisection_soundness(space4, H):
    # returned level is acceptable; tol below it is not
    I = strip_flags(condexp_indicator(H), Flag.TRANSLATION_INVARIANT)
    rng = derive_rng(2, "rho-sound")
    for _ in range(25):
        X =  sample_rv(space4, rng, allow_inf=False)
        Y = rho(I, X)
        assert I(X + Y).is_nonnegative()
        eps = RandomVariable.constant(space4, DEFAULT_TOL)
        shaved = I(X + Y - eps)
        for cell in H.cells:
            assert any(shaved.values[i] < ext(0) for i in cell)


def reference_rho(I: IndicatorSpec, X: RandomVariable) -> tuple[RandomVariable, list[int]]:
    # the per-cell bisection: each probe of each cell is one evaluation of
    # I(X + y); returns the result and the evaluations spent on each cell
    out = [ZERO] * X.space.size
    spent = []
    for cell in I.target.cells:
        evals = 0

        def g(y):
            nonlocal evals
            evals += 1
            return I(X.shift(y)).values[cell[0]]

        vals = [X.values[i].frac for i in cell]
        lo, hi = -max(vals), -min(vals)
        if g(lo) >= ZERO:
            val = ext(lo)
        elif g(hi) < ZERO:
            val = POS_INF
        else:
            while hi - lo > DEFAULT_TOL:
                mid = (lo + hi) / 2
                if g(mid) >= ZERO:
                    hi = mid
                else:
                    lo = mid
            val = ext(hi)
        for i in cell:
            out[i] = val
        spent.append(evals)
    return RandomVariable(X.space, tuple(out)), spent


def recording(I: IndicatorSpec) -> tuple[IndicatorSpec, list[RandomVariable]]:
    args: list[RandomVariable] = []

    def ev(X):
        args.append(X)
        return I.eval_fn(X)

    return dataclasses.replace(I, eval_fn=ev), args


def bisected_indicators(H: Partition) -> list[IndicatorSpec]:
    # condexp-ext, the three translation-invariant built-ins forced onto the
    # bisection path, and esssup - 1, which no finite cash level makes
    # acceptable on a cell of range below 1
    forced = [
        strip_flags(make(H), Flag.TRANSLATION_INVARIANT)
        for make in (esssup_indicator, essinf_indicator, condexp_indicator)
    ]
    sup_minus_one = IndicatorSpec(
        "esssup-1", H, lambda X: esssup_cond(X, H).shift(-1),
        flags=frozenset({Flag.INCREASING, Flag.REGULAR}),
    )
    return [condexp_ext_indicator(H), *forced, sup_minus_one]


def space12_H12() -> tuple[FiniteProbabilitySpace, Partition]:
    # 12 atoms in 4 cells of unequal mass
    weights = (1, 2, 3, 1, 1, 4, 2, 5, 1, 3, 2, 3)
    space12 = FiniteProbabilitySpace(
        tuple(f"s{i}" for i in range(12)), tuple(Fraction(w, 28) for w in weights)
    )
    return space12, Partition.from_cells(space12, [(0, 1), (2, 3, 4, 5, 6), (7, 8, 9), (10, 11)])


def reference_cases(space4, H) -> list[tuple]:
    # X is constant on the last cell of H12, so its lo probe is already
    # optimal. In the third case, t = tol: its first bracket starts on tol
    # and its second, of width 8t, lands on tol after 3 halvings.
    space12, H12 = space12_H12()
    rng = derive_rng(3, "rho-reference")
    t = DEFAULT_TOL
    cases = [(space4, H, rv(space4, 1, 3, 2, 6)), (space4, H, rv(space4, 0, 0, 5, 5)),
             (space4, H, rv(space4, 0, t, 0, 8 * t))]
    cases += [(space4, H, sample_rv(space4, rng, allow_inf=False)) for _ in range(6)]
    for _ in range(6):
        X = sample_rv(space12, rng, allow_inf=False)
        X = RandomVariable(space12, X.values[:10] + (ext("7/3"),) * 2)
        cases.append((space12, H12, X))
    return cases


def test_rho_bisection_equals_per_cell_reference(space4, H):
    bisected = infinite = 0
    for space, part, X in reference_cases(space4, H):
        for I in bisected_indicators(part):
            want, spent = reference_rho(I, X)
            counted, args = recording(I)
            assert rho(counted, X) == want
            # one evaluation per step for all cells: as many as the
            # costliest cell alone
            assert len(args) == max(spent)
            bisected += max(spent) > 2
            infinite += POS_INF in want.values
    assert bisected > 0 and infinite > 0


def fraction_rho(I: IndicatorSpec, X: RandomVariable) -> RandomVariable:
    # rho's joint bisection on another route: Fraction levels, probes built
    # from ExtReal per-cell values and read off the image's `values`
    H = I.target
    cells = H.cells
    hi_rv = esssup_cond(X, H)
    lo_rv = essinf_cond(X, H)
    lo = [-hi_rv.values[cell[0]].frac for cell in cells]
    hi = [-lo_rv.values[cell[0]].frac for cell in cells]

    def image(levels):
        shifted = X + RandomVariable.from_cells(H, [ext(y) for y in levels])
        img = I(shifted).values
        return [img[cell[0]] for cell in cells]

    val = [None] * len(cells)
    for c, g in enumerate(image(lo)):
        if g >= ZERO:
            val[c] = ext(lo[c])
    if None in val:
        for c, g in enumerate(image(hi)):
            if val[c] is None and g < ZERO:
                val[c] = POS_INF
    todo = [c for c, v in enumerate(val) if v is None and hi[c] - lo[c] > DEFAULT_TOL]
    while todo:
        probe = list(hi)
        for c in todo:
            probe[c] = (lo[c] + hi[c]) / 2
        img = image(probe)
        for c in todo:
            if img[c] >= ZERO:
                hi[c] = probe[c]
            else:
                lo[c] = probe[c]
        todo = [c for c in todo if hi[c] - lo[c] > DEFAULT_TOL]
    return RandomVariable.from_cells(H, [ext(h) if v is None else v for v, h in zip(val, hi)])


def test_rho_probes_equal_fraction_bisection(space4, H):
    # rho passes I the same arguments, in the same order, as the Fraction
    # bisection and returns the same variable. "liar" is -esssup on the first
    # cell and condexp on the others, flagged increasing but decreasing on the
    # first cell. Its first cell settles at lo < hi while the others bisect:
    # that cell must keep lo whatever its hi probe reads, and sit at hi in
    # later probes.
    for space, part, X in reference_cases(space4, H):
        first = Event(space, frozenset(part.cells[0]))
        ce = condexp_indicator(part)
        liar = IndicatorSpec(
            "liar", part, lambda X, p=part, e=first, ce=ce: patch(-esssup_cond(X, p), e, ce(X)),
            flags=frozenset({Flag.INCREASING, Flag.REGULAR}),
        )
        for I in [*bisected_indicators(part), liar]:
            new, new_args = recording(I)
            old, old_args = recording(I)
            assert rho(new, X) == fraction_rho(old, X)
            assert new_args == old_args


def test_rho_bisection_reads_no_values(monkeypatch):
    # the probes read the image's packed form, never its ExtReal tuple
    space12, H12 = space12_H12()
    X = sample_rv(space12, derive_rng(3, "rho-values"), allow_inf=False)
    I, args = recording(condexp_ext_indicator(H12))
    values_reads(monkeypatch, lambda: rho(I, X))
    assert len(args) > 2


def test_rho_from_indicator_sides(space4, H):
    sup = esssup_indicator(H)
    X = rv(space4, 1, 3, 2, 6)
    neg_arg = rho_from_indicator(dual(sup))
    neg_val = rho_from_indicator(sup)
    assert neg_val.name == "rho[-I(X)]:esssup"  # labels the rm-axioms stream and report
    assert neg_arg(X) == rv(space4, -1, -1, -2, -2)  # esssup(-X)
    assert neg_val(X) == rv(space4, -3, -3, -6, -6)  # -esssup(X)
    zero = rv(space4, 0, 0, 0, 0)
    assert neg_arg(zero) == zero and neg_val(zero) == zero
    # rho(X) = I(-X) is rho_from_indicator(dual(I)), on I's domain
    rng = derive_rng(8, "rho-dual")
    for I in (condexp_indicator(H), esssup_indicator(H), essinf_indicator(H), condexp_ext_indicator(H)):
        for _ in range(40):
            X = sample_rv(space4, rng, allow_inf=False)
            if I.in_domain(X) and I.in_domain(-X):
                assert rho_from_indicator(dual(I))(X) == I(-X), I.name
                assert rho_from_indicator(I)(X) == -I(X), I.name


def test_rm_axioms_builtins(space4, H):
    for I in (condexp_indicator(H), esssup_indicator(H), essinf_indicator(H)):
        for J in (I, dual(I)):
            rep = check_rm_axioms(rho_from_indicator(J), samples=150, seed=3)
            assert rep.verdict is Verdict.VERIFIED, (J.name, rep.witness)


def test_rm_axioms_counterexample_shifted(space4, H):
    ce = condexp_indicator(H)
    shifted = RiskMeasureSpec(
        name="rho+1",
        target=H,
        eval_fn=lambda X: -ce(X) + RandomVariable.constant(space4, 1),
    )
    rep = check_rm_axioms(shifted, samples=50, seed=3)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    assert rep.witness["axiom"] == "normalization"


def cash_error_at_shifts(H: Partition, at_first, at_shift) -> tuple[RiskMeasureSpec, list[int]]:
    """-E(X|H) plus `at_first` on atom 0, or `at_shift` there when X is an
    earlier argument plus a nonzero H-measurable shift, as in the
    cash-invariance trial's left side. Zero is outside the domain, so an
    infinite `at_first` leaves normalization unjudged."""
    space = H.space
    ce = condexp_indicator(H)
    first, shift = (RandomVariable.of(space, [v] + [0] * (space.size - 1)) for v in (at_first, at_shift))
    zero = RandomVariable.constant(space, 0)
    seen: list[RandomVariable] = []
    shifts = [0]

    def ev(X):
        shifted = any(X != Y and is_measurable(X - Y, H) for Y in seen)
        seen.append(X)
        shifts[0] += shifted
        return -ce(X) + (shift if shifted else first)

    rm = RiskMeasureSpec("cash-error", H, ev, domain_fn=lambda X: X != zero)
    return rm, shifts


TOL = Fraction(1, 100)


@pytest.mark.parametrize(
    "at_first, at_shift, verdict",
    [
        (0, 3 * TOL / 2, Verdict.COUNTEREXAMPLE),
        (0, -3 * TOL / 2, Verdict.COUNTEREXAMPLE),
        (0, TOL / 2, Verdict.VERIFIED),
        (0, -TOL / 2, Verdict.VERIFIED),
        (POS_INF, POS_INF, Verdict.VERIFIED),
        (POS_INF, NEG_INF, Verdict.COUNTEREXAMPLE),
        (NEG_INF, POS_INF, Verdict.COUNTEREXAMPLE),
    ],
)
def test_rm_axioms_cash_invariance_within_tol(H, at_first, at_shift, verdict):
    # |lhs - rhs| <= tol on both sides; equal infinities differ by inf - inf = 0
    rm, shifts = cash_error_at_shifts(H, at_first, at_shift)
    rep = check_rm_axioms(rm, samples=60, seed=3, tol=TOL)
    assert rep.verdict is verdict and shifts[0] > 0, rep.witness
    if verdict is Verdict.COUNTEREXAMPLE:
        assert rep.witness["axiom"] == "cash-invariance"


def test_rm_axioms_reads_no_values(monkeypatch, H):
    # the axioms compare whole variables, never their ExtReal tuples
    rm = rho_from_acceptance(condexp_ext_indicator(H))
    rep = values_reads(monkeypatch, lambda: check_rm_axioms(rm, samples=60, seed=3, tol=DEFAULT_TOL))
    assert rep.verdict is Verdict.VERIFIED and rep.cases > 60


def test_rm_convexity_violation_squared_mean(space4, H):
    ce = condexp_indicator(H)
    rm = RiskMeasureSpec(
        name="minus-squared-mean",
        target=H,
        eval_fn=lambda X: -(ce(X) * ce(X)),
    )
    rep = check_rm_convexity(rm, samples=300, seed=5)
    assert rep.verdict is Verdict.COUNTEREXAMPLE


def convexity_gap_on_mixtures(H: Partition, gap) -> tuple[RiskMeasureSpec, list[int]]:
    """-E(X|H) plus `gap` on atom 0 when X is a strict mixture aP + (1-a)Q of
    the draw's pair (P, Q), as the convexity trial's left side is from its
    second weight on; its right side is then -E(X|H) exactly. The pair is
    the last two distinct arguments that were not such a mixture: X and Y
    are evaluated before any strict mixture of them, in whatever order."""
    space = H.space
    ce = condexp_indicator(H)
    bump = RandomVariable.of(space, [gap] + [0] * (space.size - 1))
    mixes = [(RandomVariable.constant(space, a), RandomVariable.constant(space, 1 - a))
             for a in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
    pair: list[RandomVariable] = []
    hits = [0]

    def ev(X):
        mixed = len(pair) == 2 and any(X == A * pair[0] + B * pair[1] for A, B in mixes)
        if not mixed and (not pair or X != pair[-1]):
            pair[:] = [*pair[-1:], X]
        hits[0] += mixed
        return -ce(X) + bump if mixed else -ce(X)

    return RiskMeasureSpec("convexity-gap", H, ev), hits


@pytest.mark.parametrize(
    "gap, verdict", [(3 * TOL / 2, Verdict.COUNTEREXAMPLE), (TOL / 2, Verdict.VERIFIED)]
)
def test_rm_convexity_within_tol(H, gap, verdict):
    rm, hits = convexity_gap_on_mixtures(H, gap)
    rep = check_rm_convexity(rm, samples=30, seed=3, tol=TOL)
    assert rep.verdict is verdict and hits[0] > 0, rep.witness
    if verdict is Verdict.COUNTEREXAMPLE:
        assert rep.witness["lhs"] - rep.witness["rhs"] == RandomVariable.of(H.space, [gap, 0, 0, 0])


def test_rm_coherent_builtins(space4, H):
    for I in (condexp_indicator(H), esssup_indicator(H)):
        rm = rho_from_indicator(dual(I))
        rep = check_rm_coherent(rm, samples=200, seed=7)
        assert rep.verdict is Verdict.VERIFIED, (I.name, rep.witness)


def test_dom_closure_examples(space4, H):
    ce = check_dom_closure(condexp_indicator(H), samples=60, seed=1)
    assert ce.verdict is Verdict.VERIFIED
    sup = check_dom_closure(esssup_indicator(H), samples=60, seed=1)
    assert sup.verdict is Verdict.VERIFIED
    assert any("addition: vacuous" in n for n in sup.notes)  # subadditive only
    assert any("convexity: vacuous" in n for n in sup.notes)
    inf = check_dom_closure(essinf_indicator(H), samples=60, seed=1)
    assert inf.verdict is Verdict.VERIFIED
    bare = IndicatorSpec("bare", H, lambda X: X, flags=frozenset())
    assert check_dom_closure(bare).verdict is Verdict.SKIPPED


def test_prop_rm_examples(space4, H):
    ce = check_prop_rm(condexp_indicator(H), samples=120, seed=2)
    assert ce.verdict is Verdict.VERIFIED, ce.witness
    sup = check_prop_rm(esssup_indicator(H), samples=120, seed=2)
    assert sup.verdict is Verdict.VERIFIED, sup.witness
    assert any("subadditivity inheritance skipped" in n for n in sup.notes)
    inf = check_prop_rm(essinf_indicator(H), samples=120, seed=2)
    assert inf.verdict is Verdict.VERIFIED, inf.witness  # rho subadditive holds
    with pytest.raises(NotIncreasingError):
        check_prop_rm(IndicatorSpec("bare", H, lambda X: X, flags=frozenset()))


def test_prop_rm_subadditivity_within_two_tol_on_bisection_path():
    # off a uniform cell the bisected rho misses -E(X|H) by up to tol per
    # evaluation, so rho(X + Y) <= rho(X) + rho(Y) holds only within 2 tol
    _, H12 = space12_H12()
    I = strip_flags(condexp_indicator(H12), Flag.TRANSLATION_INVARIANT, Flag.LINEAR, Flag.POS_HOMOGENEOUS)
    rep = check_prop_rm(I, samples=40, seed=0)
    assert rep.verdict is Verdict.VERIFIED, rep.witness
    assert rep.notes == (
        f"fast-path=bisection tol={DEFAULT_TOL}",
        "convexity inheritance skipped (acceptance set not certified convex)",
        "pos-hom inheritance skipped (flag absent)",
    )


def test_prop_rm_says_pos_hom_is_not_checked_on_bisection_path(H):
    # condexp-ext is positively homogeneous but not translation invariant, so
    # rho bisects and no homogeneity trial runs: every case is an axiom case
    I = condexp_ext_indicator(H)
    rep = check_prop_rm(I, 60, 1)
    assert rep.verdict is Verdict.VERIFIED, rep.witness
    assert rep.cases == check_rm_axioms(rho_from_acceptance(I), 60, 1, tol=DEFAULT_TOL).cases
    assert rep.notes == (
        f"fast-path=bisection tol={DEFAULT_TOL}",
        "convexity inheritance skipped (acceptance set not certified convex)",
        "pos-hom inheritance not checked (bisection path)",
        "subadditivity inheritance skipped (superadditive flag absent)",
    )


@pytest.mark.parametrize("seed", range(4))
def test_prop_rm_convexity_within_tol_on_bisection_path(seed):
    # each bisected rho lies in [exact, exact + tol], so convexity holds within tol
    _, H12 = space12_H12()
    I = strip_flags(condexp_indicator(H12), Flag.TRANSLATION_INVARIANT)
    rep = check_prop_rm(I, samples=40, seed=seed)
    assert rep.verdict is Verdict.VERIFIED, (rep.notes, rep.witness)


def test_rho_correspondence_builtins(space4, H):
    for I in (condexp_indicator(H), esssup_indicator(H), essinf_indicator(H)):
        for J in (I, dual(I)):
            rep = check_rho_correspondence(J, samples=120, seed=4)
            assert rep.verdict is Verdict.VERIFIED and not rep.alarm, J.name
            assert rep.prop == f"rho-iff:{J.name}[-I(X)]"


def test_rho_correspondence_flags_track_axiom_failures(space4):
    # not monotone: both the axiom side and the flag side must fail together
    from test_checks import sign_switch_indicator

    I = sign_switch_indicator(space4)
    rep = check_rho_correspondence(I, samples=400, seed=4)
    assert rep.verdict is Verdict.VERIFIED and not rep.alarm
    assert "axioms=counterexample" in rep.notes
    assert "flags=counterexample" in rep.notes


def test_acceptance_shift_identity(space4, H):
    # the acceptance intersection shifts by measurable cash exactly
    I = condexp_indicator(H)
    rng = derive_rng(6, "m-shift")
    for _ in range(50):
        X = sample_rv(space4, rng, allow_inf=False)
        alpha = rv(space4, *([rng.randint(-3, 3)] * 4))
        assert rho(I, X + alpha) == rho(I, X) - alpha
