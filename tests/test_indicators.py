"""Indicator layer: esssup/essinf, duals, mixes, families, extensions,
and the extended-expectation closed form."""

import itertools
import operator
from fractions import Fraction

import pytest

from condind import (
    BUILTIN_NAMES,
    FiniteProbabilitySpace,
    Flag,
    IndicatorSpec,
    Partition,
    RandomVariable,
    builtin_indicator,
    condexp_ext_indicator,
    condexp_indicator,
    dual,
    essinf_cond,
    essinf_indicator,
    esssup_cond,
    esssup_indicator,
    ext_cond_expectation_closed_form,
    family_inf,
    family_sup,
    lower_extension,
    mix_self_dual,
    patch,
    upper_extension,
)
from condind.errors import MixedTargetsError, NotMonotoneError
from condind.extreal import NEG_INF, POS_INF, ext
from condind.sampling import derive_rng, iter_cases, sample_rv

from conftest import (
    finite_grid_rvs,
    ge_table,
    le_table,
    oracle_cell_mean,
    oracle_greatest_minorant,
    oracle_least_dominator,
    rv,
    values_reads,
)
from condind.sampling import GRID_VALUES


def test_esssup_examples(space4, H):
    assert esssup_cond(rv(space4, 1, 3, 2, 6), H) == rv(space4, 3, 3, 6, 6)
    measurable = rv(space4, 5, 5, -1, -1)
    assert esssup_cond(measurable, H) == measurable
    spiky = RandomVariable(space4, (NEG_INF, ext(5), POS_INF, ext(0)))
    assert esssup_cond(spiky, H) == RandomVariable(
        space4, (ext(5), ext(5), POS_INF, POS_INF)
    )


def test_essinf_examples(space4, H):
    assert essinf_cond(rv(space4, 1, 3, 2, 6), H) == rv(space4, 1, 1, 2, 2)
    spiky = RandomVariable(space4, (POS_INF, POS_INF, ext(0), ext(1)))
    assert essinf_cond(spiky, H) == RandomVariable(
        space4, (POS_INF, POS_INF, ext(0), ext(0))
    )


def test_esssup_essinf_results_are_reduced():
    # The kernels copy reduced numerators, but a subset of reduced numerators
    # need not be reduced: (1/2, 1) is (1, 2) over 2, its esssup (2, 2) over
    # 2; (1, 3/2) is (2, 3) over 2, its essinf (2, 2) over 2. Unreduced, ==
    # and hash would split them from the constant 1.
    from condind import FiniteProbabilitySpace

    space = FiniteProbabilitySpace.uniform(["a", "b"])
    trivial = Partition.trivial(space)
    one = RandomVariable.constant(space, 1)
    for got in (
        esssup_cond(rv(space, "1/2", 1), trivial),
        essinf_cond(rv(space, 1, "3/2"), trivial),
    ):
        assert got == one and hash(got) == hash(one)
        assert got.den == 1 and got.nums == (1, 1)


def test_essinf_is_dual_of_esssup_by_definition(space4, H):
    rng = derive_rng(0, "essinf-def")
    for _ in range(100):
        X = sample_rv(space4, rng)
        assert essinf_cond(X, H) == -esssup_cond(-X, H)


def test_esssup_is_least_dominator_on_grid(space4, H):
    # independent oracle: grid-index scan with a pairwise order table
    ge = ge_table()
    le = le_table()
    for combo in itertools.product(range(len(GRID_VALUES)), repeat=4):
        X = RandomVariable(space4, tuple(GRID_VALUES[i] for i in combo))
        want_sup = oracle_least_dominator(combo, H.cells, ge)
        want_inf = oracle_greatest_minorant(combo, H.cells, le)
        assert esssup_cond(X, H).values == tuple(want_sup)
        assert essinf_cond(X, H).values == tuple(want_inf)


def test_esssup_minimality_among_measurable_dominators(space4, H):
    # any cell-constant dominator on the grid sits above the computed one
    for X in finite_grid_rvs(space4, (-2, 0, 1, 3))[:128]:
        sup = esssup_cond(X, H)
        for z1 in (-2, 0, 1, 3):
            for z2 in (-2, 0, 1, 3):
                Z = rv(space4, z1, z1, z2, z2)
                if X.le(Z):
                    assert sup.le(Z)


def test_condexp_examples(space4, H):
    X = rv(space4, 1, 3, 2, 6)
    got = ext_cond_expectation_closed_form(X, H)
    assert got == rv(space4, 2, 2, 4, 4)
    # cross-check against the restriction-based mean oracle
    for cell in H.cells:
        assert got.values[cell[0]] == oracle_cell_mean(X, cell)


def test_condexp_ext_convention_cases(space4, H):
    doubly = RandomVariable(space4, (POS_INF, NEG_INF, ext(1), ext(1)))
    assert ext_cond_expectation_closed_form(doubly, H) == rv(space4, 0, 0, 1, 1)
    plus = RandomVariable(space4, (POS_INF, ext(2), ext(1), ext(1)))
    assert ext_cond_expectation_closed_form(plus, H) == RandomVariable(
        space4, (POS_INF, POS_INF, ext(1), ext(1))
    )
    minus = RandomVariable(space4, (NEG_INF, ext(0), ext(2), ext(6)))
    assert ext_cond_expectation_closed_form(minus, H) == RandomVariable(
        space4, (NEG_INF, NEG_INF, ext(4), ext(4))
    )


def test_condexp_respects_masses():
    space = FiniteProbabilitySpaceWeighted()
    H = Partition.from_labels(space, [["a", "b"], ["c"]])
    X = rv(space, 1, 4, 7)
    got = ext_cond_expectation_closed_form(X, H)
    # cell {a,b}: (1/2*1 + 1/4*4) / (3/4) = 2
    assert got == rv(space, 2, 2, 7)


def FiniteProbabilitySpaceWeighted():
    from condind import FiniteProbabilitySpace

    return FiniteProbabilitySpace(
        ("a", "b", "c"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    )


def test_dual_examples(space4, H):
    sup = esssup_indicator(H)
    star = dual(sup)
    rng = derive_rng(1, "dual")
    for _ in range(100):
        X = sample_rv(space4, rng)
        assert star(X) == essinf_cond(X, H)
        assert dual(star)(X) == sup(X)
    assert Flag.SUPERADDITIVE in star.flags
    assert Flag.SUBADDITIVE not in star.flags
    assert Flag.CONVEX not in star.flags  # dual of a convex map is concave


def test_dual_of_condexp_is_itself(space4, H):
    ce = condexp_indicator(H)
    star = dual(ce)
    rng = derive_rng(2, "dual-ce")
    for _ in range(100):
        X = sample_rv(space4, rng, allow_inf=False)
        assert star(X) == ce(X)
    assert star.flags == ce.flags  # linear: everything survives, convex included


def test_mix_self_dual(space4, H):
    sup = esssup_indicator(H)
    T = mix_self_dual(sup)
    X = rv(space4, 1, 3, 2, 6)
    assert T(X) == rv(space4, 2, 2, 4, 4)
    measurable = rv(space4, 7, 7, -2, -2)
    assert T(measurable) == measurable
    Tstar = dual(T)
    rng = derive_rng(3, "mix")
    for _ in range(200):
        Y = sample_rv(space4, rng)
        assert T(Y) == Tstar(Y)
    assert Flag.SELF_DUAL in T.flags


def test_family_ops(space4, H):
    sup = esssup_indicator(H)
    inf = essinf_indicator(H)
    ce = condexp_indicator(H)
    assert family_sup([sup]) is sup
    rng = derive_rng(4, "family")
    both = family_sup([inf, sup])
    for _ in range(100):
        X = sample_rv(space4, rng)
        assert both(X) == sup(X)
    X = rv(space4, 1, 3, 2, 6)
    assert family_inf([ce, sup])(X) == rv(space4, 2, 2, 4, 4)
    other = Partition.trivial(space4)
    with pytest.raises(MixedTargetsError):
        family_sup([sup, essinf_indicator(other)])


def test_family_result_stays_in_sandwich(space4, H):
    members = [esssup_indicator(H), essinf_indicator(H), condexp_ext_indicator(H)]
    fam = family_sup(members)
    rng = derive_rng(5, "family-sandwich")
    for _ in range(200):
        X = sample_rv(space4, rng)
        out = fam(X)
        assert essinf_cond(X, H).le(out) and out.le(esssup_cond(X, H))


def test_extension_requires_monotone(space4, H):
    bare = IndicatorSpec("bare", H, lambda X: esssup_cond(X, H), flags=frozenset())
    with pytest.raises(NotMonotoneError):
        lower_extension(bare, [], rv(space4, 1, 2, 3, 4))


def test_extension_empty_anchor_list(scenario):
    # with no anchors only the measurable minorants and majorants remain: for
    # every built-in the extensions are the cell extremes, infinities included
    space = scenario.space
    cases = [rv(space, 1, 3, 2, 6), *iter_cases(space, derive_rng(2, "ext-empty"), 60)]
    assert any(not X.is_finite() for X in cases)
    for name, partition in itertools.product(BUILTIN_NAMES, scenario.partitions.values()):
        I = builtin_indicator(name, partition)
        assert I.has(Flag.INCREASING)
        for X in cases:
            assert lower_extension(I, [], X) == essinf_cond(X, partition), (name, X)
            assert upper_extension(I, [], X) == esssup_cond(X, partition), (name, X)


def test_extension_coincides_on_anchors(space4, H):
    ce = condexp_indicator(H)
    rng = derive_rng(6, "ext-anchor")
    for _ in range(50):
        X = sample_rv(space4, rng, allow_inf=False)
        anchors = [sample_rv(space4, rng, allow_inf=False) for _ in range(3)] + [X]
        assert lower_extension(ce, anchors, X) == ce(X)
        assert upper_extension(ce, anchors, X) == ce(X)


def test_extension_full_grid_collapse(space4, H):
    # with every grid variable available as an anchor the extension pinches
    ce = condexp_indicator(H)
    anchors = finite_grid_rvs(space4, (-1, 0, 1, 2))
    rng = derive_rng(7, "ext-grid")
    for _ in range(12):
        X = anchors[rng.randrange(len(anchors))]
        low = lower_extension(ce, anchors, X)
        high = upper_extension(ce, anchors, X)
        assert low == ce(X) == high
        # oracle: straight enumeration of global minorants per the definition
        best = essinf_cond(X, H)
        for Y in anchors:
            if Y.le(X):
                best = best.max_with(ce(Y))
        assert best == low


def test_extension_sandwich_random_anchors(space4, H):
    sup = esssup_indicator(H)
    rng = derive_rng(8, "ext-sandwich")
    for _ in range(100):
        X = sample_rv(space4, rng)
        anchors = [sample_rv(space4, rng) for _ in range(3)]
        low = lower_extension(sup, anchors, X)
        high = upper_extension(sup, anchors, X)
        assert low.le(sup(X)) and sup(X).le(high)


def extreal_extension(I, E_list, X, lower):
    """The extension as it was written on ExtReal values, kept as an oracle."""
    qualifies, improves = (operator.le, operator.gt) if lower else (operator.ge, operator.lt)
    H = I.target
    base = essinf_cond(X, H) if lower else esssup_cond(X, H)
    keyed = [Y._aligned(X)[:2] for Y in E_list]
    per_cell = []
    for ci, cell in enumerate(H.cells):
        best = base.values[cell[0]]
        event = H.cell_event(ci)
        for Y, (y, x) in zip(E_list, keyed):
            if all(qualifies(y[i], x[i]) for i in cell):
                cand = patch(Y, event, base)
                if I.in_domain(cand):
                    v = I.eval_fn(cand).values[cell[0]]
                    if improves(v, best):
                        best = v
        per_cell.append(best)
    return RandomVariable.from_cells(H, per_cell)


def _unequal_space(n):
    # atom i weighs i + 1, so cell means have several denominators
    total = n * (n + 1) // 2
    return FiniteProbabilitySpace(tuple(f"w{i}" for i in range(n)),
                                  tuple(Fraction(i + 1, total) for i in range(n)))


def _anchor(X, rng):
    # a free draw, or one below or above X, so that anchors qualify often
    Y = sample_rv(X.space, rng)
    return (Y, X.min_with(Y), X.max_with(Y))[rng.randrange(3)]


def test_extension_equals_extreal_oracle():
    rng = derive_rng(13, "ext-oracle")
    cases = 0
    for n in range(2, 6):
        space = _unequal_space(n)
        two = Partition.from_cells(space, [range(n // 2), range(n // 2, n)])
        for H in (Partition.trivial(space), Partition.discrete(space), two):
            indicators = []
            for name in BUILTIN_NAMES:
                I = builtin_indicator(name, H)
                assert Flag.INCREASING in I.flags
                indicators += [I, dual(I), mix_self_dual(I)]
            for I in indicators:
                for k in range(50):
                    X = sample_rv(space, rng)
                    anchors = [_anchor(X, rng) for _ in range(k % 5)]
                    for lower, ext_fn in ((True, lower_extension), (False, upper_extension)):
                        assert ext_fn(I, anchors, X) == extreal_extension(I, anchors, X, lower)
                        cases += 1
    assert cases == 4 * 3 * 12 * 50 * 2


def test_extension_reads_no_values(monkeypatch, space4, H):
    # the extensions read the images' packed form, never their ExtReal tuples
    rng = derive_rng(14, "ext-values")
    X = sample_rv(space4, rng)
    anchors = [X, X.min_with(sample_rv(space4, rng)), X.max_with(sample_rv(space4, rng))]
    I = condexp_ext_indicator(H)
    extensions = lambda: (lower_extension(I, anchors, X), upper_extension(I, anchors, X))
    low, high = values_reads(monkeypatch, extensions)
    assert low == extreal_extension(I, anchors, X, True) == I(X)
    assert high == extreal_extension(I, anchors, X, False) == I(X)


def test_builtin_registry(H):
    for name in ("esssup", "essinf", "condexp", "condexp-ext"):
        assert builtin_indicator(name, H).name == name
    with pytest.raises(KeyError):
        builtin_indicator("nope", H)


def test_condexp_domain_is_closed_cellwise(space4, H):
    ce = condexp_indicator(H)
    finite = rv(space4, 1, 2, 3, 4)
    assert ce.in_domain(finite)
    const_inf_cell = RandomVariable(space4, (POS_INF, POS_INF, ext(1), ext(2)))
    assert ce.in_domain(const_inf_cell)
    ragged = RandomVariable(space4, (POS_INF, ext(1), ext(1), ext(2)))
    assert not ce.in_domain(ragged)
    # P2: adding any extended measurable variable stays inside
    M = RandomVariable(space4, (NEG_INF, NEG_INF, ext(3), ext(3)))
    assert ce.in_domain(finite + M)
