"""Extended conditional expectation: identities, additivity classes,
weighted expectations, and density recovery."""

import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from condind import (
    Event,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    Verdict,
    additivity_set,
    check_additivity_on_F,
    check_contractive,
    check_lemm_cond_exp,
    condexp_indicator,
    esssup_indicator,
    ext_cond_expectation_closed_form,
    is_conditional_expectation,
    recover_density,
    weighted_indicator,
)
from condind.battery import sample_normalized_density
from condind.cli import jsonable
from condind.errors import BadDensityError, HypothesisFailedError
from condind.indicators import IndicatorSpec
from condind.extreal import NEG_INF, POS_INF, ZERO, ext
from condind.sampling import (FINITE_GRID, GRID_VALUES, derive_rng, exhaustive_grid_rvs, iter_cases,
                              sample_rv)
from condind.space import expectation, is_refinement
from conftest import all_partitions, rv, values_reads


def test_cond_exp_extended_examples(space4, H):
    doubly = RandomVariable(space4, (POS_INF, NEG_INF, ext(1), ext(1)))
    assert ext_cond_expectation_closed_form(doubly, H) == rv(space4, 0, 0, 1, 1)
    assert ext_cond_expectation_closed_form(rv(space4, 1, 3, 2, 6), H) == rv(space4, 2, 2, 4, 4)
    minus = RandomVariable(space4, (NEG_INF, ext(0), ext(2), ext(6)))
    assert ext_cond_expectation_closed_form(minus, H) == RandomVariable(
        space4, (NEG_INF, NEG_INF, ext(4), ext(4))
    )


def test_cond_exp_tower_on_refinements():
    space = FiniteProbabilitySpace.uniform(["a", "b", "c", "d"])
    rng = derive_rng(0, "ce-tower")
    parts = all_partitions(space)
    for coarse in parts:
        for fine in parts:
            if not is_refinement(fine, coarse):
                continue
            for _ in range(3):
                X = sample_rv(space, rng, allow_inf=False)
                inner = ext_cond_expectation_closed_form(X, fine)
                outer = ext_cond_expectation_closed_form(X, coarse)
                assert ext_cond_expectation_closed_form(inner, coarse) == outer


def test_check_lemm_cond_exp(H):
    rep = check_lemm_cond_exp(H, samples=300, seed=1)
    assert rep.verdict is Verdict.VERIFIED, rep.witness


def test_check_lemm_cond_exp_reads_no_values(monkeypatch, H):
    # the identities compare whole variables, never their ExtReal tuples
    rep = values_reads(monkeypatch, lambda: check_lemm_cond_exp(H, samples=40, seed=3))
    assert rep.verdict is Verdict.VERIFIED and rep.cases > 40


def test_additivity_set_tags(space4, H):
    ones = rv(space4, 1, 1, 1, 1)
    F, tags = additivity_set(ones, ones, H)
    assert tags == {0: "F1", 1: "F1"} and F == Event.full(space4)

    Xp = RandomVariable(space4, (POS_INF, ext(0), ext(1), ext(1)))
    F, tags = additivity_set(Xp, ones, H)
    assert tags[0] == "F2" and tags[1] == "F1"

    Xm = RandomVariable(space4, (NEG_INF, ext(0), ext(1), ext(1)))
    F, tags = additivity_set(Xm, ones, H)
    assert tags[0] == "F3"

    F, tags = additivity_set(ones, Xp, H)
    assert tags[0] == "F4"
    F, tags = additivity_set(ones, Xm, H)
    assert tags[0] == "F5"

    Ym = RandomVariable(space4, (NEG_INF, ext(0), ext(1), ext(1)))
    F, tags = additivity_set(Xp, Ym, H)
    assert tags[0] is None  # E(X+) and E(Y-) both blow up: unclassified
    assert frozenset(space4.index_of(l) for l in ("c", "d")) == F.members


def test_additivity_check_on_each_class(space4, H):
    ones = rv(space4, 1, 1, 1, 1)
    spiked = [
        RandomVariable(space4, (POS_INF, ext(0), ext(1), ext(1))),
        RandomVariable(space4, (NEG_INF, ext(0), ext(1), ext(1))),
    ]
    pairs = [(ones, ones)] + [(s, ones) for s in spiked] + [(ones, s) for s in spiked]
    for X, Y in pairs:
        rep = check_additivity_on_F(X, Y, H)
        assert rep.verdict is Verdict.VERIFIED, (X.values, Y.values, rep.witness)


def test_additivity_f2_value_is_plus_inf(space4, H):
    X = RandomVariable(space4, (POS_INF, ext(0), ext(1), ext(1)))
    Y = rv(space4, 1, 1, 1, 1)
    total = ext_cond_expectation_closed_form(X + Y, H)
    assert total.values[0] == POS_INF
    assert total == ext_cond_expectation_closed_form(X, H) + ext_cond_expectation_closed_form(Y, H)


def test_additivity_verdict_only_on_F_cells(space4, H):
    # cell 0 is doubly infinite under X, so off F, and its sides differ there
    X = RandomVariable(space4, (POS_INF, NEG_INF, ext(1), ext(2)))
    Y = rv(space4, 1, 3, 0, 5)
    rep = check_additivity_on_F(X, Y, H)
    assert rep.verdict is Verdict.VERIFIED and rep.cases == 1, rep.witness
    assert "cell 0 off-F: lhs=0 rhs=2 equal=False (not asserted)" in rep.notes


def test_additivity_off_F_skips(space4):
    trivial = Partition.trivial(space4)
    X = RandomVariable(space4, (POS_INF, ext(0), ext(0), ext(0)))
    Y = RandomVariable(space4, (ext(0), NEG_INF, ext(0), ext(0)))
    rep = check_additivity_on_F(X, Y, trivial)
    assert rep.verdict is Verdict.SKIPPED and rep.reason == "off-F"
    assert any("off-F" in n for n in rep.notes)


def test_weighted_expectation_example(space4, H):
    rho0 = rv(space4, "1/2", "3/2", 1, 1)
    X = rv(space4, 2, 2, 0, 4)
    assert weighted_indicator(H, rho0)(X) == rv(space4, 2, 2, 2, 2)
    # density 1 is the plain conditional expectation
    ones = rv(space4, 1, 1, 1, 1)
    Y = rv(space4, 1, 3, 2, 6)
    assert weighted_indicator(H, ones)(Y) == ext_cond_expectation_closed_form(Y, H)
    # measurable X comes back unchanged thanks to conditional mean one
    Xm = rv(space4, 7, 7, -1, -1)
    assert weighted_indicator(H, rho0)(Xm) == Xm


def test_weighted_expectation_validates_density(space4, H):
    X = rv(space4, 1, 2, 3, 4)
    with pytest.raises(BadDensityError):
        weighted_indicator(H, rv(space4, -1, 3, 1, 1))(X)  # negative
    with pytest.raises(BadDensityError):
        weighted_indicator(H, rv(space4, 2, 2, 2, 2))(X)  # mass 2
    with pytest.raises(BadDensityError):
        # global mass 1 but conditional means 3/2 and 1/2
        weighted_indicator(H, rv(space4, "3/2", "3/2", "1/2", "1/2"))(X)


def test_recover_density_roundtrip_exact(space4, H):
    rho0 = rv(space4, "1/2", "3/2", 1, 1)
    I = weighted_indicator(H, rho0)
    report = recover_density(I, samples=60, seed=0)
    assert report.density == rho0
    assert report.conditional_mean_one and report.reconstruction_ok
    assert report.mismatch_witness is None


def test_recover_density_condexp_gives_unit_density(space4, H):
    report = recover_density(condexp_indicator(H), samples=60, seed=0)
    assert report.density == rv(space4, 1, 1, 1, 1)
    assert report.reconstruction_ok


def test_recover_density_measure_bounds(space4, H):
    # a point mass gives one atom measure exactly 1, a valid measure
    point = RandomVariable.indicator(Event(space4, frozenset({0}))).scale(1 / space4.probs[0])
    report = recover_density(weighted_indicator(Partition.trivial(space4), point), 30, 0)
    assert report.density == point and report.reconstruction_ok
    # E(X|H) + c E(X) is additive and self-dual, but its atom measures sum
    # to 1 + c: no probability measure, so the replay, which E((1 + c) X|H)
    # would fail, is skipped
    ce = condexp_indicator(H)
    for c in (1, Fraction(-1, 2)):
        shifted = lambda X: ce(X).shift(c * expectation(X).frac)
        I = IndicatorSpec("condexp+c*mean", H, shifted, flags=frozenset())
        report = recover_density(I, 30, 0)
        assert report.density == RandomVariable.constant(space4, 1 + c)
        assert not report.conditional_mean_one and not report.reconstruction_ok
        assert report.mismatch_witness is None


def test_recover_density_esssup_fails_additivity(H):
    with pytest.raises(HypothesisFailedError) as err:
        recover_density(esssup_indicator(H), samples=60, seed=0)
    assert "additivity" in err.value.failed


def test_is_conditional_expectation(space4, H):
    ok, report = is_conditional_expectation(condexp_indicator(H), samples=60, seed=0)
    assert ok and report.reconstruction_ok
    rho0 = rv(space4, "1/2", "3/2", 1, 1)
    ok, report = is_conditional_expectation(weighted_indicator(H, rho0), samples=60, seed=0)
    assert not ok and report is not None and report.reconstruction_ok
    assert report.density == rho0
    ok, report = is_conditional_expectation(esssup_indicator(H), samples=60, seed=0)
    assert not ok and report is None


def test_replay_outside_the_domain_is_a_mismatch(space4, H):
    # condexp asking also for a nonnegative first atom passes the hypotheses
    # and recovers density 1, but it is undefined on the replay's first grid
    # row, the constant -1: that input is a mismatch, not a skipped one
    condexp = condexp_indicator(H)
    J = dataclasses.replace(condexp, name="condexp|first>=0",
                            domain_fn=lambda X: condexp.in_domain(X) and X.values[0] >= ZERO)
    ok, _ = is_conditional_expectation(J, 40, 2)
    assert not ok
    report = recover_density(J)
    assert report.density == RandomVariable.constant(space4, 1) and report.conditional_mean_one
    assert not report.reconstruction_ok
    assert report.mismatch_witness == RandomVariable.constant(space4, -1)


def test_contractive_selfdual_subadditive_is_condexp(space4, H):
    # conclusion-level test of the operator characterization: a contractive
    # self-dual additive indicator must be the conditional expectation
    I = condexp_indicator(H)
    assert check_contractive(I, samples=200, seed=1).verdict is Verdict.VERIFIED
    ok, _ = is_conditional_expectation(I, samples=80, seed=1)
    assert ok


def test_every_additive_selfdual_indicator_recovers(space4, H):
    # on a finite space the recovery always succeeds for weighted means:
    # there is no room for exotic additive self-dual indicators
    rng = derive_rng(3, "recover-all")
    for _ in range(25):
        rho0 = sample_normalized_density(H, rng)
        report = recover_density(weighted_indicator(H, rho0), samples=30, seed=5)
        assert report.reconstruction_ok and report.density == rho0


def test_mu_is_a_probability_measure(space4, H):
    rng = derive_rng(4, "mu-prob")
    for _ in range(10):
        rho0 = sample_normalized_density(H, rng)
        I = weighted_indicator(H, rho0)
        mu = [expectation(I(RandomVariable.indicator(Event(space4, frozenset({i})))))
              for i in range(space4.size)]
        assert all(m.is_finite and 0 <= m.frac <= 1 for m in mu)
        assert sum(m.frac for m in mu) == 1


def test_closed_form_agrees_with_extensions_on_attaining_anchors(space4, H):
    # truncations from below reach the closed form once they attain X
    from condind import condexp_ext_indicator, lower_extension, upper_extension

    I = condexp_ext_indicator(H)
    X = rv(space4, 0, 2, 5, 3)  # bounded, so E(X-|H) and E(X+|H) are finite
    caps = [RandomVariable.constant(space4, n) for n in range(6)]
    lower_anchors = [X.min_with(c) for c in caps]
    upper_anchors = [X.max_with(-c) for c in caps]
    assert lower_extension(I, lower_anchors, X) == ext_cond_expectation_closed_form(X, H)
    assert upper_extension(I, upper_anchors, X) == ext_cond_expectation_closed_form(X, H)


def test_shift_identity_restricted_to_non_doubly_infinite_cells(space4, H):
    # on a doubly infinite cell the value is pinned at 0 and shifts are moot;
    # the identity is claimed (and holds) on the other cells only
    X = RandomVariable(space4, (POS_INF, NEG_INF, ext(1), ext(3)))
    shifted = ext_cond_expectation_closed_form(X.shift(1), H)
    base = ext_cond_expectation_closed_form(X, H)
    assert shifted.values[2] == base.values[2] + ext(1)
    assert shifted.values[3] == base.values[3] + ext(1)
    assert shifted.values[0] == base.values[0] == ext(0)  # not base + 1


def test_scalar_identity_holds_even_with_negative_coefficients(space4, H):
    X = RandomVariable(space4, (POS_INF, ext(2), ext(1), ext(3)))
    for a in (-2, Fraction(-1, 2), 0, Fraction(1, 2), 3):
        A = RandomVariable.constant(space4, a)
        scaled = ext_cond_expectation_closed_form(A * X, H)
        assert scaled == A * ext_cond_expectation_closed_form(X, H)


def _normalized(H: Partition, raw) -> RandomVariable:
    """The density proportional to the nonnegative `raw` on each cell, with
    conditional mean 1."""
    space = H.space
    vals = [Fraction(0)] * space.size
    for cell in H.cells:
        mass = sum(space.probs[i] for i in cell)
        weighted = sum(Fraction(raw[i]) * space.probs[i] for i in cell)
        for i in cell:
            vals[i] = Fraction(raw[i]) * mass / weighted
    return RandomVariable(space, tuple(ext(v) for v in vals))


def test_weighted_kernel_matches_product_reference():
    # every vector over the grid, with infinities landing on zero-density
    # atoms, against the closed form of the product rho * X
    space = FiniteProbabilitySpace(("a", "b", "c"), (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    grid = [NEG_INF, ext(-2), ext(Fraction(-1, 3)), ext(0), ext(Fraction(1, 2)), ext(3), POS_INF]
    inputs = [RandomVariable(space, vals) for vals in itertools.product(grid, repeat=space.size)]
    cases = 0
    for H in all_partitions(space):
        densities = [RandomVariable.constant(space, 1)]
        for cell in H.cells:
            if len(cell) >= 2:
                raw = [1] * space.size
                raw[cell[0]] = 0
                raw[cell[-1]] = 2
                densities.append(_normalized(H, raw))
        for rho0 in densities:
            I = weighted_indicator(H, rho0)
            for X in inputs:
                expected = ext_cond_expectation_closed_form(rho0 * X, H)
                assert I(X) == expected, (H.cells, rho0.values, X.values)
                cases += 1
    assert cases == 3087


def _space12():
    space = FiniteProbabilitySpace(
        tuple("abcdefghijkl"), tuple(Fraction(k, 78) for k in (5, 1, 9, 2, 12, 3, 7, 11, 4, 8, 6, 10))
    )
    H = Partition.from_cells(space, [(0, 3, 6, 9), (1, 4, 7, 10), (2, 5, 8, 11)])
    rho0 = _normalized(H, [0, 3, 1, 2, 1, 4, 5, 0, 2, 1, 2, 3])
    return H, rho0


# DensityReports (density, both flags, mismatch witness) of weighted and
# plain conditional expectations on a 4-atom and a 12-atom space
DENSITY_PATHS = {
    "weighted:space4": lambda H, seed: recover_density(
        weighted_indicator(H, rv(H.space, "1/2", "3/2", 1, 1)), samples=40, seed=seed),
    "condexp:space4": lambda H, seed: recover_density(condexp_indicator(H), samples=40, seed=seed),
    "weighted:space12": lambda H, seed: recover_density(
        weighted_indicator(*_space12()), samples=20, seed=seed),
    "condexp:space12": lambda H, seed: recover_density(
        condexp_indicator(_space12()[0]), samples=20, seed=seed),
    # additive and self-dual but not local: the replay finds a mismatch witness
    "global-mean:space4": lambda H, seed: recover_density(IndicatorSpec(
        "global-mean", H, lambda X: RandomVariable.constant(H.space, expectation(X))),
        samples=40, seed=seed),
    # twice a conditional expectation: the recovered measure has mass 2
    "doubled:space4": lambda H, seed: recover_density(IndicatorSpec(
        "doubled", H, lambda X: ext_cond_expectation_closed_form(X.scale(2), H)),
        samples=40, seed=seed),
}

# sha256 of the JSON of each path's reports for seeds 0-4
DENSITY_DIGESTS = {
    "condexp:space12": "4ee99afd639a630db1db4724572c8652cdade4958cc0e495f24cffc6480613d7",
    "condexp:space4": "70714e2f393ac68cf7d87662e4d51d9265c174099cea5cb1e3918e6164217cff",
    "doubled:space4": "1325fef83c9d80fdad3e3940403a33f468806e101c8486e5831b410ee4d240a9",
    "global-mean:space4": "9227b429c62f8c73ec42115989e7ae7384a9875e73abd8eb40727ece6789352a",
    "weighted:space12": "8fe3d6e9da430ae7574d0cff53d2c0053c9a8c5f926bd7586c4e6daa15d2fa07",
    "weighted:space4": "3852c6c4decde4690cc93065a5dcf33958818da2683710cdbefcee8b9e95741b",
}


@pytest.mark.parametrize("case", sorted(DENSITY_PATHS))
def test_recover_density_reports_pinned(case, H):
    reports = [jsonable(DENSITY_PATHS[case](H, seed)) for seed in range(5)]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == DENSITY_DIGESTS[case]


def test_recover_density_reads_an_infinite_atom_measure():
    # condexp, except +-inf on the nonzero multiples of the last atom's
    # indicator: 8 samples take the corners only up to 1_4, so both sampled
    # hypotheses pass and only the per-atom loop meets an infinite image
    H, _ = _space12()
    space = H.space
    last = space.size - 1
    ce = condexp_indicator(H)
    calls = [0]

    def ev(X):
        calls[0] += 1
        c = X.nums[last]
        if X.is_finite() and c and not any(X.nums[:last]):
            return RandomVariable.constant(space, POS_INF if c > 0 else NEG_INF)
        return ce(X)

    report = recover_density(IndicatorSpec("inf-on-last", H, ev), samples=8, seed=0)
    assert report.density == RandomVariable(space, (ext(1),) * last + (POS_INF,))
    assert not report.conditional_mean_one and not report.reconstruction_ok
    # no replay: 8 additivity trials of 3 evaluations, 8 self-duality trials
    # of 2, and one evaluation per atom
    assert report.mismatch_witness is None and calls[0] == 8 * 3 + 8 * 2 + 12


@pytest.mark.parametrize(
    "n,grid",
    [(1, GRID_VALUES), (2, GRID_VALUES), (3, GRID_VALUES), (4, (ext(-1), ext(0), ext(1), ext(2)))],
)
def test_exhaustive_grid_rvs_matches_value_construction(n, grid):
    # twice on equal but distinct spaces: the second call reads the cached
    # rows, and each variable lives on the space it was asked for
    for space in [FiniteProbabilitySpace.uniform([f"g{i}" for i in range(n)]) for _ in range(2)]:
        got = list(exhaustive_grid_rvs(space, grid))
        want = [RandomVariable(space, combo) for combo in itertools.product(grid, repeat=n)]
        assert len(got) == len(grid) ** n
        assert got == want and [hash(X) for X in got] == [hash(X) for X in want]
        assert all(X.space is space for X in got)
        assert all(X.kinds is space._finite_kinds for X in got if X.is_finite())


def _replay_oracle(I, samples, seed):
    """The first X of recover_density's replay, in replay order, whose image
    differs from E(density * X | H) formed as the product rho * X and the
    closed form; None when every image matches."""
    H = I.target
    space = H.space
    density = recover_density(I, samples, seed).density
    assert density.is_finite() and density.is_nonnegative() and expectation(density) == ext(1)
    grid = FINITE_GRID if space.size <= 3 else (ext(-1), ext(0), ext(1), ext(2))
    trial = list(exhaustive_grid_rvs(space, grid)) if space.size <= 4 else []
    trial += iter_cases(space, derive_rng(seed, f"recover-verify:{I.name}"), samples, allow_inf=False)
    for X in filter(I.in_domain, trial):
        if I(X) != ext_cond_expectation_closed_form(density * X, H):
            return X
    return None


def _replay_cases(H):
    """Additive self-dual indicators on H, named, each with the witness its
    replay must find (None: none)."""
    space = H.space
    ce = condexp_indicator(H)
    rng = derive_rng(28, "replay-oracle")
    for k in range(4):
        yield f"normalized#{k}", weighted_indicator(H, sample_normalized_density(H, rng)), None
    yield "global-mean", IndicatorSpec(
        "global-mean", H, lambda X: RandomVariable.constant(space, expectation(X))), True
    if space.size != 4:
        return
    # one grid variable's image is off by 1/7 on the second atom of its cell,
    # or +inf on an atom of a cell whose reference is 0
    cell = H.cells[0]
    off = rv(space, 2, -1, 1, 0)
    nudge = RandomVariable.indicator(Event(space, frozenset({cell[1]}))).scale(Fraction(1, 7))
    yield "off-by-1/7", IndicatorSpec(
        "off-by-1/7", H, lambda X: ce(X) + nudge if X == off else ce(X)), off
    spiked = rv(space, 0, 0, 2, -1)
    spike_image = RandomVariable(space, (ext(0), POS_INF, ext(Fraction(1, 2)), ext(Fraction(1, 2))))
    yield "inf-image", IndicatorSpec(
        "inf-image", H, lambda X: spike_image if X == spiked else ce(X)), spiked
    # the image on a distinct space equal to H's: equal variables, no witness
    twin = FiniteProbabilitySpace(space.atoms, space.probs)
    yield "twin-space", IndicatorSpec(
        "twin-space", H, lambda X: RandomVariable(twin, ce(X).values)), None
    # the constant E_Q(X) for Q = rho P with E(rho) = 1 but cell means 3/2
    # and 1/2: a probability measure, so the replay runs, and its reference
    # divides by P's cell mass, where E_Q(X|H) would divide by Q's
    rho = rv(space, 2, 1, 0, 1)
    yield "global-Q-mean", IndicatorSpec(
        "global-Q-mean", H, lambda X: RandomVariable.constant(space, expectation(rho * X))), True


@pytest.mark.parametrize("which", ["space4", "space12"])
def test_recover_density_replay_matches_product_oracle(which, H):
    # the replay checks rho * X in ints, against no library kernel; its
    # first failure is the product route's first failure
    if which == "space12":
        H = _space12()[0]
    seen = 0
    for name, I, expected in _replay_cases(H):
        for seed in (0, 1):
            report = recover_density(I, samples=12, seed=seed)
            witness = _replay_oracle(I, 12, seed)
            assert report.mismatch_witness == witness, (name, seed)
            assert report.reconstruction_ok == (report.conditional_mean_one and witness is None)
            if expected is True:
                assert witness is not None, name
            else:
                assert witness == expected, name
            seen += 1
    assert seen == (18 if which == "space4" else 10)


def test_recover_density_replay_calls_the_closed_form_once(monkeypatch, H):
    # only the conditional-mean-one test calls the closed form; the replay
    # of the 256 grid variables and the samples calls it no more
    import condind.expectation_ext as expectation_ext

    calls = [0]
    closed_form = expectation_ext.ext_cond_expectation_closed_form

    def spy(X, H):
        calls[0] += 1
        return closed_form(X, H)

    monkeypatch.setattr(expectation_ext, "ext_cond_expectation_closed_form", spy)
    report = recover_density(condexp_indicator(H), samples=20, seed=0)
    assert report.reconstruction_ok and calls[0] == 1
