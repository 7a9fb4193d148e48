"""Tower, projection, uniqueness, martingales, envelopes, and the
shift-rigidity property of the conditional supremum."""

from fractions import Fraction

import pytest

from condind import (
    AdaptedProcess,
    Event,
    Filtration,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    StochasticIndicator,
    Verdict,
    backward_envelope,
    check_esssup_shift_rigidity,
    check_projection,
    check_projection_uniqueness_premises,
    check_tower,
    condexp_indicator,
    essinf_indicator,
    esssup_cond,
    esssup_indicator,
    is_indicator_martingale,
    parse_scenario,
    projection_solve,
)
from condind.errors import GridTooLargeError, ValidationError
from condind.extreal import ExtReal, ext
from condind.sampling import derive_rng, sample_event, sample_rv
from condind.stochastic import SOLVE_BUDGET
from conftest import all_partitions, pairs_doc, rv


@pytest.fixture()
def filtration(scenario):
    return scenario.filtration


def test_tower_esssup_and_condexp(filtration):
    for name in ("esssup", "essinf", "condexp"):
        SI = StochasticIndicator.from_builtin(filtration, name)
        for s, t in (("F0", "H"), ("F0", "F2"), ("H", "F2"), ("H", "H")):
            rep = check_tower(SI, s, t, samples=150, seed=0)
            assert rep.verdict is Verdict.VERIFIED, (name, s, t, rep.witness)


def test_tower_mixed_family_fails(space4, filtration, scenario):
    H = scenario.partitions["H"]
    F0 = scenario.partitions["F0"]
    F2 = scenario.partitions["F2"]
    mixed = StochasticIndicator(
        filtration,
        (esssup_indicator(F0), essinf_indicator(H), essinf_indicator(F2)),
    )
    rep = check_tower(mixed, "F0", "H", samples=150, seed=0)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    # the canonical payoff already separates max-of-cell-mins from max
    X = rv(space4, 1, 3, 2, 6)
    Is, It = mixed.indicators[0], mixed.indicators[1]
    assert Is(It(X)) != Is(X)


def test_tower_rejects_bad_order(filtration):
    SI = StochasticIndicator.from_builtin(filtration, "esssup")
    with pytest.raises(ValidationError):
        check_tower(SI, "F2", "F0")


def test_projection_examples(scenario, space4):
    F0 = scenario.partitions["F0"]
    F1 = scenario.partitions["H"]
    I0 = esssup_indicator(F0)
    X = rv(space4, 1, 3, 2, 6)
    Z = esssup_cond(X, F1)
    assert Z == rv(space4, 3, 3, 6, 6)
    rep = check_projection(I0, Z, X, F1)
    assert rep.verdict is Verdict.VERIFIED
    # measurable X projects to itself
    Xm = rv(space4, 2, 2, 5, 5)
    assert check_projection(I0, Xm, Xm, F1).verdict is Verdict.VERIFIED
    # a shifted candidate breaks at the full-space event
    rep_bad = check_projection(I0, Z.shift(1), X, F1)
    assert rep_bad.verdict is Verdict.COUNTEREXAMPLE


def test_projection_past_the_cap_samples_on_its_own_stream():
    # H has 21 cells, past 64 events: the events checked are drawn from
    # the `projection-events:` stream, not from the stream of the battery row
    # `projection:esssup` that calls the check
    big = parse_scenario(pairs_doc(42))
    H = big.partitions["H"]
    X = RandomVariable.constant(big.space, 0)
    Z = RandomVariable.from_cells(H, [ext(1)] + [ext(0)] * 20)
    rep = check_projection(esssup_indicator(big.partitions["F0"]), Z, X, H, seed=5)
    # the first event that holds cell 0, where Z exceeds X, is the counterexample
    rng = derive_rng(5, "projection-events:esssup")
    first = next(ev for ev in iter(lambda: sample_event(H, rng), None) if 0 in ev.members)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    assert rep.witness["F"] == first


@pytest.mark.parametrize("name", ["H", "F2"])
def test_projection_trials_skip_the_empty_event(scenario, name):
    # on the empty event both sides are I0(0): a total I0 has one trial on
    # each of the other 2^k - 1 events, in order
    from condind import stochastic

    Ft = scenario.partitions[name]
    X = scenario.variables["X"]
    I0 = esssup_indicator(scenario.partitions["F0"])
    events = stochastic.enumerate_events(Ft)
    Z = esssup_cond(X, Ft)
    trials = list(stochastic._projection_trials(I0, Z, X, events))
    assert len(trials) == 2**Ft.cell_count - 1
    assert [w["F"] for _, w in trials] == events[1:]
    assert all(ok for ok, _ in trials)


def test_projection_requires_measurable_candidate(scenario, space4):
    F0 = scenario.partitions["F0"]
    F1 = scenario.partitions["H"]
    with pytest.raises(ValidationError):
        check_projection(esssup_indicator(F0), rv(space4, 1, 2, 3, 4),
                         rv(space4, 1, 2, 3, 4), F1)


def test_projection_solve_canonical(scenario, space4):
    F0 = scenario.partitions["F0"]
    F1 = scenario.partitions["H"]
    I0 = esssup_indicator(F0)
    X = rv(space4, 1, 3, 2, 6)
    sols = projection_solve(I0, X, F1, [ext(v) for v in range(7)])
    assert sols == [rv(space4, 3, 3, 6, 6)]


def test_projection_solve_zero_and_measurable(scenario, space4):
    F0 = scenario.partitions["F0"]
    F1 = scenario.partitions["H"]
    I0 = esssup_indicator(F0)
    zero = rv(space4, 0, 0, 0, 0)
    assert projection_solve(I0, zero, F1, [ext(v) for v in range(4)]) == [zero]
    # X >= 0 searches only nonnegative candidates: (-1, -1, 0, 0), among
    # others, would verify too, but negative grid values are never tried
    assert projection_solve(I0, zero, F1, [ext(v) for v in range(-2, 4)]) == [zero]
    Xm = rv(space4, 2, 2, 5, 5)
    assert projection_solve(I0, Xm, F1, [ext(v) for v in range(7)]) == [Xm]


def test_projection_solve_signed_keeps_all_grid_solutions(scenario, space4):
    # outside the nonnegative regime extra solutions are legitimate; they come
    # out ascending atom by atom whatever the order of the grid
    F0 = scenario.partitions["F0"]
    F1 = scenario.partitions["H"]
    I0 = esssup_indicator(F0)
    sols = projection_solve(I0, rv(space4, -1, 0, 5, 5), F1, [ext(v) for v in (5, 0, -1, 0)])
    assert sols == [rv(space4, -1, -1, 5, 5), rv(space4, 0, 0, 5, 5)]
    sols = projection_solve(I0, rv(space4, -1, 0, -2, -1), F1, [ext(0), ext(-1)])
    assert sols == [rv(space4, -1, -1, 0, 0), rv(space4, 0, 0, -1, -1), rv(space4, 0, 0, 0, 0)]


def test_projection_solve_comparisons_do_not_follow_hash_order(monkeypatch, space4):
    # the candidates are deduplicated in grid order, not in a set's hash
    # order, so the sort's comparison count is the same under any hash that
    # agrees with ==
    F0 = Partition.trivial(space4)
    Ft = Partition.from_labels(space4, [["a", "b"], ["c", "d"]])
    X = rv(space4, "1/2", 3, 0, 2)
    grid = [ext(Fraction(v)) for v in (0, "1/2", 1, "3/2", 2, "5/2", 3, "7/2", "1/3", "2/3")]
    less = ExtReal.__lt__
    calls = []

    def counted(self, other):
        calls.append(1)
        return less(self, other)

    def comparisons():
        calls.clear()
        solutions = projection_solve(esssup_indicator(F0), X, Ft, grid)
        return len(calls), solutions

    monkeypatch.setattr(ExtReal, "__lt__", counted)
    by_class_hash = comparisons()
    monkeypatch.setattr(ExtReal, "__hash__", lambda v: hash((v.den, v.num, v.kind)))
    assert comparisons() == by_class_hash


def test_projection_solve_budget(scenario, space4):
    # signed X: every one of the 12 nonpositive grid values survives on each
    # of F2's 4 cells, so the sweep needs 12^4 combos x 16 events > SOLVE_BUDGET
    F0 = scenario.partitions["F0"]
    F2 = scenario.partitions["F2"]
    I0 = esssup_indicator(F0)
    X = rv(space4, 0, 0, 0, -1)
    assert 12**4 * 16 > SOLVE_BUDGET
    with pytest.raises(GridTooLargeError):
        projection_solve(I0, X, F2, [ext(-v) for v in range(12)])


def test_projection_solve_checks_every_event_listed_once(monkeypatch):
    # H has 7 cells, 128 events, past EVENT_SAMPLES: a check would sample 64
    # of them, but a solution is claimed exact, so every candidate is checked
    # on all 128, from one list built once per call
    from condind import checks, stochastic

    scenario = parse_scenario(pairs_doc(14))
    H, X = scenario.partitions["H"], scenario.variable("X")
    trials, listing = stochastic._projection_trials, stochastic.enumerate_events
    seen, built = [], []

    def trials_spy(I0, Z, X, events):
        seen.append(frozenset(ev.members for ev in events))
        return trials(I0, Z, X, events)

    def listing_spy(partition):
        built.append(partition)
        return listing(partition)

    monkeypatch.setattr(stochastic, "_projection_trials", trials_spy)
    monkeypatch.setattr(stochastic, "enumerate_events", listing_spy)
    monkeypatch.setattr(checks, "enumerate_events", listing_spy)
    grid = sorted(dict.fromkeys([*X.values, ext(0)]))
    solutions = projection_solve(esssup_indicator(scenario.partitions["F0"]), X, H, grid)
    assert len(solutions) == 16 and len(seen) >= 16
    assert set(seen) == {frozenset(ev.members for ev in listing(H))}
    assert len(next(iter(seen))) == 2**7
    assert built == [H]


def test_projection_solve_sizes_its_sweep_without_building_events(monkeypatch):
    # 20 cells: one candidate per cell already needs 2^20 events, over the
    # budget, and the sweep says so before it builds any event
    space20 = FiniteProbabilitySpace.uniform([f"w{i}" for i in range(20)])
    F20 = Partition.discrete(space20)
    I0 = esssup_indicator(Partition.trivial(space20))
    X = RandomVariable.constant(space20, 1)

    def built(self):
        raise AssertionError("projection_solve built an Event")

    monkeypatch.setattr(Event, "__post_init__", built)
    with pytest.raises(GridTooLargeError, match=r"over 2\^20 events"):
        projection_solve(I0, X, F20, [0, 1])


def test_uniqueness_premises(scenario, space4):
    F0 = scenario.partitions["F0"]
    assert (
        check_projection_uniqueness_premises(esssup_indicator(F0), 200, 0).verdict
        is Verdict.VERIFIED
    )
    assert (
        check_projection_uniqueness_premises(condexp_indicator(F0), 200, 0).verdict
        is Verdict.VERIFIED
    )
    rep = check_projection_uniqueness_premises(essinf_indicator(F0), 200, 0)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    Y = rep.witness["Y"]
    assert Y.is_nonnegative() and Y != rv(space4, 0, 0, 0, 0)


def test_martingale_from_indicator_images(filtration, space4):
    X = rv(space4, 1, 3, 2, 6)
    for name in ("esssup", "condexp"):
        SI = StochasticIndicator.from_builtin(filtration, name)
        M = AdaptedProcess(filtration, tuple(ind(X) for ind in SI.indicators))
        rep = is_indicator_martingale(SI, M)
        assert rep.verdict is Verdict.VERIFIED, rep.witness


def test_martingale_counterexample(filtration, space4):
    SI = StochasticIndicator.from_builtin(filtration, "esssup")
    const = rv(space4, 1, 1, 1, 1)
    bad = AdaptedProcess(filtration, (const, const, rv(space4, 1, 3, 2, 6)))
    rep = is_indicator_martingale(SI, bad)
    assert rep.verdict is Verdict.COUNTEREXAMPLE


def test_adapted_process_validation(filtration, space4):
    with pytest.raises(ValidationError):
        AdaptedProcess(filtration, (rv(space4, 1, 2, 3, 4),) * 3)  # not F0-measurable


def test_envelope_examples(filtration, space4):
    payoff = rv(space4, 1, 3, 2, 6)
    sup = StochasticIndicator.from_builtin(filtration, "esssup")
    V = backward_envelope(sup, payoff)
    assert V.values[1] == rv(space4, 3, 3, 6, 6)
    assert V.values[0] == rv(space4, 6, 6, 6, 6)
    ce = StochasticIndicator.from_builtin(filtration, "condexp")
    W = backward_envelope(ce, payoff)
    assert W.values[1] == rv(space4, 2, 2, 4, 4)
    assert W.values[0] == rv(space4, 3, 3, 3, 3)


def test_envelope_american(filtration, space4):
    payoff = rv(space4, 1, 3, 2, 6)
    sup = StochasticIndicator.from_builtin(filtration, "esssup")
    floor5 = rv(space4, 5, 5, 5, 5)
    nothing = rv(space4, "-inf", "-inf", "-inf", "-inf")
    american = AdaptedProcess(filtration, (nothing, floor5, nothing))
    V = backward_envelope(sup, payoff, american)
    assert V.values[1] == rv(space4, 5, 5, 6, 6)
    assert V.values[0] == rv(space4, 6, 6, 6, 6)


def test_envelope_payoff_must_be_terminal_measurable(space4, scenario):
    coarse = Filtration(
        ("t0", "t1"),
        (scenario.partitions["F0"], scenario.partitions["H"]),
    )
    sup = StochasticIndicator.from_builtin(coarse, "esssup")
    with pytest.raises(ValidationError):
        backward_envelope(sup, rv(space4, 1, 3, 2, 6))


def test_envelope_monotone_in_payoff(filtration, space4):
    sup = StochasticIndicator.from_builtin(filtration, "esssup")
    rng = derive_rng(0, "env-mono")
    for _ in range(60):
        p1 = sample_rv(space4, rng)
        p2 = p1 + sample_rv(space4, rng, nonneg=True)
        V1 = backward_envelope(sup, p1)
        V2 = backward_envelope(sup, p2)
        for a, b in zip(V1.values, V2.values):
            assert a.le(b)


def test_theorem_uniqueness_sweep_small():
    # every space <= 4 atoms, every refinement pair, bounded X >= 0:
    # the sweep returns exactly the conditional supremum
    rng = derive_rng(0, "uniq-sweep")
    for n in (2, 3, 4):
        space = FiniteProbabilitySpace.uniform([chr(97 + i) for i in range(n)])
        parts = all_partitions(space)
        for F0 in parts:
            for Ft in parts:
                from condind import is_refinement

                if not is_refinement(Ft, F0):
                    continue
                I0 = esssup_indicator(F0)
                for _ in range(3):
                    X = sample_rv(space, rng, allow_inf=False, nonneg=True)
                    grid = sorted({*(v for v in X.values), ext(0)},
                                  key=lambda v: (v.kind, v.frac))
                    sols = projection_solve(I0, X, Ft, grid)
                    assert sols == [esssup_cond(X, Ft)], (n, F0.cells, Ft.cells, X.values)


def test_shift_rigidity_examples(scenario, space4):
    F0 = scenario.partitions["F0"]
    carrier = Event.from_labels(space4, ["a", "b"])
    X = rv(space4, 2, 1, 0, 0)
    rep = check_esssup_shift_rigidity(F0, carrier, X, [0, Fraction(1, 2), 1, 3])
    assert rep.verdict is Verdict.VERIFIED
    # hypothesis failures are reported as skips, not verdicts
    assert (
        check_esssup_shift_rigidity(F0, Event.empty(space4), X, [1]).verdict
        is Verdict.SKIPPED
    )
    not_carried = rv(space4, 2, 1, 1, 0)
    assert (
        check_esssup_shift_rigidity(F0, carrier, not_carried, [1]).verdict
        is Verdict.SKIPPED
    )
    zero_sup = rv(space4, 0, -1, 0, 0)
    assert (
        check_esssup_shift_rigidity(F0, carrier, zero_sup, [1]).verdict
        is Verdict.SKIPPED
    )


def test_shift_rigidity_negative_carried_values(scenario, space4):
    # carried strictly negative values force the full-event case
    F0 = scenario.partitions["F0"]
    carrier = Event.full(space4)
    X = rv(space4, -3, -1, -2, -5)
    rep = check_esssup_shift_rigidity(F0, carrier, X, [0, 1, 2])
    assert rep.verdict is Verdict.VERIFIED


def test_strictly_positive_payoff_unique_even_among_signed_candidates(scenario, space4):
    # for X > 0 no signed candidate verifies, so the restriction to
    # nonnegative values is immaterial and uniqueness holds outright
    F0 = scenario.partitions["F0"]
    F1 = scenario.partitions["H"]
    I0 = esssup_indicator(F0)
    X = rv(space4, 1, 3, 2, 6)
    grid = (-3, -1, 0, 1, 2, 3, 6)
    candidates = [RandomVariable.from_cells(F1, (ext(u), ext(v))) for u in grid for v in grid]
    verified = [Z for Z in candidates if check_projection(I0, Z, X, F1).verdict is Verdict.VERIFIED]
    assert len(candidates) == 49 and verified == [esssup_cond(X, F1)]


def test_negative_side_uniqueness_through_duality(scenario, space4):
    # bounded X <= 0: the infimum-side projection has exactly one
    # nonpositive solution, obtained by reflecting the supremum-side sweep
    from condind import essinf_cond

    F0 = scenario.partitions["F0"]
    F1 = scenario.partitions["H"]
    I0 = esssup_indicator(F0)
    X = rv(space4, -1, -3, -2, -6)
    grid = [ext(v) for v in (0, 1, 2, 3, 6)]
    sols = projection_solve(I0, -X, F1, grid)
    assert [-Z for Z in sols] == [essinf_cond(X, F1)]
