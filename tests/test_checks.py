"""Checker battery against built-ins and constructed violators."""

import ast
import hashlib
import itertools
import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest

from condind import (
    CheckReport,
    Event,
    FiniteProbabilitySpace,
    Flag,
    IndicatorSpec,
    Partition,
    RandomVariable,
    Verdict,
    canonical_scenario,
    check_additive_implies_regular,
    check_axioms,
    check_convex_implies_regular,
    check_dom_closure,
    check_hplus_decomposition,
    check_lemm_cond_exp,
    check_regular,
    check_projection_uniqueness_premises,
    check_prop_rm,
    check_rm_convexity,
    check_rm_pos_hom,
    check_structural,
    condexp_ext_indicator,
    condexp_indicator,
    essinf_indicator,
    essinf_cond,
    esssup_cond,
    esssup_indicator,
    is_measurable,
    expectation,
    recover_density,
    restrict,
    rho_from_indicator,
)
from condind import battery, checks, expectation_ext, risk
from condind.checks import (
    domain_cases,
    domain_pairs,
    dominated_pairs,
    enumerate_or_sample,
    falsify,
    grid_coefficients,
    restricted_images,
    scaling_trials,
)
from condind.cli import jsonable
from condind.errors import HypothesisFailedError
from condind.expectation_ext import _hypothesis_reports
from condind.extreal import ONE, ZERO
from condind.indicators import BUILTIN_NAMES, builtin_indicator
from condind.sampling import (
    ALPHA_GRID,
    derive_rng,
    iter_cases,
    sample_dominating_pair,
    sample_event,
    sample_rv,
)
from condind.space import EVENT_SAMPLES, _packed, enumerate_events
from conftest import rv


def global_mean_indicator(space, H):
    """Constant global mean everywhere: idempotence fails off measurables and
    locality fails on any nontrivial partition."""
    def ev(X):
        return RandomVariable.constant(space, expectation(X))
    return IndicatorSpec("global-mean", H, ev, flags=frozenset())


def shifted_esssup(space, H):
    def ev(X):
        return esssup_cond(X, H).shift(1)
    return IndicatorSpec("esssup+1", H, ev, flags=frozenset())


def sign_switch_indicator(space):
    """A genuine indicator on the trivial partition that is not monotone:
    supremum when the first atom is <= 0, infimum otherwise."""
    H = Partition.trivial(space)
    sup, inf = esssup_indicator(H), essinf_indicator(H)

    def ev(X):
        return sup(X) if X.values[0] <= ZERO else inf(X)

    return IndicatorSpec("sign-switch", H, ev, flags=frozenset())


def test_axioms_builtins_verified(space4, H):
    for I in (esssup_indicator(H), essinf_indicator(H), condexp_indicator(H),
              condexp_ext_indicator(H)):
        rep = check_axioms(I, samples=200, seed=3)
        assert rep.verdict is Verdict.VERIFIED, rep


def test_axioms_catch_idempotence_violation(space4, H):
    rep = check_axioms(shifted_esssup(space4, H), samples=200, seed=3)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    # the witness re-evaluates to a genuine violation
    w = rep.witness
    assert w["axiom"] in ("idempotence", "sandwich")


def test_sandwich_witness_brackets_with_cell_extremes(space4, H):
    # exact on measurables, one above the cell maximum elsewhere: the first
    # failure is at a variable whose cell minimum and maximum differ
    def ev(X):
        return X if is_measurable(X, H) else esssup_cond(X, H).shift(1)

    I = IndicatorSpec("jump-off-measurables", H, ev, flags=frozenset())
    rep = check_axioms(I, samples=50, seed=3)
    w = rep.witness
    assert rep.verdict is Verdict.COUNTEREXAMPLE and w["axiom"] == "sandwich"
    assert w["lo"] == essinf_cond(w["X"], H) and w["hi"] == esssup_cond(w["X"], H)
    assert w["lo"] != w["hi"] and not w["value"].le(w["hi"])


def test_dominating_pair_is_a_draw_plus_a_nonnegative_draw(space4):
    for allow_inf in (True, False):
        rng, replay = derive_rng(2, "pair"), derive_rng(2, "pair")
        for _ in range(20):
            X = sample_rv(space4, replay, allow_inf)
            expected = (X, X + sample_rv(space4, replay, allow_inf, nonneg=True))
            assert sample_dominating_pair(space4, rng, allow_inf) == expected
        assert rng.getstate() == replay.getstate()


def test_regular_builtins(space4, H):
    for I in (esssup_indicator(H), condexp_indicator(H), condexp_ext_indicator(H)):
        rep = check_regular(I, samples=120, seed=5)
        assert rep.verdict is Verdict.VERIFIED, rep


def test_regular_catches_global_mean(space4, H):
    rep = check_regular(global_mean_indicator(space4, H), samples=120, seed=5)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    assert rep.notes[-1] == "statements: agree=fail, restrict=fail, splice=fail"


def test_regular_catches_a_leak_off_the_event(space4, H):
    # esssup + 1 is local, so agreement and splicing hold, but I(X 1_H) is 1
    # off H: statement (2) fails where the averaging identity does
    rep = check_regular(shifted_esssup(space4, H), samples=120, seed=5)
    w = rep.witness
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    assert rep.notes[-1] == "statements: agree=ok, restrict=fail, splice=ok"
    assert restrict(w["lhs"], w["H"].complement()) != RandomVariable.constant(space4, 0)


def test_regular_checks_the_empty_event(space4):
    # on the trivial partition the one cell is the whole space, where esssup + 1
    # is local: only the empty event shows I(0) = 1 != 0
    rep = check_regular(shifted_esssup(space4, Partition.trivial(space4)), samples=50, seed=5)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    assert rep.witness["H"] == Event.empty(space4)
    assert rep.notes[-1] == "statements: agree=ok, restrict=fail, splice=ok"


def test_regular_checks_every_cell(space4):
    # local except on the last cell of the discrete partition, whose value
    # doubles where the first atom is positive: only that cell shows it
    F2 = Partition.discrete(space4)
    last = space4.size - 1

    def ev(X):
        values = list(X.values)
        if ZERO < values[0]:
            values[last] = values[last] + values[last]
        return RandomVariable(space4, tuple(values))

    rep = check_regular(IndicatorSpec("reads-first-atom-on-last-cell", F2, ev, flags=frozenset()),
                        samples=50, seed=5)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    assert rep.witness["H"] == F2.cell_event(last)


def test_regular_counts_only_the_draws_it_evaluates(space4, H):
    # condexp on H rejects a draw whose cell holds both infinities; such a
    # draw evaluates nothing, so it is no case, and X and Y are still drawn
    I = builtin_indicator("condexp", H)
    rng = derive_rng(7, "regular:condexp")
    evaluated = 0
    for _ in range(500):
        X, Y = sample_rv(space4, rng), sample_rv(space4, rng)
        evaluated += I.in_domain(X) and I.in_domain(Y)
    rep = check_regular(I, 500, 7)
    assert rep.verdict is Verdict.VERIFIED
    assert rep.cases == evaluated < 500


def test_regular_evaluates_only_the_empty_event_on_one_cell(scenario):
    # F0's one cell is the whole space, where all three statements compare
    # I(X) with itself: a draw evaluates I(X), I(Y), I(0) and I(Y) spliced
    # on the empty event, and nothing more
    F0 = scenario.partitions["F0"]
    calls = [0]

    def counted(X):
        calls[0] += 1
        return esssup_cond(X, F0)

    rep = check_regular(IndicatorSpec("counted-esssup", F0, counted), 40, 5)
    assert rep.verdict is Verdict.VERIFIED and rep.cases == 40
    assert calls[0] == 4 * 40


def test_structural_esssup(space4, H):
    I = esssup_indicator(H)
    for flag in (Flag.INCREASING, Flag.TRANSLATION_INVARIANT, Flag.POS_HOMOGENEOUS,
                 Flag.SUBADDITIVE, Flag.CONVEX):
        rep = check_structural(I, flag, samples=250, seed=11)
        assert rep.verdict is Verdict.VERIFIED, (flag, rep.witness)
    rep = check_structural(I, Flag.LINEAR, samples=250, seed=11)
    assert rep.verdict is Verdict.COUNTEREXAMPLE  # max(X+Y) < max X + max Y


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_structural_flag_and_its_name_share_a_stream(H, name):
    I = builtin_indicator(name, H)
    for flag in Flag:
        if flag is not Flag.REGULAR:
            by_name = jsonable(check_structural(I, flag.value, 500, 7))
            assert by_name == jsonable(check_structural(I, flag, 500, 7)), flag


def test_structural_regular_is_check_regular(space4, H):
    # the regular flag has one check, whichever entry point names it
    for I in (esssup_indicator(H), shifted_esssup(space4, H)):
        want = jsonable(check_regular(I, 60, 5))
        assert jsonable(check_structural(I, Flag.REGULAR, 60, 5)) == want
        assert jsonable(check_structural(I, "regular", 60, 5)) == want


def test_structural_condexp_linear(space4, H):
    rep = check_structural(condexp_indicator(H), Flag.LINEAR, samples=250, seed=11)
    assert rep.verdict is Verdict.VERIFIED, rep.witness


def test_structural_condexp_ext_not_translation_invariant(space4, H):
    rep = check_structural(condexp_ext_indicator(H), Flag.TRANSLATION_INVARIANT,
                           samples=400, seed=11)
    # a doubly infinite cell pins the value at 0 and ignores finite shifts
    assert rep.verdict is Verdict.COUNTEREXAMPLE


def test_structural_non_monotone_witness(space4):
    I = sign_switch_indicator(space4)
    assert check_axioms(I, samples=200, seed=2).verdict is Verdict.VERIFIED
    rep = check_structural(I, Flag.INCREASING, samples=400, seed=2)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    w = rep.witness
    assert w["X"].le(w["Y"]) and not w["lhs"].le(w["rhs"])


def test_positivity_rests_on_the_sandwich_lower_bound(space4, H):
    # below the cell minimum off the measurable variables: a nonnegative input
    # gets a negative image, which only the sandwich's lower bound can see
    one = RandomVariable.constant(space4, 1)
    below = IndicatorSpec("below-floor", H, lambda X: X if is_measurable(X, H) else essinf_cond(X, H) - one,
                          flags=frozenset())
    rep = check_axioms(below, samples=60, seed=0)
    w = rep.witness
    assert rep.verdict is Verdict.COUNTEREXAMPLE and w["axiom"] == "sandwich"
    assert w["X"].is_nonnegative() and not w["value"].ge(RandomVariable.constant(space4, 0))


def test_fatou_skips_without_sequences(space4, H):
    rep = check_structural(esssup_indicator(H), "fatou", samples=10, seed=0)
    assert rep.verdict is Verdict.SKIPPED
    assert "partial" in (rep.reason or "")


def test_hplus_decomposition_example(space4, H):
    I = esssup_indicator(H)
    h = rv(space4, -1, -1, 2, 2)
    X = rv(space4, 1, 3, 2, 6)
    lhs = I(h * X)
    rhs = h.pos() * I(X) + h.neg() * I(-X)
    assert lhs == rhs == rv(space4, -1, -1, 12, 12)
    rep = check_hplus_decomposition(I, samples=300, seed=4)
    assert rep.verdict is Verdict.VERIFIED, rep.witness


def test_hplus_handles_pure_signs(space4, H):
    I = esssup_indicator(H)
    X = rv(space4, 1, 3, 2, 6)
    h = rv(space4, -1, -1, -1, -1)
    assert I(h * X) == h.pos() * I(X) + h.neg() * I(-X) == I(-X)
    nonneg = rv(space4, 2, 2, 3, 3)
    assert I(nonneg * X) == nonneg * I(X)


def test_hplus_skips_without_flags(space4, H):
    bare = IndicatorSpec("bare", H, lambda X: esssup_cond(X, H), flags=frozenset())
    assert check_hplus_decomposition(bare).verdict is Verdict.SKIPPED


def test_case_counts_leave_out_trials_that_cannot_fail(H):
    # positivity follows from the sandwich on the same X, the weights 0 and 1
    # give back Y and X, and the sign split at h = -1 reads
    # I(-X) = 0 I(X) + 1 I(-X): none of these is counted as a case
    for rep, cases in (
        (check_rm_convexity(rho_from_indicator(condexp_indicator(H)), 60, 1), 180),
        (check_structural(esssup_indicator(H), "convex", 60, 1), 180),
        (check_hplus_decomposition(esssup_indicator(H), 500, 7), 500),
        (check_hplus_decomposition(condexp_indicator(H), 500, 7), 313),
        (check_axioms(esssup_indicator(H), 500, 7), 1626),
    ):
        assert (rep.verdict, rep.cases) == (Verdict.VERIFIED, cases), rep.prop


def _constant(alpha):
    """A witness's coefficient as a Fraction when it is a scalar or a
    constant variable; None for a coefficient that varies over the atoms."""
    if isinstance(alpha, Fraction):
        return alpha
    values = set(alpha.values)
    return values.pop().frac if len(values) == 1 else None


def test_no_mixture_at_weight_0_or_1_and_no_scaling_by_1(monkeypatch, H):
    # every witness the convexity and scaling laws yield, by report name
    seen = []

    def spy(prop, trials, notes=()):
        def recorded():
            for ok, witness in trials:
                seen.append((prop, witness))
                yield ok, witness
        return falsify(prop, recorded(), notes)

    for module in (checks, risk, expectation_ext, battery):
        monkeypatch.setattr(module, "falsify", spy)
    condexp = condexp_indicator(H)
    rm = rho_from_indicator(condexp)
    check_structural(esssup_indicator(H), Flag.CONVEX, 40, 1)
    check_structural(condexp, Flag.POS_HOMOGENEOUS, 40, 1)
    check_rm_convexity(rm, 40, 1)
    check_rm_pos_hom(rm, 40, 1)
    check_dom_closure(condexp, 40, 1)
    check_lemm_cond_exp(H, 40, 1)
    dict(battery.properties(canonical_scenario(), 1, 40))["linear-scaling:condexp"]()

    mixed, scaled = set(), set()
    for prop, w in seen:
        law = prop.split(":")[0]
        if law in (Flag.CONVEX.value, "rm-convex") or w.get("claim") == "convexity":
            mixed.add(_constant(w["alpha"]))
        elif law in (Flag.POS_HOMOGENEOUS.value, "rm-pos-hom", "linear-scaling") \
                or w.get("claim") == "scaling" or w.get("identity") == "scalar":
            scaled.add((law, _constant(w["alpha"])))
    assert mixed == {Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}
    laws = {Flag.POS_HOMOGENEOUS.value, "rm-pos-hom", "dom-closure", "linear-scaling", "condexp-ext-identities"}
    assert {law for law, _ in scaled} == laws
    assert {law for law, a in scaled if a == 0} == laws
    assert not {law for law, a in scaled if a == 1}


def test_implication_guards_never_alarm(space4, H):
    # seed sweep: the contradiction alarms must stay silent on regular built-ins
    for I in (condexp_indicator(H), esssup_indicator(H), essinf_indicator(H)):
        for seed in range(40):
            rep1 = check_convex_implies_regular(I, samples=25, seed=seed)
            rep2 = check_additive_implies_regular(I, samples=25, seed=seed)
            assert not rep1.alarm and rep1.verdict is not Verdict.COUNTEREXAMPLE
            assert not rep2.alarm and rep2.verdict is not Verdict.COUNTEREXAMPLE


def test_subadditive_half_inequality_note(space4, H):
    rep = check_additive_implies_regular(esssup_indicator(H), samples=80, seed=1)
    assert rep.verdict is Verdict.VERIFIED
    assert any("half inequality" in n for n in rep.notes)


def test_enumerate_or_sample_past_the_cap_keeps_event_samples_distinct_draws():
    # 21 cells: the first EVENT_SAMPLES distinct events drawn, in drawn order, and a note saying so
    cells21 = Partition.discrete(FiniteProbabilitySpace.uniform([f"w{i}" for i in range(21)]))
    events, notes = enumerate_or_sample(cells21, derive_rng(3, "events"))
    assert len(events) == len(set(events)) == EVENT_SAMPLES == 64
    rng = derive_rng(3, "events")
    drawn = dict.fromkeys(sample_event(cells21, rng) for _ in range(2 * EVENT_SAMPLES))
    assert events == list(drawn)[:EVENT_SAMPLES]
    assert notes == ("partial: sampled 64 of 2^21 events",)
    cells4 = Partition.discrete(FiniteProbabilitySpace.uniform([f"w{i}" for i in range(4)]))
    assert enumerate_or_sample(cells4, rng) == (enumerate_events(cells4), ())


def test_enumerate_or_sample_lists_every_event_only_up_to_event_samples():
    # 6 cells have 64 = EVENT_SAMPLES events, all listed and no note; 7 cells
    # have 128, so the first EVENT_SAMPLES distinct draws are checked and said so
    cells6 = Partition.discrete(FiniteProbabilitySpace.uniform([f"w{i}" for i in range(6)]))
    rng = derive_rng(3, "events")
    assert enumerate_or_sample(cells6, rng) == (enumerate_events(cells6), ())
    assert rng.getstate() == derive_rng(3, "events").getstate()
    cells7 = Partition.discrete(FiniteProbabilitySpace.uniform([f"w{i}" for i in range(7)]))
    events, notes = enumerate_or_sample(cells7, rng)
    assert len(events) == len(set(events)) == EVENT_SAMPLES < 2**7
    rng = derive_rng(3, "events")
    drawn = dict.fromkeys(sample_event(cells7, rng) for _ in range(8 * EVENT_SAMPLES))
    assert events == list(drawn)[:EVENT_SAMPLES]
    assert notes == ("partial: sampled 64 of 2^7 events",)


def test_counterexample_witness_reevaluates(space4, H):
    I = shifted_esssup(space4, H)
    rep = check_axioms(I, samples=100, seed=9)
    assert rep.verdict is Verdict.COUNTEREXAMPLE
    X = rep.witness["X"]
    assert I(X) != X or not esssup_cond(X, H).ge(I(X))


def test_checkreport_helpers():
    ok = CheckReport.verified("p", 10)
    assert ok.ok and ok.cases == 10
    bad = CheckReport.counterexample("p", {"X": 1}, 3, alarm=True)
    assert not bad.ok and bad.alarm
    skip = CheckReport.skipped("p", "why")
    assert skip.ok and skip.reason == "why"


def _declaring(I, flag):
    return replace(I, flags=I.flags | {flag})


def _density_hypothesis_reports(I, seed):
    with pytest.raises(HypothesisFailedError) as err:
        recover_density(I, samples=40, seed=seed)
    return err.value.reports


# Counterexample paths of the shared additivity, self-duality, scaling and
# combination laws: the verify-all digests only cover verified reports. The
# digests are those of the hand-written loops the shared laws replaced, on the
# same inputs.
COUNTEREXAMPLE_PATHS = {
    "superadditive:esssup": lambda H, seed: check_structural(
        esssup_indicator(H), Flag.SUPERADDITIVE, 40, seed),
    "self-dual:esssup": lambda H, seed: check_structural(
        esssup_indicator(H), Flag.SELF_DUAL, 40, seed),
    "subadditive:essinf": lambda H, seed: check_structural(
        essinf_indicator(H), Flag.SUBADDITIVE, 40, seed),
    "pos-homogeneous:esssup+1": lambda H, seed: check_structural(
        shifted_esssup(H.space, H), Flag.POS_HOMOGENEOUS, 40, seed),
    "uniqueness-premises:essinf": lambda H, seed: check_projection_uniqueness_premises(
        essinf_indicator(H), 40, seed),
    "uniqueness-premises:esssup-declared-superadditive": lambda H, seed: (
        check_projection_uniqueness_premises(_declaring(esssup_indicator(H), Flag.SUPERADDITIVE), 40, seed)),
    "prop-rm:esssup-declared-superadditive": lambda H, seed: check_prop_rm(
        _declaring(esssup_indicator(H), Flag.SUPERADDITIVE), 40, seed),
    "recover-density:esssup": lambda H, seed: _density_hypothesis_reports(esssup_indicator(H), seed),
    # global-mean scales with every constant but with no cell-varying coefficient
    "pos-homogeneous:global-mean": lambda H, seed: check_structural(
        global_mean_indicator(H.space, H), Flag.POS_HOMOGENEOUS, 40, seed),
    "linear-scaling:global-mean": lambda H, seed: falsify(
        "linear-scaling:global-mean",
        scaling_trials(global_mean_indicator(H.space, H), derive_rng(seed, "linear-scaling:global-mean"),
                       40, grid_coefficients(H, ALPHA_GRID), allow_inf=False)),
    # global-mean is neither linear nor convex: the mean ignores the cells
    "linear:global-mean": lambda H, seed: check_structural(
        global_mean_indicator(H.space, H), Flag.LINEAR, 40, seed),
    "convex:global-mean": lambda H, seed: check_structural(
        global_mean_indicator(H.space, H), Flag.CONVEX, 40, seed),
    "rm-convex:esssup": lambda H, seed: check_rm_convexity(
        rho_from_indicator(esssup_indicator(H)), 40, seed),
    "rm-pos-hom:esssup+1": lambda H, seed: check_rm_pos_hom(
        rho_from_indicator(shifted_esssup(H.space, H)), 40, seed),
    # verified, but condexp's domain makes the case counts depend on the draws
    "recover-density-hypotheses:condexp": lambda H, seed: _hypothesis_reports(condexp_indicator(H), 40, seed),
}

# sha256 of the JSON of each path's reports for seeds 0-4
COUNTEREXAMPLE_DIGESTS = {
    "pos-homogeneous:esssup+1": "8b0153f2a119982adb1a2836dc0250cdccf29d636e346752ceb8d7b5623414dd",
    "prop-rm:esssup-declared-superadditive": "aee0af8aec17d89b1ffa055a445cf342c962c41762311febeed487a5d0c022f5",
    "recover-density:esssup": "0820d58ad246e679d36a4696ff4ae193187c7156af3812fd54f08c44467bd36e",
    "self-dual:esssup": "ae0e2434e3d9ddc0d44ea25378ac069311cfc8f68e8fc5c07c16dc13c1a4e276",
    "subadditive:essinf": "2d76472be6e6bd79d0acc62ef6324dfbe904ef5a10b8b0fae4f73ae7ce151fcc",
    "superadditive:esssup": "2d42c29f35535aaa5e4eba6ff031140afcac5b79e44bab1a8174ef3c32331628",
    "uniqueness-premises:essinf": "24c4bd8b8923418495a44d4ff53c0ad287dfac409c19bb32eae5bff938bf38fc",
    "uniqueness-premises:esssup-declared-superadditive":
        "2282c9b506708593b40b311e307895e5c8957e8f35a4c2466e4c576779ab2025",
    "pos-homogeneous:global-mean": "a30398632aad2f035c07fc7bff058489ea9c66365fadb6dc60a369aaa77c53f5",
    "linear-scaling:global-mean": "e8575edc0be73da1f71adef0f2fe8c70b683c6f0f95afaf30205d33cdb125451",
    "linear:global-mean": "31fa9384680c15f0696751ad6da6b96056816ad38f4bd0d0f8b2ee502d0a63c7",
    "convex:global-mean": "5ddab3382b62ecbc85866fb92b53e9c82a0457f81bdd291adc0f41c7e8741c46",
    "rm-convex:esssup": "d2552eb8a3d9b1d28a202af77e4e11ca382ee432b94e97bf6a4e47ca47a41269",
    "rm-pos-hom:esssup+1": "5861dd069ab0b9c83e70acffcc2fc3eda76e42abd172e09ab0138af7403d5397",
    "recover-density-hypotheses:condexp": "061d6fcf58bd40cc9c2c1f13653d62054f4286aef90e4b5584972fbe779ea7b6",
}


@pytest.mark.parametrize("case", sorted(COUNTEREXAMPLE_PATHS))
def test_counterexample_paths_pinned(case, H):
    reports = [jsonable(COUNTEREXAMPLE_PATHS[case](H, seed)) for seed in range(5)]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == COUNTEREXAMPLE_DIGESTS[case]


def listed_cases(space, rng, samples, allow_inf=True, nonneg=False):
    """The case sequence as a list: every corner built up front, then draws."""
    n = space.size
    corners = [RandomVariable.constant(space, c) for c in (0, 1, -1)]
    corners += [RandomVariable.indicator(Event(space, frozenset({i}))) for i in range(n)]
    if allow_inf and n >= 2:
        corners.append(_packed(space, (1, 0) + (0,) * (n - 2), (0,) * n, 1))
        corners.append(_packed(space, (1, -1) + (0,) * (n - 2), (0, 0) + (1,) * (n - 2), 1))
    if nonneg:
        corners = [X for X in corners if X.is_nonnegative()]
    out = corners[:samples]
    while len(out) < samples:
        out.append(sample_rv(space, rng, allow_inf, nonneg))
    return out


@pytest.mark.parametrize("allow_inf", [True, False])
@pytest.mark.parametrize("nonneg", [True, False])
@pytest.mark.parametrize("samples", [0, 3, 6, 9, 40])
def test_iter_cases_equals_listed_reference(space4, allow_inf, nonneg, samples):
    label = f"cases:{allow_inf}:{nonneg}:{samples}"
    rng, ref_rng = derive_rng(1, label), derive_rng(1, label)
    got = list(iter_cases(space4, rng, samples, allow_inf, nonneg))
    assert got == listed_cases(space4, ref_rng, samples, allow_inf, nonneg)
    assert rng.getstate() == ref_rng.getstate()


def test_iter_cases_builds_only_the_corners_it_yields(monkeypatch):
    space = FiniteProbabilitySpace.uniform([f"a{i}" for i in range(128)])
    built = [0]
    post_init = RandomVariable.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(RandomVariable, "__post_init__", counted)
    for cases in (
        iter_cases(space, derive_rng(2, "lazy"), 8),
        itertools.islice(iter_cases(space, derive_rng(2, "lazy"), 500), 8),
    ):
        built[0] = 0
        assert len(list(cases)) == 8 and built[0] <= 8


# -- domain guards: four helpers, each the loop it replaced ---------------------


def first_atom_within_one(H):
    """esssup, defined only where the first atom lies in [-1, 1]: a domain
    that rejects X or Y alone, and the lower or the upper variable alone."""
    return IndicatorSpec("esssup|first-in-[-1,1]", H, lambda X: esssup_cond(X, H),
                         domain_fn=lambda X: -ONE <= X.values[0] <= ONE, flags=frozenset())


@pytest.mark.parametrize("allow_inf", [True, False])
def test_domain_cases_is_the_filtered_case_loop(space4, H, allow_inf):
    I = first_atom_within_one(H)
    for nonneg in (True, False):
        rng, ref = derive_rng(4, f"cases:{nonneg}"), derive_rng(4, f"cases:{nonneg}")
        got = list(domain_cases(I, rng, 40, allow_inf, nonneg))
        want = [X for X in iter_cases(space4, ref, 40, allow_inf, nonneg) if I.in_domain(X)]
        assert got == want and 0 < len(want) < 40
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("allow_inf", [True, False])
def test_domain_pairs_draws_y_before_either_guard(space4, H, allow_inf):
    I = first_atom_within_one(H)
    rng, ref = derive_rng(4, "pairs"), derive_rng(4, "pairs")
    got = list(domain_pairs(I, rng, 40, allow_inf))
    drawn = []
    for X in iter_cases(space4, ref, 40, allow_inf=allow_inf):
        drawn.append((X, sample_rv(space4, ref, allow_inf=allow_inf)))
    assert got == [(X, Y) for X, Y in drawn if I.in_domain(X) and I.in_domain(Y)]
    assert rng.getstate() == ref.getstate()
    # the planted domain rejects draws where only Y lies outside it
    assert any(I.in_domain(X) and not I.in_domain(Y) for X, Y in drawn)


@pytest.mark.parametrize("allow_inf", [True, False])
def test_dominated_pairs_guards_both_variables(space4, H, allow_inf):
    I = first_atom_within_one(H)
    rng, ref = derive_rng(4, "dominated"), derive_rng(4, "dominated")
    got = list(dominated_pairs(I, rng, 40, allow_inf))
    drawn = [sample_dominating_pair(space4, ref, allow_inf) for _ in range(40)]
    assert got == [(X, Y) for X, Y in drawn if I.in_domain(X) and I.in_domain(Y)]
    assert rng.getstate() == ref.getstate()
    assert any(I.in_domain(X) and not I.in_domain(Y) for X, Y in drawn)
    assert any(I.in_domain(Y) and not I.in_domain(X) for X, Y in drawn)


def test_restricted_images_keep_event_order_and_skip_outside_the_domain(space4, H):
    I = first_atom_within_one(H)
    X = rv(space4, 2, -1, "1/2", 3)
    events = enumerate_events(H)
    got = list(restricted_images(I, X, events))
    # X 1_H is in the domain exactly when H misses the first atom, where X is 2
    kept = [ev for ev in events if 0 not in ev.members]
    assert [ev for ev, _ in got] == kept and 0 < len(kept) < len(events)
    assert [image for _, image in got] == [esssup_cond(restrict(X, ev), H) for ev in kept]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_restricted_images_skip_the_whole_space(space4, H, name):
    # there X 1_H is X, and every law would compare I(X) with itself; the
    # empty event stays, where a law checks I(0) = 0
    I = builtin_indicator(name, H)
    events = enumerate_events(H)
    whole = Event.full(space4)
    for X in domain_cases(I, derive_rng(3, "whole-space"), 40):
        got = [ev for ev, _ in restricted_images(I, X, events)]
        assert whole not in got
        assert got == [ev for ev in events if ev != whole and I.in_domain(restrict(X, ev))]
        assert got[0] == Event.empty(space4)


DOMAIN_HELPERS = {"domain_cases", "domain_pairs", "dominated_pairs", "restricted_images"}
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "condind")


def _calls(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _tests_domain_of(test: ast.AST, target: ast.AST) -> bool:
    """Whether `test` calls `.in_domain(v)` on a name v bound by `target`."""
    names = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return any(_calls(n, "in_domain") and n.args and getattr(n.args[0], "id", None) in names
               for n in ast.walk(test))


def hand_written_domain_guards(tree: ast.AST, exempt=frozenset()) -> list[int]:
    """Lines of the loops, outside the functions named in `exempt`, that draw
    and then skip on a domain by hand: a loop (or comprehension) over
    iter_cases(...) that opens with an in_domain test of its variable, or
    with a sample_rv draw and then that test; and a loop that opens with a
    sample_dominating_pair draw and an in_domain test of the pair."""
    found = []
    policy = {id(n) for f in ast.walk(tree) if getattr(f, "name", None) in exempt for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in policy:
            continue
        if isinstance(node, ast.For):
            first, second = (node.body + [None])[:2]
            over_cases = _calls(node.iter, "iter_cases")
            guarded = False
            if over_cases and isinstance(first, ast.If):
                guarded = _tests_domain_of(first.test, node.target)
            elif isinstance(first, ast.Assign) and isinstance(second, ast.If):
                if over_cases and _calls(first.value, "sample_rv"):
                    guarded = _tests_domain_of(second.test, node.target)
                elif _calls(first.value, "sample_dominating_pair"):
                    guarded = _tests_domain_of(second.test, first.targets[0])
            if guarded:
                found.append(node.lineno)
        elif isinstance(node, ast.comprehension):
            if _calls(node.iter, "iter_cases") and node.ifs and _tests_domain_of(node.ifs[0], node.target):
                found.append(node.iter.lineno)
    return found


@pytest.mark.parametrize("source,flagged", [
    ("for X in iter_cases(s, rng, n):\n    if not I.in_domain(X):\n        continue\n", True),
    ("for X in iter_cases(s, rng, n):\n    if I.in_domain(X) and I.in_domain(-X):\n        f(X)\n", True),
    ("for _ in range(n):\n    X2, X1 = sample_dominating_pair(s, rng)\n"
     "    if not (rm.in_domain(X1) and rm.in_domain(X2)):\n        continue\n", True),
    ("m = [X for X in iter_cases(s, rng, n) if I.in_domain(X) and ok(X)]\n", True),
    ("for X in iter_cases(s, rng, n):\n    Y = sample_rv(s, rng)\n"
     "    if F.in_domain(X) and F.in_domain(Y):\n        f(X, Y)\n", True),
    # a guard on a derived variable, and one that follows another draw, stay inline
    ("for X in domain_cases(I, rng, n):\n    if I.in_domain(-X):\n        f(X)\n", False),
    ("for X in iter_cases(s, rng, n):\n    h = draw(rng)\n    if I.in_domain(X):\n        f(X)\n", False),
])
def test_domain_guard_detector(source, flagged):
    assert bool(hand_written_domain_guards(ast.parse(source))) is flagged


def test_domain_guards_are_written_once():
    """Outside the four helpers of checks, no loop draws and then skips on its
    subject's domain by hand; the guards that stay inline are listed in the
    helpers' section comment."""
    found = {}
    for file in sorted(os.listdir(SRC)):
        if file.endswith(".py"):
            with open(os.path.join(SRC, file)) as fh:
                tree = ast.parse(fh.read())
            lines = hand_written_domain_guards(tree, DOMAIN_HELPERS if file == "checks.py" else frozenset())
            if lines:
                found[file] = lines
    assert found == {}
