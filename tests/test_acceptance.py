"""Acceptance suite: one test per criterion, exact assertions, stated time
budgets, one PASS/FAIL line each (run with -s to watch them stream)."""

import io
import itertools
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest

from condind import (
    Filtration,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    StochasticIndicator,
    Verdict,
    backward_envelope,
    canonical_scenario,
    check_rm_axioms,
    condexp_indicator,
    essinf_cond,
    essinf_indicator,
    esssup_cond,
    esssup_indicator,
    projection_solve,
    recover_density,
    rho,
    rho_from_acceptance,
    verify_all,
    weighted_indicator,
)
from condind.battery import sample_normalized_density
from condind.cli import run as cli_run
from condind.errors import HypothesisFailedError
from condind.extreal import NEG_INF, POS_INF, ZERO, ext, ext_add, ext_mul, ext_sub
from condind.indicators import Flag
from condind.sampling import GRID_VALUES, derive_rng, sample_rv
from conftest import (
    all_partitions,
    ge_table,
    le_table,
    oracle_greatest_minorant,
    rv,
)

import dataclasses


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.3f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget: {elapsed:.3f}s"


def test_criterion_01_convention_table():
    two, half = ext(2), ext(Fraction(1, 2))
    pos, neg, zero = POS_INF, NEG_INF, ZERO
    add = {
        (two, half): ext(Fraction(5, 2)), (two, pos): pos, (two, neg): neg,
        (pos, half): pos, (pos, pos): pos, (pos, neg): zero,
        (neg, half): neg, (neg, pos): zero, (neg, neg): neg,
    }
    sub = {
        (two, half): ext(Fraction(3, 2)), (two, pos): neg, (two, neg): pos,
        (pos, half): pos, (pos, pos): zero, (pos, neg): pos,
        (neg, half): neg, (neg, pos): neg, (neg, neg): zero,
    }
    mul = {
        (two, half): ext(1), (two, pos): pos, (two, neg): neg,
        (pos, half): pos, (pos, pos): pos, (pos, neg): neg,
        (neg, half): neg, (neg, pos): neg, (neg, neg): pos,
    }
    with criterion(1, "convention-table", 0.001):
        for (a, b), want in add.items():
            assert ext_add(a, b) == want
        for (a, b), want in sub.items():
            assert ext_sub(a, b) == want
        for (a, b), want in mul.items():
            assert ext_mul(a, b) == want
        assert ext_sub(pos, pos) == zero and ext_sub(neg, neg) == zero
        assert ext_mul(zero, pos) == zero and ext_mul(zero, neg) == zero


def memo_least_dominator(ge: list[list[bool]]):
    """`conftest.oracle_least_dominator`'s ascending ge_table scan for one
    cell, memoised on the set of grid indices the cell holds (a bitmask):
    up to 5 atoms over the 8-value grid give only 218 distinct sets."""
    memo: dict[int, int] = {}

    def least(member_idx: list[int]) -> int:
        mask = 0
        for i in member_idx:
            mask |= 1 << i
        j = memo.get(mask)
        if j is None:
            j = 0
            while not all(ge[j][i] for i in member_idx):
                j += 1
            memo[mask] = j
        return j

    return least


def assert_esssup_matches_oracles(esssup, sizes) -> None:
    """`esssup` against the least-dominator oracle on every grid variable and
    partition of each size; essinf_cond against its mirror up to 4 atoms."""
    least = memo_least_dominator(ge_table())
    le = le_table()
    grid = GRID_VALUES
    for n in sizes:
        space = FiniteProbabilitySpace.uniform([chr(97 + i) for i in range(n)])
        parts = all_partitions(space)
        cells_of = [p.cells for p in parts]
        mirror = n <= 4  # greatest-minorant mirror at the smaller sizes
        for combo in itertools.product(range(len(grid)), repeat=n):
            X = RandomVariable(space, tuple(grid[i] for i in combo))
            for p, cells in zip(parts, cells_of):
                got = esssup(X, p).values
                for cell in cells:
                    assert got[cell[0]] == grid[least([combo[i] for i in cell])]
                if mirror:
                    got_inf = essinf_cond(X, p)
                    want_inf = oracle_greatest_minorant(combo, cells, le)
                    for cell in cells:
                        assert got_inf.values[cell[0]] == want_inf[cell[0]]


def test_criterion_02_esssup_oracle_equivalence():
    with criterion(2, "esssup-least-dominator-oracle", 30.0):
        assert_esssup_matches_oracles(esssup_cond, range(1, 6))


def test_criterion_02_oracle_catches_second_largest():
    def second_largest(X, H):
        vals = list(X.values)
        for cell in H.cells:
            ranked = sorted(X.values[i] for i in cell)
            for i in cell:
                vals[i] = ranked[-2] if len(ranked) > 1 else ranked[0]
        return RandomVariable(X.space, tuple(vals))

    with pytest.raises(AssertionError):
        assert_esssup_matches_oracles(second_largest, range(1, 3))


def test_criterion_03_lemma_battery():
    scenario = canonical_scenario()
    with criterion(3, "lemma-battery-1000", 120.0):
        reports = verify_all(scenario, seed=7, samples=1000)
        failing = [r for r in reports if not r.ok]
        assert failing == [], [r.prop for r in failing]
        names = {r.prop for r in reports}
        for needle in (
            "averaging:esssup",
            "locality:esssup@H",
            "sign-split:esssup",
            "dual-involution:esssup",
            "extension-sandwich:esssup",
            "extension-duality:esssup",
            "tower:esssup:F0<=F2",
            "tower:condexp:F0<=F2",
        ):
            assert needle in names, needle


def _random_space(rng, max_atoms=6) -> FiniteProbabilitySpace:
    n = rng.randint(2, max_atoms)
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return FiniteProbabilitySpace(
        tuple(f"w{i}" for i in range(n)),
        tuple(Fraction(w, total) for w in weights),
    )


def _coarsen(partition: Partition, rng) -> Partition:
    cells = [list(c) for c in partition.cells]
    if len(cells) > 1:
        i, j = rng.sample(range(len(cells)), 2)
        cells[i] += cells[j]
        del cells[j]
    return Partition.from_cells(partition.space, cells)


def _random_refinement_chain(space, rng) -> Filtration:
    atoms = list(range(space.size))
    rng.shuffle(atoms)
    k = rng.randint(max(2, space.size // 2), space.size)
    cells = [atoms[i::k] for i in range(k)]
    fine = Partition.from_cells(space, [c for c in cells if c])
    mid = _coarsen(fine, rng)
    coarse = _coarsen(mid, rng)
    return Filtration(("t0", "t1", "t2"), (coarse, mid, fine))


def test_criterion_04_projection_uniqueness_at_desk_scale():
    rng = derive_rng(7, "uniq-desk")
    with criterion(4, "projection-uniqueness-200", 60.0):
        done = 0
        while done < 200:
            space = _random_space(rng)
            filtration = _random_refinement_chain(space, rng)
            X = RandomVariable(
                space,
                tuple(ext(Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))))
                      for _ in range(space.size)),
            )
            t_index = rng.choice((1, 2))
            Ft = filtration.partitions[t_index]
            I0 = esssup_indicator(filtration.partitions[0])
            grid = sorted({*X.values, ext(0)}, key=lambda v: (v.kind, v.frac))
            sols = projection_solve(I0, X, Ft, grid)
            assert sols == [esssup_cond(X, Ft)], (space.atoms, Ft.cells, X.values)
            done += 1


def test_criterion_05_shift_rigidity_sweep():
    rng = derive_rng(7, "rigidity-sweep")
    eps_grid = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(3)]
    with criterion(5, "esssup-shift-rigidity-500", 30.0):
        done = 0
        while done < 500:
            space = _random_space(rng, max_atoms=5)
            F0 = Partition.from_cells(
                space, [c for c in _coarsen(Partition.discrete(space), rng).cells]
            )
            members = frozenset(
                i for i in range(space.size) if rng.random() < 0.6
            )
            if not members:
                continue
            from condind import Event, restrict

            event = Event(space, members)
            X = restrict(
                RandomVariable(
                    space,
                    tuple(ext(Fraction(rng.randint(-9, 9), rng.choice((1, 2))))
                          for _ in range(space.size)),
                ),
                event,
            )
            base = esssup_cond(X, F0)
            if base == RandomVariable.constant(space, 0):
                continue
            done += 1
            one_F = RandomVariable.indicator(event)
            for eps in eps_grid:
                shifted = esssup_cond(X - one_F.scale(eps), F0)
                assert shifted != base, (X.values, event.members, eps)
            assert esssup_cond(X - one_F.scale(0), F0) == base


def test_criterion_06_risk_layer():
    scenario = canonical_scenario()
    H = scenario.partitions["H"]
    builtins = (esssup_indicator(H), essinf_indicator(H), condexp_indicator(H))
    rng = derive_rng(7, "risk-accept")
    with criterion(6, "risk-fast-path-and-bisection", 60.0):
        for I in builtins:
            for _ in range(50):
                X = sample_rv(H.space, rng, allow_inf=False)
                if not I.in_domain(X):
                    continue
                assert rho(I, X) == -I(X)  # translation-invariant fast path
        cases = 0
        while cases < 200:
            I = builtins[cases % 3]
            forced = dataclasses.replace(
                I, flags=I.flags - {Flag.TRANSLATION_INVARIANT}
            )
            X = sample_rv(H.space, rng, allow_inf=False)
            if not I.in_domain(X):
                continue
            cases += 1
            exact = rho(I, X)
            approx = rho(forced, X)
            for a, b in zip(exact.values, approx.values):
                assert abs(a.frac - b.frac) <= Fraction(1, 2**40)
        for I in builtins:
            rm = rho_from_acceptance(I)
            rep = check_rm_axioms(rm, samples=200, seed=7)
            assert rep.verdict is Verdict.VERIFIED, (I.name, rep.witness)


def test_criterion_07_density_recovery_roundtrip():
    scenario = canonical_scenario()
    H = scenario.partitions["H"]
    rng = derive_rng(7, "density-accept")
    with criterion(7, "density-roundtrip-200", 60.0):
        for case in range(200):
            rho0 = sample_normalized_density(H, rng)
            I = weighted_indicator(H, rho0, label=f"w{case}")
            report = recover_density(I, samples=30, seed=case)
            assert report.density == rho0  # bit-exact
            assert report.reconstruction_ok and report.conditional_mean_one
        with pytest.raises(HypothesisFailedError) as err:
            recover_density(esssup_indicator(H), samples=60, seed=7)
        assert "additivity" in err.value.failed


def _binary_tree(levels: int) -> Filtration:
    # levels time points; partition at time t has 2^t cells
    n = 2 ** (levels - 1)
    space = FiniteProbabilitySpace.uniform([f"l{i}" for i in range(n)])
    partitions = []
    for t in range(levels):
        width = n // (2**t)
        cells = [list(range(i, i + width)) for i in range(0, n, width)]
        partitions.append(Partition.from_cells(space, cells))
    return Filtration(tuple(f"t{t}" for t in range(levels)), tuple(partitions))


def test_criterion_08_envelope_consistency():
    with criterion(8, "envelope-binary-trees", 30.0):
        for levels in (2, 3):
            filtration = _binary_tree(levels)
            space = filtration.space
            SI = StochasticIndicator.from_builtin(filtration, "esssup")
            grid = GRID_VALUES
            for combo in itertools.product(grid, repeat=space.size):
                payoff = RandomVariable(space, combo)
                V = backward_envelope(SI, payoff)
                # tower collapse at every time, in particular V_0
                for t, part in enumerate(filtration.partitions):
                    assert V.values[t] == esssup_cond(payoff, part)
                # monotonicity along covering bumps of the payoff lattice
                for i in range(space.size):
                    idx = grid.index(combo[i])
                    if idx + 1 < len(grid):
                        bumped = list(combo)
                        bumped[i] = grid[idx + 1]
                        V2 = backward_envelope(SI, RandomVariable(space, tuple(bumped)))
                        for a, b in zip(V.values, V2.values):
                            assert a.le(b)


def test_criterion_09_additivity_sets():
    scenario = canonical_scenario()
    H = scenario.partitions["H"]
    space = scenario.space
    from condind import additivity_set, check_additivity_on_F

    ones = rv(space, 1, 1, 1, 1)
    spiked_plus = RandomVariable(space, (POS_INF, ext(0), ext(1), ext(1)))
    spiked_minus = RandomVariable(space, (NEG_INF, ext(0), ext(1), ext(1)))
    with criterion(9, "additivity-class-coverage", 5.0):
        engineered = [
            ("F1", ones, ones),
            ("F2", spiked_plus, ones),
            ("F3", spiked_minus, ones),
            ("F4", ones, spiked_plus),
            ("F5", ones, spiked_minus),
        ]
        for want, X, Y in engineered:
            _, tags = additivity_set(X, Y, H)
            assert tags[0] == want
            rep = check_additivity_on_F(X, Y, H)
            assert rep.verdict is Verdict.VERIFIED, (want, rep.witness)
        # outside every class nothing is asserted
        _, tags = additivity_set(spiked_plus, spiked_minus, H)
        assert tags[0] is None
        rep = check_additivity_on_F(spiked_plus, spiked_minus, H)
        assert rep.verdict is not Verdict.COUNTEREXAMPLE
        assert any("off-F" in n for n in rep.notes)
        trivial = Partition.trivial(space)
        off = check_additivity_on_F(
            RandomVariable(space, (POS_INF, ext(0), ext(0), ext(0))),
            RandomVariable(space, (ext(0), NEG_INF, ext(0), ext(0))),
            trivial,
        )
        assert off.verdict is Verdict.SKIPPED and off.reason == "off-F"


def test_criterion_10_verify_all_determinism():
    argv = ["verify-all", "--seed", "7"]

    def one_run() -> tuple[int, bytes]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_run(argv)
        return code, buf.getvalue().encode()

    with criterion(10, "verify-all-byte-determinism", 300.0):
        code1, out1 = one_run()
        code2, out2 = one_run()
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["failed"] is False and doc["seed"] == 7
