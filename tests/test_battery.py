"""Battery structure and cross-cutting invariants at small sample counts."""

import hashlib
import inspect
import io
import itertools
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest

from condind import (
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    Scenario,
    Verdict,
    builtin_indicator,
    canonical_scenario,
    essinf_cond,
    esssup_cond,
    mix_self_dual,
    verify_all,
)
from condind.battery import properties
from condind.cli import jsonable, run
from condind.errors import EmptyDomainError
from condind.indicators import BUILTIN_NAMES, IndicatorSpec
from condind.extreal import NEG_INF, POS_INF, ext
from condind.sampling import GRID_VALUES, _draw, derive_rng, sample_measurable
from conftest import all_partitions, pairs_doc


def test_battery_green_and_named(scenario):
    reports = verify_all(scenario, seed=3, samples=30)
    assert all(r.ok for r in reports)
    names = [r.prop for r in reports]
    assert names[0] == "conv-table"
    assert len(names) == len(set(names))  # properties addressable by name
    for prefix in ("axioms:", "locality:", "averaging:", "structural:",
                   "sign-split:", "dual-involution:", "extension-sandwich:",
                   "extension-duality:", "tower:", "risk:", "density-roundtrip"):
        assert any(n.startswith(prefix) for n in names), prefix


def test_battery_without_filtration_skips_tower():
    space = FiniteProbabilitySpace.uniform(["a", "b"])
    bare = Scenario(
        space=space,
        partitions={"H": Partition.discrete(space)},
        variables={},
    )
    reports = verify_all(bare, seed=1, samples=15)
    assert all(r.ok for r in reports)
    skipped = [r for r in reports if r.verdict is Verdict.SKIPPED]
    assert any(r.prop == "tower" for r in skipped)


def test_battery_without_partitions_runs_on_the_trivial_partition():
    space = FiniteProbabilitySpace.uniform(["a", "b"])
    reports = verify_all(Scenario(space=space, partitions={}, variables={}), seed=1, samples=15)
    assert all(r.ok for r in reports)
    names = [r.prop for r in reports]
    assert len(names) == 74
    assert {f"locality:{name}@trivial" for name in BUILTIN_NAMES} <= set(names)
    # the trivial partition's one cell has both atoms, so only tower skips
    assert [r.prop for r in reports if r.verdict is Verdict.SKIPPED] == ["tower"]


def test_battery_seed_sensitivity_is_only_in_cases(scenario):
    a = [r.prop for r in verify_all(scenario, seed=1, samples=12)]
    b = [r.prop for r in verify_all(scenario, seed=2, samples=12)]
    assert a == b  # property list independent of the seed


def test_sandwich_exhaustive_small_spaces():
    # every builtin stays inside [cell min, cell max] on the full grid
    for n in (2, 3):
        space = FiniteProbabilitySpace.uniform([chr(97 + i) for i in range(n)])
        for partition in all_partitions(space):
            indicators = [builtin_indicator(name, partition) for name in BUILTIN_NAMES]
            indicators.append(mix_self_dual(indicators[0]))
            for combo in itertools.product(GRID_VALUES, repeat=n):
                X = RandomVariable(space, combo)
                lo = essinf_cond(X, partition)
                hi = esssup_cond(X, partition)
                for I in indicators:
                    if not I.in_domain(X):
                        continue
                    out = I(X)
                    assert lo.le(out) and out.le(hi), (I.name, combo)


def test_sample_measurable_draws_cell_by_cell_in_order(H):
    # the battery's measurable shifts hold the k-th draw on the k-th cell
    for allow_inf, nonneg in itertools.product((True, False), repeat=2):
        rng, replay = derive_rng(4, "cells"), derive_rng(4, "cells")
        for _ in range(20):
            draws = [_draw(replay, allow_inf, nonneg) for _ in H.cells]
            per_cell = [ext(Fraction(n, d)) if tag == 0 else POS_INF if tag > 0 else NEG_INF
                        for tag, n, d in draws]
            M = sample_measurable(H, rng, allow_inf, nonneg)
            assert M == RandomVariable.from_cells(H, per_cell)
        assert rng.getstate() == replay.getstate()


def test_mix_requires_zero_in_domain():
    space = FiniteProbabilitySpace.uniform(["a", "b"])
    H = Partition.trivial(space)
    never = IndicatorSpec("never", H, lambda X: X, domain_fn=lambda X: False)
    with pytest.raises(EmptyDomainError):
        mix_self_dual(never)


def _random_scenario(seed: int) -> Scenario:
    import random
    from fractions import Fraction
    from condind import Filtration

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    weights = [rng.randint(1, 7) for _ in range(n)]
    total = sum(weights)
    space = FiniteProbabilitySpace(
        tuple(f"a{i}" for i in range(n)),
        tuple(Fraction(w, total) for w in weights),
    )
    atoms = list(range(n))
    rng.shuffle(atoms)
    k = rng.randint(1, n)
    fine = Partition.from_cells(space, [c for c in (atoms[i::k] for i in range(k)) if c])

    def coarsen(p):
        cells = [list(c) for c in p.cells]
        if len(cells) > 1:
            i, j = rng.sample(range(len(cells)), 2)
            cells[i] += cells[j]
            del cells[j]
        return Partition.from_cells(space, cells)

    mid = coarsen(fine)
    coarse = coarsen(mid)
    return Scenario(
        space=space,
        partitions={"P0": coarse, "P1": mid, "P2": fine},
        variables={},
        filtration=Filtration(("P0", "P1", "P2"), (coarse, mid, fine)),
    )


def test_battery_green_on_random_scenario_shapes():
    # non-uniform masses, non-discrete terminal partitions, short chains
    for seed in (1000, 1003, 1011, 1017, 1029):
        reports = verify_all(_random_scenario(seed), seed=seed, samples=15)
        failing = [r.prop for r in reports if not r.ok]
        assert failing == [], (seed, failing)


@pytest.mark.parametrize(
    "extra, digest",
    [
        (["--samples", "10"], "11d3d71b2857f89c52341c7d3e2cb6b483e3f52c8dca649f7be00134a2c99f9f"),
        ([], "cda076b8715e4d37b2de540a3d366835440785a60005ef3ee46c5e93278249fc"),
    ],
    ids=["samples-10", "default-samples"],
)
def test_verify_all_bytes_pinned(extra, digest):
    # the report of a fixed seed and sample count stays byte-identical across
    # refactors of the checkers and of the arithmetic kernels
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["verify-all", "--seed", "7", *extra])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("seed, samples", [(7, 10), (3, 30)])
def test_every_property_runs_alone(seed, samples):
    # each row of the table, run by itself and in reverse order, reproduces its
    # report from the full run, and running it again reproduces it once more: a
    # property can be rerun without the others, and a row holds no used-up state
    scenario = canonical_scenario()
    full = [jsonable(r) for r in verify_all(scenario, seed, samples)]
    rows = list(properties(scenario, seed, samples))
    names = [name for name, _ in rows]
    assert len(names) == len(set(names))
    for _ in range(2):
        alone = [jsonable(replace(check(), prop=name)) for name, check in reversed(rows)]
        assert alone[::-1] == full


def test_projection_row_passes_its_seed_to_check_projection(monkeypatch):
    # past 64 events check_projection samples the events it checks, so each
    # trial must reach it with its own seed, the row's seed plus the trial
    # index, or every trial of every row checks the same events
    from condind import battery, parse_scenario, stochastic

    inner, sample = battery.check_projection, stochastic.enumerate_or_sample
    seeds, event_sets = [], []

    def spy(*args, **kwargs):
        call = inspect.signature(inner).bind(*args, **kwargs)
        call.apply_defaults()
        seeds.append(call.arguments["seed"])
        return inner(*args, **kwargs)

    def sample_spy(*args):
        events, notes = sample(*args)
        assert notes  # 21 cells: sampled
        event_sets.append(frozenset(ev.members for ev in events))
        return events, notes

    monkeypatch.setattr(battery, "check_projection", spy)
    monkeypatch.setattr(stochastic, "enumerate_or_sample", sample_spy)
    big = parse_scenario(pairs_doc(42))
    (row,) = [run for name, run in properties(big, 8, 10) if name == "projection:esssup"]
    assert row().ok
    assert seeds == list(range(8, 28))  # the row's 20 trials
    assert len(event_sets) == 20 and len(set(event_sets)) > 1


def test_projection_row_reports_one_past_cap_note(monkeypatch):
    # each trial samples its own events, EVENT_SAMPLES distinct ones, so the
    # row says once, like the other sampling rows, how many each trial checked
    from condind import parse_scenario, stochastic
    from condind.space import EVENT_SAMPLES

    sample, counts = stochastic.enumerate_or_sample, []

    def sample_spy(*args):
        events, notes = sample(*args)
        counts.append(len(set(events)))
        return events, notes

    monkeypatch.setattr(stochastic, "enumerate_or_sample", sample_spy)
    big = parse_scenario(pairs_doc(42))
    (row,) = [run for name, run in properties(big, 8, 10) if name == "projection:esssup"]
    rep = row()
    assert rep.ok and counts == [EVENT_SAMPLES] * 20
    assert rep.notes == ("partial: sampled 64 of 2^21 events",)


def test_verify_all_on_twelve_atoms_within_budget():
    # F2 has 12 cells, so 4,096 events: locality must check the empty event
    # and the cells, not every union of them
    import time
    from condind import parse_scenario

    atoms = [f"w{i}" for i in range(12)]
    doc = {
        "atoms": [{"label": a, "prob": f"{i % 3 + 1}/24"} for i, a in enumerate(atoms)],
        "partitions": {
            "F0": [atoms],
            "H": [atoms[i:i + 2] for i in range(0, 12, 2)],
            "F2": [[a] for a in atoms],
        },
        "filtration": ["F0", "H", "F2"],
        "variables": {"X": {a: str(i - 3) for i, a in enumerate(atoms)}},
    }
    start = time.perf_counter()
    reports = verify_all(parse_scenario(doc), seed=7, samples=20)
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in reports)
    assert any(r.prop == "locality:esssup@F2" for r in reports)
    # H has 6 cells, so 64 = EVENT_SAMPLES events: every event check lists them all
    assert not [r.prop for r in reports if any(n.startswith("partial: sampled") for n in r.notes)]
    assert elapsed < 10, f"verify-all on 12 atoms took {elapsed:.2f}s (budget 10s)"


def test_verify_all_has_no_event_cliff():
    # past 64 events every event check samples 64 of them, so the cost of a
    # draw no longer grows 4x per two cells: H has 16 cells, 65,536 events
    import time
    from condind import parse_scenario

    start = time.perf_counter()
    reports = verify_all(parse_scenario(pairs_doc(32)), seed=7, samples=10)
    elapsed = time.perf_counter() - start
    assert [r.prop for r in reports if not r.ok] == []
    assert elapsed < 10, f"verify-all on pairs_doc(32) took {elapsed:.2f}s (budget 10s)"
