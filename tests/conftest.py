"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from condind import (
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    canonical_scenario,
)
from condind.extreal import ExtReal, ext
from condind.sampling import GRID_VALUES


@pytest.fixture(scope="session")
def scenario():
    return canonical_scenario()


@pytest.fixture(scope="session")
def space4(scenario):
    return scenario.space


@pytest.fixture(scope="session")
def H(scenario):
    return scenario.partitions["H"]


@pytest.fixture(scope="session")
def X(scenario):
    return scenario.variables["X"]


def rv(space, *values) -> RandomVariable:
    return RandomVariable(space, tuple(ext(v) for v in values))


def values_reads(monkeypatch, run):
    """`run()`'s result, asserting that it never read RandomVariable.values."""
    reads = [0]
    values = RandomVariable.values

    def counted(self):
        reads[0] += 1
        return values.fget(self)

    monkeypatch.setattr(RandomVariable, "values", property(counted))
    result = run()
    monkeypatch.undo()
    assert reads[0] == 0
    return result


def pairs_doc(n: int) -> dict:
    """A scenario of n uniform atoms w0..w{n-1}: F0 trivial, H the n/2 pairs
    {w2j, w2j+1}, F2 discrete, filtration F0 < H < F2, and X = i - 3."""
    atoms = [f"w{i}" for i in range(n)]
    return {
        "atoms": [{"label": a, "prob": f"1/{n}"} for a in atoms],
        "partitions": {
            "F0": [atoms],
            "H": [atoms[i:i + 2] for i in range(0, n, 2)],
            "F2": [[a] for a in atoms],
        },
        "filtration": ["F0", "H", "F2"],
        "variables": {"X": {a: str(i - 3) for i, a in enumerate(atoms)}},
    }


def set_partitions(items: list):
    """All set partitions of a list, standard recursive enumeration."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def all_partitions(space: FiniteProbabilitySpace) -> list[Partition]:
    return [
        Partition.from_cells(space, p) for p in set_partitions(list(range(space.size)))
    ]


# -- independent oracles -------------------------------------------------------


def oracle_least_dominator(
    x_indices: tuple[int, ...],
    cells: tuple[tuple[int, ...], ...],
    ge_table: list[list[bool]],
    grid=GRID_VALUES,
) -> list[ExtReal]:
    """Least cell-constant dominator by ascending scan of the value grid.

    Works in grid-index space with a pairwise >= table, a different route
    than the per-cell max inside esssup_cond.
    """
    out: list[ExtReal] = [grid[0]] * len(x_indices)
    for cell in cells:
        member_idx = [x_indices[i] for i in cell]
        j = 0
        while not all(ge_table[j][i] for i in member_idx):
            j += 1
        for i in cell:
            out[i] = grid[j]
    return out


def oracle_greatest_minorant(
    x_indices: tuple[int, ...],
    cells: tuple[tuple[int, ...], ...],
    le_table: list[list[bool]],
    grid=GRID_VALUES,
) -> list[ExtReal]:
    """Greatest cell-constant minorant by descending grid scan."""
    out: list[ExtReal] = [grid[-1]] * len(x_indices)
    for cell in cells:
        member_idx = [x_indices[i] for i in cell]
        j = len(grid) - 1
        while not all(le_table[j][i] for i in member_idx):
            j -= 1
        for i in cell:
            out[i] = grid[j]
    return out


def ge_table(grid=GRID_VALUES) -> list[list[bool]]:
    return [[a >= b for b in grid] for a in grid]


def le_table(grid=GRID_VALUES) -> list[list[bool]]:
    return [[a <= b for b in grid] for a in grid]


def oracle_cell_mean(X: RandomVariable, cell: tuple[int, ...]) -> ExtReal:
    """Cell average of a finite-valued variable via the global-expectation
    route E(X 1_C)/P(C), not the cellwise accumulation."""
    from condind import Event, expectation, restrict

    ev = Event(X.space, frozenset(cell))
    mass = sum((X.space.probs[i] for i in cell), Fraction(0))
    val = expectation(restrict(X, ev))
    assert val.is_finite
    return ext(val.frac / mass)


def finite_grid_rvs(space: FiniteProbabilitySpace, values) -> list[RandomVariable]:
    vals = [ext(v) for v in values]
    return [
        RandomVariable(space, combo)
        for combo in itertools.product(vals, repeat=space.size)
    ]
