"""Seeded case generation for the property checkers.

Universal quantifiers over random variables become corner cases plus seeded
random draws (exact rationals; infinities mixed in where the property allows
them). Seeds are derived per property label via sha256 so that reports are
reproducible and independent checks do not share streams.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence

from .extreal import NEG_INF, POS_INF, ExtReal, ext
from .space import Event, FiniteProbabilitySpace, Partition, RandomVariable
from .space import _on_cells, _pack, _pack_triples, _packed

# canonical value grid used by exhaustive sweeps
GRID_VALUES: tuple[ExtReal, ...] = (
    NEG_INF,
    ext(-2),
    ext(-1),
    ext(0),
    ext(Fraction(1, 2)),
    ext(1),
    ext(2),
    POS_INF,
)
FINITE_GRID: tuple[ExtReal, ...] = tuple(v for v in GRID_VALUES if v.is_finite)

# scaling coefficients, finite, with 0 and negatives; not 1: F(1 X) = 1 F(X) for every F
ALPHA_GRID: tuple[Fraction, ...] = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(2),
)
# strict mixture weights: at 0 and 1 the mixture is Y or X, where the law cannot fail
UNIT_GRID: tuple[Fraction, ...] = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
NONNEG_ALPHA_GRID: tuple[Fraction, ...] = tuple(a for a in ALPHA_GRID if a >= 0)


def derive_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw(rng: random.Random, allow_inf: bool, nonneg: bool) -> tuple[int, int, int]:
    # one value as (tag, numerator, denominator), tag -1/0/+1 for -inf/finite/+inf
    if allow_inf and rng.random() < 0.12:
        if nonneg:
            return 1, 0, 1
        return (1 if rng.random() < 0.5 else -1), 0, 1
    num = rng.randint(-8, 8)
    den = rng.choice((1, 1, 2, 3, 4))
    return 0, abs(num) if nonneg else num, den


def sample_rv(
    space: FiniteProbabilitySpace,
    rng: random.Random,
    allow_inf: bool = True,
    nonneg: bool = False,
) -> RandomVariable:
    return _packed(space, *_pack_triples([_draw(rng, allow_inf, nonneg) for _ in space.atoms]))


def sample_measurable(
    partition: Partition,
    rng: random.Random,
    allow_inf: bool = False,
    nonneg: bool = False,
) -> RandomVariable:
    return _on_cells(partition, *_pack_triples([_draw(rng, allow_inf, nonneg) for _ in partition.cells]))


def sample_dominating_pair(
    space: FiniteProbabilitySpace, rng: random.Random, allow_inf: bool = True
) -> tuple[RandomVariable, RandomVariable]:
    """(X, Y) with X <= Y atomwise: Y adds a nonnegative bump to X."""
    X = sample_rv(space, rng, allow_inf)
    bump = sample_rv(space, rng, allow_inf, nonneg=True)
    return X, X + bump


def corner_rvs(space: FiniteProbabilitySpace, allow_inf: bool = True) -> Iterator[RandomVariable]:
    """The corner cases, built as they are taken; they draw nothing."""
    n = space.size
    yield RandomVariable.constant(space, 0)
    yield RandomVariable.constant(space, 1)
    yield RandomVariable.constant(space, -1)
    for i in range(n):
        yield RandomVariable.indicator(Event(space, frozenset({i})))
    if allow_inf and n >= 2:
        finite = (0,) * (n - 2)
        yield _packed(space, (1, 0) + finite, (0,) * n, 1)  # +inf, then 0s
        yield _packed(space, (1, -1) + finite, (0, 0) + (1,) * (n - 2), 1)  # +inf, -inf, then 1s


def iter_cases(
    space: FiniteProbabilitySpace,
    rng: random.Random,
    samples: int,
    allow_inf: bool = True,
    nonneg: bool = False,
) -> Iterator[RandomVariable]:
    """Corner cases first, then seeded random draws, `samples` total."""
    corners = corner_rvs(space, allow_inf)
    if nonneg:
        corners = filter(RandomVariable.is_nonnegative, corners)
    draws = (sample_rv(space, rng, allow_inf, nonneg) for _ in itertools.count())
    yield from itertools.islice(itertools.chain(corners, draws), max(samples, 0))


@lru_cache(maxsize=8)
def _grid_rows(
    n: int, grid: tuple[ExtReal, ...]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    # Every length-n row over the grid, in product order, as reduced
    # (tags, numerators, denominator): ints only, so the cache keeps no
    # space and no variable alive.
    kinds, nums, den = _pack(grid)
    rows = []
    for combo in itertools.product(list(zip(kinds, nums)), repeat=n):
        tags, row = zip(*combo)
        g = gcd(den, *row)
        rows.append((tags, tuple([x // g for x in row]), den // g))
    return tuple(rows)


def exhaustive_grid_rvs(
    space: FiniteProbabilitySpace, grid: Sequence[ExtReal] = GRID_VALUES
) -> Iterator[RandomVariable]:
    for tags, nums, den in _grid_rows(space.size, tuple(grid)):
        yield _packed(space, tags, nums, den)


def sample_event(partition: Partition, rng: random.Random) -> Event:
    members: set[int] = set()
    for cell in partition.cells:
        if rng.random() < 0.5:
            members.update(cell)
    return Event(partition.space, frozenset(members))
