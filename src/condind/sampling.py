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
from typing import Iterator, Sequence

from .extreal import NEG_INF, POS_INF, ExtReal, ext
from .space import Event, FiniteProbabilitySpace, Partition, RandomVariable

DEFAULT_SAMPLES = 500

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

# measurable coefficients: finite rationals including 0, 1 and negatives
ALPHA_GRID: tuple[Fraction, ...] = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)
UNIT_GRID: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)
NONNEG_ALPHA_GRID: tuple[Fraction, ...] = tuple(a for a in ALPHA_GRID if a >= 0)


def derive_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-8, 8)
    den = rng.choice((1, 1, 2, 3, 4))
    return Fraction(num, den)


def sample_value(rng: random.Random, allow_inf: bool = True, nonneg: bool = False) -> ExtReal:
    if allow_inf and rng.random() < 0.12:
        if nonneg:
            return POS_INF
        return POS_INF if rng.random() < 0.5 else NEG_INF
    f = sample_fraction(rng)
    if nonneg:
        f = abs(f)
    return ext(f)


def sample_rv(
    space: FiniteProbabilitySpace,
    rng: random.Random,
    allow_inf: bool = True,
    nonneg: bool = False,
) -> RandomVariable:
    return RandomVariable(
        space, tuple(sample_value(rng, allow_inf, nonneg) for _ in space.atoms)
    )


def sample_measurable(
    partition: Partition,
    rng: random.Random,
    allow_inf: bool = False,
    nonneg: bool = False,
) -> RandomVariable:
    vals = [None] * partition.space.size
    for cell in partition.cells:
        v = sample_value(rng, allow_inf, nonneg)
        for i in cell:
            vals[i] = v
    return RandomVariable(partition.space, tuple(vals))


def sample_dominating_pair(
    space: FiniteProbabilitySpace, rng: random.Random, allow_inf: bool = True
) -> tuple[RandomVariable, RandomVariable]:
    """(X, Y) with X <= Y atomwise: Y adds a nonnegative bump to X."""
    X = sample_rv(space, rng, allow_inf)
    bump = sample_rv(space, rng, allow_inf, nonneg=True)
    return X, X + bump


def corner_rvs(space: FiniteProbabilitySpace, allow_inf: bool = True) -> list[RandomVariable]:
    n = space.size
    out = [
        RandomVariable.constant(space, 0),
        RandomVariable.constant(space, 1),
        RandomVariable.constant(space, -1),
    ]
    for i in range(n):
        unit = [ext(0)] * n
        unit[i] = ext(1)
        out.append(RandomVariable(space, tuple(unit)))
    if allow_inf and n >= 2:
        spike = [ext(0)] * n
        spike[0] = POS_INF
        out.append(RandomVariable(space, tuple(spike)))
        mixed = [ext(1)] * n
        mixed[0], mixed[1] = POS_INF, NEG_INF
        out.append(RandomVariable(space, tuple(mixed)))
    return out


def iter_cases(
    space: FiniteProbabilitySpace,
    rng: random.Random,
    samples: int,
    allow_inf: bool = True,
    nonneg: bool = False,
) -> Iterator[RandomVariable]:
    """Corner cases first, then seeded random draws, `samples` total."""
    produced = 0
    for X in corner_rvs(space, allow_inf):
        if nonneg and not X.is_nonnegative():
            continue
        if produced >= samples:
            return
        produced += 1
        yield X
    while produced < samples:
        produced += 1
        yield sample_rv(space, rng, allow_inf, nonneg)


def exhaustive_grid_rvs(
    space: FiniteProbabilitySpace, grid: Sequence[ExtReal] = GRID_VALUES
) -> Iterator[RandomVariable]:
    for combo in itertools.product(grid, repeat=space.size):
        yield RandomVariable(space, combo)


def sample_event(partition: Partition, rng: random.Random) -> Event:
    members: set[int] = set()
    for cell in partition.cells:
        if rng.random() < 0.5:
            members.update(cell)
    return Event(partition.space, frozenset(members))
