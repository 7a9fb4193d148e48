"""Finite probability spaces, partitions as sigma-algebras, and random variables.

Atoms all carry strictly positive rational mass, so "almost surely" is
"everywhere" and every equality in the package is exact. A sub-sigma-algebra
is a partition of the atom set; refinement of partitions models inclusion of
sigma-algebras. Random variables are atom-indexed ExtReal vectors.

Each space also keeps integer atom weights: with D the least common
denominator of the probabilities, atom i weighs ``probs[i] * D``. Means are
weight sums over ints, so a cell mean costs one ``Fraction`` normalisation
instead of one per atom, and the value is the same exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import CapExceededError, SpaceMismatchError, ValidationError
from .extreal import _FIN, NEG_INF, POS_INF, ZERO, ExtReal, ext

DEFAULT_EVENT_CAP = 20


@dataclass(frozen=True)
class FiniteProbabilitySpace:
    """Ordered atoms with strictly positive rational probabilities summing to 1."""

    atoms: tuple[str, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.probs):
            raise ValidationError("atoms and probs must have equal length")
        if not self.atoms:
            raise ValidationError("space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValidationError("atom labels must be unique")
        for label, p in zip(self.atoms, self.probs):
            if p <= 0:
                raise ValidationError(f"null atom {label!r}: probabilities must be > 0")
        try:
            D = lcm(*(p.denominator for p in self.probs))
        except AttributeError:
            raise ValidationError("probabilities must be exact rationals") from None
        weights = tuple(p.numerator * (D // p.denominator) for p in self.probs)
        if sum(weights) != D:
            raise ValidationError("probabilities must sum to exactly 1")
        # integer atom weights probs[i] * D, read by `cell_mean`
        object.__setattr__(self, "_weights", weights)

    @staticmethod
    def uniform(labels: Sequence[str]) -> "FiniteProbabilitySpace":
        n = len(labels)
        return FiniteProbabilitySpace(tuple(labels), (Fraction(1, n),) * n)

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index_of(self, label: str) -> int:
        try:
            return self.atoms.index(label)
        except ValueError:
            raise ValidationError(f"unknown atom label {label!r}") from None


def _require_same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError("objects live on different probability spaces")


@dataclass(frozen=True)
class Event:
    """A subset of the atoms, stored as indices into the space's atom tuple."""

    space: FiniteProbabilitySpace
    members: frozenset[int]

    def __post_init__(self):
        if any(i < 0 or i >= self.space.size for i in self.members):
            raise ValidationError("event contains an out-of-range atom index")

    @staticmethod
    def from_labels(space: FiniteProbabilitySpace, labels: Iterable[str]) -> "Event":
        return Event(space, frozenset(space.index_of(l) for l in labels))

    @staticmethod
    def empty(space: FiniteProbabilitySpace) -> "Event":
        return Event(space, frozenset())

    @staticmethod
    def full(space: FiniteProbabilitySpace) -> "Event":
        return Event(space, frozenset(range(space.size)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.atoms[i] for i in sorted(self.members))

    def complement(self) -> "Event":
        return Event(self.space, frozenset(range(self.space.size)) - self.members)

    def union(self, other: "Event") -> "Event":
        _require_same_space(self, other)
        return Event(self.space, self.members | other.members)

    def prob(self) -> Fraction:
        return sum((self.space.probs[i] for i in self.members), Fraction(0))

    def is_empty(self) -> bool:
        return not self.members


@dataclass(frozen=True)
class Partition:
    """A sigma-algebra presented as a partition of the atom set.

    Canonical form: each cell's indices ascending, cells ordered by their
    smallest index, so structurally equal partitions compare equal.
    """

    space: FiniteProbabilitySpace
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cell in self.cells:
            if not cell:
                raise ValidationError("partition cells must be nonempty")
            if list(cell) != sorted(set(cell)):
                raise ValidationError("cell indices must be distinct and sorted ascending")
            if seen & set(cell):
                raise ValidationError("partition cells must be disjoint")
            seen.update(cell)
        if seen != set(range(self.space.size)):
            raise ValidationError("partition cells must cover all atoms")
        if list(self.cells) != sorted(self.cells, key=lambda c: c[0]):
            raise ValidationError("cells must be ordered by smallest atom index")
        object.__setattr__(
            self, "_cell_of", tuple(self._build_cell_of())
        )

    def _build_cell_of(self) -> list[int]:
        lookup = [0] * self.space.size
        for ci, cell in enumerate(self.cells):
            for i in cell:
                lookup[i] = ci
        return lookup

    @staticmethod
    def from_cells(space: FiniteProbabilitySpace, cells: Iterable[Iterable[int]]) -> "Partition":
        canon = sorted((tuple(sorted(c)) for c in cells), key=lambda c: c[0] if c else -1)
        return Partition(space, tuple(canon))

    @staticmethod
    def from_labels(space: FiniteProbabilitySpace, cells: Iterable[Iterable[str]]) -> "Partition":
        return Partition.from_cells(
            space, ([space.index_of(l) for l in cell] for cell in cells)
        )

    @staticmethod
    def trivial(space: FiniteProbabilitySpace) -> "Partition":
        return Partition(space, (tuple(range(space.size)),))

    @staticmethod
    def discrete(space: FiniteProbabilitySpace) -> "Partition":
        return Partition(space, tuple((i,) for i in range(space.size)))

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def cell_index_of(self, atom: int) -> int:
        return self._cell_of[atom]  # type: ignore[attr-defined]

    def cell_event(self, cell_index: int) -> Event:
        return Event(self.space, frozenset(self.cells[cell_index]))

    def label_cells(self) -> list[list[str]]:
        return [[self.space.atoms[i] for i in cell] for cell in self.cells]


@dataclass(frozen=True)
class RandomVariable:
    """One ExtReal per atom. Equality is exact (no null atoms exist)."""

    space: FiniteProbabilitySpace
    values: tuple[ExtReal, ...]

    def __post_init__(self):
        if len(self.values) != self.space.size:
            raise ValidationError("value vector length must equal atom count")

    @staticmethod
    def of(space: FiniteProbabilitySpace, values: Sequence | Mapping[str, object]) -> "RandomVariable":
        if isinstance(values, Mapping):
            missing = set(space.atoms) - set(values)
            if missing:
                raise ValidationError(f"variable missing atoms: {sorted(missing)}")
            extra = set(values) - set(space.atoms)
            if extra:
                raise ValidationError(f"variable references unknown atoms: {sorted(extra)}")
            return RandomVariable(space, tuple(ext(values[a]) for a in space.atoms))
        return RandomVariable(space, tuple(ext(v) for v in values))

    @staticmethod
    def constant(space: FiniteProbabilitySpace, value) -> "RandomVariable":
        return RandomVariable(space, (ext(value),) * space.size)

    @staticmethod
    def from_cells(partition: Partition, per_cell: Sequence[ExtReal]) -> "RandomVariable":
        """The measurable variable holding per_cell[c] on cell c of the partition."""
        cell_of = partition._cell_of  # type: ignore[attr-defined]
        return RandomVariable(partition.space, tuple([per_cell[c] for c in cell_of]))

    @staticmethod
    def indicator(event: Event) -> "RandomVariable":
        one, zero = ext(1), ZERO
        return RandomVariable(
            event.space,
            tuple(one if i in event.members else zero for i in range(event.space.size)),
        )

    # -- pointwise algebra (convention arithmetic throughout) ---------------

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return RandomVariable(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return RandomVariable(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return RandomVariable(self.space, tuple(a * b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "RandomVariable":
        return RandomVariable(self.space, tuple(-a for a in self.values))

    def scale(self, alpha) -> "RandomVariable":
        a = ext(alpha)
        return RandomVariable(self.space, tuple(a * v for v in self.values))

    def shift(self, alpha) -> "RandomVariable":
        a = ext(alpha)
        return RandomVariable(self.space, tuple(v + a for v in self.values))

    def pos(self) -> "RandomVariable":
        return RandomVariable(self.space, tuple(v.pos_part() for v in self.values))

    def neg(self) -> "RandomVariable":
        return RandomVariable(self.space, tuple(v.neg_part() for v in self.values))

    def max_with(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return RandomVariable(
            self.space,
            tuple(a if a >= b else b for a, b in zip(self.values, other.values)),
        )

    def min_with(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return RandomVariable(
            self.space,
            tuple(a if a <= b else b for a, b in zip(self.values, other.values)),
        )

    def le(self, other: "RandomVariable") -> bool:
        _require_same_space(self, other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def ge(self, other: "RandomVariable") -> bool:
        return other.le(self)

    def is_nonnegative(self) -> bool:
        return all(v >= ZERO for v in self.values)

    def is_finite(self) -> bool:
        return all(v.is_finite for v in self.values)

    def as_mapping(self) -> dict[str, str]:
        return {a: str(v) for a, v in zip(self.space.atoms, self.values)}


@dataclass(frozen=True)
class Filtration:
    """Ordered times with one partition per time, finer as time grows."""

    times: tuple[str, ...]
    partitions: tuple[Partition, ...]

    def __post_init__(self):
        if len(self.times) != len(self.partitions):
            raise ValidationError("times and partitions must have equal length")
        if not self.times:
            raise ValidationError("filtration needs at least one time")
        if len(set(self.times)) != len(self.times):
            raise ValidationError("time labels must be unique")
        space = self.partitions[0].space
        for p in self.partitions:
            if p.space != space:
                raise SpaceMismatchError("filtration partitions must share one space")
        for earlier, later in zip(self.partitions, self.partitions[1:]):
            if not is_refinement(later, earlier):
                raise ValidationError(
                    "refinement violated: each later partition must refine the earlier one"
                )

    @property
    def space(self) -> FiniteProbabilitySpace:
        return self.partitions[0].space

    def at(self, time: str) -> Partition:
        try:
            return self.partitions[self.times.index(time)]
        except ValueError:
            raise ValidationError(f"unknown time label {time!r}") from None

    def index_of(self, time: str) -> int:
        try:
            return self.times.index(time)
        except ValueError:
            raise ValidationError(f"unknown time label {time!r}") from None


# -- module operations ------------------------------------------------------


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every cell of `fine` lies inside a single cell of `coarse`."""
    if fine.space != coarse.space:
        raise SpaceMismatchError("partitions live on different spaces")
    for cell in fine.cells:
        target = coarse.cell_index_of(cell[0])
        if any(coarse.cell_index_of(i) != target for i in cell[1:]):
            return False
    return True


def enumerate_events(partition: Partition, cap: int = DEFAULT_EVENT_CAP) -> list[Event]:
    """All 2^k unions of cells, empty set and full space included."""
    k = partition.cell_count
    if k > cap:
        raise CapExceededError(k, cap)
    events = []
    for mask in range(1 << k):
        members: set[int] = set()
        for ci in range(k):
            if mask >> ci & 1:
                members.update(partition.cells[ci])
        events.append(Event(partition.space, frozenset(members)))
    return events


def is_measurable(X: RandomVariable, partition: Partition) -> bool:
    """True iff X is constant on every cell of the partition."""
    _require_same_space(X, partition)
    for cell in partition.cells:
        first = X.values[cell[0]]
        if any(X.values[i] != first for i in cell[1:]):
            return False
    return True


def restrict(X: RandomVariable, event: Event) -> RandomVariable:
    """X on the event's atoms, exact 0 elsewhere (X * 1_H with 0*inf = 0)."""
    _require_same_space(X, event)
    return RandomVariable(
        X.space,
        tuple(v if i in event.members else ZERO for i, v in enumerate(X.values)),
    )


def patch(X: RandomVariable, event: Event, Y: RandomVariable) -> RandomVariable:
    """X on the event, Y off it: X*1_H + Y*1_{H^c} as a single exact splice."""
    _require_same_space(X, event)
    _require_same_space(X, Y)
    return RandomVariable(
        X.space,
        tuple(
            X.values[i] if i in event.members else Y.values[i]
            for i in range(X.space.size)
        ),
    )


def cell_mean(
    X: RandomVariable, cell: Iterable[int], weights: Sequence[int] | None = None
) -> ExtReal:
    """E(X+|C) - E(X-|C) on the atoms of one cell, convention arithmetic.

    An infinite atom makes its half-mean +inf because its mass is positive,
    so a cell holding both infinities is inf - inf = 0, one holding only
    +inf (-inf) is +inf (-inf), and an all-finite cell is the weighted mean
    sum(w_i v_i) / sum(w_i), accumulated in ints over the running common
    denominator of the values and normalised once.

    ``weights`` are integer atom weights of another measure on the space
    (default: the space's own). An infinite atom of weight 0 contributes
    0 * inf = 0 and is skipped; the cell's total weight must be positive.
    """
    values = X.values
    if weights is None:
        weights = X.space._weights  # type: ignore[attr-defined]
    num = 0
    den = 1
    mass = 0
    pos_inf = neg_inf = False
    for i in cell:
        v = values[i]
        if v.kind != _FIN:
            if not weights[i]:
                continue
            if v.kind > 0:
                pos_inf = True
            else:
                neg_inf = True
            continue
        f = v.frac
        d = f.denominator
        w = weights[i]
        mass += w
        if den % d:
            common = lcm(den, d)
            num *= common // den
            den = common
        num += w * f.numerator * (den // d)
    if pos_inf:
        return ZERO if neg_inf else POS_INF
    if neg_inf:
        return NEG_INF
    return ExtReal(Fraction(num, den * mass), _kind=_FIN)


def expectation(X: RandomVariable) -> ExtReal:
    """E(X) = E(X+) - E(X-) under the base measure: the cell mean of the whole space."""
    return cell_mean(X, range(X.space.size))
