"""Finite probability spaces, partitions as sigma-algebras, and random variables.

Atoms all carry strictly positive rational mass, so "almost surely" is
"everywhere" and every equality in the package is exact. A sub-sigma-algebra
is a partition of the atom set; refinement of partitions models inclusion of
sigma-algebras. Random variables are atom-indexed extended rationals, stored
as infinity tags and integer numerators over one shared denominator, so
pointwise arithmetic and order run on ints; ExtReal scalars are built only
when ``values`` is read. A measurable result (cell means, weighted
indicators, ``from_cells``) is fixed by one value per cell, so it is reduced
over its k cell values before they are copied to its n atoms.

Each space also keeps integer atom weights: with D the least common
denominator of the probabilities, atom i weighs ``probs[i] * D``. Means are
weight sums over ints, normalised once per variable instead of once per
atom, and the value is the same exact rational.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import CapExceededError, SpaceMismatchError, ValidationError
from .extreal import _FIN, NEG_INF, POS_INF, ZERO, ExtReal, ext

DEFAULT_SAMPLES = 500
EVENT_CAP = 20  # cells past which enumerate_events refuses to list a partition's 2^k events
EVENT_SAMPLES = 64  # a check lists all 2^k events up to this many, else samples this many distinct
DEFAULT_TOL = Fraction(1, 2**40)  # rho's bisection tolerance


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
        # integer atom weights probs[i] * D, read by `cell_means`
        object.__setattr__(self, "_weights", weights)
        # the tags of every all-finite RandomVariable on the space
        object.__setattr__(self, "_finite_kinds", (0,) * len(self.atoms))

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
    if a.space is not b.space and a.space != b.space:
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
        # One pass fills the atom-to-cell table and checks each cell in turn:
        # nonempty, strictly ascending, disjoint from the earlier cells. Indices
        # outside the space fail the cover check after the last cell, as gaps do.
        n = self.space.size
        cell_of = [-1] * n
        stray: set[int] = set()
        ordered, head = True, -1
        for c, cell in enumerate(self.cells):
            if not cell:
                raise ValidationError("partition cells must be nonempty")
            prev, clash = cell[0] - 1, False
            for i in cell:
                if i <= prev:
                    raise ValidationError("cell indices must be distinct and sorted ascending")
                prev = i
                if 0 <= i < n:
                    clash = clash or cell_of[i] >= 0
                    cell_of[i] = c
                elif i in stray:
                    clash = True
                else:
                    stray.add(i)
            if clash:
                raise ValidationError("partition cells must be disjoint")
            ordered = ordered and cell[0] > head
            head = cell[0]
        if stray or -1 in cell_of:
            raise ValidationError("partition cells must cover all atoms")
        if not ordered:
            raise ValidationError("cells must be ordered by smallest atom index")
        object.__setattr__(self, "_cell_of", tuple(cell_of))

    @cached_property
    def _broadcast(self):
        # copies k per-cell values to the n atoms in one call, built on first
        # use since many partitions never carry a measurable result; a
        # one-index itemgetter would return a bare value, so one atom takes `tuple`
        cell_of, n = self._cell_of, self.space.size
        return operator.itemgetter(*cell_of) if n > 1 else tuple

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


def _tag_table(op) -> dict[tuple[int, int], int]:
    # The tag of `op`'s result for each pair of atom codes 2*kind + sign
    # (-2/+2 for -inf/+inf, -1/0/+1 for a finite value's sign), read once off
    # ExtReal's convention table: with an infinite side the result is +-inf
    # or 0, whatever the finite magnitude.
    reps = {-2: NEG_INF, -1: ExtReal(-1), 0: ZERO, 1: ExtReal(1), 2: POS_INF}
    return {(a, b): op(x, y).kind for a, x in reps.items() for b, y in reps.items()}


_ADD_TAGS = _tag_table(operator.add)
_SUB_TAGS = _tag_table(operator.sub)
_MUL_TAGS = _tag_table(operator.mul)


@lru_cache(maxsize=256)
def _finite(num: int, den: int) -> ExtReal:
    # shared: the `values` of many variables hold the same few scalars
    g = gcd(num, den)
    return ExtReal(num // g, _FIN, den // g)


_INFINITE = {1: POS_INF, -1: NEG_INF}


def _pack(values: Sequence[ExtReal]) -> tuple[tuple[int, ...], list[int], int]:
    den = lcm(*[v.den for v in values])
    return tuple([v.kind for v in values]), [v.num * (den // v.den) for v in values], den


def _pack_triples(triples: Sequence[tuple[int, int, int]]) -> tuple[list[int], list[int], int]:
    # (tag, numerator, denominator) triples as tags and numerators over their lcm
    den = lcm(*[d for _, _, d in triples])
    return [k for k, _, _ in triples], [n * (den // d) for _, n, d in triples], den


class _Unsealed:
    # RandomVariable's storage without its guard against assignment: `_packed`
    # fills one and then seals it by switching its class, which is cheaper
    # than going through object.__setattr__ once per field. `_values` and
    # `_pairs` are views built on first use (see `values` and `_keys`).
    __slots__ = ("space", "kinds", "nums", "den", "_values", "_pairs")


def _packed(space, kinds, nums, den: int, values=None) -> "RandomVariable":
    """The one constructor of RandomVariable: tags `kinds`, values
    nums[i] / den on finite atoms, reduced to the unique packed form."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    finite = space._finite_kinds
    if kinds is not finite and not any(kinds):
        kinds = finite
    rv = object.__new__(_Unsealed)
    rv.space = space
    rv.kinds = tuple(kinds)
    rv.nums = tuple(nums)
    rv.den = den
    rv._values = values
    rv._pairs = None
    rv.__class__ = RandomVariable
    rv.__post_init__()
    return rv


def _from_keys(space, keys, den: int, finite: bool) -> "RandomVariable":
    # the variable of order keys over `den`, see `RandomVariable._keys`
    if finite:
        return _packed(space, space._finite_kinds, keys, den)
    kinds, nums = zip(*keys)
    return _packed(space, kinds, nums, den)


def _on_cells(partition, kinds, nums, den: int) -> "RandomVariable":
    # The measurable variable holding tag kinds[c] and value nums[c] / den on
    # cell c. It is reduced over its k cell values before they are copied to
    # the n atoms: the atoms hold the same numerators, so the gcd is the same,
    # and `_packed`'s gcd over the atoms is then 1 and divides nothing.
    g = gcd(*nums, den)
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    space, broadcast = partition.space, partition._broadcast
    tags = broadcast(kinds) if any(kinds) else space._finite_kinds
    return _packed(space, tags, broadcast(nums), den)


def _repeat(space, v: ExtReal) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    n = space.size
    kinds = (v.kind,) * n if v.kind else space._finite_kinds
    return kinds, (v.num,) * n, v.den


class RandomVariable(_Unsealed):
    """One ExtReal per atom. Equality is exact (no null atoms exist).

    Stored packed: ``kinds`` tags each atom -1/0/+1 (-inf, finite, +inf),
    ``nums`` holds integer numerators (0 on infinite atoms) and ``den`` is
    the one denominator, the lcm of the finite values' reduced denominators.
    The form is unique, so ``==`` and ``hash`` compare it directly. An
    all-finite variable shares its space's tuple of 0 tags. ``values``, the
    ExtReal tuple, and a non-finite variable's order keys (see ``_keys``)
    are built on first use and kept.
    """

    __slots__ = ()

    def __new__(cls, space: FiniteProbabilitySpace, values: Sequence[ExtReal]):
        values = tuple(values)
        return _packed(space, *_pack(values), values)

    def __post_init__(self):
        if len(self.nums) != len(self.space.atoms):
            raise ValidationError("value vector length must equal atom count")

    @property
    def values(self) -> tuple[ExtReal, ...]:
        vals = self._values
        if vals is None:
            finite = map(_finite, self.nums, repeat(self.den))
            vals = tuple([_INFINITE[k] if k else v for k, v in zip(self.kinds, finite)])
            object.__setattr__(self, "_values", vals)
        return vals

    def __setattr__(self, name, value):
        raise AttributeError("RandomVariable is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if not isinstance(other, RandomVariable):
            return NotImplemented
        return (
            (self.space is other.space or self.space == other.space)
            and self.den == other.den
            and self.nums == other.nums
            and self.kinds == other.kinds
        )

    def __hash__(self):
        return hash((self.kinds, self.nums, self.den))

    def __repr__(self) -> str:
        return f"RandomVariable(space={self.space!r}, values={self.values!r})"

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
        return _packed(space, *_repeat(space, ext(value)))

    @staticmethod
    def from_cells(partition: Partition, per_cell: Sequence[ExtReal]) -> "RandomVariable":
        """The measurable variable holding per_cell[c] on cell c of the partition."""
        return _on_cells(partition, *_pack(per_cell))

    @staticmethod
    def indicator(event: Event) -> "RandomVariable":
        nums = [0] * event.space.size
        for i in event.members:
            nums[i] = 1
        return _packed(event.space, event.space._finite_kinds, nums, 1)

    # -- pointwise algebra (convention arithmetic throughout) ---------------

    def _arith(self, kinds, nums, den: int, tags: dict) -> "RandomVariable":
        # self OP other atomwise, other given packed and OP named by its tag
        # table: finite atoms combine as ints over one denominator, an atom
        # with an infinite side takes the table's tag and numerator 0 (the
        # formula already gives 0 where the tag is 0: inf - inf, 0 * inf).
        na, da = self.nums, self.den
        if tags is _MUL_TAGS:
            d = da * den
            out = [x * y for x, y in zip(na, nums)]
        else:
            d = lcm(da, den)
            s, t = d // da, d // den
            if tags is _SUB_TAGS:
                t = -t
            out = [x * s + y * t for x, y in zip(na, nums)]
        finite = self.space._finite_kinds
        if self.kinds is finite and kinds is finite:
            return _packed(self.space, finite, out, d)
        tagged = [
            tags[2 * a + (x > 0) - (x < 0), 2 * b + (y > 0) - (y < 0)]
            for a, x, b, y in zip(self.kinds, na, kinds, nums)
        ]
        return _packed(self.space, tagged, [0 if k else n for k, n in zip(tagged, out)], d)

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return self._arith(other.kinds, other.nums, other.den, _ADD_TAGS)

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return self._arith(other.kinds, other.nums, other.den, _SUB_TAGS)

    def __mul__(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return self._arith(other.kinds, other.nums, other.den, _MUL_TAGS)

    def __neg__(self) -> "RandomVariable":
        kinds = self.kinds
        if kinds is not self.space._finite_kinds:
            kinds = [-k for k in kinds]
        return _packed(self.space, kinds, [-n for n in self.nums], self.den)

    def scale(self, alpha) -> "RandomVariable":
        return self._arith(*_repeat(self.space, ext(alpha)), _MUL_TAGS)

    def shift(self, alpha) -> "RandomVariable":
        return self._arith(*_repeat(self.space, ext(alpha)), _ADD_TAGS)

    def pos(self) -> "RandomVariable":
        kinds = [k if k > 0 else 0 for k in self.kinds]
        return _packed(self.space, kinds, [n if n > 0 else 0 for n in self.nums], self.den)

    def neg(self) -> "RandomVariable":
        kinds = [1 if k < 0 else 0 for k in self.kinds]
        return _packed(self.space, kinds, [-n if n < 0 else 0 for n in self.nums], self.den)

    def _keys(self) -> tuple[tuple, bool]:
        """Order keys of the atoms over ``den``, and whether X is finite:
        the numerators when it is, else (tag, numerator) pairs, built on
        first use and kept."""
        if self.kinds is self.space._finite_kinds:
            return self.nums, True
        pairs = self._pairs
        if pairs is None:
            pairs = tuple(zip(self.kinds, self.nums))
            object.__setattr__(self, "_pairs", pairs)
        return pairs, False

    def _aligned(self, other: "RandomVariable") -> tuple[list, list, int, bool]:
        """Both variables' order keys over one common denominator d."""
        _require_same_space(self, other)
        d = lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        a = [n * s for n in self.nums]
        b = [n * t for n in other.nums]
        finite = self.space._finite_kinds
        if self.kinds is finite and other.kinds is finite:
            return a, b, d, True
        return list(zip(self.kinds, a)), list(zip(other.kinds, b)), d, False

    def max_with(self, other: "RandomVariable") -> "RandomVariable":
        a, b, d, finite = self._aligned(other)
        return _from_keys(self.space, [x if x >= y else y for x, y in zip(a, b)], d, finite)

    def min_with(self, other: "RandomVariable") -> "RandomVariable":
        a, b, d, finite = self._aligned(other)
        return _from_keys(self.space, [x if x <= y else y for x, y in zip(a, b)], d, finite)

    def le(self, other: "RandomVariable") -> bool:
        a, b, _, _ = self._aligned(other)
        return all(map(operator.le, a, b))

    def ge(self, other: "RandomVariable") -> bool:
        return other.le(self)

    def is_nonnegative(self) -> bool:
        return -1 not in self.kinds and min(self.nums) >= 0

    def is_finite(self) -> bool:
        return not any(self.kinds)

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
        return self.partitions[self.index_of(time)]

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


def enumerate_events(partition: Partition) -> list[Event]:
    """All 2^k unions of cells, empty set and full space included; event i
    holds cell c iff bit c of i is set."""
    k = partition.cell_count
    if k > EVENT_CAP:
        raise CapExceededError(f"partition has {k} cells, enumeration cap is {EVENT_CAP}")
    unions: list[frozenset[int]] = [frozenset()]
    for cell in partition.cells:
        unions += [u.union(cell) for u in unions]
    return [Event(partition.space, u) for u in unions]


def is_measurable(X: RandomVariable, partition: Partition) -> bool:
    """True iff X is constant on every cell of the partition."""
    _require_same_space(X, partition)
    keys, _ = X._keys()
    for cell in partition.cells:
        first = keys[cell[0]]
        if any(keys[i] != first for i in cell[1:]):
            return False
    return True


def restrict(X: RandomVariable, event: Event) -> RandomVariable:
    """X on the event's atoms, exact 0 elsewhere (X * 1_H with 0*inf = 0)."""
    _require_same_space(X, event)
    m = event.members
    kinds = X.kinds
    if kinds is not X.space._finite_kinds:
        kinds = [k if i in m else 0 for i, k in enumerate(kinds)]
    return _packed(X.space, kinds, [n if i in m else 0 for i, n in enumerate(X.nums)], X.den)


def patch(X: RandomVariable, event: Event, Y: RandomVariable) -> RandomVariable:
    """X on the event, Y off it: X*1_H + Y*1_{H^c} as a single exact splice."""
    _require_same_space(X, event)
    a, b, d, finite = X._aligned(Y)
    m = event.members
    return _from_keys(X.space, [x if i in m else y for i, (x, y) in enumerate(zip(a, b))], d, finite)


def _cell_means(
    X: RandomVariable, cells: Iterable[Iterable[int]], weights: Sequence[int]
) -> tuple[list[int], list[int], int]:
    # Each cell's mean as a tag and a numerator over one common denominator:
    # X.den times the lcm of the all-finite cells' integer masses.
    kinds, nums = X.kinds, X.nums
    means = []
    for cell in cells:
        s = m = 0
        pos_inf = neg_inf = False
        for i in cell:
            if not kinds[i]:
                s += weights[i] * nums[i]
                m += weights[i]
            elif weights[i]:
                pos_inf = pos_inf or kinds[i] > 0
                neg_inf = neg_inf or kinds[i] < 0
        means.append((pos_inf - neg_inf, 0, 1) if pos_inf or neg_inf else (0, s, m))
    L = lcm(*[m for _, _, m in means])
    return [t for t, _, _ in means], [s * (L // m) for _, s, m in means], X.den * L


def cell_means(
    X: RandomVariable, partition: Partition, weights: Sequence[int] | None = None
) -> RandomVariable:
    """E(X+|C) - E(X-|C) on each cell C of the partition, convention arithmetic.

    An infinite atom makes its half-mean +inf because its mass is positive,
    so a cell holding both infinities is inf - inf = 0, one holding only
    +inf (-inf) is +inf (-inf), and an all-finite cell is the weighted mean
    sum(w_i v_i) / sum(w_i), summed in ints over X's denominator.

    ``weights`` are integer atom weights of another measure on the space
    (default: the space's own). An infinite atom of weight 0 contributes
    0 * inf = 0 and is skipped; each cell's total weight must be positive.
    """
    if weights is None:
        weights = X.space._weights  # type: ignore[attr-defined]
    return _on_cells(partition, *_cell_means(X, partition.cells, weights))


def expectation(X: RandomVariable) -> ExtReal:
    """E(X) = E(X+) - E(X-) under the base measure: the mean of the one cell."""
    (tag,), (num,), den = _cell_means(X, (range(X.space.size),), X.space._weights)  # type: ignore[attr-defined]
    return _INFINITE[tag] if tag else _finite(num, den)
