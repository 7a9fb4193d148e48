"""Spaces, partitions, events, random variables, filtrations."""

import itertools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from condind import (
    Event,
    Filtration,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    enumerate_events,
    essinf_cond,
    esssup_cond,
    expectation,
    ext_cond_expectation_closed_form,
    is_measurable,
    is_refinement,
    patch,
    restrict,
    weighted_indicator,
)
from condind.errors import CapExceededError, SpaceMismatchError, ValidationError
from condind.extreal import NEG_INF, POS_INF, ZERO, ext
from condind.battery import sample_normalized_density
from condind.space import _cell_means, _pack, _packed, cell_means

from conftest import all_partitions, rv, set_partitions


def test_space_rejects_null_atoms():
    with pytest.raises(ValidationError, match="null atom"):
        FiniteProbabilitySpace(("a", "b"), (Fraction(1), Fraction(0)))


def test_space_rejects_bad_mass():
    with pytest.raises(ValidationError, match="sum"):
        FiniteProbabilitySpace(("a", "b"), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValidationError, match="unique"):
        FiniteProbabilitySpace(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))


def test_partition_canonical_form(space4):
    p = Partition.from_labels(space4, [["c", "d"], ["b", "a"]])
    assert p.cells == ((0, 1), (2, 3))
    q = Partition.from_labels(space4, [["a", "b"], ["c", "d"]])
    assert p == q  # structural equality of sigma-algebras


def test_partition_must_cover_and_be_disjoint(space4):
    with pytest.raises(ValidationError):
        Partition.from_labels(space4, [["a", "b"], ["b", "c", "d"]])
    with pytest.raises(ValidationError):
        Partition.from_labels(space4, [["a", "b"], ["c"]])


def _reference_cell_of(n: int, cells) -> tuple[int, ...]:
    # The set-based validator Partition used before its one-pass form: the
    # same checks and messages in the same order, then the atom-to-cell table.
    seen: set[int] = set()
    for cell in cells:
        if not cell:
            raise ValidationError("partition cells must be nonempty")
        if list(cell) != sorted(set(cell)):
            raise ValidationError("cell indices must be distinct and sorted ascending")
        if seen & set(cell):
            raise ValidationError("partition cells must be disjoint")
        seen.update(cell)
    if seen != set(range(n)):
        raise ValidationError("partition cells must cover all atoms")
    if list(cells) != sorted(cells, key=lambda c: c[0]):
        raise ValidationError("cells must be ordered by smallest atom index")
    lookup = [0] * n
    for ci, cell in enumerate(cells):
        for i in cell:
            lookup[i] = ci
    return tuple(lookup)


def _verdict(validate):
    try:
        return "ok", validate()
    except ValidationError as exc:
        return "rejected", str(exc)


def _partition_cases():
    # every canonical partition of 1-4 atoms, each cut, swapped and
    # unsorted, then random cell lists over indices -2..n+1
    for n in range(1, 5):
        for blocks in set_partitions(list(range(n))):
            canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
            yield n, canon
            yield n, canon[:-1]
            yield n, canon[::-1]
            yield n, canon + ((),)
            yield n, tuple(c[::-1] for c in canon)
            yield n, canon + (canon[0],)
    yield from [
        (3, ()), (3, ((),)), (3, ((0, 1, 2), ())), (3, ((), (0, 1, 2))), (3, ((0, 0, 1, 2),)),
        (3, ((0, 1), (1, 2))), (3, ((0, 2), (1, 1))), (3, ((0, 1), (2, 1))), (3, ((0, 1), (3,), (2,))),
        (3, ((-1, 0, 1, 2),)), (3, ((0, 1, 2, 3),)), (3, ((-1,), (-1,), (0, 1, 2))),
        (3, ((2,), (0, 1))), (3, ((1, 2), (0,))), (3, ((0,), (2,), (1,))), (3, ((-2, -1), (0, 1, 2))),
        (3, ((0, 1), (1, 0))), (3, ((5, 4), (0, 1, 2))), (3, ((0, 1, 2), (3, 3))),
    ]
    rng = random.Random(20)
    for _ in range(3000):
        n = rng.randint(1, 5)
        cells = []
        for _ in range(rng.randint(0, 4)):
            cell = [rng.randint(-2, n + 1) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.7:
                cell.sort()
            cells.append(tuple(cell))
        if rng.random() < 0.5:
            cells.sort(key=lambda c: c[0] if c else -9)
        yield n, tuple(cells)


def test_partition_validation_matches_the_set_based_reference():
    spaces = {n: FiniteProbabilitySpace.uniform([f"s{i}" for i in range(n)]) for n in range(1, 6)}
    verdicts = set()
    for n, cells in _partition_cases():
        want = _verdict(lambda: _reference_cell_of(n, cells))
        got = _verdict(lambda: Partition(spaces[n], cells)._cell_of)
        assert got == want, (n, cells)
        verdicts.add(want[0] if want[0] == "ok" else want[1])
    assert len(verdicts) == 6  # accepted, and each of the five messages


def test_refinement_examples(space4):
    fine = Partition.from_labels(space4, [["a"], ["b"], ["c", "d"]])
    coarse = Partition.from_labels(space4, [["a", "b"], ["c", "d"]])
    assert is_refinement(fine, coarse)
    assert is_refinement(coarse, coarse)
    crossed = Partition.from_labels(space4, [["a", "c"], ["b", "d"]])
    assert not is_refinement(crossed, coarse)


def test_refinement_requires_same_space(space4):
    other = FiniteProbabilitySpace.uniform(["x", "y"])
    with pytest.raises(SpaceMismatchError):
        is_refinement(Partition.trivial(other), Partition.trivial(space4))


def test_refinement_is_a_partial_order():
    space = FiniteProbabilitySpace.uniform(["a", "b", "c", "d"])
    parts = all_partitions(space)
    for p in parts:
        assert is_refinement(p, p)  # reflexive
    for p in parts:
        for q in parts:
            if is_refinement(p, q) and is_refinement(q, p):
                assert p == q  # antisymmetric on canonical forms
            for r in parts:
                if is_refinement(p, q) and is_refinement(q, r):
                    assert is_refinement(p, r)  # transitive


def test_enumerate_events_counts(space4, H):
    assert len(enumerate_events(H)) == 4
    trivial = Partition.trivial(space4)
    evs = enumerate_events(trivial)
    assert {frozenset(e.labels) for e in evs} == {frozenset(), frozenset("abcd")}
    three = Partition.from_labels(space4, [["a"], ["b"], ["c", "d"]])
    evs3 = enumerate_events(three)
    assert len(evs3) == 8
    cells = [frozenset(c) for c in three.cells]
    for e in evs3:
        # every event is a union of cells
        assert all(c <= e.members or not (c & e.members) for c in cells)


def test_enumerate_events_is_a_sigma_algebra(space4):
    three = Partition.from_labels(space4, [["a"], ["b"], ["c", "d"]])
    evs = {e.members for e in enumerate_events(three)}
    for e in enumerate_events(three):
        assert e.complement().members in evs
        for f in enumerate_events(three):
            assert e.union(f).members in evs


def test_enumerate_events_cap():
    cells21 = Partition.discrete(FiniteProbabilitySpace.uniform([f"w{i}" for i in range(21)]))
    with pytest.raises(CapExceededError) as exc:
        enumerate_events(cells21)
    assert str(exc.value) == "partition has 21 cells, enumeration cap is 20"


@pytest.mark.parametrize("k", range(1, 6))
def test_enumerate_events_bit_order(k):
    # k cells of two atoms each: event i is the union of the cells c whose bit c of i is set
    space = FiniteProbabilitySpace.uniform([f"w{i}" for i in range(2 * k)])
    part = Partition.from_labels(space, [[f"w{2 * c}", f"w{2 * c + 1}"] for c in range(k)])
    events = enumerate_events(part)
    assert len(events) == 1 << k
    for i, ev in enumerate(events):
        assert ev.members == {a for c in range(k) if i >> c & 1 for a in part.cells[c]}, i


def test_is_measurable(space4, H):
    assert is_measurable(rv(space4, 3, 3, 6, 6), H)
    assert not is_measurable(rv(space4, 1, 3, 2, 6), H)
    discrete = Partition.discrete(space4)
    assert is_measurable(rv(space4, 1, 3, 2, 6), discrete)


def test_order_keys_are_built_once_per_variable(space4):
    values = ("-inf", "1/2", "inf", "-3")
    X = rv(space4, *values)
    keys, finite = X._keys()
    assert not finite and keys == tuple(zip(X.kinds, X.nums))
    assert X._keys()[0] is keys
    Y = rv(space4, 1, "2/3", -4, 0)
    assert Y._keys() == (Y.nums, True) and Y._keys()[0] is Y.nums
    for Z in (X, Y):
        for P in all_partitions(space4):
            fresh = RandomVariable(space4, Z.values)
            assert fresh._pairs is None
            assert esssup_cond(fresh, P) == esssup_cond(Z, P)
            assert essinf_cond(fresh, P) == essinf_cond(Z, P)
            assert is_measurable(fresh, P) is is_measurable(Z, P)


def test_restrict(space4):
    X = rv(space4, 1, 3, 2, 6)
    Hab = Event.from_labels(space4, ["a", "b"])
    assert restrict(X, Hab) == rv(space4, 1, 3, 0, 0)
    spiky = RandomVariable(space4, (POS_INF, ext(1), ext(2), ext(3)))
    assert restrict(spiky, Event.empty(space4)) == rv(space4, 0, 0, 0, 0)
    assert restrict(spiky, Event.full(space4)) == spiky


def test_patch(space4):
    X = rv(space4, 1, 1, 1, 1)
    Y = rv(space4, 2, 2, 2, 2)
    ev = Event.from_labels(space4, ["a", "d"])
    assert patch(X, ev, Y) == rv(space4, 1, 2, 2, 1)


def test_rv_validation(space4):
    with pytest.raises(ValidationError):
        RandomVariable(space4, (ext(1),))
    with pytest.raises(ValidationError, match="missing"):
        RandomVariable.of(space4, {"a": 1, "b": 2, "c": 3})
    with pytest.raises(ValidationError, match="unknown"):
        RandomVariable.of(space4, {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5})


def test_rv_algebra_uses_conventions(space4):
    X = RandomVariable(space4, (POS_INF, NEG_INF, ext(1), ext(0)))
    Y = RandomVariable(space4, (NEG_INF, NEG_INF, ext(2), POS_INF))
    assert (X + Y).values == (ext(0), NEG_INF, ext(3), POS_INF)
    assert (X - Y).values == (POS_INF, ext(0), ext(-1), NEG_INF)
    assert (X.scale(0)).values == (ext(0),) * 4
    assert X.pos().values == (POS_INF, ext(0), ext(1), ext(0))
    assert X.neg().values == (ext(0), POS_INF, ext(0), ext(0))


def test_expectation_convention(space4):
    assert expectation(rv(space4, 1, 3, 2, 6)) == ext(3)
    assert expectation(RandomVariable(space4, (POS_INF, ext(0), ext(0), ext(0)))) == POS_INF
    both = RandomVariable(space4, (POS_INF, NEG_INF, ext(0), ext(0)))
    assert expectation(both) == ext(0)  # E(X+) - E(X-) = inf - inf


def reference_half_mean(X: RandomVariable, cell, positive: bool):
    # the two-half Fraction loop the integer kernel replaced: an infinite atom
    # forces +inf because its mass is positive
    total = mass = Fraction(0)
    for i in cell:
        v = X.values[i]
        h = v.pos_part() if positive else v.neg_part()
        if h.is_pos_inf:
            return POS_INF
        p = X.space.probs[i]
        mass += p
        total += p * h.frac
    return ext(total / mass)


def reference_cell_mean(X: RandomVariable, cell):
    return reference_half_mean(X, cell, True) - reference_half_mean(X, cell, False)


def test_cell_mean_kernel_matches_two_half_reference():
    space = FiniteProbabilitySpace(
        ("a", "b", "c"), (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    )
    grid = (NEG_INF, ext(-2), ext("-1/3"), ZERO, ext("1/2"), ext(3), POS_INF)
    partitions = all_partitions(space)
    assert len(partitions) == 5
    doubly_infinite = 0
    for values in itertools.product(grid, repeat=3):
        X = RandomVariable(space, values)
        assert expectation(X) == reference_cell_mean(X, range(3))
        for H in partitions:
            want = [ZERO] * 3
            for cell in H.cells:
                m = reference_cell_mean(X, cell)
                for i in cell:
                    want[i] = m
                doubly_infinite += {POS_INF, NEG_INF} <= {values[i] for i in cell}
            assert ext_cond_expectation_closed_form(X, H).values == tuple(want)
    assert doubly_infinite > 0


def test_filtration_checks_refinement(space4, H):
    trivial = Partition.trivial(space4)
    discrete = Partition.discrete(space4)
    Filtration(("t0", "t1", "t2"), (trivial, H, discrete))
    with pytest.raises(ValidationError, match="refinement"):
        Filtration(("t0", "t1"), (H, trivial))


def test_event_prob(space4):
    assert Event.from_labels(space4, ["a", "b"]).prob() == Fraction(1, 2)


PACKED_GRID = (NEG_INF, ext(-2), ext("-1/3"), ZERO, ext("1/2"), ext(3), POS_INF)
# scalars of the arithmetic sweep, 1 included
SCALARS = tuple(map(Fraction, (-2, -1, "-1/2", 0, "1/2", 1, 2)))


def assert_packed(got: RandomVariable, want) -> None:
    # equal to the variable packed from the reference values, hash included
    ref = RandomVariable(got.space, tuple(want))
    assert got == ref and hash(got) == hash(ref)
    assert got.values == ref.values


def test_packed_ops_match_extreal_reference():
    # every packed op against elementwise ExtReal arithmetic on the grid
    two = FiniteProbabilitySpace(("a", "b"), (Fraction(1, 3), Fraction(2, 3)))
    pairs = [RandomVariable(two, v) for v in itertools.product(PACKED_GRID, repeat=2)]
    events2 = enumerate_events(Partition.discrete(two))
    for X in pairs:
        for Y in pairs:
            xy = list(zip(X.values, Y.values))
            for op in (operator.add, operator.sub, operator.mul):
                assert_packed(op(X, Y), [op(a, b) for a, b in xy])
            assert X.le(Y) == all(a <= b for a, b in xy)
            assert_packed(X.max_with(Y), [a if a >= b else b for a, b in xy])
            assert_packed(X.min_with(Y), [a if a <= b else b for a, b in xy])
            for ev in events2:
                assert_packed(patch(X, ev, Y), [a if i in ev.members else b for i, (a, b) in enumerate(xy)])

    space = FiniteProbabilitySpace(("a", "b", "c"), (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    partitions = all_partitions(space)
    assert len(partitions) == 5
    for values in itertools.product(PACKED_GRID, repeat=3):
        X = RandomVariable(space, values)
        assert_packed(-X, [-v for v in values])
        assert_packed(X.pos(), [v.pos_part() for v in values])
        assert_packed(X.neg(), [v.neg_part() for v in values])
        assert X.is_nonnegative() == all(v >= ZERO for v in values)
        assert X.is_finite() == all(v.is_finite for v in values)
        for alpha in SCALARS:
            a = ext(alpha)
            assert_packed(X.scale(alpha), [a * v for v in values])
            assert_packed(X.shift(alpha), [v + a for v in values])
        for H in partitions:
            sup, inf = list(values), list(values)
            for cell in H.cells:
                for i in cell:
                    sup[i] = max(values[j] for j in cell)
                    inf[i] = min(values[j] for j in cell)
            assert_packed(esssup_cond(X, H), sup)
            assert_packed(essinf_cond(X, H), inf)
            assert is_measurable(X, H) == (sup == inf)
            for ev in enumerate_events(H):
                assert_packed(restrict(X, ev), [v if i in ev.members else ZERO for i, v in enumerate(values)])

    # equal values reached by different routes are equal and hash alike
    X = RandomVariable(space, (ext("1/2"), ext("3/2"), ext(3)))
    Y = RandomVariable(space, (ext("1/2"), ext("1/2"), ext("-1/3")))
    routes = [
        X + Y - Y,
        X.scale(6).scale(Fraction(1, 6)),
        X.shift("1/3").shift("-1/3"),
        -(-X),
        RandomVariable.of(space, ["2/4", "3/2", "9/3"]),
        RandomVariable.from_cells(Partition.discrete(space), list(X.values)),
        patch(X, Event.full(space), Y),
    ]
    for other in routes:
        assert other == X and hash(other) == hash(X)
    assert X + Y == RandomVariable.of(space, [1, 2, "8/3"])
    assert hash(X + Y) == hash(RandomVariable.of(space, [1, 2, "8/3"]))


def broadcast_packed(H: Partition, kinds, nums, den: int) -> RandomVariable:
    # each cell's tag and numerator copied to its atoms, then packed
    cell_of = [H.cell_index_of(i) for i in range(H.space.size)]
    return _packed(H.space, [kinds[c] for c in cell_of], [nums[c] for c in cell_of], den)


def assert_unique_form(got: RandomVariable, want: RandomVariable) -> None:
    assert (got.kinds, got.nums, got.den) == (want.kinds, want.nums, want.den)
    assert hash(got) == hash(want)
    if not any(want.kinds):
        assert got.kinds is got.space._finite_kinds


def measurable_results(H: Partition, X: RandomVariable, density: RandomVariable):
    # (result, the same value broadcast to the atoms before any reduction)
    q = [w * n for w, n in zip(H.space._weights, density.nums)]
    yield cell_means(X, H), broadcast_packed(H, *_cell_means(X, H.cells, H.space._weights))
    yield weighted_indicator(H, density)(X), broadcast_packed(H, *_cell_means(X, H.cells, q))
    per_cell = [ext_cond_expectation_closed_form(X, H).values[cell[0]] for cell in H.cells]
    yield RandomVariable.from_cells(H, per_cell), broadcast_packed(H, *_pack(per_cell))


def test_measurable_results_reduce_to_the_unique_packed_form():
    space = FiniteProbabilitySpace.uniform([f"w{i}" for i in range(8)])
    H = Partition.from_cells(space, [(0, 1), (2, 3), (4, 5), (6, 7)])
    density = RandomVariable.of(space, ["1/2", "3/2", 1, 1, 0, 2, "1/3", "5/3"])
    cases = {
        # cell means 3, +inf, -inf and inf - inf = 0 over den 2: gcd 2
        "infinite": ["2", "4", "inf", "1", "-inf", "3", "inf", "-inf"],
        # cell means 3, 7, 11 and 15 over den 2: gcd 2
        "finite": ["2", "4", "6", "8", "10", "12", "14", "16"],
        # cell means 1/2, 1/2, 1/4 and 0 over den 24: gcd 6
        "fractions": ["1/3", "2/3", "5/6", "1/6", "-1/4", "3/4", "7", "-7"],
    }
    for values in cases.values():
        X = RandomVariable.of(space, values)
        _, nums, den = _cell_means(X, H.cells, space._weights)
        assert gcd(*nums, den) != 1
        for got, want in measurable_results(H, X, density):
            assert_unique_form(got, want)
    tags = cell_means(RandomVariable.of(space, cases["infinite"]), H).kinds
    assert tags == (0, 0, 1, 1, -1, -1, 0, 0)

    # one atom: one cell, whose tag and value the atom takes as a 1-tuple
    single = FiniteProbabilitySpace(("s",), (Fraction(1),))
    H1 = Partition.trivial(single)
    for value in ("6/4", "inf", "-inf"):
        X = RandomVariable.of(single, [value])
        for got, want in measurable_results(H1, X, RandomVariable.constant(single, 1)):
            assert_unique_form(got, want)
            assert got == X

    # 128 atoms with unequal masses, 4 cells and numerators of 80+ bits
    rng = random.Random(18)
    masses = [rng.randint(1, 10**6) for _ in range(128)]
    big = FiniteProbabilitySpace(
        tuple(f"a{i}" for i in range(128)), tuple(Fraction(m, sum(masses)) for m in masses)
    )
    H4 = Partition.from_cells(big, [range(c, 128, 4) for c in range(4)])
    density = sample_normalized_density(H4, rng)
    for tagged in (False, True):
        values = [ext(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 40))) for _ in range(128)]
        if tagged:
            values[5], values[9] = POS_INF, NEG_INF  # cell 1 doubly infinite
        X = RandomVariable(big, values)
        for got, want in measurable_results(H4, X, density):
            assert_unique_form(got, want)
            assert max(abs(n) for n in want.nums).bit_length() > 80
