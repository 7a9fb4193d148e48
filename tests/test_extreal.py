"""Convention-table arithmetic: every tag pair is pinned."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from condind import NEG_INF, POS_INF, ZERO, ext, ext_add, ext_mul, ext_sub
from condind.errors import ValidationError
from condind.extreal import ExtReal
from condind.scenario import _literal

FIN = ext(Fraction(3, 2))
TAGS = (NEG_INF, ext(-2), ZERO, FIN, POS_INF)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
extreals = st.one_of(
    st.just(POS_INF), st.just(NEG_INF), rationals.map(ext)
)


def test_sub_convention_table():
    assert ext_sub(POS_INF, POS_INF) == ZERO
    assert ext_sub(NEG_INF, NEG_INF) == ZERO
    assert ext_sub(POS_INF, NEG_INF) == POS_INF
    assert ext_sub(NEG_INF, POS_INF) == NEG_INF
    assert ext_sub(FIN, POS_INF) == NEG_INF
    assert ext_sub(FIN, NEG_INF) == POS_INF
    assert ext_sub(POS_INF, FIN) == POS_INF
    assert ext_sub(NEG_INF, FIN) == NEG_INF
    assert ext_sub(ext(Fraction(3, 2)), ext(Fraction(1, 2))) == ext(1)


def test_add_convention_table():
    assert ext_add(ext(Fraction(3, 2)), ext(Fraction(1, 2))) == ext(2)
    assert ext_add(FIN, POS_INF) == POS_INF
    assert ext_add(FIN, NEG_INF) == NEG_INF
    assert ext_add(POS_INF, POS_INF) == POS_INF
    assert ext_add(NEG_INF, NEG_INF) == NEG_INF
    assert ext_add(POS_INF, NEG_INF) == ZERO
    assert ext_add(NEG_INF, POS_INF) == ZERO


def test_mul_convention_table():
    assert ext_mul(ZERO, POS_INF) == ZERO
    assert ext_mul(ZERO, NEG_INF) == ZERO
    assert ext_mul(POS_INF, ZERO) == ZERO
    assert ext_mul(FIN, POS_INF) == POS_INF
    assert ext_mul(ext(-2), POS_INF) == NEG_INF
    assert ext_mul(ext(-2), NEG_INF) == POS_INF
    assert ext_mul(POS_INF, POS_INF) == POS_INF
    assert ext_mul(POS_INF, NEG_INF) == NEG_INF
    assert ext_mul(NEG_INF, NEG_INF) == POS_INF
    assert ext_mul(ext(Fraction(1, 2)), ext(Fraction(1, 3))) == ext(Fraction(1, 6))


def test_sub_is_add_of_negation_everywhere():
    for a in TAGS:
        for b in TAGS:
            assert ext_sub(a, b) == ext_add(a, -b)


@given(a=extreals, b=extreals)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(a=extreals, b=extreals)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(a=extreals)
def test_identities(a):
    assert a + ZERO == a
    assert a * ext(1) == a


@given(alpha=rationals, a=extreals, b=extreals)
def test_distributes_over_difference_for_finite_scalars(alpha, a, b):
    s = ext(alpha)
    assert s * (a - b) == s * a - s * b


def test_distributes_exhaustive_tag_lattice():
    for s in (ext(-3), ext(Fraction(-1, 2)), ZERO, ext(Fraction(2, 7)), ext(5)):
        for a in TAGS:
            for b in TAGS:
                assert s * (a - b) == s * a - s * b


@given(a=extreals, b=extreals, c=extreals, d=extreals)
def test_addition_monotone(a, b, c, d):
    # x1 <= x2 and y1 <= y2 imply x1+y1 <= x2+y2 under the conventions
    x1, x2 = (a, b) if a <= b else (b, a)
    y1, y2 = (c, d) if c <= d else (d, c)
    assert x1 + y1 <= x2 + y2


@given(a=extreals, b=extreals)
def test_negation_distributes_over_sum(a, b):
    assert -(a + b) == (-a) + (-b)


def test_total_order():
    assert NEG_INF < ext(-1000) < ZERO < ext(1000) < POS_INF
    assert not POS_INF < POS_INF
    assert POS_INF <= POS_INF
    assert sorted([POS_INF, ZERO, NEG_INF, FIN]) == [NEG_INF, ZERO, FIN, POS_INF]


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_ordering_against_a_non_extreal_is_a_type_error(op):
    compare = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}[op]
    for a, b in ((ext(1), 3), (3, ext(1)), (POS_INF, 0), (0, NEG_INF)):
        with pytest.raises(TypeError):
            compare(a, b)


def test_parsing_and_rendering():
    assert ext("inf").is_pos_inf
    assert ext("-inf").is_neg_inf
    assert ext("3/4") == ext(Fraction(3, 4))
    assert ext("0.25") == ext(Fraction(1, 4))
    assert ext("-1.5") == ext(Fraction(-3, 2))
    assert str(ext(Fraction(3, 1))) == "3"
    assert str(ext(Fraction(-3, 4))) == "-3/4"
    assert str(POS_INF) == "inf"
    assert str(NEG_INF) == "-inf"


@given(a=extreals)
def test_string_round_trip(a):
    assert ext(str(a)) == a


def test_pos_neg_parts():
    assert ext(-3).pos_part() == ZERO
    assert ext(-3).neg_part() == ext(3)
    assert POS_INF.pos_part() == POS_INF
    assert POS_INF.neg_part() == ZERO
    assert NEG_INF.neg_part() == POS_INF
    x = ext(Fraction(5, 2))
    assert x.pos_part() - x.neg_part() == x


def test_immutability_and_hash():
    a = ext(1)
    with pytest.raises(AttributeError):
        a.kind = 2
    assert len({ext(1), ext("1"), ext(Fraction(2, 2))}) == 1


def test_equality_of_unreduced_literals_and_across_kinds():
    # equal values compare and hash equal however they were written
    for text, reduced in (("6/4", Fraction(3, 2)), ("-10/20", Fraction(-1, 2)), ("0/7", Fraction(0)),
                          ("2.50", Fraction(5, 2)), ("9/3", Fraction(3))):
        assert ext(text) == ext(reduced) and hash(ext(text)) == hash(ext(reduced))
    assert ext("6/4") != ext("5/4") and ext("3/2") != ext("3/4")
    # an infinity carries frac 0, so only the kind tells it from zero
    values = [NEG_INF, ZERO, POS_INF]
    for a in values:
        for b in values:
            assert (a == b) is (a is b)
            assert (a != b) is (a is not b)
    assert ext("inf") == POS_INF and ext("-inf") == NEG_INF
    assert ext(1) != 1 and not ext(0) == 0


# -- ExtReal on ints against Fraction arithmetic --------------------------------

# signed finite values, unreduced inputs among them, and both infinities; a
# value is modelled as (tag, Fraction), the tag -1/0/+1 for -inf/finite/+inf
GRID = [ext(Fraction(n, d)) for n in (-6, -3, -2, -1, 0, 1, 2, 4, 6) for d in (1, 2, 3, 4)]
GRID += [ext("2/4"), ext("-6/8"), ext(Fraction(2, 4)), POS_INF, NEG_INF]


def _model(a):
    return (-1 if a.is_neg_inf else 1 if a.is_pos_inf else 0, a.frac)


def _model_add(x, y):
    (s, p), (t, q) = x, y
    if s == t == 0:
        return (0, p + q)
    if s == 0 or t == 0:
        return (s or t, Fraction(0))
    return (s, Fraction(0)) if s == t else (0, Fraction(0))  # inf + -inf = 0


def _model_mul(x, y):
    (s, p), (t, q) = x, y
    if s == t == 0:
        return (0, p * q)
    sign = lambda k, f: k or (f > 0) - (f < 0)
    return (sign(s, p) * sign(t, q), Fraction(0))  # 0 * inf = 0


def test_terms_are_reduced_with_positive_denominator():
    for a in GRID:
        assert a.den > 0 and gcd(a.num, a.den) == 1
        assert a.frac == Fraction(a.num, a.den)
        if not a.is_finite:
            assert (a.num, a.den) == (0, 1)
        assert type(a.num) is int and type(a.den) is int
    for a in GRID:
        for b in GRID:
            for c in (a + b, a - b, a * b, -a):
                assert c.den > 0 and gcd(c.num, c.den) == 1


def test_order_equality_and_hash_match_fraction():
    for a in GRID:
        for b in GRID:
            x, y = _model(a), _model(b)
            assert (a == b) is (x == y)
            assert (a != b) is (x != y)
            assert (a < b) is (x < y) and (a <= b) is (x <= y)
            assert (a > b) is (x > y) and (a >= b) is (x >= y)
            if a == b:
                assert hash(a) == hash(b)


def test_arithmetic_and_rendering_match_fraction():
    for a in GRID:
        x = _model(a)
        assert _model(-a) == (-x[0], -x[1])
        assert str(a) == {1: "inf", -1: "-inf", 0: str(x[1])}[x[0]]
        for b in GRID:
            y = _model(b)
            assert _model(a + b) == _model_add(x, y)
            assert _model(a - b) == _model_add(x, (-y[0], -y[1]))
            assert _model(a * b) == _model_mul(x, y)


@pytest.mark.parametrize(
    "raw, want",
    [
        (3, Fraction(3)), (-7, Fraction(-7)), (0, Fraction(0)), (True, Fraction(1)),
        (Fraction(2, 4), Fraction(1, 2)), (Fraction(-9, 6), Fraction(-3, 2)),
        ("2/4", Fraction(1, 2)), (" -6/8 ", Fraction(-3, 4)), ("0.125", Fraction(1, 8)),
        ("7", Fraction(7)), (0.1, Fraction(1, 10)), (-2.5, Fraction(-5, 2)), (1e-3, Fraction(1, 1000)),
    ],
)
def test_ext_reads_ints_strings_fractions_and_floats(raw, want):
    a = ext(raw)
    assert a.is_finite and a.frac == want and (a.num, a.den) == (want.numerator, want.denominator)
    assert ext(a) is a and ExtReal(a) == a and hash(ExtReal(a)) == hash(a)


@pytest.mark.parametrize(
    "raw, error",
    [
        ("abc", ValueError), ("1/0", ZeroDivisionError), ("", ValueError), ("1/2/3", ValueError),
        (float("nan"), ValueError), (float("inf"), ValueError), (None, TypeError), ([1], TypeError),
    ],
)
def test_bad_literals_raise_what_the_scenario_parser_catches(raw, error):
    with pytest.raises(error):
        ext(raw)
    with pytest.raises(ValidationError, match="bad value"):
        _literal(raw, "X")
