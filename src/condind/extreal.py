"""Extended rationals with fixed tag conventions.

Values are exact rationals, held as reduced int pairs, or the two infinity
tags. All arithmetic follows one convention table, total on every tag pair:

    r + inf = inf,  r - inf = -inf        (finite r)
    inf + inf = inf,  -inf + -inf = -inf
    inf + -inf = 0   (hence inf - inf = 0 and -inf - -inf = 0)
    0 * (+-inf) = 0,  r * (+-inf) = sign(r) * inf,  tag products by sign

Subtraction is addition of the negation; with the opposite-tag sum pinned
to 0 that reproduces the inf - inf = 0 rule without special cases. The
table makes addition monotone and lets negation distribute over sums,
which the rest of the package relies on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, str, Fraction]

_FIN = 0
_POS = 1
_NEG = -1

_TAGS = {"inf": _POS, "+inf": _POS, "oo": _POS, "+oo": _POS, "-inf": _NEG, "-oo": _NEG}


class ExtReal:
    """An exact rational or one of the two infinities, totally ordered.

    Stored as ints: ``kind`` (-1/0/+1 for -inf, finite, +inf) and the value
    ``num / den``, reduced with ``den > 0`` (0/1 on an infinity). ``frac``
    builds the ``Fraction`` on demand.
    """

    __slots__ = ("kind", "num", "den")

    def __init__(self, value: RationalLike | "ExtReal" = 0, _kind: int | None = None, _den: int = 1):
        if _kind is not None:
            # internal: value / _den already reduced, 0 / 1 on an infinity
            kind, num, den = _kind, value, _den
        elif isinstance(value, ExtReal):
            kind, num, den = value.kind, value.num, value.den
        elif isinstance(value, str):
            s = value.strip()
            if s in _TAGS:
                kind, num, den = _TAGS[s], 0, 1
            else:
                f = Fraction(s)
                kind, num, den = _FIN, f.numerator, f.denominator
        else:
            if not isinstance(value, (int, Fraction)):
                # a float is exact per its printed decimal, never per the binary float
                value = Fraction(repr(value) if isinstance(value, float) else value)
            kind, num, den = _FIN, value.numerator, value.denominator
        _set_kind(self, kind)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("ExtReal is immutable")

    @property
    def frac(self) -> Fraction:
        return Fraction(self.num, self.den)

    # -- predicates -------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == _FIN

    @property
    def is_pos_inf(self) -> bool:
        return self.kind == _POS

    @property
    def is_neg_inf(self) -> bool:
        return self.kind == _NEG

    def sign(self) -> int:
        if self.kind != _FIN:
            return self.kind
        return (self.num > 0) - (self.num < 0)

    # -- ordering (total: -inf < finite < +inf) ---------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, ExtReal):
            return NotImplemented
        # the stored form is reduced, so equal values have equal terms
        return self.kind == other.kind and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.kind, self.num, self.den))

    # A non-ExtReal operand has no `kind`: returning NotImplemented lets
    # Python raise TypeError. try/except keeps isinstance off the hot path.
    # `>` and `>=` are the reflections of `<` and `<=`: there the other
    # operand's own method answers, and a non-ExtReal one, not knowing
    # ExtReal, answers NotImplemented as well.

    def __lt__(self, other: "ExtReal") -> bool:
        try:
            ok = other.kind
        except AttributeError:
            return NotImplemented
        if self.kind != ok:
            return self.kind < ok
        return self.kind == _FIN and self.num * other.den < other.num * self.den

    def __le__(self, other: "ExtReal") -> bool:
        try:
            ok = other.kind
        except AttributeError:
            return NotImplemented
        if self.kind != ok:
            return self.kind < ok
        return self.kind != _FIN or self.num * other.den <= other.num * self.den

    def __gt__(self, other: "ExtReal") -> bool:
        return other.__lt__(self)

    def __ge__(self, other: "ExtReal") -> bool:
        return other.__le__(self)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ExtReal":
        if self.kind == _FIN:
            return ExtReal(-self.num, _FIN, self.den)
        return NEG_INF if self.kind == _POS else POS_INF

    def __add__(self, other: "ExtReal") -> "ExtReal":
        sk, ok = self.kind, other.kind
        if sk == _FIN and ok == _FIN:
            n = self.num * other.den + other.num * self.den
            d = self.den * other.den
            g = gcd(n, d)
            return ExtReal(n // g, _FIN, d // g)
        if sk == _FIN:
            return other
        if ok == _FIN:
            return self
        if sk == ok:
            return self
        return ZERO  # inf + (-inf), the inf - inf = 0 convention

    def __sub__(self, other: "ExtReal") -> "ExtReal":
        return self + (-other)

    def __mul__(self, other: "ExtReal") -> "ExtReal":
        sk, ok = self.kind, other.kind
        if sk == _FIN and ok == _FIN:
            n, d = self.num * other.num, self.den * other.den
            g = gcd(n, d)
            return ExtReal(n // g, _FIN, d // g)
        s = self.sign() * other.sign()
        if s == 0:
            return ZERO  # 0 * (+-inf) = 0
        return POS_INF if s > 0 else NEG_INF

    def pos_part(self) -> "ExtReal":
        return self if self > ZERO else ZERO

    def neg_part(self) -> "ExtReal":
        return -self if self < ZERO else ZERO

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"

    def __str__(self) -> str:
        if self.kind == _POS:
            return "inf"
        if self.kind == _NEG:
            return "-inf"
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


# the slots' own setters, which skip the guarding __setattr__
_set_kind, _set_num, _set_den = (ExtReal.__dict__[name].__set__ for name in ExtReal.__slots__)

POS_INF = ExtReal(0, _POS)
NEG_INF = ExtReal(0, _NEG)
ZERO = ExtReal(0, _FIN)
ONE = ExtReal(1, _FIN)


def ext(value: RationalLike | ExtReal) -> ExtReal:
    """Coerce ints, rational strings, ``"inf"``/``"-inf"`` and Fractions."""
    return value if isinstance(value, ExtReal) else ExtReal(value)


def ext_add(a: ExtReal, b: ExtReal) -> ExtReal:
    return a + b


def ext_sub(a: ExtReal, b: ExtReal) -> ExtReal:
    return a - b


def ext_mul(a: ExtReal, b: ExtReal) -> ExtReal:
    return a * b


def parse_ext(text: RationalLike | float) -> ExtReal:
    """Parse a JSON scalar: "p/q", decimal string, "inf"/"-inf", or number."""
    return ExtReal(text)
