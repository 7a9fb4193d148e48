"""Extended rationals with fixed tag conventions.

Values are exact ``Fraction``s or the two infinity tags. All arithmetic
follows one convention table, total on every tag pair:

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
from typing import Union

RationalLike = Union[int, str, Fraction]

_FIN = 0
_POS = 1
_NEG = -1

_ZERO_FRAC = Fraction(0)


class ExtReal:
    """An exact rational or one of the two infinities, totally ordered."""

    __slots__ = ("kind", "frac")

    def __init__(self, value: RationalLike | "ExtReal" = 0, _kind: int | None = None):
        if _kind is not None:
            object.__setattr__(self, "kind", _kind)
            object.__setattr__(self, "frac", value if _kind == _FIN else _ZERO_FRAC)
            return
        if isinstance(value, ExtReal):
            object.__setattr__(self, "kind", value.kind)
            object.__setattr__(self, "frac", value.frac)
            return
        if isinstance(value, str):
            s = value.strip()
            if s in ("inf", "+inf", "oo", "+oo"):
                object.__setattr__(self, "kind", _POS)
                object.__setattr__(self, "frac", _ZERO_FRAC)
                return
            if s in ("-inf", "-oo"):
                object.__setattr__(self, "kind", _NEG)
                object.__setattr__(self, "frac", _ZERO_FRAC)
                return
            value = Fraction(s)
        if isinstance(value, float):
            # exact per the printed decimal, never per the binary float
            value = Fraction(repr(value))
        object.__setattr__(self, "kind", _FIN)
        object.__setattr__(self, "frac", Fraction(value))

    def __setattr__(self, name, value):
        raise AttributeError("ExtReal is immutable")

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
        return (self.frac > 0) - (self.frac < 0)

    # -- ordering (total: -inf < finite < +inf) ---------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self.kind == other.kind and self.frac == other.frac

    def __hash__(self):
        return hash((self.kind, self.frac))

    def __lt__(self, other: "ExtReal") -> bool:
        if self.kind != other.kind:
            return self.kind < other.kind
        return self.kind == _FIN and self.frac < other.frac

    def __le__(self, other: "ExtReal") -> bool:
        return self == other or self < other

    def __gt__(self, other: "ExtReal") -> bool:
        return other < self

    def __ge__(self, other: "ExtReal") -> bool:
        return other <= self

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ExtReal":
        if self.kind == _FIN:
            return ExtReal(-self.frac, _kind=_FIN)
        return NEG_INF if self.kind == _POS else POS_INF

    def __add__(self, other: "ExtReal") -> "ExtReal":
        sk, ok = self.kind, other.kind
        if sk == _FIN and ok == _FIN:
            return ExtReal(self.frac + other.frac, _kind=_FIN)
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
            return ExtReal(self.frac * other.frac, _kind=_FIN)
        s = self.sign() * other.sign()
        if s == 0:
            return ZERO  # 0 * (+-inf) = 0
        return POS_INF if s > 0 else NEG_INF

    def pos_part(self) -> "ExtReal":
        return self if self > ZERO else ZERO

    def neg_part(self) -> "ExtReal":
        return -self if self < ZERO else ZERO

    def __abs__(self) -> "ExtReal":
        return -self if self < ZERO else self

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"

    def __str__(self) -> str:
        if self.kind == _POS:
            return "inf"
        if self.kind == _NEG:
            return "-inf"
        return str(self.frac)

    def __float__(self) -> float:
        if self.kind == _POS:
            return float("inf")
        if self.kind == _NEG:
            return float("-inf")
        return float(self.frac)


POS_INF = ExtReal(_ZERO_FRAC, _kind=_POS)
NEG_INF = ExtReal(_ZERO_FRAC, _kind=_NEG)
ZERO = ExtReal(_ZERO_FRAC, _kind=_FIN)
ONE = ExtReal(Fraction(1), _kind=_FIN)


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
