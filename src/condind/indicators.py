"""Conditional indicators: esssup/essinf, expectation variants, duals,
mixes, families, and lower/upper extensions.

An indicator maps random variables into variables measurable w.r.t. a target
partition, stays inside the per-cell value range (so it is positive), and is
the identity on measurable inputs. Structural properties are *declared* as
flags and verified lazily by the checkers in ``checks``; constructing a spec
never runs a check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    DomainViolationError,
    EmptyDomainError,
    MixedTargetsError,
    NotMonotoneError,
)
from .space import (
    Partition,
    RandomVariable,
    _from_keys,
    _on_cells,
    _pack_triples,
    _require_same_space,
    cell_means,
    patch,
)


class Flag(str, Enum):
    INCREASING = "increasing"
    TRANSLATION_INVARIANT = "translation_invariant"
    POS_HOMOGENEOUS = "pos_homogeneous"
    LINEAR = "linear"
    SUBADDITIVE = "subadditive"
    SUPERADDITIVE = "superadditive"
    CONVEX = "convex"
    REGULAR = "regular"
    SELF_DUAL = "self_dual"


DomainPredicate = Callable[[RandomVariable], bool]
EvalFn = Callable[[RandomVariable], RandomVariable]


@dataclass(frozen=True)
class IndicatorSpec:
    """A conditional indicator: target partition, domain, evaluation, flags.

    ``domain_fn is None`` means "every random variable on the space". A risk
    measure (``risk.rho_from_indicator``, ``risk.rho_from_acceptance``) is one
    that declares no flags, on the finite positions of its indicator's domain.
    """

    name: str
    target: Partition
    eval_fn: EvalFn
    domain_fn: DomainPredicate | None = None
    flags: frozenset = field(default_factory=frozenset)

    def in_domain(self, X: RandomVariable) -> bool:
        return self.domain_fn is None or self.domain_fn(X)

    def __call__(self, X: RandomVariable) -> RandomVariable:
        if not self.in_domain(X):
            raise DomainViolationError(f"{self.name}: argument outside declared domain")
        return self.eval_fn(X)

    def has(self, flag: Flag) -> bool:
        return flag in self.flags


# -- conditional essential supremum / infimum --------------------------------


def esssup_cond(X: RandomVariable, H: Partition) -> RandomVariable:
    """Least H-measurable dominator of X: the per-cell maximum.

    Exact because every atom carries positive mass, so no value can hide in
    a null set.
    """
    _require_same_space(X, H)
    keys, finite = X._keys()
    out = list(keys)
    for cell in H.cells:
        m = keys[cell[0]]
        for i in cell[1:]:
            v = keys[i]
            if v > m:
                m = v
        for i in cell:
            out[i] = m
    return _from_keys(X.space, out, X.den, finite)


def essinf_cond(X: RandomVariable, H: Partition) -> RandomVariable:
    """Greatest H-measurable minorant of X: the per-cell minimum."""
    _require_same_space(X, H)
    keys, finite = X._keys()
    out = list(keys)
    for cell in H.cells:
        m = keys[cell[0]]
        for i in cell[1:]:
            v = keys[i]
            if v < m:
                m = v
        for i in cell:
            out[i] = m
    return _from_keys(X.space, out, X.den, finite)


# -- extended conditional expectation (closed form) ---------------------------


def ext_cond_expectation_closed_form(X: RandomVariable, H: Partition) -> RandomVariable:
    """E(X+|H) - E(X-|H) with convention arithmetic; total on finite spaces.

    A doubly infinite cell (both halves infinite) lands on the
    inf - inf = 0 convention.
    """
    _require_same_space(X, H)
    return cell_means(X, H)


# -- built-in indicators ------------------------------------------------------

# esssup's flags, and the flags a family's supremum keeps from its members
_SUP_STABLE = frozenset({Flag.INCREASING, Flag.TRANSLATION_INVARIANT, Flag.POS_HOMOGENEOUS,
                         Flag.SUBADDITIVE, Flag.CONVEX, Flag.REGULAR})
# essinf's flags, and the flags a family's infimum keeps from its members
_INF_STABLE = frozenset({Flag.INCREASING, Flag.TRANSLATION_INVARIANT, Flag.POS_HOMOGENEOUS,
                         Flag.SUPERADDITIVE, Flag.REGULAR})


# the flags of the extended conditional expectation and of a weighted indicator
_EXT_FLAGS = frozenset({Flag.INCREASING, Flag.POS_HOMOGENEOUS, Flag.REGULAR, Flag.SELF_DUAL})


def esssup_indicator(H: Partition) -> IndicatorSpec:
    return IndicatorSpec(
        name="esssup",
        target=H,
        eval_fn=lambda X: esssup_cond(X, H),
        flags=_SUP_STABLE,
    )


def essinf_indicator(H: Partition) -> IndicatorSpec:
    return IndicatorSpec(
        name="essinf",
        target=H,
        eval_fn=lambda X: essinf_cond(X, H),
        flags=_INF_STABLE,
    )


def _cellwise_finite_or_constant(H: Partition) -> DomainPredicate:
    # Integrable-or-measurable, cell by cell: closed under adding extended
    # measurable variables and under patching along events of H.
    def dom(X: RandomVariable) -> bool:
        kinds, nums = X.kinds, X.nums
        for cell in H.cells:
            k, n = kinds[cell[0]], nums[cell[0]]
            if any(kinds[i] for i in cell) and any(kinds[i] != k or nums[i] != n for i in cell):
                return False
        return True

    return dom


def condexp_indicator(H: Partition) -> IndicatorSpec:
    """Classical conditional expectation: cellwise probability-weighted mean."""
    return IndicatorSpec(
        name="condexp",
        target=H,
        eval_fn=lambda X: ext_cond_expectation_closed_form(X, H),
        domain_fn=_cellwise_finite_or_constant(H),
        flags=frozenset(Flag),
    )


def condexp_ext_indicator(H: Partition) -> IndicatorSpec:
    """Extended conditional expectation, total on every random variable.

    Not translation invariant (the shift identity only holds off the doubly
    infinite set) and not additive in general; those live in the additivity
    machinery instead of the flags.
    """
    return IndicatorSpec(
        name="condexp-ext",
        target=H,
        eval_fn=lambda X: ext_cond_expectation_closed_form(X, H),
        flags=_EXT_FLAGS,
    )


_BUILTINS = {
    "esssup": esssup_indicator,
    "essinf": essinf_indicator,
    "condexp": condexp_indicator,
    "condexp-ext": condexp_ext_indicator,
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_indicator(name: str, H: Partition) -> IndicatorSpec:
    return _BUILTINS[name](H)


# -- dual, mix, families ------------------------------------------------------

_DUAL_SWAP = {Flag.SUBADDITIVE: Flag.SUPERADDITIVE, Flag.SUPERADDITIVE: Flag.SUBADDITIVE}


def _dual_flags(flags: frozenset) -> frozenset:
    out = set()
    for f in flags:
        if f in _DUAL_SWAP:
            out.add(_DUAL_SWAP[f])
        elif f == Flag.CONVEX:
            # X -> -I(-X) turns convex into concave; convexity survives only
            # when the dual is pointwise the same map.
            if Flag.LINEAR in flags or Flag.SELF_DUAL in flags:
                out.add(f)
        else:
            out.add(f)
    return frozenset(out)


def dual(I: IndicatorSpec) -> IndicatorSpec:
    domain = None if I.domain_fn is None else (lambda X: I.domain_fn(-X))
    return IndicatorSpec(
        name=f"dual:{I.name}",
        target=I.target,
        eval_fn=lambda X: -I.eval_fn(-X),
        domain_fn=domain,
        flags=_dual_flags(I.flags),
    )


def mix_self_dual(I: IndicatorSpec) -> IndicatorSpec:
    """The self-dual average (I + I*)/2 on the intersection domain."""
    star = dual(I)
    zero = RandomVariable.constant(I.target.space, 0)
    if not (I.in_domain(zero) and star.in_domain(zero)):
        raise EmptyDomainError(f"mix:{I.name}: intersection domain misses 0")
    half = Fraction(1, 2)

    def ev(X: RandomVariable) -> RandomVariable:
        return I.eval_fn(X).scale(half) + star.eval_fn(X).scale(half)

    domain = None
    if I.domain_fn is not None or star.domain_fn is not None:
        domain = lambda X: I.in_domain(X) and star.in_domain(X)
    if Flag.LINEAR in I.flags:
        flags = I.flags | {Flag.SELF_DUAL}
    else:
        keep = {Flag.INCREASING, Flag.POS_HOMOGENEOUS, Flag.REGULAR}
        flags = frozenset(I.flags & keep) | {Flag.SELF_DUAL}
    return IndicatorSpec(
        name=f"mix:{I.name}", target=I.target, eval_fn=ev, domain_fn=domain, flags=flags
    )


def _family(indicators: Sequence[IndicatorSpec], sup: bool) -> IndicatorSpec:
    if not indicators:
        raise EmptyDomainError("family of indicators must be nonempty")
    if len(indicators) == 1:
        return indicators[0]
    target = indicators[0].target
    if any(i.target != target for i in indicators):
        raise MixedTargetsError("family members must share one target partition")

    members = tuple(indicators)

    def ev(X: RandomVariable) -> RandomVariable:
        acc = members[0].eval_fn(X)
        for ind in members[1:]:
            nxt = ind.eval_fn(X)
            acc = acc.max_with(nxt) if sup else acc.min_with(nxt)
        return acc

    domain = None
    if any(i.domain_fn is not None for i in members):
        domain = lambda X: all(i.in_domain(X) for i in members)
    stable = _SUP_STABLE if sup else _INF_STABLE
    flags = frozenset.intersection(*(i.flags for i in members)) & stable
    tag = "famsup" if sup else "faminf"
    return IndicatorSpec(
        name=f"{tag}:" + ",".join(i.name for i in members),
        target=target,
        eval_fn=ev,
        domain_fn=domain,
        flags=flags,
    )


def family_sup(indicators: Sequence[IndicatorSpec]) -> IndicatorSpec:
    """Pointwise supremum of a family sharing one target; still an indicator."""
    return _family(indicators, sup=True)


def family_inf(indicators: Sequence[IndicatorSpec]) -> IndicatorSpec:
    """Pointwise infimum of a family sharing one target; still an indicator."""
    return _family(indicators, sup=False)


# -- lower / upper extensions -------------------------------------------------


def _extension(
    I: IndicatorSpec, E_list: Sequence[RandomVariable], X: RandomVariable, lower: bool
) -> RandomVariable:
    # Both directions run this body; upper is not derived from lower through
    # `dual`, because the extension-duality law checks exactly that relation.
    side = "lower" if lower else "upper"
    if Flag.INCREASING not in I.flags:
        raise NotMonotoneError(f"{I.name}: {side}_extension needs the increasing flag")
    qualifies, improves = (operator.le, operator.gt) if lower else (operator.ge, operator.lt)
    H = I.target
    base = essinf_cond(X, H) if lower else esssup_cond(X, H)
    # each anchor's and X's order keys over their common denominator
    keyed = [Y._aligned(X)[:2] for Y in E_list]
    best = []  # each cell's value at its first atom: tag, numerator, denominator
    for ci, cell in enumerate(H.cells):
        a = cell[0]
        bk, bn, bd = base.kinds[a], base.nums[a], base.den
        event = None
        for Y, (y, x) in zip(E_list, keyed):
            if all(qualifies(y[i], x[i]) for i in cell):
                if event is None:
                    event = H.cell_event(ci)
                cand = patch(Y, event, base)
                if I.in_domain(cand):
                    V = I.eval_fn(cand)
                    vk, vn, vd = V.kinds[a], V.nums[a], V.den
                    # tags first, then the finite values cross-multiplied
                    if improves((vk, vn * bd), (bk, bn * vd)):
                        bk, bn, bd = vk, vn, vd
        best.append((bk, bn, bd))
    return _on_cells(H, *_pack_triples(best))


def lower_extension(
    I: IndicatorSpec, E_list: Sequence[RandomVariable], X: RandomVariable
) -> RandomVariable:
    """Largest cell-local value I can certify from below.

    The anchor set is the explicit list plus every measurable variable; the
    measurable side collapses to the per-cell minimum of X, and each listed
    minorant-on-a-cell is patched with that minimum off the cell before
    evaluation, which keeps the construction cell-local.
    """
    return _extension(I, E_list, X, lower=True)


def upper_extension(
    I: IndicatorSpec, E_list: Sequence[RandomVariable], X: RandomVariable
) -> RandomVariable:
    """Smallest cell-local value I can certify from above; mirror of the lower one."""
    return _extension(I, E_list, X, lower=False)
