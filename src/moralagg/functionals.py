"""Social welfare functionals over ethical frameworks.

Four rules are implemented, each mapping a framework and an action set to
a weak order over the actions (worst group first):

- ``mec``: credence-weighted arithmetic mean of the evaluations,
- ``maximin``: the minimum evaluation across theories, credences ignored,
- ``kthm``: the credence-weighted mean after discarding, per action, a
  maximal prefix and suffix of the evaluation-sorted theories whose
  credence mass does not exceed ``k`` on each side,
- ``hm``: the credence-weighted median of the evaluations.

All scores are exact rationals, so ties are exact ties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Union

from .core import (
    ActionId,
    ActionSet,
    CredenceOutOfRange,
    CredenceSumNotOne,
    EthicalFramework,
    MissingEvaluation,
    MoralAggError,
    Ranking,
    RationalLike,
    TheoryId,
    UnknownAction,
    ranking_from_scores,
    to_rational,
    validate_framework,
)

HALF = Fraction(1, 2)


class InvalidSpec(MoralAggError):
    pass


class SwfKind(enum.Enum):
    MEC = "mec"
    MAXIMIN = "maximin"
    KTHM = "kthm"
    HM = "hm"


class TrimMode(enum.Enum):
    LITERAL = "literal"
    RENORMALIZED = "renormalized"


@dataclass(frozen=True)
class SwfSpec:
    """Which functional to run, plus the trim level and mode for ``kthm``.

    ``k`` is required for ``kthm`` and must satisfy ``0 <= k < 1/2``; it
    is meaningless (and rejected) for the other kinds.  ``trim_mode``
    selects whether the surviving credence mass is left as is
    (``LITERAL``, the default) or divided out (``RENORMALIZED``); the
    other kinds keep the default and reject ``RENORMALIZED``, so that
    equal rules have equal specs.
    """

    kind: SwfKind
    k: Optional[Fraction] = None
    trim_mode: TrimMode = TrimMode.LITERAL

    def __post_init__(self):
        if not isinstance(self.kind, SwfKind):
            raise InvalidSpec(f"unknown functional kind {self.kind!r}")
        try:
            object.__setattr__(self, "trim_mode", TrimMode(self.trim_mode))
        except (ValueError, TypeError):
            raise InvalidSpec(f"unknown trim mode {self.trim_mode!r}") from None
        if self.kind is SwfKind.KTHM:
            if self.k is None:
                raise InvalidSpec("kthm needs a trim level k")
            k = to_rational(self.k)
            object.__setattr__(self, "k", k)
            if not (0 <= k < HALF):
                raise InvalidSpec(f"trim level k must lie in [0, 1/2), got {k}")
        elif self.k is not None:
            raise InvalidSpec(f"{self.kind.value} takes no trim level")
        elif self.trim_mode is not TrimMode.LITERAL:
            raise InvalidSpec(f"{self.kind.value} takes no trim mode")

    @classmethod
    def mec(cls) -> "SwfSpec":
        return cls(SwfKind.MEC)

    @classmethod
    def maximin(cls) -> "SwfSpec":
        return cls(SwfKind.MAXIMIN)

    @classmethod
    def kthm(
        cls, k: RationalLike, trim_mode: Union[TrimMode, str] = TrimMode.LITERAL
    ) -> "SwfSpec":
        return cls(SwfKind.KTHM, k, trim_mode)

    @classmethod
    def hm(cls) -> "SwfSpec":
        return cls(SwfKind.HM)

    def label(self) -> str:
        if self.kind is SwfKind.KTHM:
            return f"kthm(k={self.k}, {self.trim_mode.value})"
        return self.kind.value


def _evaluations(framework: EthicalFramework, action: ActionId) -> list[Fraction]:
    missing = [t for t in framework.theories if action not in t.evaluations]
    if missing:
        if len(missing) == len(framework.theories):
            raise UnknownAction(action)
        raise MissingEvaluation(missing[0].id, action)
    return [t.evaluations[action] for t in framework.theories]


def wam(framework: EthicalFramework, action: ActionId) -> Fraction:
    """Credence-weighted arithmetic mean of the evaluations of ``action``."""
    values = _evaluations(framework, action)
    return sum(
        (framework.credences[t.id] * v for t, v in zip(framework.theories, values)),
        Fraction(0),
    )


def min_evaluation(framework: EthicalFramework, action: ActionId) -> Fraction:
    """Worst evaluation of ``action`` across theories; credences play no role."""
    return min(_evaluations(framework, action))


def sorted_evaluations(
    framework: EthicalFramework, action: ActionId
) -> tuple[tuple[TheoryId, Fraction], ...]:
    """``(theory id, evaluation)`` pairs for ``action``, ascending by value.

    Exactly equal evaluations keep declaration order, which makes every
    downstream prefix/suffix computation deterministic.
    """
    values = _evaluations(framework, action)
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    return tuple((framework.theories[i].id, values[i]) for i in order)


def _trim(
    framework: EthicalFramework, action: ActionId, k: Fraction
) -> tuple[tuple[tuple[TheoryId, Fraction], ...], int, int]:
    """One sort of ``action``'s evaluations, walked from both ends.

    Returns the sorted pairs with bounds ``lo`` and ``hi`` into them:
    ``[:lo]`` is the maximal low prefix of credence mass <= k, ``[hi:]``
    the maximal high suffix, and ``[lo:hi]`` survives.  ``k`` comes from
    a :class:`SwfSpec`, which has checked it.
    """
    pairs = sorted_evaluations(framework, action)
    credences = framework.credences
    lo, mass = 0, Fraction(0)
    for tid, _ in pairs:
        mass += credences[tid]
        if mass > k:
            break
        lo += 1
    hi, mass = len(pairs), Fraction(0)
    for tid, _ in reversed(pairs):
        mass += credences[tid]
        if mass > k:
            break
        hi -= 1
    return pairs, lo, hi


def bottom_k(
    framework: EthicalFramework, action: ActionId, k: RationalLike
) -> frozenset[TheoryId]:
    """Ids forming the maximal low-evaluation prefix of credence mass <= k."""
    pairs, lo, _ = _trim(framework, action, SwfSpec.kthm(k).k)
    return frozenset(tid for tid, _ in pairs[:lo])


def top_k(
    framework: EthicalFramework, action: ActionId, k: RationalLike
) -> frozenset[TheoryId]:
    """Ids forming the maximal high-evaluation suffix of credence mass <= k."""
    pairs, _, hi = _trim(framework, action, SwfSpec.kthm(k).k)
    return frozenset(tid for tid, _ in pairs[hi:])


def trimmed_wam(
    framework: EthicalFramework,
    action: ActionId,
    k: RationalLike,
    trim_mode: Union[TrimMode, str] = TrimMode.LITERAL,
) -> Fraction:
    """Weighted mean of the evaluations that survive two-sided trimming.

    In ``LITERAL`` mode the trimmed credences are simply zeroed, so the
    surviving weights need not sum to 1; ``RENORMALIZED`` divides by the
    surviving mass instead.  Both sides trim at most ``k < 1/2`` of the
    mass, so the surviving mass is always positive.
    """
    return _trimmed_wam(framework, action, SwfSpec.kthm(k, trim_mode))


def _trimmed_wam(
    framework: EthicalFramework, action: ActionId, spec: SwfSpec
) -> Fraction:
    """The ``kthm`` score of ``action`` under ``spec``, checked on creation."""
    pairs, lo, hi = _trim(framework, action, spec.k)
    total = Fraction(0)
    mass = Fraction(0)
    for tid, value in pairs[lo:hi]:
        c = framework.credences[tid]
        total += c * value
        mass += c
    if spec.trim_mode is TrimMode.RENORMALIZED:
        return total / mass
    return total


def wmedian(framework: EthicalFramework, action: ActionId) -> Fraction:
    """Credence-weighted median of the evaluations of ``action``.

    An index m into the sorted evaluations is valid when the credence
    mass strictly before it and strictly after it are both at most 1/2.
    With positive credences summing to 1 this is equivalent to the prefix
    sums straddling 1/2, so either exactly one index is valid or exactly
    two adjacent ones are; in the latter case the two evaluations are
    averaged.  A credence outside (0, 1] raises
    :class:`CredenceOutOfRange`, and credences that do not sum to 1 raise
    :class:`CredenceSumNotOne`.
    """
    prefix = Fraction(0)
    valid: list[Fraction] = []
    for tid, value in sorted_evaluations(framework, action):
        c = framework.credences[tid]
        # 0 < c <= 1 in integers; Fraction comparisons cost a quarter of the loop.
        if not 0 < c.numerator <= c.denominator:
            raise CredenceOutOfRange(tid, c)
        before = prefix
        prefix += c
        if before <= HALF <= prefix:
            valid.append(value)
    if prefix != 1:
        raise CredenceSumNotOne(prefix)
    if len(valid) == 1:
        return valid[0]
    return (valid[0] + valid[1]) / 2


@dataclass(frozen=True)
class AggregateResult:
    """Scores and the induced ranking for one functional over one framework."""

    spec: SwfSpec
    scores: dict[ActionId, Fraction]
    ranking: Ranking


def _score(spec: SwfSpec, framework: EthicalFramework, action: ActionId) -> Fraction:
    if spec.kind is SwfKind.MEC:
        return wam(framework, action)
    if spec.kind is SwfKind.MAXIMIN:
        return min_evaluation(framework, action)
    if spec.kind is SwfKind.KTHM:
        return _trimmed_wam(framework, action, spec)
    return wmedian(framework, action)


def aggregate(
    spec: SwfSpec, framework: EthicalFramework, actions: ActionSet
) -> AggregateResult:
    """Run one functional over every action and rank the exact scores.

    The framework is validated against ``actions`` first, so missing
    evaluations and credence defects surface here rather than as wrong
    numbers.
    """
    validate_framework(framework, actions)
    scores = {a: _score(spec, framework, a) for a in actions}
    return AggregateResult(spec, scores, ranking_from_scores(scores))


def _mask_scorer(
    spec: SwfSpec, framework: EthicalFramework, actions: ActionSet
) -> Callable[[int], tuple]:
    """Compile ``framework`` once; score any subset of its theories by bitmask.

    Bit ``i`` of a mask selects the ``i``-th declared theory.  For a
    nonempty mask the returned function gives one score per action, in
    the order of ``actions``, and ranking these scores gives exactly the
    ranking that :func:`aggregate` gives for the renormalized restriction
    to that subset.  The scores themselves are not the printed ones:
    credences become integer weights (scaled by the lcm of their
    denominators), every evaluation is scaled by one lcm common to all
    actions, and the subset's mass is never divided out, because each
    rule's ranking is unchanged when every score is scaled by the same
    positive factor.  Each action's theory order (by value, then
    declaration) is sorted once, here.

    The framework is validated once, as :func:`aggregate` would.
    """
    validate_framework(framework, actions)
    credences = [framework.credences[t.id] for t in framework.theories]
    den = lcm(*(c.denominator for c in credences))
    weights = [c.numerator * (den // c.denominator) for c in credences]
    bits = [1 << i for i in range(len(weights))]
    columns = [[t.evaluations[a] for t in framework.theories] for a in actions]
    scale = lcm(*(v.denominator for column in columns for v in column))
    # Per action, (bit, weight, value) ascending; the stable sort keeps
    # tied values in declaration order, as sorted_evaluations does.
    orders = []
    for column in columns:
        values = [v.numerator * (scale // v.denominator) for v in column]
        order = sorted(range(len(values)), key=values.__getitem__)
        orders.append([(bits[i], weights[i], values[i]) for i in order])

    def mass(mask: int) -> int:
        return sum(w for bit, w in zip(bits, weights) if mask & bit)

    if spec.kind is SwfKind.MEC:
        return lambda mask: tuple(
            sum(w * v for bit, w, v in order if mask & bit) for order in orders
        )
    if spec.kind is SwfKind.MAXIMIN:
        return lambda mask: tuple(
            next(v for bit, _, v in order if mask & bit) for order in orders
        )
    if spec.kind is SwfKind.HM:
        return lambda mask: tuple(
            _doubled_median(order, mask, mass(mask)) for order in orders
        )
    k_num, k_den = spec.k.numerator, spec.k.denominator
    renormalized = spec.trim_mode is TrimMode.RENORMALIZED

    def trimmed(order: list, mask: int, limit: int):
        kept = [(w, v) for bit, w, v in order if mask & bit]
        lo = _trim_count(kept, k_den, limit)
        hi = len(kept) - _trim_count(reversed(kept), k_den, limit)
        total = sum(w * v for w, v in kept[lo:hi])
        if renormalized:
            return Fraction(total, sum(w for w, _ in kept[lo:hi]))
        return total

    def kthm(mask: int) -> tuple:
        limit = k_num * mass(mask)
        return tuple(trimmed(order, mask, limit) for order in orders)

    return kthm


def _trim_count(kept, k_den: int, limit: int) -> int:
    """How many leading ``(weight, value)`` pairs a ``kthm`` trim sheds.

    A prefix of weight ``p`` in a subset of mass ``M`` is trimmable while
    ``p / M <= k``, that is ``p * den(k) <= num(k) * M = limit``.
    """
    count = prefix = 0
    for w, _ in kept:
        prefix += w
        if prefix * k_den > limit:
            break
        count += 1
    return count


def _doubled_median(order: list, mask: int, mass: int) -> int:
    """Twice the weighted median of the masked part of ``order``.

    As in :func:`wmedian`, an entry is valid when ``2*before <= mass <=
    2*prefix``.  The first entry with ``2*prefix >= mass`` is valid; when
    ``2*prefix == mass`` exactly, the next masked entry is valid too and
    the two values are averaged.  Doubling keeps the score an integer.
    """
    kept = ((w, v) for bit, w, v in order if mask & bit)
    prefix = 0
    for w, v in kept:
        prefix += w
        if 2 * prefix > mass:
            return 2 * v
        if 2 * prefix == mass:
            return v + next(kept)[1]
    raise AssertionError("a nonempty mask has a median")
