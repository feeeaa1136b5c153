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
from typing import Optional, Union

from .core import (
    ActionId,
    ActionSet,
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


def _coerce_trim_mode(value: Union[TrimMode, str]) -> TrimMode:
    if isinstance(value, TrimMode):
        return value
    try:
        return TrimMode(value)
    except (ValueError, TypeError):
        raise InvalidSpec(f"unknown trim mode {value!r}") from None


@dataclass(frozen=True)
class SwfSpec:
    """Which functional to run, plus the trim level and mode for ``kthm``.

    ``k`` is required for ``kthm`` and must satisfy ``0 <= k < 1/2``; it
    is meaningless (and rejected) for the other kinds.  ``trim_mode``
    selects whether the surviving credence mass is left as is
    (``LITERAL``, the default) or divided out (``RENORMALIZED``).
    """

    kind: SwfKind
    k: Optional[Fraction] = None
    trim_mode: TrimMode = TrimMode.LITERAL

    def __post_init__(self):
        if not isinstance(self.kind, SwfKind):
            raise InvalidSpec(f"unknown functional kind {self.kind!r}")
        object.__setattr__(self, "trim_mode", _coerce_trim_mode(self.trim_mode))
        if self.kind is SwfKind.KTHM:
            if self.k is None:
                raise InvalidSpec("kthm needs a trim level k")
            k = to_rational(self.k)
            object.__setattr__(self, "k", k)
            if not (0 <= k < HALF):
                raise InvalidSpec(f"trim level k must lie in [0, 1/2), got {k}")
        elif self.k is not None:
            raise InvalidSpec(f"{self.kind.value} takes no trim level")

    @classmethod
    def mec(cls) -> "SwfSpec":
        return cls(SwfKind.MEC)

    @classmethod
    def maximin(cls) -> "SwfSpec":
        return cls(SwfKind.MAXIMIN)

    @classmethod
    def kthm(cls, k: RationalLike, trim_mode: TrimMode = TrimMode.LITERAL) -> "SwfSpec":
        return cls(SwfKind.KTHM, to_rational(k), trim_mode)

    @classmethod
    def hm(cls) -> "SwfSpec":
        return cls(SwfKind.HM)

    def label(self) -> str:
        if self.kind is SwfKind.KTHM:
            return f"kthm(k={self.k}, {self.trim_mode.value})"
        return self.kind.value


@dataclass(frozen=True)
class SortedEvaluations:
    """Evaluations of one action, ascending, declaration order on ties."""

    pairs: tuple[tuple[TheoryId, Fraction], ...]

    def __len__(self) -> int:
        return len(self.pairs)


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
) -> SortedEvaluations:
    """Theories sorted by their evaluation of ``action``, ascending.

    Exactly equal evaluations keep declaration order, which makes every
    downstream prefix/suffix computation deterministic.
    """
    values = _evaluations(framework, action)
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    return SortedEvaluations(
        tuple((framework.theories[i].id, values[i]) for i in order)
    )


def _check_trim_level(k: RationalLike) -> Fraction:
    k = to_rational(k)
    if not (0 <= k < HALF):
        raise InvalidSpec(f"trim level k must lie in [0, 1/2), got {k}")
    return k


def _trim(
    framework: EthicalFramework, action: ActionId, k: Fraction
) -> tuple[SortedEvaluations, int, int]:
    """One sort of ``action``'s evaluations, walked from both ends.

    Returns the sorted evaluations with bounds ``lo`` and ``hi`` into
    their pairs: ``[:lo]`` is the maximal low prefix of credence mass
    <= k, ``[hi:]`` the maximal high suffix, and ``[lo:hi]`` survives.
    """
    se = sorted_evaluations(framework, action)
    pairs = se.pairs
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
    return se, lo, hi


def bottom_k(
    framework: EthicalFramework, action: ActionId, k: RationalLike
) -> frozenset[TheoryId]:
    """Ids forming the maximal low-evaluation prefix of credence mass <= k."""
    se, lo, _ = _trim(framework, action, _check_trim_level(k))
    return frozenset(tid for tid, _ in se.pairs[:lo])


def top_k(
    framework: EthicalFramework, action: ActionId, k: RationalLike
) -> frozenset[TheoryId]:
    """Ids forming the maximal high-evaluation suffix of credence mass <= k."""
    se, _, hi = _trim(framework, action, _check_trim_level(k))
    return frozenset(tid for tid, _ in se.pairs[hi:])


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
    k = _check_trim_level(k)
    trim_mode = _coerce_trim_mode(trim_mode)
    se, lo, hi = _trim(framework, action, k)
    total = Fraction(0)
    mass = Fraction(0)
    for tid, value in se.pairs[lo:hi]:
        c = framework.credences[tid]
        total += c * value
        mass += c
    if trim_mode is TrimMode.RENORMALIZED:
        return total / mass
    return total


def wmedian(framework: EthicalFramework, action: ActionId) -> Fraction:
    """Credence-weighted median of the evaluations of ``action``.

    An index m into the sorted evaluations is valid when the credence
    mass strictly before it and strictly after it are both at most 1/2.
    With positive credences summing to 1 this is equivalent to the prefix
    sums straddling 1/2, so either exactly one index is valid or exactly
    two adjacent ones are; in the latter case the two evaluations are
    averaged.  Credences that do not sum to 1 raise
    :class:`CredenceSumNotOne`.
    """
    prefix = Fraction(0)
    valid: list[Fraction] = []
    for tid, value in sorted_evaluations(framework, action).pairs:
        before = prefix
        prefix += framework.credences[tid]
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
        return trimmed_wam(framework, action, spec.k, spec.trim_mode)
    if spec.kind is SwfKind.HM:
        return wmedian(framework, action)
    raise InvalidSpec(f"unknown functional kind {spec.kind!r}")


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
