"""Exact domain types for aggregation under moral uncertainty.

An ethical framework pairs a finite set of theories, each assigning an
exact rational evaluation to every action, with a credence function over
those theories.  All arithmetic is done with `fractions.Fraction`; floats
are rejected at every boundary so equality checks and credence sums are
exact, never approximate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str]

ActionId = str
TheoryId = str

_RATIONAL_RE = re.compile(r"[+-]?(?:\d+/[1-9]\d*|\d+\.\d*|\.\d+|\d+)\Z")
_ID_BAD_CHARS = re.compile(r"[\s#]")


class MoralAggError(Exception):
    """Base class for all domain errors raised by this package."""


class CredenceOutOfRange(MoralAggError):
    def __init__(self, theory_id: TheoryId, value: Fraction, allow_one: bool = True):
        self.theory_id = theory_id
        self.value = value
        interval = "(0, 1]" if allow_one else "(0, 1)"
        super().__init__(
            f"credence for theory {theory_id!r} is {value}, outside {interval}"
        )


class CredenceSumNotOne(MoralAggError):
    """Credences must sum to exactly 1; reports the exact deficit or surplus."""

    def __init__(self, total: Fraction):
        self.total = total
        self.deficit = 1 - total
        side = "deficit" if total < 1 else "surplus"
        super().__init__(
            f"credences sum to {total}, {side} of {abs(1 - total)}"
        )


class DuplicateTheoryId(MoralAggError):
    def __init__(self, theory_id: TheoryId):
        self.theory_id = theory_id
        super().__init__(f"duplicate theory id {theory_id!r}")


class DuplicateActionId(MoralAggError):
    def __init__(self, action: ActionId):
        self.action = action
        super().__init__(f"duplicate action id {action!r}")


class MissingEvaluation(MoralAggError):
    def __init__(self, theory_id: TheoryId, action: ActionId):
        self.theory_id = theory_id
        self.action = action
        super().__init__(
            f"theory {theory_id!r} has no evaluation for action {action!r}"
        )


class EmptyRestriction(MoralAggError):
    def __init__(self) -> None:
        super().__init__("cannot restrict a framework to an empty theory set")


class UnknownTheoryId(MoralAggError):
    def __init__(self, theory_id: TheoryId):
        self.theory_id = theory_id
        super().__init__(f"unknown theory id {theory_id!r}")


class CredenceMassExceeded(MoralAggError):
    def __init__(self, mass: Fraction):
        self.mass = mass
        super().__init__(
            f"new theories carry total credence {mass}, which must be < 1"
        )


class ActionSetMismatch(MoralAggError):
    def __init__(self) -> None:
        super().__init__("rankings cover different action sets")


class UnknownAction(MoralAggError):
    def __init__(self, action: ActionId):
        self.action = action
        super().__init__(f"unknown action {action!r}")


def to_rational(value: RationalLike) -> Fraction:
    """Convert ``value`` to an exact ``Fraction``.

    Accepts ``Fraction``, ``int``, and strings in decimal ("0.99") or
    fraction ("99/100") form.  Floats are rejected outright: binary floats
    are inexact and would silently poison credence sums and score
    comparisons.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: floats are inexact, pass str, int or Fraction"
        )
    if isinstance(value, str):
        token = value.strip()
        if not _RATIONAL_RE.match(token):
            raise ValueError(f"not an exact rational literal: {value!r}")
        return Fraction(token)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _check_id_token(value: str, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a nonempty string")
    if _ID_BAD_CHARS.search(value):
        raise ValueError(f"{what} {value!r} must not contain whitespace or '#'")
    return value


@dataclass(frozen=True)
class ActionSet:
    """Ordered, duplicate-free collection of action identifiers."""

    actions: tuple[ActionId, ...]

    def __init__(self, actions: Iterable[ActionId]):
        actions = tuple(actions)
        if not actions:
            raise ValueError("an action set needs at least one action")
        seen = set()
        for a in actions:
            _check_id_token(a, "action id")
            if a in seen:
                raise DuplicateActionId(a)
            seen.add(a)
        object.__setattr__(self, "actions", actions)

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __contains__(self, action: object) -> bool:
        return action in self.actions


@dataclass(frozen=True)
class Theory:
    """An ethical theory: an id plus exact evaluations of actions.

    Evaluations are intertheoretically comparable by assumption, so the
    raw numbers from different theories may be summed and compared.
    """

    id: TheoryId
    evaluations: Mapping[ActionId, Fraction]

    def __init__(self, id: TheoryId, evaluations: Mapping[ActionId, RationalLike]):
        _check_id_token(id, "theory id")
        object.__setattr__(self, "id", id)
        object.__setattr__(
            self,
            "evaluations",
            {a: to_rational(v) for a, v in evaluations.items()},
        )

    def evaluation(self, action: ActionId) -> Fraction:
        try:
            return self.evaluations[action]
        except KeyError:
            raise MissingEvaluation(self.id, action) from None


@dataclass(frozen=True)
class EthicalFramework:
    """Theories in declaration order plus a credence for each.

    Construction enforces structural sanity only (distinct ids, one
    credence per theory); the full invariants, including totality of
    evaluations over an action set and the credence sum, are checked by
    :func:`validate_framework`.
    """

    theories: tuple[Theory, ...]
    credences: Mapping[TheoryId, Fraction]

    def __init__(
        self,
        theories: Sequence[Theory],
        credences: Mapping[TheoryId, RationalLike],
    ):
        theories = tuple(theories)
        index: dict[TheoryId, int] = {}
        for pos, theory in enumerate(theories):
            if theory.id in index:
                raise DuplicateTheoryId(theory.id)
            index[theory.id] = pos
        for tid in credences:
            if tid not in index:
                raise UnknownTheoryId(tid)
        fixed: dict[TheoryId, Fraction] = {}
        for theory in theories:
            if theory.id not in credences:
                raise ValueError(f"no credence given for theory {theory.id!r}")
            fixed[theory.id] = to_rational(credences[theory.id])
        object.__setattr__(self, "theories", theories)
        object.__setattr__(self, "credences", fixed)
        object.__setattr__(self, "_index", index)

    def theory_ids(self) -> tuple[TheoryId, ...]:
        return tuple(t.id for t in self.theories)

    def theory(self, theory_id: TheoryId) -> Theory:
        try:
            return self.theories[self._index[theory_id]]
        except KeyError:
            raise UnknownTheoryId(theory_id) from None

    def credence(self, theory_id: TheoryId) -> Fraction:
        try:
            return self.credences[theory_id]
        except KeyError:
            raise UnknownTheoryId(theory_id) from None

    def total_credence(self, theory_ids: Iterable[TheoryId]) -> Fraction:
        return sum((self.credence(t) for t in theory_ids), Fraction(0))


@dataclass(frozen=True)
class Ranking:
    """A weak order over actions: an ordered partition, worst group first.

    Two rankings are equal iff they are the same ordered partition; there
    is no tolerance, scores that differ by any amount separate groups.
    """

    groups: tuple[frozenset[ActionId], ...]

    def __init__(self, groups: Iterable[Iterable[ActionId]]):
        fixed = tuple(frozenset(g) for g in groups)
        if not fixed:
            raise ValueError("a ranking needs at least one group")
        seen: set[ActionId] = set()
        for group in fixed:
            if not group:
                raise ValueError("ranking groups must be nonempty")
            if group & seen:
                raise ValueError("ranking groups must be disjoint")
            seen |= group
        object.__setattr__(self, "groups", fixed)

    def action_ids(self) -> frozenset[ActionId]:
        return frozenset().union(*self.groups)

    def maximal_group(self) -> frozenset[ActionId]:
        return self.groups[-1]

    def __str__(self) -> str:
        return " ≺ ".join(
            " ~ ".join(sorted(group)) for group in self.groups
        )


ScoreTable = Mapping[ActionId, Fraction]


def validate_framework(framework: EthicalFramework, actions: ActionSet) -> None:
    """Check every framework invariant against ``actions``.

    Raises
    ------
    CredenceOutOfRange
        Some credence lies outside (0, 1].
    CredenceSumNotOne
        Credences do not sum to exactly 1 (message carries the exact
        deficit or surplus).
    MissingEvaluation
        Some theory does not evaluate some action in ``actions``.
    """
    for theory in framework.theories:
        c = framework.credences[theory.id]
        if not (0 < c <= 1):
            raise CredenceOutOfRange(theory.id, c)
    total = sum(framework.credences.values(), Fraction(0))
    if total != 1:
        raise CredenceSumNotOne(total)
    for theory in framework.theories:
        for action in actions:
            if action not in theory.evaluations:
                raise MissingEvaluation(theory.id, action)


def restrict(
    framework: EthicalFramework, theory_ids: Iterable[TheoryId]
) -> EthicalFramework:
    """Restrict ``framework`` to a subset of its theories.

    The surviving credences are rescaled by ``1 / mass`` where ``mass`` is
    their original total, so they again sum to exactly 1.  Declaration
    order is preserved.

    Raises
    ------
    EmptyRestriction
        ``theory_ids`` is empty.
    UnknownTheoryId
        Some id does not occur in the framework.
    """
    wanted = set(theory_ids)
    if not wanted:
        raise EmptyRestriction()
    known = set(framework.theory_ids())
    for tid in sorted(wanted - known):
        raise UnknownTheoryId(tid)
    kept = [t for t in framework.theories if t.id in wanted]
    mass = sum((framework.credences[t.id] for t in kept), Fraction(0))
    scaled = {t.id: framework.credences[t.id] / mass for t in kept}
    return EthicalFramework(kept, scaled)


def extend(
    framework: EthicalFramework,
    new_pairs: Sequence[tuple[Theory, RationalLike]],
) -> EthicalFramework:
    """Extend ``framework`` with new theories at the given credences.

    The new theories keep exactly the credences supplied; the old
    credences are scaled by ``(1 - new_mass) / old_mass`` so the result
    sums to 1 again.  Extending by nothing returns an equal framework.

    Raises
    ------
    DuplicateTheoryId
        A new id collides with an existing one, or two new theories share
        an id.
    CredenceOutOfRange
        Some new credence lies outside (0, 1).  Exactly 1 is rejected
        because the old theories would be left with zero credence.
    CredenceMassExceeded
        The new credences total 1 or more.
    """
    existing = set(framework.theory_ids())
    new_ids: set[TheoryId] = set()
    fixed: list[tuple[Theory, Fraction]] = []
    for theory, credence in new_pairs:
        if theory.id in existing or theory.id in new_ids:
            raise DuplicateTheoryId(theory.id)
        new_ids.add(theory.id)
        c = to_rational(credence)
        if not (0 < c < 1):
            raise CredenceOutOfRange(theory.id, c, allow_one=False)
        fixed.append((theory, c))
    new_mass = sum((c for _, c in fixed), Fraction(0))
    if fixed and new_mass >= 1:
        raise CredenceMassExceeded(new_mass)
    old_mass = sum(framework.credences.values(), Fraction(0))
    scale = (1 - new_mass) / old_mass
    theories = list(framework.theories) + [t for t, _ in fixed]
    credences = {t.id: framework.credences[t.id] * scale for t in framework.theories}
    credences.update({t.id: c for t, c in fixed})
    return EthicalFramework(theories, credences)


def ranking_from_scores(scores: ScoreTable) -> Ranking:
    """Group actions by exact score and order the groups ascending.

    Equal rationals share a group; any nonzero difference separates
    groups.  The worst group comes first.
    """
    if not scores:
        raise ValueError("cannot rank an empty score table")
    by_score: dict[Fraction, set[ActionId]] = {}
    for action, score in scores.items():
        by_score.setdefault(to_rational(score), set()).add(action)
    return Ranking(by_score[s] for s in sorted(by_score))


def rankings_equal(left: Ranking, right: Ranking) -> bool:
    """Exact equality of weak orders over the same action set."""
    if left.action_ids() != right.action_ids():
        raise ActionSetMismatch()
    return left.groups == right.groups


def theory_ranking(theory: Theory, actions: ActionSet) -> Ranking:
    """The weak order a single theory induces over ``actions``."""
    return ranking_from_scores({a: theory.evaluation(a) for a in actions})
