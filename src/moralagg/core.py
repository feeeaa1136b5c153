"""Exact domain types for aggregation under moral uncertainty.

An ethical framework pairs a finite set of theories, each assigning an
exact rational evaluation to every action, with a credence function over
those theories.  All arithmetic is done with `fractions.Fraction`; floats
are rejected at every boundary so equality checks and credence sums are
exact, never approximate.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import islice
from operator import attrgetter
from types import MappingProxyType
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
    # Strings first: a str pays no check against the ``numbers`` ABCs.
    if isinstance(value, str):
        token = value.strip()
        if not _RATIONAL_RE.match(token):
            raise ValueError(f"not an exact rational literal: {value!r}")
        # The gate passed, so the value is built from the text's own parts:
        # the sign, the whole digits and the fraction digits apart, as
        # Fraction(str) converts them, so int()'s digit limit binds alike.
        num, slash, den = token.partition("/")
        if slash:
            return Fraction(int(num), int(den))
        whole, dot, frac = token.lstrip("+-").partition(".")
        if not dot:
            return Fraction(int(token))
        scale = 10 ** len(frac)
        value = int(whole or 0) * scale + int(frac or 0)
        return Fraction(-value if token[0] == "-" else value, scale)
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
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _frozen(cls):
    """Make ``cls`` an immutable value class over its annotated fields.

    The part of ``dataclass(frozen=True)`` the package uses, without
    importing ``dataclasses`` into every process: an ``__init__`` unless
    ``cls`` has one (the fields as parameters, class-level values as
    defaults, then ``__post_init__``); ``==`` within the class, field by
    field; a hash of the fields unless ``cls`` has one; the same
    ``repr``; ``AttributeError`` on assignment or deletion;
    ``__match_args__``.  Objects pickle and copy through their
    ``__dict__``, as dataclasses do.
    """
    names = tuple(cls.__annotations__)
    # The fields as a tuple, or the field itself when there is only one.
    values = attrgetter(*names)
    if "__init__" not in vars(cls):
        # Generated as dataclasses does: a real signature costs no more per
        # call than hand-written code, and setting each field through
        # object.__setattr__ keeps the instance's attributes in the class's
        # shared layout (a dict per instance would add work for the GC).
        params = ", ".join(
            f"{n}=_class[{n!r}]" if n in vars(cls) else n for n in names
        )
        body = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {"_set": object.__setattr__, "_class": vars(cls)}
        exec(f"def __init__(self, {params}):\n{body}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    if "__hash__" not in vars(cls):
        cls.__hash__ = lambda self: hash(values(self))
    cls.__eq__ = __eq__
    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    cls.__match_args__ = names
    return cls


def _check_id_token(value: str, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a nonempty string")
    if _ID_BAD_CHARS.search(value):
        raise ValueError(f"{what} {value!r} must not contain whitespace or '#'")
    return value


@_frozen
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


@_frozen
class Theory:
    """An ethical theory: an id plus exact evaluations of actions.

    Evaluations are intertheoretically comparable by assumption, so the
    raw numbers from different theories may be summed and compared.
    ``evaluations`` is read-only; hash and equality ignore its order.
    """

    id: TheoryId
    evaluations: Mapping[ActionId, Fraction]

    def __init__(self, id: TheoryId, evaluations: Mapping[ActionId, RationalLike]):
        _check_id_token(id, "theory id")
        object.__setattr__(self, "id", id)
        object.__setattr__(
            self,
            "evaluations",
            MappingProxyType({a: to_rational(v) for a, v in evaluations.items()}),
        )

    def __hash__(self) -> int:
        return hash((self.id, frozenset(self.evaluations.items())))

    def __reduce__(self):
        return Theory, (self.id, dict(self.evaluations))

    def evaluation(self, action: ActionId) -> Fraction:
        try:
            return self.evaluations[action]
        except KeyError:
            raise MissingEvaluation(self.id, action) from None


@_frozen
class EthicalFramework:
    """Theories in declaration order plus a credence for each.

    Construction enforces structural sanity only (distinct ids, one
    credence per theory); the full invariants, including totality of
    evaluations over an action set and the credence sum, are checked by
    :func:`validate_framework`.  ``credences`` is read-only; hash and
    equality ignore its order.
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
        object.__setattr__(self, "credences", MappingProxyType(fixed))
        object.__setattr__(self, "_index", index)

    def __hash__(self) -> int:
        return hash((self.theories, frozenset(self.credences.items())))

    def __reduce__(self):
        return EthicalFramework, (self.theories, dict(self.credences))

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
        """The summed credence of ``theory_ids``, each id counted once."""
        return sum((self.credence(t) for t in dict.fromkeys(theory_ids)), Fraction(0))


@_frozen
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

    def maximal_group(self) -> frozenset[ActionId]:
        return self.groups[-1]

    def __str__(self) -> str:
        return " ≺ ".join(
            " ~ ".join(sorted(group)) for group in self.groups
        )


ScoreTable = Mapping[ActionId, Fraction]


def validate_framework(
    framework: EthicalFramework, actions: ActionSet
) -> tuple[int, list[int]]:
    """Check every framework invariant against ``actions``.

    Returns ``(den, weights)``: ``den`` is the lcm of the credence
    denominators, and ``weights[i]`` is ``den`` times the credence of the
    ``i``-th declared theory (the constructor keeps that order).

    Raises
    ------
    DuplicateActionId
        Some action occurs twice in ``actions``.
    CredenceOutOfRange
        Some credence lies outside (0, 1].
    CredenceSumNotOne
        Credences do not sum to exactly 1 (message carries the exact
        deficit or surplus).
    MissingEvaluation
        Some theory does not evaluate some action in ``actions``.
    """
    for i, action in enumerate(actions):
        if action in islice(actions, i):
            raise DuplicateActionId(action)
    for theory in framework.theories:
        c = framework.credences[theory.id]
        if not (0 < c.numerator <= c.denominator):
            raise CredenceOutOfRange(theory.id, c)
    den, weights = _credence_weights(framework)
    for theory in framework.theories:
        for action in actions:
            if action not in theory.evaluations:
                raise MissingEvaluation(theory.id, action)
    return den, weights


def _credence_weights(framework: EthicalFramework) -> tuple[int, list[int]]:
    """``(den, weights)`` as :func:`validate_framework` returns them.

    The credence sum is taken in integers over the lcm of the
    denominators; raises :class:`CredenceSumNotOne` unless it is 1.
    """
    credences = framework.credences.values()
    den = math.lcm(*(c.denominator for c in credences))
    weights = [c.numerator * (den // c.denominator) for c in credences]
    if sum(weights) != den:
        raise CredenceSumNotOne(Fraction(sum(weights), den))
    return den, weights


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
    credences, which must sum to 1, are scaled by ``1 - new_mass`` so the
    result sums to 1 again.  Extending by nothing returns an equal
    framework.

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
    CredenceSumNotOne
        The old credences do not sum to 1.
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
    _credence_weights(framework)  # the old credences must sum to 1
    num, d = (1 - new_mass).as_integer_ratio()
    theories = list(framework.theories) + [t for t, _ in fixed]
    credences = {
        tid: Fraction(c.numerator * num, c.denominator * d)
        for tid, c in framework.credences.items()
    }
    credences.update({t.id: c for t, c in fixed})
    return EthicalFramework(theories, credences)


def ranking_from_scores(scores: ScoreTable) -> Ranking:
    """Group actions by exact score and order the groups ascending.

    Equal rationals share a group; any nonzero difference separates
    groups.  The worst group comes first.
    """
    return _ranking(scores, _dense_ranks([to_rational(s) for s in scores.values()]))


def _dense_ranks(scores: Sequence) -> tuple[int, ...]:
    """Each score's place among the distinct scores: equal iff same ranking.

    The one rule that groups scores, through one sort of the distinct
    scores.  The tuple is built at its final size: ``tuple()`` over a
    ``map`` guesses a length and resizes, which allocates a fresh tuple
    on every call and so speeds up the collector's young generation.
    """
    distinct = sorted(set(scores))
    return (*map(distinct.index, scores),)


def _ranking(actions: Iterable[ActionId], ranks: Sequence[int]) -> Ranking:
    """The ranking whose groups are the actions of equal dense rank, worst first."""
    if not ranks:
        raise ValueError("cannot rank an empty score table")
    groups: list[list[ActionId]] = [[] for _ in range(max(ranks) + 1)]
    for action, rank in zip(actions, ranks):
        groups[rank].append(action)
    return Ranking(groups)


def theory_ranking(theory: Theory, actions: ActionSet) -> Ranking:
    """The weak order a single theory induces over ``actions``."""
    return ranking_from_scores({a: theory.evaluation(a) for a in actions})
