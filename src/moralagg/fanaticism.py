"""Dominant subsets and fanaticism analysis.

A subset of theories is *dominant* when restricting the framework to it
reproduces the full ranking while the remaining theories, on their own,
rank differently: the subset settles the outcome and the rest yield.
Dominance carries no credence bound: a majority theory that dominates
under the highest median is the expected, non-fanatical outcome.  The
low-credence condition belongs to fanaticism, defined next.

Dominance is decided without building restricted frameworks.  Each call
of :func:`is_dominant_subset` or :func:`enumerate_dominant_subsets`
validates and compiles the framework once into exact integers (see
``functionals._mask_scorer``); a subset is then a bitmask over the
declared theories, and its ranking is read from one integer score per
action.  Enumeration visits each subset together with its complement,
scores every mask once, and compares the two rankings with each other
and with the full ranking; ``Ranking`` objects are built only for the
subsets it reports.

A functional is *fanatical* at credence level k when every framework can
be captured this way by newly added theories of total credence at most k.
This module constructs explicit capturing extensions for the mean and
maximin rules at every level, and for the trimmed mean when the injected
credence exceeds the trim level; it also provides probes showing that the
trimmed mean below its trim level and the weighted median resist every
such adversary on the canonical two-action family.

Every constructed witness is re-verified through
:func:`is_dominant_subset` before it is returned; a construction that
fails verification raises :class:`ConstructionFailed` instead of
returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .core import (
    ActionId,
    ActionSet,
    EthicalFramework,
    MoralAggError,
    Ranking,
    RationalLike,
    Theory,
    TheoryId,
    UnknownTheoryId,
    extend,
    to_rational,
)
from .functionals import (
    HALF,
    AggregateResult,
    SwfSpec,
    TrimMode,
    _mask_scorer,
    _trim,
    aggregate,
    wmedian,
)


class NotProperSubset(MoralAggError):
    def __init__(self) -> None:
        super().__init__(
            "a dominant-subset candidate must be a nonempty proper subset"
        )


class TooManyTheories(MoralAggError):
    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        super().__init__(
            f"framework has {count} theories; enumeration is capped at {limit}"
        )


class TargetIsUniqueMaximizer(MoralAggError):
    def __init__(self, action: ActionId):
        self.action = action
        super().__init__(
            f"target action {action!r} is already the unique best action"
        )


class BadCredence(MoralAggError):
    def __init__(self, value: Fraction):
        self.value = value
        super().__init__(f"credence level must lie in (0, 1/2), got {value}")


class BadCredencePair(MoralAggError):
    def __init__(self, k: Fraction, k_prime: Fraction):
        self.k = k
        self.k_prime = k_prime
        super().__init__(
            f"need 0 <= k < k' < 1/2, got k={k}, k'={k_prime}"
        )


class CredenceTooHigh(MoralAggError):
    def __init__(self, mass: Fraction, limit: Fraction):
        self.mass = mass
        self.limit = limit
        super().__init__(
            f"adversary credence mass {mass} exceeds the probed level {limit}"
        )


class ConstructionFailed(MoralAggError):
    pass


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one dominance check.

    ``is_dominant`` holds iff the full ranking equals the candidate
    subset's ranking and that ranking differs from the complement's.
    The candidate's credence plays no part; the low-credence condition
    belongs to the capture and resistance claims (``witness_*``,
    ``probe_*``).
    """

    is_dominant: bool
    full_ranking: Ranking
    dominant_ranking: Ranking
    yielding_ranking: Ranking


@dataclass(frozen=True)
class DominantSubset:
    theory_ids: frozenset[TheoryId]
    total_credence: Fraction
    verdict: DominanceVerdict


@dataclass(frozen=True)
class WitnessReport:
    """A capturing extension, verified dominant under ``spec``.

    ``construction`` records the intermediate constants (bounds, floor
    values, the action permutation, the chosen target) so a reader can
    recompute the injected evaluations by hand.
    """

    spec: SwfSpec
    extended_framework: EthicalFramework
    injected_theories: frozenset[TheoryId]
    total_credence: Fraction
    verdict: DominanceVerdict
    construction: Mapping[str, object]


def is_dominant_subset(
    spec: SwfSpec,
    framework: EthicalFramework,
    actions: ActionSet,
    theory_ids: Iterable[TheoryId],
) -> DominanceVerdict:
    """Check whether ``theory_ids`` is a dominant subset of ``framework``.

    Both the candidate and its complement are renormalized restrictions
    of the framework, and all three rankings are computed under ``spec``:
    the framework is validated and compiled once, and the full set, the
    candidate and the complement are ranked as three bitmasks.  The
    rankings equal those :func:`aggregate` gives for the restrictions.
    No credence bound applies: a subset of any total credence may be
    dominant.

    Raises
    ------
    NotProperSubset
        ``theory_ids`` is empty or contains every theory.
    UnknownTheoryId
        Some id does not occur in the framework.
    """
    candidate = frozenset(theory_ids)
    all_ids = frozenset(framework.theory_ids())
    for tid in sorted(candidate - all_ids):
        raise UnknownTheoryId(tid)
    if not candidate or candidate == all_ids:
        raise NotProperSubset()
    scores = _mask_scorer(spec, framework, actions)
    everyone = (1 << len(all_ids)) - 1
    bits = _bits(framework)
    mask = sum(bits[tid] for tid in candidate)
    full, dominant, yielding = (
        _ranking(actions, _dense_ranks(scores(m)))
        for m in (everyone, mask, everyone ^ mask)
    )
    return DominanceVerdict(
        is_dominant=(full == dominant) and (dominant != yielding),
        full_ranking=full,
        dominant_ranking=dominant,
        yielding_ranking=yielding,
    )


def _bits(framework: EthicalFramework) -> dict[TheoryId, int]:
    """Each theory's bit in a subset mask: ``1 << i`` for the ``i``-th declared."""
    return {t.id: 1 << i for i, t in enumerate(framework.theories)}


def _dense_ranks(scores: tuple) -> tuple[int, ...]:
    """Each score's place among the distinct scores: equal iff same ranking.

    Sorting and comparing neighbours avoids hashing, which is slow for
    the ``Fraction`` scores of renormalized ``kthm``.
    """
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0] * len(scores)
    for prev, cur in zip(order, order[1:]):
        ranks[cur] = ranks[prev] + (scores[cur] != scores[prev])
    return tuple(ranks)


def _ranking(actions: ActionSet, ranks: tuple[int, ...]) -> Ranking:
    """The ranking whose groups are the actions of equal dense rank, worst first."""
    return Ranking(
        [a for a, r in zip(actions, ranks) if r == place]
        for place in range(max(ranks) + 1)
    )


def enumerate_dominant_subsets(
    spec: SwfSpec,
    framework: EthicalFramework,
    actions: ActionSet,
    max_theories: int = 16,
) -> list[DominantSubset]:
    """Exhaustively list every dominant subset of ``framework``.

    All nonempty proper subsets are checked, so the work is exponential
    in the number of theories; frameworks larger than ``max_theories``
    are rejected up front with :class:`TooManyTheories`.  The framework
    is validated and compiled once.  Each subset and its complement are
    then visited together, once: both masks are scored and keyed by the
    dense rank of each action's score, so two subsets rank alike exactly
    when their keys are equal.  A side is reported when its key equals
    the full framework's and differs from the other side's, with the
    verdict :func:`is_dominant_subset` would give.  No per-subset table
    is kept.  Results are ordered by subset size, then lexicographically
    by ids.  A framework of fewer than two theories has no nonempty
    proper subset and gives ``[]``.
    """
    ids = sorted(framework.theory_ids())
    if len(ids) > max_theories:
        raise TooManyTheories(len(ids), max_theories)
    if len(ids) < 2:
        return []
    scores = _mask_scorer(spec, framework, actions)
    everyone = (1 << len(ids)) - 1
    full_key = _dense_ranks(scores(everyone))
    full = _ranking(actions, full_key)
    bits = _bits(framework)
    found: list[tuple[tuple[int, list[TheoryId]], DominantSubset]] = []
    # Masks without the top bit meet every {subset, complement} pair once.
    for mask in range(1, 1 << (len(ids) - 1)):
        key = _dense_ranks(scores(mask))
        other_key = _dense_ranks(scores(everyone ^ mask))
        if key == other_key:
            continue
        if key == full_key:
            members, rest = mask, other_key
        elif other_key == full_key:
            members, rest = everyone ^ mask, key
        else:
            continue
        combo = sorted(tid for tid, bit in bits.items() if members & bit)
        verdict = DominanceVerdict(True, full, full, _ranking(actions, rest))
        subset = DominantSubset(
            frozenset(combo), framework.total_credence(combo), verdict
        )
        found.append(((len(combo), combo), subset))
    found.sort(key=lambda entry: entry[0])
    return [subset for _, subset in found]


def _fresh_theory_id(taken: Iterable[TheoryId], base: str = "ft") -> TheoryId:
    taken = set(taken)
    if base not in taken:
        return base
    n = 2
    while f"{base}{n}" in taken:
        n += 1
    return f"{base}{n}"


def _declaration_first(group: Iterable[ActionId], actions: ActionSet) -> ActionId:
    members = set(group)
    for a in actions:
        if a in members:
            return a
    raise AssertionError("ranking group disjoint from action set")


def _choose_target(
    ranking: Ranking, actions: ActionSet, target: Optional[ActionId]
) -> ActionId:
    """Pick or vet the action the injected theory will push to the top.

    Any action works except a unique best one: the capture must change
    something, and an already uniquely best target would leave the
    yielding ranking potentially identical to the imposed chain.
    Defaults to the first worst-group action, or the first action
    outright when every action is tied.
    """
    maximal = ranking.maximal_group()
    if target is None:
        if len(ranking.groups) >= 2:
            candidates = ranking.groups[0]
        else:
            candidates = frozenset(actions)
        for a in actions:
            if a in candidates and maximal != frozenset({a}):
                return a
        raise AssertionError("no valid target exists")
    if target not in actions:
        raise MoralAggError(f"target {target!r} is not in the action set")
    if maximal == frozenset({target}):
        raise TargetIsUniqueMaximizer(target)
    return target


def _credence_level(k: RationalLike) -> Fraction:
    k = to_rational(k)
    if not (0 < k < HALF):
        raise BadCredence(k)
    return k


def _verified(
    spec: SwfSpec,
    framework: EthicalFramework,
    actions: ActionSet,
    values: Mapping[ActionId, Fraction],
    credence: Fraction,
    construction: Mapping[str, object],
) -> WitnessReport:
    """Inject a fresh theory with ``values`` at ``credence``; re-verify it.

    The injected id is added to ``construction`` as its last key.
    """
    injected = Theory(_fresh_theory_id(framework.theory_ids()), values)
    construction = {**construction, "injected_id": injected.id}
    extended = extend(framework, [(injected, credence)])
    ids = frozenset({injected.id})
    verdict = is_dominant_subset(spec, extended, actions, ids)
    if not verdict.is_dominant:
        raise ConstructionFailed(
            f"constructed extension failed dominance verification: {construction!r}"
        )
    return WitnessReport(spec, extended, ids, credence, verdict, construction)


def _ladder_witness(
    spec: SwfSpec,
    framework: EthicalFramework,
    actions: ActionSet,
    credence: Fraction,
    target: Optional[ActionId],
    bound: Callable[[AggregateResult], Fraction],
) -> WitnessReport:
    """Capture ``spec`` with one theory walking the actions up a ladder.

    ``bound(base)`` gives ``s``, a bound on the absolute share of any
    action's extended score that the base theories contribute.  At the
    injected ``credence`` each rung of the ladder adds ``m = 2s + 1``,
    more than the base theories can ever take back, so the extended
    scores form a strict chain ending at the target.
    """
    if len(actions) < 2:
        raise MoralAggError("capturing needs at least two actions")
    base = aggregate(spec, framework, actions)
    chosen = _choose_target(base.ranking, actions, target)
    a_star = _declaration_first(base.ranking.maximal_group() - {chosen}, actions)
    s = bound(base)
    m = 2 * s + 1
    # Values step, 2*step, ..., n*step along a permutation that puts the
    # target last, so the injected theory alone ranks the target strictly best.
    permutation = tuple(a for a in actions if a != chosen) + (chosen,)
    step = m / credence
    values = {a: step * (i + 1) for i, a in enumerate(permutation)}
    construction = {
        "target": chosen,
        "a_star": a_star,
        "bound": s,
        "step": m,
        "permutation": permutation,
    }
    return _verified(spec, framework, actions, values, credence, construction)


def witness_mec(
    framework: EthicalFramework,
    actions: ActionSet,
    k: RationalLike,
    target: Optional[ActionId] = None,
) -> WitnessReport:
    """Capture the mean rule with one theory of credence exactly ``k``.

    The injected theory walks the actions up an arithmetic ladder with
    step ``m/k`` where ``m`` exceeds twice the largest absolute weighted
    mean of the base framework, so after extension the weighted means
    form a strict chain ending at ``target`` no matter what the base
    theories say.  Works for every ``k`` in (0, 1/2).

    Raises
    ------
    BadCredence
        ``k`` outside (0, 1/2).
    TargetIsUniqueMaximizer
        ``target`` was supplied and is already the unique best action.
    ConstructionFailed
        The re-verification failed (this would be a bug, not an input
        defect).
    """
    return _ladder_witness(
        SwfSpec.mec(),
        framework,
        actions,
        _credence_level(k),
        target,
        lambda base: max(abs(v) for v in base.scores.values()),
    )


def witness_maximin(
    framework: EthicalFramework,
    actions: ActionSet,
    k: RationalLike,
    reading: str = "corrected",
) -> WitnessReport:
    """Capture the maximin rule with one theory of credence exactly ``k``.

    The injected theory undercuts every existing evaluation: M - 2 on one
    distinguished action, M - 1 elsewhere, where M is the global minimum
    evaluation.  Maximin then listens only to the injected theory.  With
    ``reading="corrected"`` (default) the undercut action is a best
    action of the base maximin ranking, which guarantees the base
    ranking changes; ``reading="literal"`` undercuts the action attaining
    the global minimum instead, which can fail verification (for
    instance when that action is already alone at the bottom) and then
    raises :class:`ConstructionFailed`.
    """
    k = _credence_level(k)
    if len(actions) < 2:
        raise MoralAggError("capturing needs at least two actions")
    if reading not in ("corrected", "literal"):
        raise ValueError(f"unknown reading {reading!r}")
    spec = SwfSpec.maximin()
    base = aggregate(spec, framework, actions)
    floor = min(base.scores.values())
    if reading == "corrected":
        a_star = _declaration_first(base.ranking.maximal_group(), actions)
    else:
        a_star = _declaration_first(base.ranking.groups[0], actions)
    values = {a: floor - 2 if a == a_star else floor - 1 for a in actions}
    construction = {"a_star": a_star, "floor": floor, "reading": reading}
    return _verified(spec, framework, actions, values, k, construction)


def witness_kthm(
    framework: EthicalFramework,
    actions: ActionSet,
    k: RationalLike,
    k_prime: RationalLike,
    target: Optional[ActionId] = None,
) -> WitnessReport:
    """Capture the k-trimmed mean with one theory of credence ``k_prime > k``.

    A theory whose credence exceeds the trim level can never be trimmed,
    on either side: any trimmed prefix or suffix has mass at most ``k``.
    So the same ladder construction as for the mean rule goes through,
    with the bound taken over the credence-weighted absolute evaluations
    (which dominates every partially-trimmed remainder).  Verification
    runs in LITERAL mode at level ``k``.

    Raises
    ------
    BadCredencePair
        Unless ``0 <= k < k_prime < 1/2``.
    TargetIsUniqueMaximizer
        ``target`` was supplied and is already the unique best action of
        the base trimmed ranking.
    """
    k = to_rational(k)
    k_prime = to_rational(k_prime)
    if not (0 <= k < k_prime < HALF):
        raise BadCredencePair(k, k_prime)

    def bound(base: AggregateResult) -> Fraction:
        return (1 - k_prime) * max(
            sum(
                (framework.credences[t.id] * abs(t.evaluation(a))
                 for t in framework.theories),
                Fraction(0),
            )
            for a in actions
        )

    return _ladder_witness(
        SwfSpec.kthm(k, TrimMode.LITERAL), framework, actions, k_prime, target, bound
    )


CANONICAL_ACTIONS = ActionSet(("a", "b"))


def canonical_family(
    adversary_ids: Iterable[TheoryId] = (),
) -> tuple[EthicalFramework, ActionSet]:
    """The two-action, single-theory family used by the resistance probes.

    One theory of full credence prefers action ``a`` (evaluation 1) to
    action ``b`` (evaluation 0).  The theory id avoids the given
    adversary ids.
    """
    tid = _fresh_theory_id(adversary_ids, base="t")
    base = Theory(tid, {"a": Fraction(1), "b": Fraction(0)})
    return EthicalFramework([base], {tid: Fraction(1)}), CANONICAL_ACTIONS


def _probe(
    spec: SwfSpec,
    k: Fraction,
    adversary: Sequence[tuple[Theory, RationalLike]],
    structural_check: Callable[[EthicalFramework, ActionId], None],
) -> bool:
    """Extend the canonical family by ``adversary`` and test its dominance.

    ``structural_check(extended, action)`` raises
    :class:`ConstructionFailed` when the reason the rule resists fails
    on ``action``; in ``extended`` the base theory comes first and the
    adversary after it.  The full ranking, read from the dominance
    verdict, must also stay ``b ≺ a``.
    """
    fixed = [(t, to_rational(c)) for t, c in adversary]
    mass = sum((c for _, c in fixed), Fraction(0))
    if mass > k:
        raise CredenceTooHigh(mass, k)
    base, actions = canonical_family([t.id for t, _ in fixed])
    extended = extend(base, fixed)
    for action in actions:
        structural_check(extended, action)
    if not fixed:
        return True
    adversary_ids = frozenset(t.id for t, _ in fixed)
    verdict = is_dominant_subset(spec, extended, actions, adversary_ids)
    if verdict.full_ranking != Ranking([{"b"}, {"a"}]):
        raise ConstructionFailed(
            f"{spec.label()} ranking moved to {verdict.full_ranking} "
            "under the adversary"
        )
    return not verdict.is_dominant


def probe_kthm_non_fanatical(
    k: RationalLike,
    adversary: Sequence[tuple[Theory, RationalLike]],
) -> bool:
    """Throw an adversary of credence mass <= k at the trimmed mean.

    Every adversary theory must evaluate actions ``a`` and ``b``.  After
    extending the canonical family, the base theory's credence exceeds
    1/2 > k, so the sorted evaluations of either action trim exactly the
    adversary theories on both sides of it; the LITERAL ranking therefore
    stays put.  Returns True iff the adversary is *not* a dominant
    subset.  The structural claims (all adversaries trimmed, ranking
    preserved) are re-checked at runtime and raise
    :class:`ConstructionFailed` if violated.
    """
    k = _credence_level(k)

    def all_trimmed(extended: EthicalFramework, action: ActionId) -> None:
        pairs, lo, hi = _trim(extended, action, k)
        shed = {tid for tid, _ in pairs[:lo] + pairs[hi:]}
        if not {t.id for t in extended.theories[1:]} <= shed:
            raise ConstructionFailed(
                f"adversary theory survived trimming on {action!r}"
            )

    return _probe(SwfSpec.kthm(k, TrimMode.LITERAL), k, adversary, all_trimmed)


def probe_hm_non_fanatical(
    k: RationalLike,
    adversary: Sequence[tuple[Theory, RationalLike]],
) -> bool:
    """Throw an adversary of credence mass <= k at the weighted median.

    The base theory keeps credence above 1/2 after extension, so it
    dictates the weighted median of every action and the ranking cannot
    move.  Returns True iff the adversary is *not* a dominant subset.
    """

    def majority_dictates(extended: EthicalFramework, action: ActionId) -> None:
        if wmedian(extended, action) != extended.theories[0].evaluation(action):
            raise ConstructionFailed(
                f"majority theory failed to dictate the median of {action!r}"
            )

    return _probe(SwfSpec.hm(), _credence_level(k), adversary, majority_dictates)
