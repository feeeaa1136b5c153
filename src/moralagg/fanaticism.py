"""Dominant subsets and fanaticism analysis.

A subset of theories is *dominant* when restricting the framework to it
reproduces the full ranking while the remaining theories, on their own,
rank differently: the subset settles the outcome and the rest yield.
Dominance carries no credence bound: a majority theory that dominates
under the highest median is the expected, non-fanatical outcome.  The
low-credence condition belongs to fanaticism, defined next.

Dominance is decided without building restricted frameworks.  Each call
of :func:`is_dominant_subset` or :func:`enumerate_dominant_subsets`
validates and compiles the framework once into exact integers, the
same compile that :func:`~moralagg.functionals.aggregate` reads.  This
module names a subset by its theory ids, and the compile keys it by
the dense ranks of one integer score per action: every ranking here and
in :func:`aggregate`, the full one included, comes from such a key.  A
subset and its complement are two sides of one split, and at most one
side can be dominant: one that ranks like the full framework while the
other does not.  Enumeration asks the compile for exactly those sides
(:meth:`~moralagg.functionals._Compiled.sides`), and builds one ranking
per distinct ranking of their complements.

A functional is *fanatical* at credence level k when every framework can
be captured this way by newly added theories of total credence at most k.
This module constructs explicit capturing extensions for the mean and
maximin rules at every level, and for the trimmed mean when the injected
credence exceeds the trim level; it also provides probes showing that the
trimmed mean below its trim level and the weighted median resist every
such adversary on the canonical two-action family.

Every witness is built from one compile of its base framework and
verified on a fresh compile of the extended framework before it is
returned; a construction that fails verification raises
:class:`ConstructionFailed` instead of returning quietly.
"""

from __future__ import annotations

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
    _frozen,
    _ranking,
    extend,
    to_rational,
)
from .functionals import HALF, SwfKind, SwfSpec, TrimMode, _Compiled


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


@_frozen
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


@_frozen
class DominantSubset:
    theory_ids: frozenset[TheoryId]
    total_credence: Fraction
    verdict: DominanceVerdict


@_frozen
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
    the framework is validated and compiled once, and the compile keys
    the full set, the candidate and the complement.  The rankings equal
    those :func:`aggregate` gives for the restrictions.
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
    return _verdict(actions, _Compiled(spec, framework, actions).keys(candidate))


def _verdict(actions: ActionSet, keys: Iterable[Sequence[int]]) -> DominanceVerdict:
    """The dominance verdict from the keys of the full set, a subset and the rest."""
    full, dominant, yielding = (_ranking(actions, key) for key in keys)
    return DominanceVerdict(full == dominant != yielding, full, dominant, yielding)


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
    is validated and compiled once.  A subset is dominant exactly when
    it ranks like the full framework and its complement does not: were
    both alike, their rankings would be equal.  So the compile reports
    those sides, and nothing outlives the call but the results.  Each
    gets the verdict :func:`is_dominant_subset` would give, one verdict
    shared by every side whose complement ranks alike.  Results are
    ordered by subset size, then lexicographically by ids: by the order
    keys, in one sort.
    """
    n = len(framework.theories)
    if n > max_theories:
        raise TooManyTheories(n, max_theories)
    full_key, sides = _Compiled(spec, framework, actions).sides()
    full = _ranking(actions, full_key)
    verdicts: dict[tuple[int, ...], DominanceVerdict] = {}
    found: dict[int, DominantSubset] = {}
    for ids, credence, order, rest in sides:
        verdict = verdicts.get(rest)
        if verdict is None:
            verdict = DominanceVerdict(True, full, full, _ranking(actions, rest))
            verdicts[rest] = verdict
        found[order] = DominantSubset(ids, credence, verdict)
    return [found[order] for order in sorted(found)]


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
    Defaults to the first worst-group action; with two or more actions
    it is never the unique best, since either a better group exists or
    the one group holds every action.
    """
    if target is None:
        return _declaration_first(ranking.groups[0], actions)
    if target not in actions:
        raise MoralAggError(f"target {target!r} is not in the action set")
    if ranking.maximal_group() == frozenset({target}):
        raise TargetIsUniqueMaximizer(target)
    return target


def _credence_level(k: RationalLike) -> Fraction:
    k = to_rational(k)
    if not (0 < k < HALF):
        raise BadCredence(k)
    return k


def _capture(
    spec: SwfSpec,
    framework: EthicalFramework,
    actions: ActionSet,
    credence: Fraction,
    construct: Callable[[_Compiled, list[Fraction], Ranking], tuple],
) -> WitnessReport:
    """Capture ``spec`` on ``framework`` with one theory at ``credence``.

    The base framework is compiled and scored once, and
    ``construct(base, scores, ranking)`` returns the injected theory's
    values and the construction record from that compile, its exact
    scores and the ranking of their key.  The theory is added under a
    fresh id, which ``construction`` gains as its last key, and the
    extension is verified on a compile of its own.
    """
    if len(actions) < 2:
        raise MoralAggError("capturing needs at least two actions")
    base = _Compiled(spec, framework, actions)
    scores, key = base.exact()
    values, construction = construct(base, scores, _ranking(actions, key))
    injected = Theory(_fresh_theory_id(framework.theory_ids()), values)
    construction = {**construction, "injected_id": injected.id}
    extended = extend(framework, [(injected, credence)])
    ids = frozenset({injected.id})
    verdict = _verdict(actions, _Compiled(spec, extended, actions).keys(ids))
    if not verdict.is_dominant:
        raise ConstructionFailed(
            f"constructed extension failed dominance verification: {construction!r}"
        )
    return WitnessReport(spec, extended, ids, credence, verdict, construction)


def _ladder(credence: Fraction, target: Optional[ActionId]) -> Callable:
    """The construction that captures ``mec`` or ``kthm`` with a ladder.

    ``s`` bounds the absolute share of any action's extended score that
    the base theories contribute: under ``mec`` the largest absolute
    base score; under ``kthm``, whose injected theory is never trimmed,
    the base theories' mass ``1 - credence`` times their largest
    credence-weighted sum of absolute evaluations, read from the base
    compile, which dominates every partially-trimmed remainder.  At the
    injected ``credence`` each rung of the ladder adds ``m = 2s + 1``,
    more than the base theories can ever take back, so the extended
    scores form a strict chain ending at the target.
    """

    def construct(base: _Compiled, scores: list[Fraction], ranking: Ranking):
        actions = base.actions
        chosen = _choose_target(ranking, actions, target)
        a_star = _declaration_first(ranking.maximal_group() - {chosen}, actions)
        if base.spec.kind is SwfKind.MEC:
            s = max(map(abs, scores))
        else:
            s = (1 - credence) * base.spread()
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
        return values, construction

    return construct


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
        The verification failed (this would be a bug, not an input
        defect).
    """
    k = _credence_level(k)
    return _capture(SwfSpec.mec(), framework, actions, k, _ladder(k, target))


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
    raises :class:`ConstructionFailed`.  Both arguments are checked
    before the framework is.
    """
    k = _credence_level(k)
    if reading not in ("corrected", "literal"):
        raise ValueError(f"unknown reading {reading!r}")

    def undercut(base: _Compiled, scores: list[Fraction], ranking: Ranking):
        floor = min(scores)
        worst, best = ranking.groups[0], ranking.maximal_group()
        a_star = _declaration_first(best if reading == "corrected" else worst, actions)
        values = {a: floor - 2 if a == a_star else floor - 1 for a in actions}
        return values, {"a_star": a_star, "floor": floor, "reading": reading}

    return _capture(SwfSpec.maximin(), framework, actions, k, undercut)


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
    with the bound taken over the credence-weighted absolute evaluations.
    Verification runs in LITERAL mode at level ``k``.

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
    spec = SwfSpec.kthm(k, TrimMode.LITERAL)
    return _capture(spec, framework, actions, k_prime, _ladder(k_prime, target))


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
) -> bool:
    """Extend the canonical family by ``adversary`` and test its dominance.

    The extended framework is compiled once under ``spec``, and the
    adversary's theory ids are the subset tested.  Both rules
    resist for one reason: the base theory's credence exceeds
    ``1/2 > k``, so the trim (at ``k`` for ``kthm``, at one half for
    ``hm``) sheds every adversary theory on every action.  That is
    re-checked on the compile, and :class:`ConstructionFailed` is raised
    when an adversary theory survives.  The full ranking, read from the
    dominance verdict on the same compile, must also stay ``b ≺ a``.
    """
    fixed = [(t, to_rational(c)) for t, c in adversary]
    mass = sum((c for _, c in fixed), Fraction(0))
    if mass > k:
        raise CredenceTooHigh(mass, k)
    if not fixed:
        return True
    ids = {t.id for t, _ in fixed}
    base, actions = canonical_family(ids)
    compiled = _Compiled(spec, extend(base, fixed), actions)
    for action in actions:
        low, high = compiled.shed(action)
        if ids - low - high:
            raise ConstructionFailed(
                f"adversary theory survived trimming on {action!r}"
            )
    verdict = _verdict(actions, compiled.keys(ids))
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
    return _probe(SwfSpec.kthm(k, TrimMode.LITERAL), k, adversary)


def probe_hm_non_fanatical(
    k: RationalLike,
    adversary: Sequence[tuple[Theory, RationalLike]],
) -> bool:
    """Throw an adversary of credence mass <= k at the weighted median.

    The weighted median is what the trim at one half leaves.  The base
    theory keeps credence above 1/2 after extension, so that trim sheds
    every adversary theory on both sides of it, the base theory dictates
    every median and the ranking cannot move.  Returns True iff the
    adversary is *not* a dominant subset.  The same structural claims as
    for the trimmed mean are re-checked and raise
    :class:`ConstructionFailed` if violated.
    """
    return _probe(SwfSpec.hm(), _credence_level(k), adversary)
