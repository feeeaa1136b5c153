"""Social welfare functionals over ethical frameworks.

Four rules are implemented, each mapping a framework and an action set to
a weak order over the actions (worst group first):

- ``mec``: credence-weighted arithmetic mean of the evaluations,
- ``maximin``: the minimum evaluation across theories, credences ignored,
- ``kthm``: the credence-weighted mean after discarding, per action, a
  maximal prefix and suffix of the evaluation-sorted theories whose
  credence mass does not exceed ``k`` on each side,
- ``hm``: the credence-weighted median of the evaluations, which is
  where the ``kthm`` trim stops when each side may shed up to one half.

All scores are exact rationals, so ties are exact ties.  Each rule is
implemented once, over one integer compile of the framework
(:class:`_Compiled`), where ``kthm`` and ``hm`` share one trim scan;
for dominance enumeration, which keys every subset, the compile also
reads each rule from split subset tables.
:func:`aggregate`, the per-action functions and the dominance checks,
witnesses and probes of :mod:`moralagg.fanaticism` read it; its integer
form stays in this module, and other modules ask it for keys, masses,
exact scores and trimmed theory ids.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Callable, Optional, Sequence, Union

from .core import (
    ActionId,
    ActionSet,
    EthicalFramework,
    MoralAggError,
    Ranking,
    RationalLike,
    Theory,
    TheoryId,
    UnknownAction,
    _dense_ranks,
    _frozen,
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


@_frozen
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


class _Compiled:
    """``framework`` over ``actions`` in exact integers, validated once.

    Other modules use only this interface, whose answers are masks,
    theory ids and exact ``Fraction``s:

    - the mask convention: ``bits[i]`` stands for the ``i``-th declared
      theory in a subset mask, and ``everyone`` is the mask of them all;
    - ``key(mask)``, a nonempty subset's ranking as ``core._dense_ranks``
      gives it, and ``mass(mask)``, which over ``den`` is its credence;
    - :meth:`tables`, the same ``key`` and ``mass`` read from split
      subset tables, for a caller that keys every mask;
    - :meth:`exact`, the full framework's scores; :meth:`shed`, the ids
      the trim drops; :meth:`spread`, the ``kthm`` ladder's bound;
    - ``actions`` and ``spec``, as given.

    The rest is the integer form, private to this module.  Credences
    become integer weights, scaled by ``den``, the lcm of their
    denominators, as :func:`~moralagg.core.validate_framework` returns
    them.  Evaluations become integer values, scaled by ``scale``, one
    lcm common to every action.  Each action keeps one row
    ``(bit, weight, value)`` per theory, in declaration order; for
    ``kthm`` and ``hm``, the rules that read an order, sorted ascending
    by value, ties in declaration order.  Both read it through one scan,
    :meth:`trim`: ``hm`` is the trim at one half, and its median is
    where that trim stops (:meth:`_hm`).

    ``score(mask)`` scores any nonempty subset of the theories: one
    integer per action, in the order of ``actions`` (twice the median for
    ``hm``).  The subset's mass is never divided out, and each rule's
    ranking is unchanged when every score is scaled by the same positive
    factor, so ``key(mask)`` ranks a subset exactly as :func:`aggregate`
    ranks its renormalized restriction.  Renormalized ``kthm`` divides
    each action's survivor sum ``t`` by its own survivor mass ``m``, so
    no one factor clears those denominators; it scores ``t * (L // m)``
    with ``L`` the lcm of every action's ``m``.  That is each mean
    ``t / m`` times the same positive ``L``, so the scores group and
    order exactly as the means do.  :meth:`exact` divides the scaling
    back out.

    ``key`` and ``mass`` scan every row of a mask, which suits the one
    to three masks that :func:`aggregate`, a dominance check or a
    witness keys, at any number of theories.  :meth:`tables` spends
    ``O(actions * 2^(n/2))`` memory on ``n`` theories to key each mask
    by a few lookups instead, and only enumeration, which keys all
    ``2^n``, builds them.
    """

    def __init__(
        self, spec: SwfSpec, framework: EthicalFramework, actions: Sequence[ActionId]
    ):
        self.den, self.weights = validate_framework(framework, actions)
        self.spec = spec
        self.theories = framework.theories
        self.actions = actions
        self.bits = [1 << i for i in range(len(self.weights))]
        self.everyone = (1 << len(self.weights)) - 1
        ratios = {
            a: [t.evaluations[a].as_integer_ratio() for t in framework.theories]
            for a in actions
        }
        self.scale = lcm(*{d for column in ratios.values() for _, d in column})
        self.rows = {
            a: [
                (bit, w, n * (self.scale // d))
                for bit, w, (n, d) in zip(self.bits, self.weights, column)
            ]
            for a, column in ratios.items()
        }
        if spec.kind in (SwfKind.KTHM, SwfKind.HM):
            for a in actions:
                self._sort(a)
        # One of _mec, _maximin, _kthm and _hm, named after the kind.
        self.score = getattr(self, f"_{spec.kind.value}")

    def _sort(self, action: ActionId) -> None:
        """Order ``action``'s rows by value; the stable sort keeps ties declared."""
        self.rows[action].sort(key=itemgetter(2))

    def mass(self, mask: int) -> int:
        return sum(w for bit, w in zip(self.bits, self.weights) if mask & bit)

    def key(self, mask: int) -> tuple[int, ...]:
        """The dense ranks of ``score(mask)``: equal keys, equal rankings."""
        return _dense_ranks(self.score(mask))

    def _mec(self, mask: int) -> tuple:
        return tuple(
            sum(w * v for bit, w, v in rows if mask & bit)
            for rows in self.rows.values()
        )

    def _maximin(self, mask: int) -> tuple:
        return tuple(
            min(v for bit, _, v in rows if mask & bit) for rows in self.rows.values()
        )

    def _hm(self, mask: int) -> tuple:
        """Twice each action's weighted median: the two rows the half-trim stops at.

        Every weight is positive, so ``rows[lo]`` is the first masked row
        whose prefix weight exceeds ``M/2``, and ``rows[hi - 1]`` the last
        masked row whose suffix weight does.  These are one row, the
        median, unless the prefix weight is exactly ``M/2`` at some row;
        then they are that row and the next masked one, the two valid
        entries whose values are averaged.  Doubling keeps it an integer.
        """
        cap = self._cap(self.mass(mask))
        scores = []
        for rows in self.rows.values():
            lo, hi, _ = self.trim(rows, mask, cap)
            scores.append(rows[lo][2] + rows[hi - 1][2])
        return tuple(scores)

    def _kthm(self, mask: int) -> list:
        return self._means(self._survivors(mask))

    def _means(self, survivors: list[tuple[int, int]]) -> list[int]:
        """``kthm``'s scores from each action's survivor sum and mass."""
        if self.spec.trim_mode is TrimMode.LITERAL:
            return [total for total, _ in survivors]
        common = lcm(*[kept for _, kept in survivors])
        return [total * (common // kept) for total, kept in survivors]

    def _survivors(self, mask: int) -> list[tuple[int, int]]:
        """Each action's ``kthm`` survivors in ``mask``: their weighted sum and mass."""
        mass = self.mass(mask)
        cap = self._cap(mass)
        survivors = []
        for rows in self.rows.values():
            lo, hi, trimmed = self.trim(rows, mask, cap)
            total = sum(w * v for bit, w, v in rows[lo:hi] if mask & bit)
            survivors.append((total, mass - trimmed))
        return survivors

    def _cap(self, mass: int) -> int:
        """The most weight :meth:`trim` drops per side of a mask of ``mass``.

        That is ``num(k) * mass // den(k)``: the ``kthm`` level ``k``, or
        one half for ``hm``, whose median is what the half-trim leaves.
        """
        k = HALF if self.spec.kind is SwfKind.HM else self.spec.k
        return k.numerator * mass // k.denominator

    def trim(self, rows: list, mask: int, cap: int) -> tuple[int, int, int]:
        """The trim of the sorted ``rows`` in ``mask`` at ``cap``, in one scan.

        The masked rows of ``rows[:lo]`` are the maximal low prefix, and
        those of ``rows[hi:]`` the maximal high suffix, of weight ``p``
        with ``p / M <= k`` for the mask's mass ``M``: ``p <= cap`` with
        ``cap`` from :meth:`_cap`.  The masked rows of ``rows[lo:hi]``
        survive; ``trimmed`` is the weight of both sides.  Under ``kthm``
        each side weighs at most ``k < 1/2`` of ``M``, so the survivors'
        mass ``M - trimmed`` is positive; under ``hm`` (``k = 1/2``)
        ``rows[lo]`` and ``rows[hi - 1]`` are the median rows.
        """
        lo = low = 0
        for bit, w, _ in rows:
            if mask & bit:
                if low + w > cap:
                    break
                low += w
            lo += 1
        hi, high = len(rows), 0
        for bit, w, _ in reversed(rows):
            if mask & bit:
                if high + w > cap:
                    break
                high += w
            hi -= 1
        return lo, hi, low + high

    def tables(self) -> tuple[Callable[[int], tuple], Callable[[int], int]]:
        """:meth:`key` and :meth:`mass` again, read from split subset tables.

        This is for a caller that keys every mask, as
        :func:`~moralagg.fanaticism.enumerate_dominant_subsets` does; the
        tables live as long as the two functions returned.  The ``n``
        theory bits split into the ``h = n // 2`` low ones and the rest.
        A table over one half holds a sum for every mask of that half
        (:func:`_subset_sums`), so a mask's sum is two lookups,
        ``lo[mask & low] + hi[mask >> h]``, from ``2^h + 2^(n - h)``
        entries, not ``2^n``.  Summing the weights gives ``mass``.  Per
        action:

        - ``mec`` sums each theory's ``weight * value``;
        - the other rules sum ``1 << j`` for the theory at place ``j`` of
          the action's value order, ties declared as :meth:`_sort` keeps
          them.  The lookups give ``p``, the mask re-indexed into that
          order, and its set bits are the masked rows of :meth:`trim`.
          ``maximin`` scores the value at ``p``'s lowest bit.  ``kthm``
          clears the bits :meth:`trim` would shed, from both ends, and
          sums the survivors' ``weight * value`` from tables over places:
          two lookups on what is left of ``p``.  ``hm`` walks from the low
          end only, to the first row past the half cap; at an exact half
          the row before it is the second median row, as :meth:`_hm`
          argues.

        Every mask gets the key that :meth:`key` gives it.
        """
        n = len(self.weights)
        h = n // 2
        low = (1 << h) - 1

        def split(items: list[int]) -> tuple[list[int], list[int]]:
            return _subset_sums(items[:h]), _subset_sums(items[h:])

        mass_lo, mass_hi = split(self.weights)

        def mass(mask: int) -> int:
            return mass_lo[mask & low] + mass_hi[mask >> h]

        kind = self.spec.kind
        if kind is SwfKind.MEC:
            sums = [split([w * v for _, w, v in rows]) for rows in self.rows.values()]

            def key(mask: int) -> tuple:
                a, b = mask & low, mask >> h
                return _dense_ranks([lo[a] + hi[b] for lo, hi in sums])

            return key, mass

        orders = []
        for rows in self.rows.values():
            ranked = sorted(rows, key=itemgetter(2))
            places = [0] * n
            for j, (bit, _, _) in enumerate(ranked):
                places[bit.bit_length() - 1] = 1 << j
            weights = [w for _, w, _ in ranked]
            # By place, kthm reads its survivors' sums; the others, values.
            if kind is SwfKind.KTHM:
                reads = split([w * v for _, w, v in ranked])
            else:
                reads = ([v for _, _, v in ranked],)
            orders.append((*split(places), weights, *reads))

        if kind is SwfKind.MAXIMIN:

            def key(mask: int) -> tuple:
                a, b = mask & low, mask >> h
                scores = []
                for place_lo, place_hi, _, values in orders:
                    p = place_lo[a] | place_hi[b]
                    scores.append(values[(p & -p).bit_length() - 1])
                return _dense_ranks(scores)

        elif kind is SwfKind.HM:

            def key(mask: int) -> tuple:
                a, b = mask & low, mask >> h
                whole = mass_lo[a] + mass_hi[b]
                cap = self._cap(whole)
                scores = []
                for place_lo, place_hi, weights, values in orders:
                    p = place_lo[a] | place_hi[b]
                    walked = before = 0
                    while True:
                        bit = p & -p
                        j = bit.bit_length() - 1
                        w = weights[j]
                        if walked + w > cap:
                            break
                        walked += w
                        before = j
                        p ^= bit
                    if 2 * walked == whole:
                        scores.append(values[before] + values[j])
                    else:
                        scores.append(2 * values[j])
                return _dense_ranks(scores)

        else:

            def key(mask: int) -> tuple:
                a, b = mask & low, mask >> h
                whole = mass_lo[a] + mass_hi[b]
                cap = self._cap(whole)
                survivors = []
                for place_lo, place_hi, weights, sum_lo, sum_hi in orders:
                    p = place_lo[a] | place_hi[b]
                    bottom = top = 0
                    while True:
                        bit = p & -p
                        w = weights[bit.bit_length() - 1]
                        if bottom + w > cap:
                            break
                        bottom += w
                        p ^= bit
                    while True:
                        j = p.bit_length() - 1
                        w = weights[j]
                        if top + w > cap:
                            break
                        top += w
                        p ^= 1 << j
                    total = sum_lo[p & low] + sum_hi[p >> h]
                    survivors.append((total, whole - bottom - top))
                return _dense_ranks(self._means(survivors))

        return key, mass

    def shed(self, action: ActionId) -> tuple[frozenset, frozenset]:
        """The ids the trim drops from ``action``: low side, high side."""
        rows = self.rows[action]
        lo, hi, _ = self.trim(rows, self.everyone, self._cap(self.den))
        ids = [t.id for t in _theories(self.theories, rows)]
        return frozenset(ids[:lo]), frozenset(ids[hi:])

    def spread(self) -> Fraction:
        """The largest credence-weighted sum of absolute evaluations of an action."""
        rows = self.rows.values()
        return Fraction(
            max(sum(w * abs(v) for _, w, v in row) for row in rows),
            self.den * self.scale,
        )

    def exact(self) -> list[Fraction]:
        """The full framework's scores with the scaling divided out, as printed."""
        spec = self.spec
        if spec.kind is SwfKind.KTHM:
            renormalized = spec.trim_mode is TrimMode.RENORMALIZED
            return [
                Fraction(total, (kept if renormalized else self.den) * self.scale)
                for total, kept in self._survivors(self.everyone)
            ]
        if spec.kind is SwfKind.HM:
            divisor = 2 * self.scale
        elif spec.kind is SwfKind.MAXIMIN:
            divisor = self.scale
        else:
            divisor = self.den * self.scale
        return [Fraction(s, divisor) for s in self.score(self.everyone)]


def _subset_sums(items: Sequence[int]) -> list[int]:
    """The sum of ``items`` over every mask of ``len(items)`` bits, by mask.

    Each entry is one addition: the lowbit recurrence
    ``t[m] = t[m ^ low] + items[index of low]``, with ``low`` the
    lowest set bit of ``m``.
    """
    table = [0] * (1 << len(items))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] + items[low.bit_length() - 1]
    return table


def _view(spec: SwfSpec, framework: EthicalFramework, action: ActionId) -> _Compiled:
    """The compile of ``framework`` over the single action ``action``."""
    if not any(action in t.evaluations for t in framework.theories):
        raise UnknownAction(action)
    return _Compiled(spec, framework, (action,))


def _theories(theories: Sequence[Theory], rows: list) -> list[Theory]:
    """The ``theories`` behind compiled ``rows``, in row order."""
    return [theories[bit.bit_length() - 1] for bit, _, _ in rows]


def wam(framework: EthicalFramework, action: ActionId) -> Fraction:
    """Credence-weighted arithmetic mean of the evaluations of ``action``.

    Like every per-action function here, this is the ``aggregate`` score
    of one action: the framework is validated as :func:`aggregate`
    validates it, and :class:`UnknownAction` is raised when no theory
    evaluates ``action``.
    """
    return _view(SwfSpec.mec(), framework, action).exact()[0]


def min_evaluation(framework: EthicalFramework, action: ActionId) -> Fraction:
    """Worst evaluation of ``action`` across theories; credences play no role."""
    return _view(SwfSpec.maximin(), framework, action).exact()[0]


def sorted_evaluations(
    framework: EthicalFramework, action: ActionId
) -> tuple[tuple[TheoryId, Fraction], ...]:
    """``(theory id, evaluation)`` pairs for ``action``, ascending by value.

    Exactly equal evaluations keep declaration order, which makes every
    downstream prefix/suffix computation deterministic.  This is the
    order that ``kthm`` and ``hm`` read.
    """
    rows = _view(SwfSpec.hm(), framework, action).rows[action]
    theories = _theories(framework.theories, rows)
    return tuple((t.id, t.evaluations[action]) for t in theories)


def bottom_k(
    framework: EthicalFramework, action: ActionId, k: RationalLike
) -> frozenset[TheoryId]:
    """Ids forming the maximal low-evaluation prefix of credence mass <= k.

    A ``k`` outside ``[0, 1/2)`` raises :class:`InvalidSpec`.
    """
    return _view(SwfSpec.kthm(k), framework, action).shed(action)[0]


def top_k(
    framework: EthicalFramework, action: ActionId, k: RationalLike
) -> frozenset[TheoryId]:
    """Ids forming the maximal high-evaluation suffix of credence mass <= k.

    A ``k`` outside ``[0, 1/2)`` raises :class:`InvalidSpec`.
    """
    return _view(SwfSpec.kthm(k), framework, action).shed(action)[1]


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
    return _view(SwfSpec.kthm(k, trim_mode), framework, action).exact()[0]


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
    return _view(SwfSpec.hm(), framework, action).exact()[0]


@_frozen
class AggregateResult:
    """Scores and the induced ranking for one functional over one framework."""

    spec: SwfSpec
    scores: dict[ActionId, Fraction]
    ranking: Ranking


def aggregate(
    spec: SwfSpec, framework: EthicalFramework, actions: ActionSet
) -> AggregateResult:
    """Run one functional over every action and rank the exact scores.

    The framework is validated against ``actions`` first, so missing
    evaluations and credence defects surface here rather than as wrong
    numbers.  It is then compiled into integers once, scored over all
    its theories, and each score divided back by the compile's scale.
    """
    scores = dict(zip(actions, _Compiled(spec, framework, actions).exact()))
    return AggregateResult(spec, scores, ranking_from_scores(scores))
