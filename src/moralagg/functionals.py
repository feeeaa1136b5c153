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
for dominance enumeration, which visits every subset, the compile also
scores each rule over whole blocks of subsets from subset tables, and
tests a block against the full ranking by comparing columns.
:func:`aggregate`, the per-action functions and the dominance checks,
witnesses and probes of :mod:`moralagg.fanaticism` read it; its integer
form, its subset masks and its block layout stay in this module.  Other
modules name subsets by theory ids, and ask it for keys, the subsets
that rank like the full framework while their complements do not, exact
scores with their key, and trimmed theory ids.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import compress, count, repeat
from math import inf, lcm
from operator import add, and_, eq, floordiv, itemgetter, lt, mul, or_, sub
from typing import Callable, Collection, Iterator, Optional, Sequence, Union

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
    _ranking,
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

    Other modules use only this interface, whose answers are theory ids,
    exact ``Fraction``s and keys: a key is ``core._dense_ranks`` of one
    integer score per action, so equal keys mean equal rankings.

    - :meth:`keys`, the keys of the full framework, of a subset of its
      theories and of the rest; :meth:`exact`, the full framework's
      scores and their key, from one scoring;
    - :meth:`sides`, the full key, and every subset that has it while
      its complement does not, for a caller that visits every subset;
    - :meth:`shed`, the ids the trim drops; :meth:`spread`, the ``kthm``
      ladder's bound; ``theories``, ``actions`` and ``spec``, as given.

    The rest is the integer form, private to this module.  A subset is a
    mask, in which ``bits[i]`` stands for the ``i``-th declared theory
    and ``everyone`` for them all.  Credences become integer weights,
    scaled by ``den``, the lcm of their denominators, as
    :func:`~moralagg.core.validate_framework` returns them, so that
    ``mass(mask)`` over ``den`` is a subset's credence.  Evaluations
    become integer values, scaled by ``scale``, one lcm common to every
    action.  Each action keeps one row ``(bit, weight, value)`` per
    theory, in declaration order; for ``kthm`` and ``hm``, the rules that
    read an order, sorted ascending by value, ties in declaration order.
    Both read it through one scan, :meth:`trim`: ``hm`` is the trim at
    one half, and its median is where that trim stops (:meth:`_hm`).

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

    ``key`` and ``mass`` scan every row of a mask, which suits the three
    masks of a dominance check, at any number of theories.  :meth:`sides`
    spends ``O(actions * 2^(n/2))`` memory on ``n`` theories to score a
    whole block of subsets per action at once (:meth:`blocks`), and tests
    each block against one key by comparing columns instead of sorting a key
    per mask.  Masses and ids are table lookups under every rule; ``kthm``
    folds its per-action place bits and ``mec`` sums once per block.

    The compile holds no reference to itself, so it is freed as soon as
    its caller drops it, without waiting for the cycle collector.
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
            level = HALF if spec.kind is SwfKind.HM else spec.k
            self.level = level.as_integer_ratio()

    def score(self, mask: int) -> Sequence[int]:
        """Each action's integer score on the nonempty subset ``mask``."""
        return self._RULES[self.spec.kind](self, mask)

    def _sort(self, action: ActionId) -> None:
        """Order ``action``'s rows by value; the stable sort keeps ties declared."""
        self.rows[action].sort(key=itemgetter(2))

    def mass(self, mask: int) -> int:
        return sum(w for bit, w in zip(self.bits, self.weights) if mask & bit)

    def key(self, mask: int) -> tuple[int, ...]:
        """The dense ranks of ``score(mask)``: equal keys, equal rankings."""
        return _dense_ranks(self.score(mask))

    def keys(self, ids: Collection[TheoryId]) -> tuple[tuple[int, ...], ...]:
        """The keys of the full framework, of its theories ``ids`` and of the rest."""
        mask = sum(bit for t, bit in zip(self.theories, self.bits) if t.id in ids)
        return tuple(map(self.key, (self.everyone, mask, self.everyone ^ mask)))

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
        survivors = self._survivors(mask)
        if self.spec.trim_mode is TrimMode.LITERAL:
            return [total for total, _ in survivors]
        return _renormalize(survivors)

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
        The compile takes ``level``, the pair ``(num(k), den(k))``, once.
        """
        num, den = self.level
        return num * mass // den

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

    def blocks(self) -> tuple[list[int], list[int], list, list, Callable]:
        """Every subset of the theories, scored one block of subsets at a time.

        This is the one statement of the enumeration's layout.  The
        theories take places ``0 .. n - 1`` in descending order of id, so
        that the theory whose id ranks ``r`` in sorted order sits at place
        ``n - 1 - r``.  A layout mask over those places splits into its
        ``h = n // 2`` low places and the rest, under every rule.  Block
        ``b`` holds the ``2^h`` layout masks ``a | b << h``.  Each half of
        a sum (or union, or minimum) over the theories is a lookup in a
        subset table (:func:`_subset_table`): ``lo[a]`` over the low
        places, ``hi[b]`` over the high ones.  Masses and ids are table
        lookups under every rule.  ``kthm``, whose walks would need two
        more tables per action, folds its per-action place bits and
        ``mec`` sums once per block instead, so that the tables and two
        blocks stay within the memory bound.

        This returns the low and high tables of the masses, those of the
        ids, and ``block``: ``block(b)`` returns block ``b``'s score
        columns, one list of integers per action, each indexed by ``a``;
        :func:`_alike` tests them against a key and :func:`_key_at` reads
        one mask's key.  Per action:

        - ``mec`` sums each theory's ``weight * value``;
        - ``maximin`` takes the least value, from tables of minima whose
          empty entry is ``inf``;
        - ``kthm`` and ``hm`` sum bit ``1 << j`` for the theory at place
          ``j`` of the action's value order, as :meth:`_sort` keeps it.
          That gives ``p``, the mask re-indexed into that order, whose set
          bits are the masked rows of :meth:`trim`, cut at :meth:`_cap`.
          The walks look weights, values and products up by place bit
          from the low end, and by ``p.bit_length()`` from the high end.
          ``kthm`` clears the bits the trim sheds from both ends of ``p``
          and subtracts their ``weight * value`` from the mask's ``mec``
          sum.  Renormalized, the block then folds each mask's survivor
          sums ``t`` into ``t * (L // m)``, ``L`` the lcm of the mask's
          survivor masses ``m``, as :meth:`score` keys a mask.
          ``hm`` walks from the low end only, to the first row past the
          half cap; at an exact half the row before it is the second
          median row, as :meth:`_hm` argues.

        The tables and two blocks hold ``O(actions * 2^(n/2))`` entries.
        Index 0 of block 0 is the empty mask, whose entries mean nothing;
        place bit 0 weighs 1 and is worth 0, so its walks stop at once,
        and its survivor mass 0 is taken as 1 for the fold.
        """
        n = len(self.weights)
        kind = self.spec.kind
        h = n // 2
        ids = [t.id for t in self.theories]
        layout = sorted(range(n), key=ids.__getitem__, reverse=True)

        def split(items: list, join: Callable = add, empty=0, fold=False) -> tuple:
            """``items`` in layout order: the low table, and the high table or list."""
            items = [items[i] for i in layout]
            lo, hi = _subset_table(items[:h], join, empty), items[h:]
            return lo, hi if fold else _subset_table(hi, join, empty)

        def places(rows: list, fold=False) -> tuple[list, list]:
            placed = [0] * n
            for j, (bit, _, _) in enumerate(rows):
                placed[bit.bit_length() - 1] = 1 << j
            return split(placed, fold=fold)

        def masses_and_caps(b: int) -> tuple[list, list]:
            y = mass_hi[b]
            masses = [x + y for x in mass_lo]
            num, den = self.level
            return masses, [num * m // den for m in masses]

        # Place bit 0 first: by bit length, index j is place j - 1.
        place_bits = [0] + [1 << j for j in range(n)]
        mass_lo, mass_hi = split(self.weights)
        ids_lo, ids_hi = split([frozenset({i}) for i in ids], or_, frozenset())
        if kind is SwfKind.MEC or kind is SwfKind.MAXIMIN:
            if kind is SwfKind.MEC:
                join, empty = add, 0
                reads = [[w * v for _, w, v in rows] for rows in self.rows.values()]
            else:
                join, empty = min, inf
                reads = [[v for _, _, v in rows] for rows in self.rows.values()]
            halves = [split(items, join, empty) for items in reads]

            def block(b: int) -> list:
                columns = []
                for lo, hi in halves:
                    y = hi[b]
                    if kind is SwfKind.MEC:
                        columns.append([x + y for x in lo])
                    else:
                        columns.append([x if x < y else y for x in lo])
                return columns

        elif kind is SwfKind.HM:
            orders = [
                (
                    *places(rows),
                    dict(zip(place_bits, [1] + [w for _, w, _ in rows])),
                    dict(zip(place_bits, [0] + [v for _, _, v in rows])),
                )
                for rows in self.rows.values()
            ]

            def block(b: int) -> list:
                masses, caps = masses_and_caps(b)
                columns = []
                for place_lo, place_hi, weight_at, value_at in orders:
                    z = place_hi[b]
                    column = []
                    for x, whole, cap in zip(place_lo, masses, caps):
                        p = x | z
                        walked = before = 0
                        while True:
                            bit = p & -p
                            w = weight_at[bit]
                            if walked + w > cap:
                                break
                            walked += w
                            before = bit
                            p ^= bit
                        if 2 * walked == whole:
                            column.append(value_at[before] + value_at[bit])
                        else:
                            column.append(2 * value_at[bit])
                    columns.append(column)
                return columns

        else:
            renormalized = self.spec.trim_mode is TrimMode.RENORMALIZED
            orders = []
            for rows in self.rows.values():
                # By place, and by place bit: weights and weight * value.
                weights = [1] + [w for _, w, _ in rows]
                products = [0] + [w * v for _, w, v in rows]
                orders.append(
                    (
                        *places(rows, fold=True),
                        # By theory, the mec sums.
                        *split([w * v for _, w, v in sorted(rows)], fold=True),
                        dict(zip(place_bits, weights)),
                        dict(zip(place_bits, products)),
                        weights,
                        products,
                    )
                )

            def block(b: int) -> list:
                masses, caps = masses_and_caps(b)
                high = [b >> j & 1 for j in range(n - h)]
                columns, survivor_masses = [], []
                for (
                    place_lo, place_hi, sum_lo, sum_hi,
                    weight_at, product_at, weights, products,
                ) in orders:
                    z = sum(compress(place_hi, high))
                    s = sum(compress(sum_hi, high))
                    totals, kept = [], []
                    for x, whole, cap, t in zip(place_lo, masses, caps, sum_lo):
                        p = x | z
                        bottom = top = shed = 0
                        while True:
                            bit = p & -p
                            w = weight_at[bit]
                            if bottom + w > cap:
                                break
                            bottom += w
                            shed += product_at[bit]
                            p ^= bit
                        while True:
                            j = p.bit_length()
                            w = weights[j]
                            if top + w > cap:
                                break
                            top += w
                            shed += products[j]
                            p ^= place_bits[j]
                        totals.append(t + s - shed)
                        if renormalized:
                            kept.append(whole - bottom - top or 1)
                    columns.append(totals)
                    survivor_masses.append(kept)
                if renormalized:
                    common = list(map(lcm, *survivor_masses))
                    columns = [
                        list(map(mul, totals, map(floordiv, common, kept)))
                        for totals, kept in zip(columns, survivor_masses)
                    ]
                return columns

        return mass_lo, mass_hi, ids_lo, ids_hi, block

    def sides(self) -> tuple[tuple[int, ...], Iterator[tuple]]:
        """The full key, and each subset with it whose complement has another."""
        full = self.key(self.everyone)
        return full, self._sides(full)

    def _sides(
        self, full: Sequence[int]
    ) -> Iterator[tuple[frozenset, Fraction, int, tuple[int, ...]]]:
        """The subsets of :meth:`sides`, whose key is ``full``.

        It yields ``(ids, credence, order, key)``: the subset's theory ids,
        its mass over ``den``, its order key and the complement's key.  The
        order key is the sum over members of ``2^n - 2^(n - 1 - r)``, with
        ``r`` the member's place among the sorted ids; in the layout of
        :meth:`blocks` that is ``size * 2^n - m`` for a layout mask ``m`` of
        ``size`` members, and ascending keys list subsets by size, then by
        sorted ids.  The complement of index ``a`` in block ``b`` is index
        ``low ^ a`` in block ``top ^ b``, for ``low`` and ``top`` all ones,
        so the blocks without the top bit meet every pair of a nonempty
        proper subset and its complement once, two blocks at a time; a
        side's mass and ids are table lookups under every rule.  Index 0 of
        block 0 is the empty mask, whose flag means nothing.  Only the
        complements of yielded subsets are keyed.  With one action every
        subset ranks alike, and nothing is built.
        """
        if len(full) < 2:
            return
        mass_lo, mass_hi, ids_lo, ids_hi, block = self.blocks()
        n, den = len(self.weights), self.den
        size = len(mass_lo)
        low, top = size - 1, len(mass_hi) - 1
        links = _links(full)
        for b in range(top // 2 + 1):
            mine, theirs = block(b), block(top ^ b)
            ahead = _alike(mine, links, size, iter)
            behind = _alike(theirs, links, size, reversed)
            # Signed 1 + a: positive where only mask a of block b is alike,
            # negative where only its complement is, missing where neither.
            for s in filter(None, map(mul, map(sub, ahead, behind), count(1))):
                a = abs(s) - 1
                if not (a or b):
                    continue
                if s > 0:
                    i, j, key = a, b, _key_at(theirs, low ^ a)
                else:
                    i, j, key = low ^ a, top ^ b, _key_at(mine, a)
                m = j * size + i
                credence = Fraction(mass_lo[i] + mass_hi[j], den)
                yield ids_lo[i] | ids_hi[j], credence, (m.bit_count() << n) - m, key
            del mine, theirs, ahead, behind  # two blocks alive at a time, not four

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

    def exact(self) -> tuple[list[Fraction], tuple[int, ...]]:
        """The full framework's scores, scaling divided out, and their integer key."""
        spec = self.spec
        if spec.trim_mode is TrimMode.RENORMALIZED:
            survivors = self._survivors(self.everyone)
            scores = [Fraction(total, kept * self.scale) for total, kept in survivors]
            return scores, _dense_ranks(_renormalize(survivors))
        if spec.kind is SwfKind.HM:
            divisor = 2 * self.scale
        elif spec.kind is SwfKind.MAXIMIN:
            divisor = self.scale
        else:
            divisor = self.den * self.scale
        scores = self.score(self.everyone)
        return [Fraction(s, divisor) for s in scores], _dense_ranks(scores)

    # The rule behind ``score``: a plain function per kind, held by the
    # class, so that a compile holds no bound method of itself.
    _RULES = {
        SwfKind.MEC: _mec,
        SwfKind.MAXIMIN: _maximin,
        SwfKind.KTHM: _kthm,
        SwfKind.HM: _hm,
    }


def _links(key: Sequence[int]) -> list[tuple[int, int, Callable]]:
    """The chain of ``key``: ``(i, j, eq or lt)`` for actions adjacent in its order.

    Scores have the key exactly when, in the order the key ranks the
    actions, they form its chain: ``<`` between two groups, ``==``
    within one.
    """
    order = sorted(range(len(key)), key=key.__getitem__)
    return [(i, j, eq if key[i] == key[j] else lt) for i, j in zip(order, order[1:])]


def _alike(columns: list, links: list, size: int, walk: Callable) -> Iterator[bool]:
    """Whether each mask of a block has the key whose chain is ``links``.

    That is ``len(links)`` comparisons of whole columns, with no sort;
    ``walk`` is ``iter``, or ``reversed`` to read the block from its
    last index.
    """
    flags = repeat(True, size)
    for i, j, same in links:
        flags = map(and_, flags, map(same, walk(columns[i]), walk(columns[j])))
    return flags


def _key_at(columns: list, a: int) -> tuple[int, ...]:
    """The key of the mask at low index ``a`` of a block with ``columns``."""
    return _dense_ranks([column[a] for column in columns])


def _renormalize(survivors: list[tuple[int, int]]) -> list[int]:
    """Each survivor mean ``t / m`` times the lcm of every ``m``: integers."""
    common = lcm(*[kept for _, kept in survivors])
    return [total * (common // kept) for total, kept in survivors]


def _subset_table(items: Sequence, join: Callable = add, empty=0) -> list:
    """``join`` over the ``items`` of every mask of ``len(items)`` bits, by mask.

    Entry 0 is ``empty``, and every other entry is one ``join``: the
    masks with top bit ``1 << i`` follow the ``2^i`` masks below it, each
    entry ``t[m | 1 << i] = join(t[m], items[i])``.  Sums, place bits
    among them, join with ``add`` from ``0``, minima with ``min`` from
    ``inf``, and sets of ids with ``or_`` from the empty ``frozenset``.
    """
    table = [empty]
    for item in items:
        table += list(map(join, table, repeat(item)))
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
    return _view(SwfSpec.mec(), framework, action).exact()[0][0]


def min_evaluation(framework: EthicalFramework, action: ActionId) -> Fraction:
    """Worst evaluation of ``action`` across theories; credences play no role."""
    return _view(SwfSpec.maximin(), framework, action).exact()[0][0]


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
    return _view(SwfSpec.kthm(k, trim_mode), framework, action).exact()[0][0]


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
    return _view(SwfSpec.hm(), framework, action).exact()[0][0]


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
    its theories, once: each score is divided back by the compile's
    scale, and the ranking is the key of the integer scores.
    """
    scores, key = _Compiled(spec, framework, actions).exact()
    return AggregateResult(spec, dict(zip(actions, scores)), _ranking(actions, key))
