"""Brute-force dominance oracle written from the definitions alone.

Scores are plain ``Fraction`` sums, minima, trims and weighted medians
over the benchmark's own framework data; nothing from ``moralagg`` is
used.  A subset S is dominant when the full ranking equals the ranking of
S renormalized on its own, and that ranking differs from the ranking of
the complement renormalized on its own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gen import FrameworkData

HALF = Fraction(1, 2)


def _trimmed(column, k, renormalized):
    order = sorted(range(len(column)), key=lambda i: (column[i][1], i))
    dropped = set()
    for ranked in (order, order[::-1]):
        mass = Fraction(0)
        for i in ranked:
            mass += column[i][0]
            if mass > k:
                break
            dropped.add(i)
    kept = [column[i] for i in range(len(column)) if i not in dropped]
    total = sum((c * v for c, v in kept), Fraction(0))
    if renormalized:
        return total / sum((c for c, _ in kept), Fraction(0))
    return total


def _median(column):
    ranked = sorted(range(len(column)), key=lambda i: (column[i][1], i))
    weights = [column[i][0] for i in ranked]
    values = [column[i][1] for i in ranked]
    valid = [
        m
        for m in range(len(values))
        if sum(weights[:m], Fraction(0)) <= HALF
        and sum(weights[m + 1 :], Fraction(0)) <= HALF
    ]
    return sum((values[m] for m in valid), Fraction(0)) / len(valid)


def score(variant: str, column) -> Fraction:
    """Score one action from its (credence, evaluation) column."""
    if variant == "mec":
        return sum((c * v for c, v in column), Fraction(0))
    if variant == "maximin":
        return min(v for _, v in column)
    if variant == "kthm_literal":
        return _trimmed(column, Fraction(1, 10), renormalized=False)
    if variant == "kthm_renormalized":
        return _trimmed(column, Fraction(1, 10), renormalized=True)
    if variant == "hm":
        return _median(column)
    raise ValueError(variant)


def ranking(variant, data: FrameworkData, ids) -> tuple[frozenset, ...]:
    kept = [(c, values) for tid, c, values in data.theories if tid in ids]
    mass = sum((c for c, _ in kept), Fraction(0))
    scores = {
        a: score(variant, [(c / mass, values[a]) for c, values in kept])
        for a in data.actions
    }
    groups: dict[Fraction, set] = {}
    for action, value in scores.items():
        groups.setdefault(value, set()).add(action)
    return tuple(frozenset(groups[s]) for s in sorted(groups))


def render_groups(groups) -> str:
    return ";".join(",".join(sorted(g)) for g in groups)


def dominant_subsets_text(variant: str, data: FrameworkData) -> str:
    """Every dominant subset in the order the library lists them, as text.

    The rendering matches ``run.render_dominance`` line for line.
    """
    ids = sorted(tid for tid, _, _ in data.theories)
    credence = {tid: c for tid, c, _ in data.theories}
    full = ranking(variant, data, set(ids))
    lines = []
    for size in range(1, len(ids)):
        for combo in itertools.combinations(ids, size):
            inside = ranking(variant, data, set(combo))
            outside = ranking(variant, data, set(ids) - set(combo))
            if inside == full and inside != outside:
                mass = sum((credence[t] for t in combo), Fraction(0))
                lines.append(
                    "|".join(
                        (
                            ",".join(combo),
                            str(mass),
                            render_groups(full),
                            render_groups(inside),
                            render_groups(outside),
                        )
                    )
                )
    return "".join(line + "\n" for line in lines)
