"""Plain-``Fraction`` reference for the four rules, read off their definitions.

The library scores every rule from one integer compile of the framework.
This module is the independent reference the tests hold that compile to:
each rule is computed from its definition with exact rationals and slice
sums over the evaluation-sorted theories, with no scaling and no code
shared with ``moralagg.functionals``.  It assumes a valid framework.
"""

from fractions import Fraction as F

from moralagg import SwfKind, TrimMode, ranking_from_scores

HALF = F(1, 2)


def _ascending(framework, action):
    """Theories, weights and values of ``action``, ascending; ties declared."""
    order = sorted(
        range(len(framework.theories)),
        key=lambda i: (framework.theories[i].evaluations[action], i),
    )
    theories = [framework.theories[i] for i in order]
    weights = [framework.credences[t.id] for t in theories]
    values = [t.evaluations[action] for t in theories]
    return theories, weights, values


def wam(framework, action):
    return sum(
        (framework.credences[t.id] * t.evaluations[action] for t in framework.theories),
        F(0),
    )


def min_evaluation(framework, action):
    return min(t.evaluations[action] for t in framework.theories)


def sorted_evaluations(framework, action):
    theories, _, values = _ascending(framework, action)
    return tuple((t.id, v) for t, v in zip(theories, values))


def trim_bounds(framework, action, k):
    """``lo, hi``: drop the longest prefix and the longest suffix of the
    sorted evaluations whose slice sums of credence stay <= k."""
    _, weights, _ = _ascending(framework, action)
    n = len(weights)
    lo = max(m for m in range(n + 1) if sum(weights[:m], F(0)) <= k)
    hi = min(m for m in range(n + 1) if sum(weights[m:], F(0)) <= k)
    assert lo <= hi
    return lo, hi


def bottom_k(framework, action, k):
    theories, _, _ = _ascending(framework, action)
    lo, _ = trim_bounds(framework, action, k)
    return frozenset(t.id for t in theories[:lo])


def top_k(framework, action, k):
    theories, _, _ = _ascending(framework, action)
    _, hi = trim_bounds(framework, action, k)
    return frozenset(t.id for t in theories[hi:])


def trimmed_wam(framework, action, k, trim_mode=TrimMode.LITERAL):
    _, weights, values = _ascending(framework, action)
    lo, hi = trim_bounds(framework, action, k)
    total = sum((w * v for w, v in zip(weights[lo:hi], values[lo:hi])), F(0))
    if TrimMode(trim_mode) is TrimMode.RENORMALIZED:
        return total / sum(weights[lo:hi], F(0))
    return total


def wmedian(framework, action):
    """The two-inequality definition: index m is valid when the credence
    mass strictly before it and strictly after it are both at most 1/2."""
    _, weights, values = _ascending(framework, action)
    n = len(values)
    valid = [
        m
        for m in range(1, n + 1)
        if sum(weights[: m - 1], F(0)) <= HALF
        and sum(weights[m:], F(0)) <= HALF
    ]
    assert len(valid) in (1, 2)
    if len(valid) == 2:
        assert valid[1] == valid[0] + 1
        return (values[valid[0] - 1] + values[valid[1] - 1]) / 2
    return values[valid[0] - 1]


def score(spec, framework, action):
    if spec.kind is SwfKind.MEC:
        return wam(framework, action)
    if spec.kind is SwfKind.MAXIMIN:
        return min_evaluation(framework, action)
    if spec.kind is SwfKind.KTHM:
        return trimmed_wam(framework, action, spec.k, spec.trim_mode)
    return wmedian(framework, action)


def scores(spec, framework, actions):
    return {a: score(spec, framework, a) for a in actions}


def ranking(spec, framework, actions):
    return ranking_from_scores(scores(spec, framework, actions))


def ladder_bound(spec, framework, actions, credence):
    """The bound ``s`` of the ladder witness that injects ``credence``.

    Under ``mec`` the largest absolute score.  Under ``kthm``, whose
    injected theory is never trimmed, ``1 - credence`` (the base
    theories' mass after extension) times the largest credence-weighted
    sum of absolute evaluations of one action.
    """
    if spec.kind is SwfKind.MEC:
        return max(abs(wam(framework, a)) for a in actions)
    return (1 - credence) * max(
        sum(
            (framework.credences[t.id] * abs(t.evaluations[a])
             for t in framework.theories),
            F(0),
        )
        for a in actions
    )
