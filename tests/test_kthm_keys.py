"""Integer keys for the k-trimmed mean against the plain ``Fraction`` path.

The compile scores ``kthm`` from one trim scan per action and mask: the
survivors' weighted sum ``t`` and their mass ``m``.  Renormalized, each
action's mean ``t / m`` has its own denominator, and the compile scores
``t * (L // m)`` with ``L`` the lcm of the masses instead of building a
``Fraction``.  These tests check that those keys group and order actions
exactly as the means do: seeded enumerations at every trim level tried,
in both modes, against ``restrict`` plus ``reference.py``; one framework
whose means tie over different survivor masses, and one whose means
differ by the smallest step those masses allow.  A work guard checks
that keying a mask builds no ``Fraction`` at all.
"""

import random
from fractions import Fraction as F

import pytest

from moralagg import (
    ActionSet,
    EthicalFramework,
    Ranking,
    SwfSpec,
    Theory,
    TrimMode,
    aggregate,
    functionals,
)
from moralagg.functionals import _Compiled
from moralagg.sampling import random_framework

import reference
from test_dominance_kernel import assert_enumeration_matches

TRIM_LEVELS = ("0", "1/7", "1/3", "49/100")
KTHM_SPECS = [SwfSpec.kthm(k, mode) for k in TRIM_LEVELS for mode in TrimMode]


@pytest.mark.parametrize("spec", KTHM_SPECS, ids=SwfSpec.label)
@pytest.mark.parametrize("nt", range(6, 10))
def test_enumeration_matches_reference(spec, nt):
    rng = random.Random(14_000 + nt)
    framework, actions = random_framework(rng, n_theories=(nt, nt))
    assert_enumeration_matches(spec, framework, actions)


# Credences 1/10, 2/10, 3/10 and 4/10 with k = 1/5: a side may shed at
# most 2/10.  Action ``a`` sorts t1 first, so only t1 is shed and t2, t3,
# t4 survive with mass 9/10.  Action ``b`` sorts t2 first and t1 last, so
# t2 and t1 are shed and t3, t4 survive with mass 7/10.
CREDENCES = {"t1": "1/10", "t2": "2/10", "t3": "3/10", "t4": "4/10"}
RENORMALIZED = SwfSpec.kthm("1/5", TrimMode.RENORMALIZED)


def two_mass_framework(a, b):
    """Theories t1..t4 evaluating ``a`` and ``b``, plus ``c``, constant at 0."""
    theories = [
        Theory(tid, {"a": x, "b": y, "c": 0}) for tid, x, y in zip(CREDENCES, a, b)
    ]
    return EthicalFramework(theories, CREDENCES), ActionSet(("a", "b", "c"))


def survivor_means(framework):
    return [
        reference.trimmed_wam(framework, action, F(1, 5), TrimMode.RENORMALIZED)
        for action in ("a", "b")
    ]


def survivor_masses(framework):
    return [
        1
        - framework.total_credence(
            reference.bottom_k(framework, action, F(1, 5))
            | reference.top_k(framework, action, F(1, 5))
        )
        for action in ("a", "b")
    ]


def test_equal_means_over_different_masses_stay_tied():
    # a: (2*0 + 3*1 + 4*3) / 9 = 5/3;  b: (3*(1/3) + 4*(8/3)) / 7 = 5/3.
    framework, actions = two_mass_framework(
        a=(-1, 0, 1, 3), b=(10, -2, "1/3", "8/3")
    )
    assert survivor_means(framework) == [F(5, 3), F(5, 3)]
    assert survivor_masses(framework) == [F(9, 10), F(7, 10)]
    compiled = _Compiled(RENORMALIZED, framework, actions)
    key = compiled.key(compiled.everyone)
    assert key[0] == key[1] != key[2]
    ranking = aggregate(RENORMALIZED, framework, actions).ranking
    assert ranking == Ranking([["c"], ["a", "b"]])
    assert_enumeration_matches(RENORMALIZED, framework, actions)


def test_means_one_step_apart_stay_ordered():
    # a: 9 * (5/9) / 9 = 5/9;  b: (3*0 + 4*1) / 7 = 4/7 = 5/9 + 1/(9*7).
    framework, actions = two_mass_framework(
        a=(-1, "5/9", "5/9", "5/9"), b=(10, -2, 0, 1)
    )
    low, high = survivor_means(framework)
    assert high - low == F(1, 9 * 7)
    assert survivor_masses(framework) == [F(9, 10), F(7, 10)]
    compiled = _Compiled(RENORMALIZED, framework, actions)
    assert compiled.key(compiled.everyone) == (1, 2, 0)
    ranking = aggregate(RENORMALIZED, framework, actions).ranking
    assert ranking == Ranking([["c"], ["a"], ["b"]])
    assert_enumeration_matches(RENORMALIZED, framework, actions)


@pytest.mark.parametrize("k", TRIM_LEVELS)
def test_keying_builds_no_fraction(monkeypatch, k):
    rng = random.Random(14_100)
    framework, actions = random_framework(rng, n_theories=(8, 8))
    compiled = _Compiled(SwfSpec.kthm(k, TrimMode.RENORMALIZED), framework, actions)

    def refuse(*args):
        raise AssertionError("keying a mask built a Fraction")

    monkeypatch.setattr(functionals, "Fraction", refuse)
    for mask in range(1, compiled.everyone + 1):
        compiled.key(mask)
