"""Seeded random frameworks and adversaries for self-tests.

All draws go through a caller-supplied ``random.Random``, so a fixed seed
reproduces the exact same frameworks on any platform.  Values are built
as exact fractions of random integers; floats never appear.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .core import ActionSet, EthicalFramework, Theory

_ACTION_NAMES = ("a", "b", "c", "d", "e", "f")
_N_ACTIONS = (2, 4)
_LO, _HI = -100, 100
_MAX_DEN = 12
_MAX_WEIGHT = 60
_TIE_PROB = 0.25
_MAX_ADVERSARIES = 3


def random_rational(rng: random.Random) -> Fraction:
    """A fraction in [_LO, _HI] with denominator at most ``_MAX_DEN``."""
    den = rng.randint(1, _MAX_DEN)
    return Fraction(rng.randint(_LO * den, _HI * den), den)


def random_credences(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(1, _MAX_WEIGHT) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_framework(
    rng: random.Random, n_theories: tuple[int, int] = (2, 5)
) -> tuple[EthicalFramework, ActionSet]:
    """One framework with random exact evaluations and credences.

    With probability ``_TIE_PROB`` per theory, one evaluation is copied
    from another theory or action so that exact ties actually occur in
    the population.
    """
    nt = rng.randint(*n_theories)
    na = rng.randint(*_N_ACTIONS)
    actions = ActionSet(_ACTION_NAMES[:na])
    evaluations = [{a: random_rational(rng) for a in actions} for _ in range(nt)]
    for i in range(nt):
        if rng.random() < _TIE_PROB:
            j = rng.randrange(nt)
            evaluations[i][rng.choice(actions.actions)] = evaluations[j][
                rng.choice(actions.actions)
            ]
    theories = [Theory(f"t{i + 1}", evaluations[i]) for i in range(nt)]
    credences = random_credences(rng, nt)
    framework = EthicalFramework(
        theories, {t.id: c for t, c in zip(theories, credences)}
    )
    return framework, actions


def random_majority_framework(
    rng: random.Random,
) -> tuple[EthicalFramework, ActionSet, str]:
    """A random framework in which one theory holds credence above 1/2."""
    framework, actions = random_framework(rng)
    ids = framework.theory_ids()
    boss = rng.choice(ids)
    weights = {tid: rng.randint(1, _MAX_WEIGHT) for tid in ids}
    rest = sum(w for tid, w in weights.items() if tid != boss)
    weights[boss] = 2 * rest + 1
    total = sum(weights.values())
    credences = {tid: Fraction(w, total) for tid, w in weights.items()}
    return EthicalFramework(framework.theories, credences), actions, boss


_ADVERSARY_SCALES = (1, 100, 10**6, 10**9)


def random_adversary(
    rng: random.Random, actions: Sequence[str], max_mass: Fraction
) -> list[tuple[Theory, Fraction]]:
    """Up to ``_MAX_ADVERSARIES`` theories of total credence in (0, max_mass].

    Evaluations are drawn at wildly different magnitudes, up to 1e9, so
    the probes face genuinely extreme stakes.  Ids are ``adv1``, ``adv2``, ...
    """
    n = rng.randint(1, _MAX_ADVERSARIES)
    mass = max_mass * Fraction(rng.randint(1, 20), 20)
    weights = [rng.randint(1, 30) for _ in range(n)]
    total = sum(weights)
    out: list[tuple[Theory, Fraction]] = []
    for i in range(n):
        scale = rng.choice(_ADVERSARY_SCALES)
        values = {
            a: Fraction(rng.randint(-scale * 4, scale * 4), rng.randint(1, 4))
            for a in actions
        }
        out.append(
            (Theory(f"adv{i + 1}", values), mass * Fraction(weights[i], total))
        )
    return out


def random_target(
    rng: random.Random, ranking, actions: ActionSet
) -> Optional[str]:
    """A uniformly random action that is not the unique best one."""
    maximal = ranking.maximal_group()
    valid = [a for a in actions if maximal != frozenset({a})]
    return rng.choice(valid) if valid else None
