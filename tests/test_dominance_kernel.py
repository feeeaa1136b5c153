"""Dominance checks against the plain ``Fraction`` path.

``enumerate_dominant_subsets`` and ``is_dominant_subset`` score subsets
from one integer compile of the framework.  The reference here is the
definition run literally: restrict the framework to each side, rank each
restriction by the plain-``Fraction`` rules of ``reference.py`` (not by
:func:`aggregate`, which reads the same compile), and compare the
rankings.  Every
field of every result must agree, under all five spec variants, on
seeded populations, on hypothesis frameworks, and on frameworks built to
stress the integer scaling (exact ties, coprime credence denominators,
very large and very small evaluations).
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from moralagg import (
    ActionSet,
    CredenceOutOfRange,
    CredenceSumNotOne,
    EthicalFramework,
    MissingEvaluation,
    SwfSpec,
    Theory,
    TrimMode,
    enumerate_dominant_subsets,
    is_dominant_subset,
)
from moralagg.core import restrict
from moralagg.sampling import random_framework

import reference
import strategies

SPECS = (
    SwfSpec.mec(),
    SwfSpec.maximin(),
    SwfSpec.kthm("1/10", TrimMode.LITERAL),
    SwfSpec.kthm("1/10", TrimMode.RENORMALIZED),
    SwfSpec.hm(),
)


def reference_verdict(spec, framework, actions, subset):
    """``(is_dominant, full, dominant, yielding)`` by restrict + the reference."""
    rest = [t for t in framework.theory_ids() if t not in subset]
    full = reference.ranking(spec, framework, actions)
    dominant = reference.ranking(spec, restrict(framework, subset), actions)
    yielding = reference.ranking(spec, restrict(framework, rest), actions)
    return (full == dominant and dominant != yielding, full, dominant, yielding)


def reference_dominant_subsets(spec, framework, actions):
    ids = sorted(framework.theory_ids())
    found = []
    for size in range(1, len(ids)):
        for combo in itertools.combinations(ids, size):
            holds, full, dominant, yielding = reference_verdict(
                spec, framework, actions, combo
            )
            if holds:
                total = framework.total_credence(combo)
                found.append((frozenset(combo), total, full, dominant, yielding))
    return found


def fields(found):
    rows = []
    for s in found:
        assert s.verdict.is_dominant
        v = s.verdict
        rows.append(
            (
                s.theory_ids,
                s.total_credence,
                v.full_ranking,
                v.dominant_ranking,
                v.yielding_ranking,
            )
        )
    return rows


def assert_enumeration_matches(spec, framework, actions):
    got = fields(enumerate_dominant_subsets(spec, framework, actions))
    assert got == reference_dominant_subsets(spec, framework, actions)


def scaled(framework, factor):
    theories = [
        Theory(t.id, {a: v * factor for a, v in t.evaluations.items()})
        for t in framework.theories
    ]
    return EthicalFramework(theories, framework.credences)


def seeded_population(seed, count, n_theories):
    rng = random.Random(seed)
    return [random_framework(rng, n_theories=n_theories) for _ in range(count)]


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
@pytest.mark.parametrize("nt", range(2, 9))
def test_enumeration_matches_reference_on_seeded_frameworks(spec, nt):
    for framework, actions in seeded_population(5000 + nt, 2, (nt, nt)):
        assert_enumeration_matches(spec, framework, actions)


@given(strategies.frameworks(min_theories=2, max_theories=5), strategies.trim_levels)
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_reference_on_hypothesis_frameworks(fw_actions, k):
    framework, actions = fw_actions
    specs = SPECS + (
        SwfSpec.kthm(k, TrimMode.LITERAL),
        SwfSpec.kthm(k, TrimMode.RENORMALIZED),
    )
    for spec in specs:
        assert_enumeration_matches(spec, framework, actions)


def coprime_ties_framework():
    """Coprime credence denominators; tied theories and tied actions."""
    credences = [F(1, 3), F(1, 5), F(1, 7), F(1, 11)]
    credences.append(1 - sum(credences))
    rows = [
        {"a": 1, "b": 0, "c": 1},
        {"a": 0, "b": 1, "c": 1},
        {"a": 1, "b": 0, "c": 1},
        {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)},
        {"a": -5, "b": 2, "c": F(-7, 2)},
    ]
    theories = [Theory(f"t{i + 1}", row) for i, row in enumerate(rows)]
    return EthicalFramework(
        theories, {t.id: c for t, c in zip(theories, credences)}
    ), ActionSet(("a", "b", "c"))


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
@pytest.mark.parametrize("factor", [1, 10**30, F(1, 10**30)])
def test_enumeration_matches_reference_on_stress_frameworks(spec, factor):
    framework, actions = coprime_ties_framework()
    assert_enumeration_matches(spec, scaled(framework, factor), actions)
    for framework, actions in seeded_population(6000, 3, (6, 6)):
        assert_enumeration_matches(spec, scaled(framework, factor), actions)


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
def test_single_checks_match_reference_on_random_subsets(spec):
    rng = random.Random(7000)
    for framework, actions in seeded_population(7001, 30, (2, 24)):
        ids = framework.theory_ids()
        for _ in range(3):
            subset = rng.sample(ids, rng.randint(1, len(ids) - 1))
            v = is_dominant_subset(spec, framework, actions, subset)
            got = (
                v.is_dominant,
                v.full_ranking,
                v.dominant_ranking,
                v.yielding_ranking,
            )
            assert got == reference_verdict(spec, framework, actions, subset)


# Error contract: one validation per call raises what a validation per
# subset raised.

ACTIONS = ActionSet(("a", "b"))


def framework_with(credences, drop=None):
    theories = []
    for i, _ in enumerate(credences):
        row = {"a": i, "b": -i}
        if drop == i:
            del row["b"]
        theories.append(Theory(f"t{i + 1}", row))
    return EthicalFramework(theories, {t.id: c for t, c in zip(theories, credences)})


INVALID = {
    "sum": (framework_with([F(1, 2), F(1, 3)]), CredenceSumNotOne,
            "credences sum to 5/6, deficit of 1/6"),
    "range": (framework_with([F(3, 2), F(-1, 2)]), CredenceOutOfRange,
              "credence for theory 't1' is 3/2, outside (0, 1]"),
    "missing": (framework_with([F(1, 2), F(1, 2)], drop=1), MissingEvaluation,
                "theory 't2' has no evaluation for action 'b'"),
}


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_frameworks_raise_as_before(spec, case):
    framework, error, message = INVALID[case]
    with pytest.raises(error) as caught:
        enumerate_dominant_subsets(spec, framework, ACTIONS)
    assert str(caught.value) == message
    with pytest.raises(error) as caught:
        is_dominant_subset(spec, framework, ACTIONS, ["t1"])
    assert str(caught.value) == message


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
def test_single_theory_framework_has_no_dominant_subset(spec):
    assert enumerate_dominant_subsets(spec, framework_with([F(1)]), ACTIONS) == []


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
def test_single_theory_framework_is_validated(spec):
    with pytest.raises(CredenceSumNotOne) as caught:
        enumerate_dominant_subsets(spec, framework_with([F(1, 2)]), ACTIONS)
    assert str(caught.value) == "credences sum to 1/2, deficit of 1/2"
