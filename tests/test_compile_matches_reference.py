"""Scores from the integer compile against the plain-``Fraction`` reference.

``aggregate`` and every public per-action function read one integer
compile of the framework.  Each score they give, not only each ranking,
must equal the one ``reference.py`` computes from the rule's definition,
under all five spec variants, on seeded populations, on hypothesis
frameworks, and on the scaling-stress frameworks of
``test_dominance_kernel.py`` (exact ties, coprime credence denominators,
very large and very small evaluations).  The ladder witnesses read their
bound from the same compile; the bound, the step and the injected
evaluations must equal the ones the reference gives.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from moralagg import (
    SwfSpec,
    TrimMode,
    aggregate,
    bottom_k,
    min_evaluation,
    sorted_evaluations,
    top_k,
    trimmed_wam,
    wam,
    witness_kthm,
    witness_mec,
    wmedian,
)
from moralagg.sampling import random_framework

import reference
import strategies
from test_dominance_kernel import (
    SPECS,
    coprime_ties_framework,
    scaled,
    seeded_population,
)


def assert_matches_reference(framework, actions, k=F(1, 10)):
    specs = SPECS + (SwfSpec.kthm(k), SwfSpec.kthm(k, TrimMode.RENORMALIZED))
    for spec in specs:
        result = aggregate(spec, framework, actions)
        expected = reference.scores(spec, framework, actions)
        assert list(result.scores) == list(actions)
        assert result.scores == expected, spec.label()
        assert all(type(s) is F for s in result.scores.values())
        assert result.ranking == reference.ranking(spec, framework, actions)
    for action in actions:
        assert wam(framework, action) == reference.wam(framework, action)
        assert min_evaluation(framework, action) == reference.min_evaluation(
            framework, action
        )
        assert sorted_evaluations(framework, action) == reference.sorted_evaluations(
            framework, action
        )
        assert wmedian(framework, action) == reference.wmedian(framework, action)
        for level in (F(0), F(1, 10), k):
            assert bottom_k(framework, action, level) == reference.bottom_k(
                framework, action, level
            )
            assert top_k(framework, action, level) == reference.top_k(
                framework, action, level
            )
            for mode in TrimMode:
                assert trimmed_wam(
                    framework, action, level, mode
                ) == reference.trimmed_wam(framework, action, level, mode)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_populations_match_reference(seed):
    rng = random.Random(8000 + seed)
    k = F(rng.randint(0, 49), 100)
    for framework, actions in seeded_population(8100 + seed, 30, (1, 10)):
        assert_matches_reference(framework, actions, k)
    assert_matches_reference(*random_framework(rng, n_theories=(40, 40)), k)


@given(strategies.frameworks(), strategies.trim_levels)
@settings(max_examples=60, deadline=None)
def test_hypothesis_frameworks_match_reference(fw_actions, k):
    assert_matches_reference(*fw_actions, k)


@pytest.mark.parametrize("factor", [1, 10**30, F(1, 10**30)])
def test_stress_frameworks_match_reference(factor):
    framework, actions = coprime_ties_framework()
    for k in (F(1, 10), F(1, 3), F(49, 100)):
        assert_matches_reference(scaled(framework, factor), actions, k)
    for framework, actions in seeded_population(6000, 3, (6, 6)):
        assert_matches_reference(scaled(framework, factor), actions)


TRIM_LEVEL = F(1, 10)
# Injected credences; the kthm witness takes those above the trim level.
LADDER_CREDENCES = (F(1, 100), F(1, 7), F(2, 5))


def assert_ladder_matches_reference(framework, actions):
    for credence in LADDER_CREDENCES:
        cases = [(SwfSpec.mec(), witness_mec(framework, actions, credence))]
        if credence > TRIM_LEVEL:
            report = witness_kthm(framework, actions, TRIM_LEVEL, credence)
            cases.append((SwfSpec.kthm(TRIM_LEVEL), report))
        for spec, report in cases:
            bound = reference.ladder_bound(spec, framework, actions, credence)
            construction = report.construction
            assert construction["bound"] == bound, spec.label()
            assert type(construction["bound"]) is F
            assert construction["step"] == 2 * bound + 1
            injected = report.extended_framework.theory(construction["injected_id"])
            rungs = [injected.evaluations[a] for a in construction["permutation"]]
            step = (2 * bound + 1) / credence
            assert rungs == [step * (i + 1) for i in range(len(actions))]


@pytest.mark.parametrize("nt", range(2, 9))
def test_ladder_bound_matches_reference_on_seeded_frameworks(nt):
    for framework, actions in seeded_population(9000 + nt, 4, (nt, nt)):
        assert_ladder_matches_reference(framework, actions)


@given(strategies.frameworks(min_theories=1, min_actions=2))
@settings(max_examples=40, deadline=None)
def test_ladder_bound_matches_reference_on_hypothesis_frameworks(fw_actions):
    assert_ladder_matches_reference(*fw_actions)


@pytest.mark.parametrize("factor", [1, 10**30, F(1, 10**30)])
def test_ladder_bound_matches_reference_on_stress_frameworks(factor):
    framework, actions = coprime_ties_framework()
    assert_ladder_matches_reference(scaled(framework, factor), actions)
    for framework, actions in seeded_population(6000, 3, (6, 6)):
        assert_ladder_matches_reference(scaled(framework, factor), actions)
