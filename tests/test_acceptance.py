"""End-to-end checks against frozen golden values and randomized suites.

Every test here is exact (Fraction equality throughout) and prints one
PASS/FAIL line via the conftest hook.  Timing budgets are asserted where
a check is expected to stay interactive.
"""

import itertools
import random
import time
from fractions import Fraction as F
from pathlib import Path

from moralagg import (
    ActionSet,
    EthicalFramework,
    Ranking,
    ScenarioDocument,
    SwfSpec,
    Theory,
    TrimMode,
    aggregate,
    enumerate_dominant_subsets,
    parse_scenario,
    probe_hm_non_fanatical,
    probe_kthm_non_fanatical,
    serialize_scenario,
    theory_ranking,
    witness_kthm,
    witness_maximin,
    witness_mec,
    wmedian,
)
from moralagg.sampling import (
    random_adversary,
    random_framework,
    random_majority_framework,
    random_target,
)

import reference

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"
HALF = F(1, 2)
CAPTURE_LEVELS = (F(1, 100), F(1, 10), F(2, 5))


def frobo():
    doc = parse_scenario((FIXTURES / "frobo.scenario").read_bytes())
    return doc.framework, doc.actions


def population(seed, count, **kwargs):
    rng = random.Random(seed)
    return rng, [random_framework(rng, **kwargs) for _ in range(count)]


class Stopwatch:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def test_criterion_01_firefighter_golden_values():
    framework, actions = frobo()
    with Stopwatch() as watch:
        mec = aggregate(SwfSpec.mec(), framework, actions)
        assert mec.scores == {"l": F(-10099, 100), "r": F(-599, 50)}
        assert mec.ranking == Ranking([{"l"}, {"r"}])

        maximin = aggregate(SwfSpec.maximin(), framework, actions)
        assert maximin.scores == {"l": F(-10000), "r": F(-1000)}
        assert maximin.ranking == Ranking([{"l"}, {"r"}])

        literal = aggregate(SwfSpec.kthm("1/10"), framework, actions)
        assert literal.scores == {"l": F(-99, 100), "r": F(-99, 50)}
        assert literal.ranking == Ranking([{"r"}, {"l"}])

        renorm = aggregate(
            SwfSpec.kthm("1/10", TrimMode.RENORMALIZED), framework, actions
        )
        assert renorm.scores == {"l": F(-1), "r": F(-2)}
        assert renorm.ranking == Ranking([{"r"}, {"l"}])

        hm = aggregate(SwfSpec.hm(), framework, actions)
        assert hm.scores == {"l": F(-1), "r": F(-2)}
        assert hm.ranking == Ranking([{"r"}, {"l"}])
    assert watch.elapsed < 1.0


def test_criterion_02a_dominant_subsets_under_the_mean():
    framework, actions = frobo()
    with Stopwatch() as watch:
        found = enumerate_dominant_subsets(SwfSpec.mec(), framework, actions)
        assert [s.theory_ids for s in found] == [frozenset({"d"})]
        assert found[0].total_credence == F(1, 100)

        doc = parse_scenario((FIXTURES / "tiebreaker.scenario").read_bytes())
        found = enumerate_dominant_subsets(
            SwfSpec.mec(), doc.framework, doc.actions
        )
        ids = [s.theory_ids for s in found]
        assert frozenset({"t"}) in ids
        t_entry = found[ids.index(frozenset({"t"}))]
        assert t_entry.total_credence == F(1, 100)
    assert watch.elapsed < 1.0


def test_criterion_02b_no_dominant_subset_under_the_median():
    """The 1/100 pessimist that captures the mean does not capture the median.

    Dominance carries no credence bound, so the 99/100 majority ``{u}``,
    which sets both medians, is dominant under ``hm``; no subset of total
    credence at most 1/2, ``{d}`` in particular, is.
    """
    framework, actions = frobo()
    found = enumerate_dominant_subsets(SwfSpec.hm(), framework, actions)
    minority = [s for s in found if s.total_credence <= HALF]
    assert minority == [], (
        "a subset of credence at most 1/2 dominates under the highest median: "
        + ", ".join("{" + ", ".join(sorted(s.theory_ids)) + "}" for s in minority)
    )
    assert [s.theory_ids for s in found] == [frozenset({"u"})]
    verdict = found[0].verdict
    assert found[0].total_credence == F(99, 100)
    assert verdict.full_ranking == Ranking([{"r"}, {"l"}])
    assert verdict.dominant_ranking == Ranking([{"r"}, {"l"}])
    assert verdict.yielding_ranking == Ranking([{"l"}, {"r"}])


def test_criterion_03_mean_capture_suite():
    rng, frameworks = population(103, 200)
    with Stopwatch() as watch:
        verified = 0
        total = 0
        for framework, actions in frameworks:
            base = aggregate(SwfSpec.mec(), framework, actions)
            for k in CAPTURE_LEVELS:
                target = random_target(rng, base.ranking, actions)
                report = witness_mec(framework, actions, k, target=target)
                assert report.total_credence == k
                total += 1
                verified += report.verdict.is_dominant
        assert verified == total == 600
    assert watch.elapsed < 10.0


def test_criterion_04_maximin_capture_suite():
    _, frameworks = population(104, 200)
    with Stopwatch() as watch:
        verified = 0
        total = 0
        for framework, actions in frameworks:
            for k in CAPTURE_LEVELS:
                report = witness_maximin(framework, actions, k)
                assert report.total_credence == k
                total += 1
                verified += report.verdict.is_dominant
        assert verified == total == 600
    assert watch.elapsed < 10.0


def test_criterion_05_trimmed_mean_capture_suite():
    rng, frameworks = population(105, 200)
    k = F(1, 10)
    with Stopwatch() as watch:
        verified = 0
        total = 0
        for framework, actions in frameworks:
            base = aggregate(SwfSpec.kthm(k), framework, actions)
            for k_prime in (F(1, 5), F(2, 5)):
                target = random_target(rng, base.ranking, actions)
                report = witness_kthm(framework, actions, k, k_prime, target=target)
                assert report.total_credence == k_prime
                total += 1
                verified += report.verdict.is_dominant
        assert verified == total == 400
    assert watch.elapsed < 10.0


def test_criterion_06_trimmed_mean_resists_small_adversaries():
    rng = random.Random(106)
    actions = ActionSet(("a", "b"))
    with Stopwatch() as watch:
        for k in CAPTURE_LEVELS:
            survived = 0
            for _ in range(500):
                adversary = random_adversary(rng, actions, k)
                survived += probe_kthm_non_fanatical(k, adversary)
            assert survived == 500
    assert watch.elapsed < 10.0


def test_criterion_07_median_resists_and_obeys_majorities():
    rng = random.Random(107)
    actions = ActionSet(("a", "b"))
    with Stopwatch() as watch:
        survived = 0
        for _ in range(500):
            adversary = random_adversary(rng, actions, F(49, 100))
            survived += probe_hm_non_fanatical(F(49, 100), adversary)
        assert survived == 500

        agreed = 0
        for _ in range(200):
            framework, acts, boss = random_majority_framework(rng)
            result = aggregate(SwfSpec.hm(), framework, acts)
            agreed += result.ranking == theory_ranking(
                framework.theory(boss), acts
            )
        assert agreed == 200
    assert watch.elapsed < 10.0


def test_criterion_08_zero_trim_reduces_to_the_mean():
    _, frameworks = population(108, 200)
    for framework, actions in frameworks:
        mec = aggregate(SwfSpec.mec(), framework, actions)
        for mode in TrimMode:
            trimmed = aggregate(SwfSpec.kthm(0, mode), framework, actions)
            assert trimmed.ranking == mec.ranking


def brute_force_dominant_subsets(spec, framework, actions):
    def renormalized(ids):
        kept = [t for t in framework.theories if t.id in ids]
        mass = sum((framework.credences[t.id] for t in kept), F(0))
        return EthicalFramework(
            kept, {t.id: framework.credences[t.id] / mass for t in kept}
        )

    full = reference.ranking(spec, framework, actions)
    all_ids = sorted(framework.theory_ids())
    found = []
    for size in range(1, len(all_ids)):
        for combo in itertools.combinations(all_ids, size):
            inside = reference.ranking(spec, renormalized(set(combo)), actions)
            outside = reference.ranking(
                spec, renormalized(set(all_ids) - set(combo)), actions
            )
            if full == inside and inside != outside:
                found.append(frozenset(combo))
    return found


def test_criterion_09_independent_oracles_agree():
    _, frameworks = population(109, 500)
    for framework, actions in frameworks:
        for action in actions:
            assert wmedian(framework, action) == reference.wmedian(
                framework, action
            )

    _, small = population(1090, 40, n_theories=(2, 4))
    specs = [
        SwfSpec.mec(),
        SwfSpec.maximin(),
        SwfSpec.kthm("1/10"),
        SwfSpec.kthm("2/5", TrimMode.RENORMALIZED),
        SwfSpec.hm(),
    ]
    for framework, actions in small:
        for spec in specs:
            expected = brute_force_dominant_subsets(spec, framework, actions)
            got = [
                s.theory_ids
                for s in enumerate_dominant_subsets(spec, framework, actions)
            ]
            assert got == expected


def test_criterion_10_scenario_round_trip():
    for name in ("frobo.scenario", "tiebreaker.scenario"):
        data = (FIXTURES / name).read_bytes()
        assert serialize_scenario(parse_scenario(data)) == data

    rng = random.Random(110)
    swf_cycle = [
        None,
        SwfSpec.mec(),
        SwfSpec.maximin(),
        SwfSpec.hm(),
        SwfSpec.kthm("1/10"),
        SwfSpec.kthm("2/5", TrimMode.RENORMALIZED),
    ]
    for i in range(200):
        framework, actions = random_framework(rng)
        doc = ScenarioDocument(framework, actions, swf_cycle[i % len(swf_cycle)])
        data = serialize_scenario(doc)
        again = parse_scenario(data)
        assert again == doc
        assert serialize_scenario(again) == data
