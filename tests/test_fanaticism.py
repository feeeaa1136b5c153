import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from moralagg import (
    ActionSet,
    BadCredence,
    BadCredencePair,
    ConstructionFailed,
    CredenceTooHigh,
    EthicalFramework,
    MoralAggError,
    NotProperSubset,
    Ranking,
    SwfSpec,
    TargetIsUniqueMaximizer,
    Theory,
    TooManyTheories,
    TrimMode,
    UnknownTheoryId,
    aggregate,
    canonical_family,
    enumerate_dominant_subsets,
    is_dominant_subset,
    probe_hm_non_fanatical,
    probe_kthm_non_fanatical,
    witness_kthm,
    witness_maximin,
    witness_mec,
)
from moralagg import functionals
from moralagg.sampling import random_framework, random_majority_framework

import strategies


def frobo():
    u = Theory("u", {"l": -1, "r": -2})
    d = Theory("d", {"l": -10000, "r": -1000})
    return (
        EthicalFramework([u, d], {"u": "99/100", "d": "1/100"}),
        ActionSet(("l", "r")),
    )


def tiebreaker():
    u = Theory("u", {"l": -1, "r": -2})
    dprime = Theory("dprime", {"l": -2, "r": -1})
    t = Theory("t", {"l": -1, "r": 0})
    return (
        EthicalFramework(
            [u, dprime, t],
            {"u": "99/200", "dprime": "99/200", "t": "1/100"},
        ),
        ActionSet(("l", "r")),
    )


def two_action_base():
    t = Theory("t", {"a": 1, "b": 0})
    return EthicalFramework([t], {"t": 1}), ActionSet(("a", "b"))


class TestIsDominantSubset:
    def test_low_credence_pessimist_dominates_the_mean(self):
        framework, actions = frobo()
        verdict = is_dominant_subset(SwfSpec.mec(), framework, actions, {"d"})
        assert verdict.is_dominant
        assert verdict.full_ranking == Ranking([{"l"}, {"r"}])
        assert verdict.dominant_ranking == Ranking([{"l"}, {"r"}])
        assert verdict.yielding_ranking == Ranking([{"r"}, {"l"}])

    def test_majority_theory_is_not_dominant_under_the_mean(self):
        framework, actions = frobo()
        verdict = is_dominant_subset(SwfSpec.mec(), framework, actions, {"u"})
        assert not verdict.is_dominant

    def test_trimming_discards_the_pessimist(self):
        framework, actions = frobo()
        verdict = is_dominant_subset(
            SwfSpec.kthm("1/10"), framework, actions, {"d"}
        )
        assert not verdict.is_dominant

    def test_agreement_is_not_dominance(self):
        # Both halves rank alike, so neither one dominates the other.
        framework = EthicalFramework(
            [Theory("t1", {"a": 1, "b": 0}), Theory("t2", {"a": 2, "b": 0})],
            {"t1": "1/2", "t2": "1/2"},
        )
        actions = ActionSet(("a", "b"))
        for ids in ({"t1"}, {"t2"}):
            verdict = is_dominant_subset(SwfSpec.mec(), framework, actions, ids)
            assert verdict.dominant_ranking == verdict.yielding_ranking
            assert not verdict.is_dominant

    def test_rejects_empty_and_full_subsets(self):
        framework, actions = frobo()
        with pytest.raises(NotProperSubset):
            is_dominant_subset(SwfSpec.mec(), framework, actions, set())
        with pytest.raises(NotProperSubset):
            is_dominant_subset(SwfSpec.mec(), framework, actions, {"u", "d"})

    def test_rejects_unknown_ids(self):
        framework, actions = frobo()
        with pytest.raises(UnknownTheoryId):
            is_dominant_subset(SwfSpec.mec(), framework, actions, {"ghost"})


@pytest.mark.parametrize(
    "call",
    [
        lambda framework: is_dominant_subset(SwfSpec.mec(), framework, [], {"u"}),
        lambda framework: enumerate_dominant_subsets(SwfSpec.hm(), framework, []),
        lambda framework: aggregate(SwfSpec.kthm("1/10", "renormalized"), framework, []),
    ],
    ids=["is_dominant_subset", "enumerate_dominant_subsets", "aggregate"],
)
def test_empty_action_list_is_an_empty_score_table(call):
    # A plain empty sequence, unlike an ActionSet, reaches the ranking:
    # every entry point rejects it with the one message of core._ranking.
    framework, _ = frobo()
    with pytest.raises(ValueError, match="^cannot rank an empty score table$"):
        call(framework)


class TestEnumerateDominantSubsets:
    def test_frobo_under_the_mean(self):
        framework, actions = frobo()
        found = enumerate_dominant_subsets(SwfSpec.mec(), framework, actions)
        assert [s.theory_ids for s in found] == [frozenset({"d"})]
        assert found[0].total_credence == F(1, 100)

    def test_frobo_under_maximin(self):
        framework, actions = frobo()
        found = enumerate_dominant_subsets(
            SwfSpec.maximin(), framework, actions
        )
        assert [s.theory_ids for s in found] == [frozenset({"d"})]

    def test_tiebreaker_under_the_mean(self):
        framework, actions = tiebreaker()
        found = enumerate_dominant_subsets(SwfSpec.mec(), framework, actions)
        assert [sorted(s.theory_ids) for s in found] == [
            ["dprime"],
            ["t"],
            ["dprime", "t"],
        ]
        assert found[1].total_credence == F(1, 100)

    def test_size_cap(self):
        framework, actions = frobo()
        with pytest.raises(TooManyTheories):
            enumerate_dominant_subsets(
                SwfSpec.mec(), framework, actions, max_theories=1
            )

    def test_single_theory_framework_has_no_proper_subsets(self):
        framework = EthicalFramework([Theory("t", {"a": 0})], {"t": 1})
        found = enumerate_dominant_subsets(
            SwfSpec.mec(), framework, ActionSet(("a",))
        )
        assert found == []


class TestWitnessMec:
    def test_textbook_quarter_credence(self):
        framework, actions = two_action_base()
        report = witness_mec(framework, actions, "1/4", target="b")
        assert report.spec == SwfSpec.mec()
        ft = report.extended_framework.theory("ft")
        assert ft.evaluations == {"a": F(12), "b": F(24)}
        assert report.extended_framework.credences == {
            "t": F(3, 4),
            "ft": F(1, 4),
        }
        assert report.total_credence == F(1, 4)
        assert report.verdict.is_dominant
        extension_scores = aggregate(
            SwfSpec.mec(), report.extended_framework, actions
        ).scores
        assert extension_scores == {"a": F(15, 4), "b": F(6)}

    def test_tiny_credence_still_captures(self):
        framework, actions = two_action_base()
        report = witness_mec(framework, actions, "1/100", target="b")
        ft = report.extended_framework.theory("ft")
        assert ft.evaluations == {"a": F(300), "b": F(600)}
        assert report.verdict.is_dominant

    def test_all_zero_base_uses_unit_step(self):
        framework = EthicalFramework([Theory("t", {"a": 0, "b": 0})], {"t": 1})
        report = witness_mec(framework, ActionSet(("a", "b")), "1/4", target="b")
        assert report.construction["step"] == F(1)
        assert report.verdict.is_dominant
        assert report.verdict.full_ranking == Ranking([{"a"}, {"b"}])

    def test_default_target_is_the_worst_action(self):
        framework, actions = two_action_base()
        report = witness_mec(framework, actions, "1/4")
        assert report.construction["target"] == "b"

    def test_unique_maximizer_is_rejected_as_target(self):
        framework, actions = two_action_base()
        with pytest.raises(TargetIsUniqueMaximizer):
            witness_mec(framework, actions, "1/4", target="a")

    def test_credence_bounds(self):
        framework, actions = two_action_base()
        for bad in (0, "1/2", "3/4", "-1/4"):
            with pytest.raises(BadCredence):
                witness_mec(framework, actions, bad, target="b")

    def test_fresh_id_avoids_collisions(self):
        framework = EthicalFramework(
            [Theory("ft", {"a": 1, "b": 0})], {"ft": 1}
        )
        report = witness_mec(framework, ActionSet(("a", "b")), "1/4", target="b")
        assert report.injected_theories == frozenset({"ft2"})


class TestWitnessMaximin:
    def test_textbook_quarter_credence(self):
        framework, actions = two_action_base()
        report = witness_maximin(framework, actions, "1/4")
        assert report.spec == SwfSpec.maximin()
        ft = report.extended_framework.theory("ft")
        assert report.construction["floor"] == F(0)
        assert report.construction["a_star"] == "a"
        assert ft.evaluations == {"a": F(-2), "b": F(-1)}
        assert report.verdict.is_dominant
        assert report.verdict.full_ranking == Ranking([{"a"}, {"b"}])
        assert report.verdict.yielding_ranking == Ranking([{"b"}, {"a"}])

    def test_firefighter_example(self):
        framework, actions = frobo()
        report = witness_maximin(framework, actions, "1/100")
        ft = report.extended_framework.theory("ft")
        assert report.construction["floor"] == F(-10000)
        assert report.construction["a_star"] == "r"
        assert ft.evaluations == {"l": F(-10001), "r": F(-10002)}
        assert report.verdict.is_dominant

    def test_all_tied_base_still_captured(self):
        framework = EthicalFramework([Theory("t", {"a": 5, "b": 5})], {"t": 1})
        report = witness_maximin(framework, ActionSet(("a", "b")), "1/3")
        assert report.verdict.is_dominant

    def test_literal_reading_fails_when_the_argmin_is_already_last(self):
        framework = EthicalFramework([Theory("t", {"a": 0, "b": 1})], {"t": 1})
        actions = ActionSet(("a", "b"))
        with pytest.raises(ConstructionFailed):
            witness_maximin(framework, actions, "1/4", reading="literal")
        assert witness_maximin(framework, actions, "1/4").verdict.is_dominant

    def test_literal_reading_succeeds_on_ties(self):
        framework = EthicalFramework([Theory("t", {"a": 5, "b": 5})], {"t": 1})
        report = witness_maximin(
            framework, ActionSet(("a", "b")), "1/4", reading="literal"
        )
        assert report.verdict.is_dominant

    def test_credence_bounds(self):
        framework, actions = two_action_base()
        with pytest.raises(BadCredence):
            witness_maximin(framework, actions, "1/2")

    def test_reading_is_checked_before_the_action_count(self):
        framework = EthicalFramework([Theory("t", {"a": 0})], {"t": 1})
        with pytest.raises(ValueError, match="unknown reading 'sideways'"):
            witness_maximin(framework, ActionSet(("a",)), "1/4", reading="sideways")


class TestWitnessKthm:
    def test_textbook_values(self):
        framework, actions = two_action_base()
        report = witness_kthm(framework, actions, "1/10", "1/5", target="b")
        assert report.spec == SwfSpec.kthm(F(1, 10), TrimMode.LITERAL)
        ft = report.extended_framework.theory("ft")
        assert report.construction["bound"] == F(4, 5)
        assert report.construction["step"] == F(13, 5)
        assert ft.evaluations == {"a": F(13), "b": F(26)}
        assert report.total_credence == F(1, 5)
        assert report.verdict.is_dominant

    def test_wider_gap_also_works(self):
        framework, actions = two_action_base()
        report = witness_kthm(framework, actions, "1/10", "2/5", target="b")
        assert report.verdict.is_dominant

    def test_zero_trim_behaves_like_the_mean_witness(self):
        framework, actions = two_action_base()
        report = witness_kthm(framework, actions, 0, "1/4", target="b")
        assert report.verdict.is_dominant
        mec_scores = aggregate(
            SwfSpec.kthm(0), report.extended_framework, actions
        ).scores
        assert mec_scores == aggregate(
            SwfSpec.mec(), report.extended_framework, actions
        ).scores

    def test_credence_pair_ordering_enforced(self):
        framework, actions = two_action_base()
        for k, k_prime in (("1/5", "1/10"), ("1/10", "1/10"), ("1/10", "1/2")):
            with pytest.raises(BadCredencePair):
                witness_kthm(framework, actions, k, k_prime, target="b")


class TestProbes:
    def test_extreme_adversary_is_trimmed_out(self):
        ft = Theory("ft", {"a": -(10**9), "b": 10**9})
        assert probe_kthm_non_fanatical("1/10", [(ft, "1/20")])

    def test_trimmed_mean_probe_sorts_each_action_once(self, monkeypatch):
        # The compile sorts each action's rows; the structural check and
        # the dominance verdict both read that one compile.
        sorted_actions = []
        original = functionals._Compiled._sort

        def counting(compiled, action):
            sorted_actions.append(action)
            return original(compiled, action)

        monkeypatch.setattr(functionals._Compiled, "_sort", counting)
        ft = Theory("ft", {"a": -(10**9), "b": 10**9})
        assert probe_kthm_non_fanatical("1/10", [(ft, "1/20")])
        assert sorted_actions == ["a", "b"]

    @pytest.mark.parametrize(
        "probe", [probe_kthm_non_fanatical, probe_hm_non_fanatical]
    )
    def test_probe_fails_when_an_adversary_survives(self, monkeypatch, probe):
        # Both rules resist because the trim sheds every adversary theory;
        # a trim that sheds nothing must be reported, not trusted.
        monkeypatch.setattr(
            functionals._Compiled,
            "shed",
            lambda compiled, action: (frozenset(), frozenset()),
        )
        ft = Theory("ft", {"a": -(10**9), "b": 10**9})
        with pytest.raises(ConstructionFailed) as failed:
            probe("1/10", [(ft, "1/20")])
        assert str(failed.value) == "adversary theory survived trimming on 'a'"

    def test_empty_adversary_is_vacuous(self):
        assert probe_kthm_non_fanatical("1/10", [])
        assert probe_hm_non_fanatical("1/10", [])

    def test_mass_exactly_k_is_allowed(self):
        ft = Theory("ft", {"a": -(10**9), "b": 10**9})
        assert probe_kthm_non_fanatical("1/10", [(ft, "1/10")])
        assert probe_hm_non_fanatical("49/100", [(ft, "49/100")])

    def test_mass_above_k_is_rejected(self):
        ft = Theory("ft", {"a": 0, "b": 1})
        with pytest.raises(CredenceTooHigh):
            probe_kthm_non_fanatical("1/10", [(ft, "11/100")])
        with pytest.raises(CredenceTooHigh):
            probe_hm_non_fanatical("1/10", [(ft, "11/100")])

    def test_split_adversary_under_the_median(self):
        adversary = [
            (Theory("x1", {"a": -(10**6), "b": 10**6}), "20/100"),
            (Theory("x2", {"a": 10**6, "b": -(10**6)}), "20/100"),
            (Theory("x3", {"a": -1, "b": 1}), "9/100"),
        ]
        assert probe_hm_non_fanatical("49/100", adversary)

    def test_canonical_family_avoids_id_collisions(self):
        framework, actions = canonical_family(("t", "t2"))
        assert framework.theory_ids()[0] not in {"t", "t2"}
        assert tuple(actions) == ("a", "b")


@pytest.mark.parametrize(
    "capture",
    [
        lambda fw, actions: witness_mec(fw, actions, "1/4"),
        lambda fw, actions: witness_maximin(fw, actions, "1/4"),
        lambda fw, actions: witness_kthm(fw, actions, "1/10", "1/4"),
    ],
    ids=["mec", "maximin", "kthm"],
)
def test_every_witness_needs_two_actions(capture):
    framework = EthicalFramework([Theory("t", {"a": 0})], {"t": 1})
    with pytest.raises(MoralAggError) as caught:
        capture(framework, ActionSet(("a",)))
    assert type(caught.value) is MoralAggError
    assert str(caught.value) == "capturing needs at least two actions"


@given(strategies.frameworks(min_actions=2), strategies.positive_trim_levels)
@settings(max_examples=60)
def test_mean_witness_holds_across_random_frameworks(fw_actions, k):
    framework, actions = fw_actions
    report = witness_mec(framework, actions, k)
    assert report.verdict.is_dominant
    assert report.total_credence == k
    assert sum(report.extended_framework.credences.values()) == 1


@given(strategies.frameworks(min_actions=2), strategies.positive_trim_levels)
@settings(max_examples=60)
def test_maximin_witness_holds_across_random_frameworks(fw_actions, k):
    framework, actions = fw_actions
    report = witness_maximin(framework, actions, k)
    assert report.verdict.is_dominant
    assert report.total_credence == k


@given(
    strategies.frameworks(min_actions=2),
    st.fractions(min_value=F(1, 50), max_value=F(24, 50), max_denominator=50),
)
@settings(max_examples=60)
def test_trimmed_mean_witness_holds_across_random_frameworks(fw_actions, k_prime):
    framework, actions = fw_actions
    k = k_prime / 2
    report = witness_kthm(framework, actions, k, k_prime)
    assert report.verdict.is_dominant
    assert report.total_credence == k_prime


def test_no_sub_majority_subset_dominates_the_median():
    rng = random.Random(7)
    spec = SwfSpec.hm()
    for _ in range(40):
        framework, actions, boss = random_majority_framework(rng)
        others = [tid for tid in framework.theory_ids() if tid != boss]
        for size in range(1, len(others) + 1):
            for trial in range(3):
                subset = rng.sample(others, size)
                verdict = is_dominant_subset(spec, framework, actions, subset)
                assert not verdict.is_dominant


def test_median_keys_take_one_trim_scan_per_action(monkeypatch):
    # The median is the trim at one half: keying a mask under ``hm`` runs
    # the one trim scan that ``kthm`` runs, once per action.
    calls = []
    original = functionals._Compiled.trim

    def counting(compiled, rows, mask, cap):
        calls.append(mask)
        return original(compiled, rows, mask, cap)

    monkeypatch.setattr(functionals._Compiled, "trim", counting)
    framework, actions = random_framework(random.Random(5), (6, 6))
    compiled = functionals._Compiled(SwfSpec.hm(), framework, actions)
    for mask in (1, 0b101101, compiled.everyone):
        calls.clear()
        compiled.key(mask)
        assert calls == [mask] * len(actions)


def test_random_probe_storm():
    rng = random.Random(11)
    from moralagg.sampling import random_adversary

    for _ in range(50):
        k = F(rng.randint(1, 49), 100)
        adversary = random_adversary(rng, ActionSet(("a", "b")), k)
        assert probe_kthm_non_fanatical(k, adversary)
        assert probe_hm_non_fanatical(k, adversary)


def test_audit_aggregates_each_base_framework_once(monkeypatch):
    # Each capture trial draws one framework and compiles it once: the
    # random target and the witness both read that one base compile.
    from moralagg import audit, fanaticism

    drawn, compiled = [], []

    def draw(*args, original=audit.random_framework):
        framework, actions = original(*args)
        drawn.append(framework)
        return framework, actions

    def compile_(spec, framework, actions, original=fanaticism._Compiled):
        compiled.append(framework)
        return original(spec, framework, actions)

    monkeypatch.setattr(audit, "random_framework", draw)
    monkeypatch.setattr(fanaticism, "_Compiled", compile_)
    assert audit.run_audit(seed=3, trials=10).ok
    bases = [f for f in compiled if any(f is d for d in drawn)]
    assert len(bases) == 80
    assert [id(f) for f in bases] == [id(f) for f in drawn]


SPECS = (
    SwfSpec.mec(),
    SwfSpec.maximin(),
    SwfSpec.kthm("1/10", TrimMode.LITERAL),
    SwfSpec.kthm("1/10", TrimMode.RENORMALIZED),
    SwfSpec.hm(),
)


def assert_one_ranking_path(spec, framework, actions, subset):
    """``aggregate`` and the dominance compile rank the full framework alike."""
    verdict = is_dominant_subset(spec, framework, actions, subset)
    assert verdict.full_ranking == aggregate(spec, framework, actions).ranking


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
def test_aggregate_and_dominance_rank_alike_on_seeded_frameworks(spec):
    rng = random.Random(8)
    for _ in range(30):
        framework, actions = random_framework(rng, n_theories=(2, 6))
        ids = framework.theory_ids()
        subset = rng.sample(ids, rng.randint(1, len(ids) - 1))
        assert_one_ranking_path(spec, framework, actions, subset)


@given(strategies.frameworks(min_theories=2, max_theories=5), st.data())
@settings(max_examples=40, deadline=None)
def test_aggregate_and_dominance_rank_alike_on_hypothesis_frameworks(fw_actions, data):
    framework, actions = fw_actions
    ids = framework.theory_ids()
    size = data.draw(st.integers(1, len(ids) - 1))
    subset = data.draw(st.permutations(ids))[:size]
    for spec in SPECS:
        assert_one_ranking_path(spec, framework, actions, subset)
