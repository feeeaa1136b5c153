from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from moralagg import (
    ActionSet,
    CredenceOutOfRange,
    CredenceSumNotOne,
    EthicalFramework,
    InvalidSpec,
    MissingEvaluation,
    Ranking,
    SwfKind,
    SwfSpec,
    Theory,
    TrimMode,
    UnknownAction,
    aggregate,
    bottom_k,
    min_evaluation,
    sorted_evaluations,
    theory_ranking,
    top_k,
    trimmed_wam,
    wam,
    wmedian,
)
from moralagg import functionals

import reference
import strategies

HALF = F(1, 2)


def frobo():
    u = Theory("u", {"l": -1, "r": -2})
    d = Theory("d", {"l": -10000, "r": -1000})
    return (
        EthicalFramework([u, d], {"u": "99/100", "d": "1/100"}),
        ActionSet(("l", "r")),
    )


class TestSwfSpec:
    def test_kthm_requires_k(self):
        with pytest.raises(InvalidSpec):
            SwfSpec(SwfKind.KTHM)

    def test_k_range_enforced(self):
        for bad in ("1/2", "3/4", "-1/10"):
            with pytest.raises(InvalidSpec):
                SwfSpec.kthm(bad)
        SwfSpec.kthm(0)
        SwfSpec.kthm("49/100")

    def test_k_rejected_for_other_kinds(self):
        with pytest.raises(InvalidSpec):
            SwfSpec(SwfKind.MEC, k=F(1, 10))

    def test_trim_mode_rejected_for_other_kinds(self):
        for kind in (SwfKind.MEC, SwfKind.MAXIMIN, SwfKind.HM):
            with pytest.raises(InvalidSpec, match=f"{kind.value} takes no trim mode"):
                SwfSpec(kind, trim_mode="renormalized")
            assert SwfSpec(kind, trim_mode="literal") == SwfSpec(kind)

    def test_labels(self):
        assert SwfSpec.mec().label() == "mec"
        assert SwfSpec.kthm("1/10").label() == "kthm(k=1/10, literal)"

    def test_trim_mode_accepts_its_string_name(self):
        spec = SwfSpec.kthm("1/10", "renormalized")
        assert spec.trim_mode is TrimMode.RENORMALIZED
        with pytest.raises(InvalidSpec):
            SwfSpec.kthm("1/10", "winsorized")


class TestWam:
    def test_golden_values(self):
        framework, _ = frobo()
        assert wam(framework, "l") == F(-10099, 100)
        assert wam(framework, "r") == F(-599, 50)

    def test_unknown_action(self):
        framework, _ = frobo()
        with pytest.raises(UnknownAction):
            wam(framework, "zzz")


class TestMinEvaluation:
    def test_golden_values(self):
        framework, _ = frobo()
        assert min_evaluation(framework, "l") == F(-10000)
        assert min_evaluation(framework, "r") == F(-1000)


class TestSortedEvaluations:
    def test_ascending_by_value(self):
        framework, _ = frobo()
        assert sorted_evaluations(framework, "r") == (("d", F(-1000)), ("u", F(-2)))

    def test_ties_keep_declaration_order(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 7}), Theory("t2", {"a": 7}), Theory("t3", {"a": 0})],
            {"t1": "1/3", "t2": "1/3", "t3": "1/3"},
        )
        pairs = sorted_evaluations(framework, "a")
        assert [tid for tid, _ in pairs] == ["t3", "t1", "t2"]


class TestTrimSets:
    def test_prefix_mass_at_most_k(self):
        framework = EthicalFramework(
            [
                Theory("t1", {"a": 0}),
                Theory("t2", {"a": 1}),
                Theory("t3", {"a": 2}),
            ],
            {"t1": "2/10", "t2": "2/10", "t3": "6/10"},
        )
        assert bottom_k(framework, "a", "45/100") == {"t1", "t2"}

    def test_suffix_mass_at_most_k(self):
        framework = EthicalFramework(
            [
                Theory("t1", {"a": 0}),
                Theory("t2", {"a": 1}),
                Theory("t3", {"a": 2}),
            ],
            {"t1": "6/10", "t2": "2/10", "t3": "2/10"},
        )
        assert top_k(framework, "a", "45/100") == {"t2", "t3"}

    def test_k_zero_trims_nothing(self):
        framework, _ = frobo()
        assert bottom_k(framework, "l", 0) == frozenset()
        assert top_k(framework, "l", 0) == frozenset()

    def test_k_bounds_enforced(self):
        framework, _ = frobo()
        with pytest.raises(InvalidSpec):
            bottom_k(framework, "l", "1/2")
        with pytest.raises(InvalidSpec):
            top_k(framework, "l", "-1/10")


class TestTrimmedWam:
    def test_literal_keeps_surviving_mass(self):
        framework, _ = frobo()
        assert trimmed_wam(framework, "l", "1/10") == F(-99, 100)
        assert trimmed_wam(framework, "r", "1/10") == F(-99, 50)

    def test_renormalized_divides_out_survivors(self):
        framework, _ = frobo()
        mode = TrimMode.RENORMALIZED
        assert trimmed_wam(framework, "l", "1/10", mode) == F(-1)
        assert trimmed_wam(framework, "r", "1/10", mode) == F(-2)
        assert trimmed_wam(framework, "l", "1/10", "renormalized") == F(-1)

    def test_single_theory_never_trimmed(self):
        framework = EthicalFramework([Theory("t", {"a": 42})], {"t": 1})
        for mode in TrimMode:
            assert trimmed_wam(framework, "a", "49/100", mode) == F(42)


class TestWmedian:
    def test_majority_theory_dictates(self):
        framework, _ = frobo()
        assert wmedian(framework, "l") == F(-1)
        assert wmedian(framework, "r") == F(-2)

    def test_even_split_averages_the_two_valid_indices(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 1})],
            {"t1": "1/2", "t2": "1/2"},
        )
        assert wmedian(framework, "a") == HALF

    def test_credences_below_one_are_reported(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 1})],
            {"t1": "1/8", "t2": "1/4"},
        )
        with pytest.raises(CredenceSumNotOne) as info:
            wmedian(framework, "a")
        assert info.value.total == F(3, 8)

    def test_credences_above_one_are_reported(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 1})],
            {"t1": "3/4", "t2": "3/4"},
        )
        with pytest.raises(CredenceSumNotOne) as info:
            wmedian(framework, "a")
        assert info.value.total == F(3, 2)


    def test_zero_credence_is_reported(self):
        # Dropping the zero theory gives median 10; counting it gave 5.
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 10}), Theory("t3", {"a": 20})],
            {"t1": "1/2", "t2": 0, "t3": "1/2"},
        )
        with pytest.raises(CredenceOutOfRange) as info:
            wmedian(framework, "a")
        assert (info.value.theory_id, info.value.value) == ("t2", 0)

    def test_negative_credence_is_reported(self):
        # Sums to 1, and once returned 10 without an error.
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 10}), Theory("t3", {"a": 20})],
            {"t1": "3/4", "t2": "-1/4", "t3": "1/2"},
        )
        with pytest.raises(CredenceOutOfRange) as info:
            wmedian(framework, "a")
        assert (info.value.theory_id, info.value.value) == ("t2", F(-1, 4))


PER_ACTION = {
    "wam": wam,
    "min_evaluation": min_evaluation,
    "sorted_evaluations": sorted_evaluations,
    "wmedian": wmedian,
    "bottom_k": lambda framework, action: bottom_k(framework, action, "1/10"),
    "top_k": lambda framework, action: top_k(framework, action, "1/10"),
    "trimmed_wam": lambda framework, action: trimmed_wam(framework, action, "1/10"),
}


@pytest.mark.parametrize("name", sorted(PER_ACTION))
def test_per_action_functions_validate_as_aggregate(name):
    view = PER_ACTION[name]
    framework, _ = frobo()
    with pytest.raises(UnknownAction):
        view(framework, "zzz")
    half = EthicalFramework(
        [Theory("t1", {"a": 0}), Theory("t2", {"a": 1})],
        {"t1": "1/4", "t2": "1/4"},
    )
    with pytest.raises(CredenceSumNotOne) as info:
        view(half, "a")
    assert str(info.value) == "credences sum to 1/2, deficit of 1/2"
    partial = EthicalFramework(
        [Theory("t1", {"a": 0}), Theory("t2", {"b": 1})],
        {"t1": "1/2", "t2": "1/2"},
    )
    with pytest.raises(MissingEvaluation):
        view(partial, "a")


@pytest.mark.parametrize("view", [bottom_k, top_k, trimmed_wam])
def test_per_action_trim_level_is_checked(view):
    framework, _ = frobo()
    for bad in ("1/2", "-1/10"):
        with pytest.raises(InvalidSpec):
            view(framework, "l", bad)


class TestAggregate:
    def test_frobo_rankings(self):
        framework, actions = frobo()
        cases = [
            (SwfSpec.mec(), Ranking([{"l"}, {"r"}])),
            (SwfSpec.maximin(), Ranking([{"l"}, {"r"}])),
            (SwfSpec.kthm("1/10"), Ranking([{"r"}, {"l"}])),
            (SwfSpec.kthm("1/10", TrimMode.RENORMALIZED), Ranking([{"r"}, {"l"}])),
            (SwfSpec.hm(), Ranking([{"r"}, {"l"}])),
        ]
        for spec, expected in cases:
            assert aggregate(spec, framework, actions).ranking == expected

    def test_only_kthm_and_hm_sort(self, monkeypatch):
        sorted_actions = []

        def counting(compiled, action):
            sorted_actions.append(action)

        monkeypatch.setattr(functionals._Compiled, "_sort", counting)
        framework, actions = frobo()
        aggregate(SwfSpec.mec(), framework, actions)
        aggregate(SwfSpec.maximin(), framework, actions)
        assert sorted_actions == []
        aggregate(SwfSpec.hm(), framework, actions)
        aggregate(SwfSpec.kthm("1/10"), framework, actions)
        assert sorted_actions == ["l", "r", "l", "r"]

    def test_invalid_framework_is_reported(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 0})],
            {"t1": "1/2", "t2": "1/3"},
        )
        with pytest.raises(CredenceSumNotOne):
            aggregate(SwfSpec.mec(), framework, ActionSet(("a",)))


ALL_SPECS = [
    SwfSpec.mec(),
    SwfSpec.maximin(),
    SwfSpec.kthm("1/10"),
    SwfSpec.kthm("3/10", TrimMode.RENORMALIZED),
    SwfSpec.hm(),
]


@given(strategies.frameworks())
def test_single_theory_framework_matches_the_theory(fw_actions):
    framework, actions = fw_actions
    single = EthicalFramework([framework.theories[0]], {framework.theories[0].id: 1})
    expected = theory_ranking(framework.theories[0], actions)
    for spec in ALL_SPECS:
        assert aggregate(spec, single, actions).ranking == expected


@given(strategies.frameworks())
def test_kthm_at_zero_is_mec(fw_actions):
    framework, actions = fw_actions
    mec = aggregate(SwfSpec.mec(), framework, actions)
    for mode in TrimMode:
        kthm = aggregate(SwfSpec.kthm(0, mode), framework, actions)
        assert kthm.scores == mec.scores
        assert kthm.ranking == mec.ranking


@given(strategies.frameworks(), st.data())
def test_trim_sets_are_disjoint_and_bounded(fw_actions, data):
    framework, actions = fw_actions
    k = data.draw(strategies.trim_levels)
    for action in actions:
        bottom = bottom_k(framework, action, k)
        top = top_k(framework, action, k)
        assert not (bottom & top)
        assert framework.total_credence(bottom) <= k
        assert framework.total_credence(top) <= k
        assert framework.total_credence(bottom | top) < 1


@given(strategies.frameworks(), st.data())
def test_wmedian_agrees_with_definition_scan(fw_actions, data):
    framework, actions = fw_actions
    for action in actions:
        assert wmedian(framework, action) == reference.wmedian(framework, action)


@given(strategies.frameworks(), strategies.trim_levels)
def test_trimmed_wam_agrees_with_definition_scan(fw_actions, k):
    framework, actions = fw_actions
    for mode in TrimMode:
        scores = aggregate(SwfSpec.kthm(k, mode), framework, actions).scores
        for action in actions:
            assert scores[action] == reference.trimmed_wam(
                framework, action, k, mode
            )


@given(strategies.frameworks())
def test_wmedian_stays_within_the_evaluation_range(fw_actions):
    framework, actions = fw_actions
    for action in actions:
        values = [t.evaluations[action] for t in framework.theories]
        assert min(values) <= wmedian(framework, action) <= max(values)


@given(strategies.frameworks(min_theories=2), st.data())
def test_majority_theory_dictates_the_median(fw_actions, data):
    framework, actions = fw_actions
    boss = data.draw(st.sampled_from(framework.theory_ids()))
    rest = [tid for tid in framework.theory_ids() if tid != boss]
    share = F(1, 2 * len(rest)) if rest else F(0)
    credences = {tid: share * F(99, 100) for tid in rest}
    credences[boss] = 1 - sum(credences.values())
    rigged = EthicalFramework(framework.theories, credences)
    assert rigged.credences[boss] > HALF
    boss_theory = rigged.theory(boss)
    for action in actions:
        assert wmedian(rigged, action) == boss_theory.evaluations[action]
    assert aggregate(SwfSpec.hm(), rigged, actions).ranking == theory_ranking(
        boss_theory, actions
    )


@settings(max_examples=60)
@given(strategies.frameworks(), st.data())
def test_positive_scaling_preserves_every_ranking(fw_actions, data):
    framework, actions = fw_actions
    factor = data.draw(
        st.fractions(min_value=F(1, 20), max_value=20, max_denominator=20).filter(
            lambda q: q > 0
        )
    )
    scaled = EthicalFramework(
        [
            Theory(t.id, {a: factor * v for a, v in t.evaluations.items()})
            for t in framework.theories
        ],
        framework.credences,
    )
    for spec in ALL_SPECS:
        before = aggregate(spec, framework, actions).ranking
        after = aggregate(spec, scaled, actions).ranking
        assert before == after


@given(strategies.frameworks(), strategies.trim_levels)
def test_trim_modes_agree_when_every_action_sheds_equal_mass(fw_actions, k):
    framework, actions = fw_actions
    uniform = EthicalFramework(
        framework.theories,
        {tid: F(1, len(framework.theories)) for tid in framework.theory_ids()},
    )
    shed = {
        a: uniform.total_credence(
            bottom_k(uniform, a, k) | top_k(uniform, a, k)
        )
        for a in actions
    }
    assert len(set(shed.values())) == 1
    literal = aggregate(SwfSpec.kthm(k), uniform, actions).ranking
    renorm = aggregate(
        SwfSpec.kthm(k, TrimMode.RENORMALIZED), uniform, actions
    ).ranking
    assert literal == renorm
