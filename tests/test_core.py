import copy
import importlib
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

import moralagg
from moralagg import (
    ActionSet,
    ActionSetMismatch,
    CredenceMassExceeded,
    CredenceOutOfRange,
    CredenceSumNotOne,
    DuplicateActionId,
    DuplicateTheoryId,
    EmptyRestriction,
    EthicalFramework,
    MissingEvaluation,
    Ranking,
    Theory,
    UnknownTheoryId,
    extend,
    ranking_from_scores,
    rankings_equal,
    restrict,
    theory_ranking,
    to_rational,
    validate_framework,
)

import strategies


def frobo():
    u = Theory("u", {"l": -1, "r": -2})
    d = Theory("d", {"l": -10000, "r": -1000})
    return (
        EthicalFramework([u, d], {"u": "99/100", "d": "1/100"}),
        ActionSet(("l", "r")),
    )


class TestToRational:
    def test_decimal_string_is_exact(self):
        assert to_rational("0.99") == F(99, 100)

    def test_fraction_string(self):
        assert to_rational("99/100") == F(99, 100)
        assert to_rational("-3/7") == F(-3, 7)

    def test_int_and_fraction_pass_through(self):
        assert to_rational(4) == F(4)
        assert to_rational(F(2, 5)) == F(2, 5)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            to_rational(0.99)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_rational(True)

    @pytest.mark.parametrize("bad", ["1e3", "1/0", "..", "", "nan", "0x10"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            to_rational(bad)


class TestActionSet:
    def test_order_and_membership(self):
        actions = ActionSet(("l", "r"))
        assert list(actions) == ["l", "r"]
        assert "l" in actions and "x" not in actions

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateActionId):
            ActionSet(("l", "l"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ActionSet(())


class TestFrameworkConstruction:
    def test_duplicate_theory_ids_rejected(self):
        t = Theory("u", {"l": 0})
        with pytest.raises(DuplicateTheoryId):
            EthicalFramework([t, Theory("u", {"l": 1})], {"u": 1})

    def test_credence_for_unknown_theory_rejected(self):
        with pytest.raises(UnknownTheoryId):
            EthicalFramework([Theory("u", {"l": 0})], {"u": "1/2", "x": "1/2"})

    def test_missing_credence_rejected(self):
        with pytest.raises(ValueError):
            EthicalFramework([Theory("u", {"l": 0})], {})

    def test_missing_evaluation_via_accessor(self):
        t = Theory("u", {"l": 0})
        with pytest.raises(MissingEvaluation) as err:
            t.evaluation("r")
        assert err.value.theory_id == "u"
        assert err.value.action == "r"

    def test_total_credence_counts_each_id_once(self):
        framework, _ = frobo()
        assert framework.total_credence(["u", "u"]) == F(99, 100)
        assert framework.total_credence(["d", "u", "d"]) == 1

    def test_total_credence_reports_the_first_unknown_id(self):
        framework, _ = frobo()
        with pytest.raises(UnknownTheoryId) as err:
            framework.total_credence(["u", "x", "u", "y", "x"])
        assert err.value.theory_id == "x"


class TestImmutableValues:
    def test_equal_theories_hash_equal_whatever_the_order(self):
        left = Theory("t", {"a": 1, "b": 0})
        right = Theory("t", {"b": "0", "a": F(1)})
        assert left == right
        assert hash(left) == hash(right)
        assert Theory("t", {"a": 1, "b": 1}) != left

    def test_equal_frameworks_hash_equal_whatever_the_order(self):
        u, d = frobo()[0].theories
        left = EthicalFramework([u, d], {"u": "99/100", "d": "1/100"})
        right = EthicalFramework(
            [Theory("u", {"r": -2, "l": -1}), d], {"d": F(1, 100), "u": "0.99"}
        )
        assert left == right
        assert hash(left) == hash(right)
        assert EthicalFramework([d, u], left.credences) != left

    def test_set_members_and_dict_keys(self):
        framework, _ = frobo()
        twin, _ = frobo()
        assert len({framework, twin}) == 1
        assert {framework: "x"}[twin] == "x"
        assert len(set(framework.theories) | set(twin.theories)) == 2
        assert {twin.theories[0]: 1}[framework.theories[0]] == 1

    def test_mappings_are_read_only(self):
        framework, _ = frobo()
        with pytest.raises(TypeError):
            framework.theories[0].evaluations["l"] = "oops"
        with pytest.raises(TypeError):
            framework.credences["u"] = F(1, 2)
        assert framework.theories[0].evaluations["l"] == -1
        assert framework.credences["u"] == F(99, 100)

    def test_copies_and_pickles_are_equal(self):
        framework, _ = frobo()
        for clone in (copy.deepcopy(framework), pickle.loads(pickle.dumps(framework))):
            assert clone == framework
            assert hash(clone) == hash(framework)
            with pytest.raises(TypeError):
                clone.credences["u"] = F(1, 2)


class TestValidateFramework:
    def test_valid_framework_passes(self):
        framework, actions = frobo()
        validate_framework(framework, actions)

    def test_sum_below_one_reports_exact_deficit(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 0})],
            {"t1": "1/2", "t2": "1/3"},
        )
        with pytest.raises(CredenceSumNotOne) as err:
            validate_framework(framework, ActionSet(("a",)))
        assert err.value.total == F(5, 6)
        assert err.value.deficit == F(1, 6)

    def test_sum_above_one_reports_exact_surplus(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 0})],
            {"t1": "1/2", "t2": "2/3"},
        )
        with pytest.raises(CredenceSumNotOne) as err:
            validate_framework(framework, ActionSet(("a",)))
        assert err.value.deficit == F(-1, 6)

    # Pairwise coprime denominators, and the remainder to 1, whose
    # denominator is their product 3 * 5 * 7 * 11 * 13 * 17 * 19.
    COPRIME = [F(1, d) for d in (3, 5, 7, 11, 13, 17, 19)]
    COPRIME.append(1 - sum(COPRIME))

    @staticmethod
    def coprime_framework(credences):
        names = [f"t{i}" for i in range(len(credences))]
        return EthicalFramework(
            [Theory(name, {"a": 0}) for name in names], dict(zip(names, credences))
        )

    def test_coprime_denominators_summing_to_one_pass(self):
        assert self.COPRIME[-1].denominator == 4849845
        den, weights = validate_framework(
            self.coprime_framework(self.COPRIME), ActionSet(("a",))
        )
        assert den == 4849845
        assert sum(weights) == den
        assert [F(w, den) for w in weights] == self.COPRIME

    @pytest.mark.parametrize("index, step", [(-1, -1), (-1, 1), (2, 1)])
    def test_one_numerator_off_by_one_reports_exact_total(self, index, step):
        credences = list(self.COPRIME)
        off = credences[index]
        credences[index] = F(off.numerator + step, off.denominator)
        with pytest.raises(CredenceSumNotOne) as err:
            validate_framework(self.coprime_framework(credences), ActionSet(("a",)))
        assert err.value.total == 1 + F(step, off.denominator)
        assert err.value.deficit == F(-step, off.denominator)
        side = "deficit" if step < 0 else "surplus"
        assert str(err.value) == (
            f"credences sum to {err.value.total}, {side} of {F(1, off.denominator)}"
        )

    def test_negative_credence_out_of_range(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 0})],
            {"t1": "-1/2", "t2": "3/2"},
        )
        with pytest.raises(CredenceOutOfRange) as err:
            validate_framework(framework, ActionSet(("a",)))
        assert err.value.theory_id == "t1"

    def test_zero_credence_out_of_range(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 0})],
            {"t1": 0, "t2": 1},
        )
        with pytest.raises(CredenceOutOfRange):
            validate_framework(framework, ActionSet(("a",)))

    def test_credence_above_one_out_of_range(self):
        framework = EthicalFramework([Theory("t1", {"a": 0})], {"t1": "3/2"})
        with pytest.raises(CredenceOutOfRange):
            validate_framework(framework, ActionSet(("a",)))

    def test_missing_evaluation_detected(self):
        framework = EthicalFramework([Theory("t1", {"a": 0})], {"t1": 1})
        with pytest.raises(MissingEvaluation) as err:
            validate_framework(framework, ActionSet(("a", "b")))
        assert err.value.action == "b"


class TestRestrict:
    def test_rescaling_is_exact(self):
        framework = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 1}), Theory("t3", {"a": 2})],
            {"t1": "1/2", "t2": "3/10", "t3": "1/5"},
        )
        out = restrict(framework, {"t1", "t2"})
        assert out.theory_ids() == ("t1", "t2")
        assert out.credences == {"t1": F(5, 8), "t2": F(3, 8)}

    def test_declaration_order_preserved(self):
        framework, _ = frobo()
        out = restrict(framework, {"d", "u"})
        assert out.theory_ids() == ("u", "d")
        assert out.credences == framework.credences

    def test_empty_restriction_rejected(self):
        framework, _ = frobo()
        with pytest.raises(EmptyRestriction):
            restrict(framework, set())

    def test_unknown_id_rejected(self):
        framework, _ = frobo()
        with pytest.raises(UnknownTheoryId):
            restrict(framework, {"u", "zz"})


class TestExtend:
    def test_single_new_theory(self):
        base = EthicalFramework([Theory("t1", {"a": 0})], {"t1": 1})
        out = extend(base, [(Theory("t2", {"a": 5}), "1/4")])
        assert out.theory_ids() == ("t1", "t2")
        assert out.credences == {"t1": F(3, 4), "t2": F(1, 4)}

    def test_even_split_scaled_to_tiebreaker_weights(self):
        base = EthicalFramework(
            [Theory("u", {"l": -1, "r": -2}), Theory("dp", {"l": -2, "r": -1})],
            {"u": "1/2", "dp": "1/2"},
        )
        out = extend(base, [(Theory("t", {"l": -1, "r": 0}), "1/100")])
        assert out.credences == {
            "u": F(99, 200),
            "dp": F(99, 200),
            "t": F(1, 100),
        }

    def test_extend_by_nothing_is_identity(self):
        framework, _ = frobo()
        assert extend(framework, []) == framework

    def test_new_credence_must_be_strictly_inside_unit_interval(self):
        base = EthicalFramework([Theory("t1", {"a": 0})], {"t1": 1})
        for bad in (0, 1, "5/4", -1):
            with pytest.raises(CredenceOutOfRange):
                extend(base, [(Theory("t2", {"a": 0}), bad)])

    def test_total_new_mass_must_stay_below_one(self):
        base = EthicalFramework([Theory("t1", {"a": 0})], {"t1": 1})
        with pytest.raises(CredenceMassExceeded):
            extend(
                base,
                [
                    (Theory("t2", {"a": 0}), "1/2"),
                    (Theory("t3", {"a": 0}), "1/2"),
                ],
            )

    def test_id_collision_rejected(self):
        base = EthicalFramework([Theory("t1", {"a": 0})], {"t1": 1})
        with pytest.raises(DuplicateTheoryId):
            extend(base, [(Theory("t1", {"a": 0}), "1/4")])
        with pytest.raises(DuplicateTheoryId):
            extend(
                base,
                [
                    (Theory("t2", {"a": 0}), "1/4"),
                    (Theory("t2", {"a": 1}), "1/4"),
                ],
            )


@given(strategies.frameworks(min_theories=2), st.data())
def test_restriction_of_extension_recovers_original(fw_actions, data):
    framework, actions = fw_actions
    n_new = data.draw(st.integers(1, 2))
    mass = data.draw(
        st.fractions(min_value=F(1, 50), max_value=F(9, 10), max_denominator=50)
    )
    new = [
        (Theory(f"x{i}", {a: 0 for a in actions}), mass / n_new)
        for i in range(n_new)
    ]
    extended = extend(framework, new)
    validate_framework(extended, actions)
    recovered = restrict(extended, framework.theory_ids())
    assert recovered == framework


@given(strategies.frameworks(min_theories=3), st.data())
def test_restrict_composes(fw_actions, data):
    framework, actions = fw_actions
    ids = list(framework.theory_ids())
    big = data.draw(
        st.lists(st.sampled_from(ids), min_size=2, unique=True)
    )
    small = data.draw(
        st.lists(st.sampled_from(big), min_size=1, unique=True)
    )
    assert restrict(restrict(framework, big), small) == restrict(framework, small)
    validate_framework(restrict(framework, small), actions)


class TestRanking:
    def test_groups_ordered_ascending(self):
        for scores, groups in [
            ({"a": F(3), "b": F(-1), "c": F(3)}, [{"b"}, {"a", "c"}]),
            ({"a": 3, "b": "-1", "c": F(3)}, [{"b"}, {"a", "c"}]),
            (
                {"a": F(1, 2), "b": "1/2", "c": "0.5", "d": 0, "e": "0.75"},
                [{"d"}, {"a", "b", "c"}, {"e"}],
            ),
        ]:
            r = ranking_from_scores(scores)
            assert r.groups == tuple(map(frozenset, groups))
            assert r.maximal_group() == groups[-1]

    def test_str_is_worst_to_best(self):
        r = ranking_from_scores({"a": 1, "b": 0, "c": 1})
        assert str(r) == "b ≺ a ~ c"

    def test_mismatched_action_sets_rejected(self):
        left = ranking_from_scores({"a": 0})
        right = ranking_from_scores({"b": 0})
        with pytest.raises(ActionSetMismatch):
            rankings_equal(left, right)

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            Ranking([])
        with pytest.raises(ValueError):
            Ranking([{"a"}, {"a"}])
        with pytest.raises(ValueError):
            Ranking([set()])

    def test_theory_ranking(self):
        t = Theory("u", {"l": -1, "r": -2})
        assert theory_ranking(t, ActionSet(("l", "r"))) == Ranking([{"r"}, {"l"}])
        with pytest.raises(MissingEvaluation):
            theory_ranking(t, ActionSet(("l", "x")))


_scores = st.dictionaries(
    st.sampled_from(strategies.ACTION_NAMES),
    strategies.rationals,
    min_size=1,
    max_size=4,
)


@given(
    _scores,
    st.fractions(min_value=F(1, 20), max_value=20, max_denominator=20),
    strategies.rationals,
)
def test_ranking_invariant_under_increasing_affine_maps(scores, slope, shift):
    mapped = {a: slope * v + shift for a, v in scores.items()}
    assert ranking_from_scores(mapped) == ranking_from_scores(scores)


@given(_scores, _scores, _scores)
def test_rankings_equal_is_an_equivalence(s1, s2, s3):
    keys = frozenset(s1)
    r1 = ranking_from_scores(s1)
    r2 = ranking_from_scores({a: s2.get(a, F(0)) for a in keys})
    r3 = ranking_from_scores({a: s3.get(a, F(0)) for a in keys})
    assert rankings_equal(r1, r1)
    assert rankings_equal(r1, r2) == rankings_equal(r2, r1)
    if rankings_equal(r1, r2) and rankings_equal(r2, r3):
        assert rankings_equal(r1, r3)


def test_public_names_resolve_and_are_sorted():
    names = moralagg.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(moralagg, name), name


def test_public_names_are_defined_in_moralagg_submodules():
    for name in moralagg.__all__:
        value = getattr(moralagg, name)
        assert value.__module__.startswith("moralagg."), name
        assert getattr(importlib.import_module(value.__module__), name) is value
