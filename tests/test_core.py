import ast
import copy
import dataclasses
import importlib
import math
import pickle
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import moralagg
from moralagg import (
    ActionSet,
    CredenceMassExceeded,
    CredenceOutOfRange,
    CredenceSumNotOne,
    DuplicateActionId,
    DuplicateTheoryId,
    EmptyRestriction,
    EthicalFramework,
    MissingEvaluation,
    Ranking,
    SwfSpec,
    Theory,
    UnknownTheoryId,
    aggregate,
    enumerate_dominant_subsets,
    extend,
    is_dominant_subset,
    ranking_from_scores,
    restrict,
    theory_ranking,
    to_rational,
    validate_framework,
    witness_mec,
)

import strategies

SOURCE = Path(__file__).resolve().parent.parent / "src" / "moralagg"


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


class _Word(str):
    pass


class _Count(int):
    pass


class _Exact(F):
    pass


class TestToRationalMessages:
    @pytest.mark.parametrize(
        "value, kind, message",
        [
            (True, TypeError, "bool is not a rational value"),
            (False, TypeError, "bool is not a rational value"),
            (
                0.5,
                TypeError,
                "refusing float 0.5: floats are inexact, pass str, int or Fraction",
            ),
            (None, TypeError, "cannot interpret NoneType as a rational"),
            ([1], TypeError, "cannot interpret list as a rational"),
            (b"1/2", TypeError, "cannot interpret bytes as a rational"),
            ("1e3", ValueError, "not an exact rational literal: '1e3'"),
            (_Word("x"), ValueError, "not an exact rational literal: 'x'"),
        ],
    )
    def test_rejections(self, value, kind, message):
        with pytest.raises(kind) as raised:
            to_rational(value)
        assert type(raised.value) is kind
        assert str(raised.value) == message

    def test_subclasses_of_str_int_and_fraction(self):
        assert outcome(to_rational, _Word(" 3/4 ")) == (F, F(3, 4))
        assert outcome(to_rational, _Count(7)) == (F, F(7))
        exact = _Exact(2, 6)
        assert to_rational(exact) is exact


_LITERAL = re.compile(r"[+-]?(?:\d+/[1-9]\d*|\d+\.\d*|\.\d+|\d+)\Z")


def reference_to_rational(value):
    """``to_rational`` as it was: the literal gate, then ``Fraction(str)``."""
    if isinstance(value, F):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return F(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: floats are inexact, pass str, int or Fraction"
        )
    if isinstance(value, str):
        token = value.strip()
        if not _LITERAL.match(token):
            raise ValueError(f"not an exact rational literal: {value!r}")
        return F(token)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def outcome(convert, value):
    """The value and its exact type, or the error's type and message."""
    try:
        result = convert(value)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return type(result), result


# ASCII digits first, so that shrinking ends on them; then Arabic-Indic
# and fullwidth digits, which ``\d`` and ``int`` both accept.
_DIGIT = st.sampled_from("0123456789" + "\u0660\u0663\u0664\u0669" + "\uff10\uff15")
_DIGITS = st.one_of(
    st.text(_DIGIT, max_size=6),
    st.integers(0, 10**33).map(str),
    st.integers(0, 10**31).map(lambda n: f"00{n}"),
)


@st.composite
def literals(draw):
    """Words of the literal grammar, with near misses: empty parts, stray
    signs and padding, leading zeros, non-ASCII digits."""
    a, b = draw(_DIGITS), draw(_DIGITS)
    body = draw(st.sampled_from([f"{a}/{b}", f"{a}.{b}", f"{a}.", f".{b}", a]))
    sign = draw(st.sampled_from(["", "-", "+", "--", "+-"]))
    pad = draw(st.sampled_from(["", " ", "\t", " \n"]))
    return f"{pad}{sign}{body}{pad}"


class TestToRationalMatchesFraction:
    @given(literals())
    def test_literals(self, text):
        assert outcome(to_rational, text) == outcome(reference_to_rational, text)

    @pytest.mark.parametrize(
        "value",
        [
            "5.", ".5", "-.5", "+5.", "-0", "+0/7", "007/010", "0.000",
            "-12.340", "00.0500", "1/3", "-4/6", "10" + "0" * 29 + "/3",
            "9" * 31 + "." + "9" * 31, "\u0663/4", "\u0663/\u0664",
            "\u0663.\u0664", "\uff11\uff12", "4/0", "4/07", ".", "-", "+.",
            "1e3", "1_000", "1 /2", "0x10", "nan", "",
            0.5, True, None, b"1/2", [1], 7, F(2, 6),
        ],
    )
    def test_examples(self, value):
        assert outcome(to_rational, value) == outcome(reference_to_rational, value)

    @pytest.mark.parametrize(
        "value",
        [
            "7" * 4301,
            "-" + "7" * 4301 + "/3",
            "3/" + "7" * 4301,
            "." + "7" * 4301,
            "7" * 4301 + ".",
            "7" * 2200 + "." + "7" * 2200,
        ],
    )
    def test_past_the_int_digit_limit(self, value):
        # Python refuses to convert a string of over 4300 digits to int.
        # Both raise alike, except where the digits split across the
        # point stay under the limit on each side: both accept those.
        assert outcome(to_rational, value) == outcome(reference_to_rational, value)


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


def value_samples():
    """For each value class: two equal objects built apart, and a third
    that differs from them in one field."""
    framework, actions = frobo()
    ranks = Ranking([["r"], ["l"]]), Ranking([["l"], ["r"]])
    mec, kthm = moralagg.SwfSpec.mec(), moralagg.SwfSpec.kthm("1/10")

    def verdict(i):
        return moralagg.DominanceVerdict(True, ranks[0], ranks[0], ranks[i])

    def suite(i):
        return moralagg.SuiteResult("mec", "1/10", 3 - i, 3)

    return {
        "ActionSet": lambda i: ActionSet(("l", "r")[:: 1 - 2 * i]),
        "Theory": lambda i: Theory("u", {"l": -1, "r": -2 - i}),
        "EthicalFramework": lambda i: EthicalFramework(
            framework.theories, {"u": F(99 - i, 100), "d": F(1 + i, 100)}
        ),
        "Ranking": lambda i: Ranking([["r"], ["l"]][:: 1 - 2 * i]),
        "SwfSpec": lambda i: moralagg.SwfSpec.kthm(F(1, 10 + i), "renormalized"),
        "AggregateResult": lambda i: moralagg.aggregate(
            (mec, kthm)[i], framework, actions
        ),
        "DominanceVerdict": verdict,
        "DominantSubset": lambda i: moralagg.DominantSubset(
            frozenset({"u"}), F(99, 100), verdict(i)
        ),
        "WitnessReport": lambda i: moralagg.WitnessReport(
            mec, framework, frozenset({"x"}), F(1, 10), verdict(i), {"bound": 3}
        ),
        "ScenarioDocument": lambda i: moralagg.ScenarioDocument(
            framework, actions, (None, mec)[i]
        ),
        "SuiteResult": suite,
        "AuditReport": lambda i: moralagg.AuditReport(7, 3, (suite(0), suite(i))),
    }


def dataclass_twin(cls):
    """``cls`` as ``dataclass(frozen=True)`` would build it: the same fields
    and class-level defaults, and a ``__hash__`` that ``cls`` defines itself."""
    fields = [
        (name, object, dataclasses.field(default=vars(cls)[name]))
        if name in vars(cls)
        else name
        for name in cls.__annotations__
    ]
    own_hash = {"__hash__": cls.__hash__} if "__hash__" in vars(cls) else {}
    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace=own_hash, frozen=True
    )


def twin_of(obj, twin):
    return twin(*(getattr(obj, name) for name in obj.__match_args__))


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(value_samples()))
class TestValueClassesMatchFrozenDataclasses:
    def objects(self, name):
        make = value_samples()[name]
        first, second, other = make(0), make(0), make(1)
        twin = dataclass_twin(type(first))
        return (first, second, other), [twin_of(o, twin) for o in (first, second, other)]

    def test_repr_and_match_args(self, name):
        objs, twins = self.objects(name)
        assert [repr(o) for o in objs] == [repr(t) for t in twins]
        assert objs[0].__match_args__ == twins[0].__match_args__
        assert objs[0].__match_args__ == tuple(type(objs[0]).__annotations__)

    def test_equality(self, name):
        (first, second, other), twins = self.objects(name)
        assert first == second and not first != second
        assert first != other and not first == other
        assert (twins[0] == twins[1], twins[0] == twins[2]) == (True, False)
        # Another class with the same fields and values is never equal.
        assert first != twins[0] and not first == twins[0]
        assert first.__eq__(twins[0]) is NotImplemented
        assert first != "x" and first.__eq__(None) is NotImplemented

    def test_equal_objects_hash_equal(self, name):
        (first, second, _), twins = self.objects(name)
        assert isinstance(hash_or_error(first), int) == isinstance(
            hash_or_error(twins[0]), int
        )
        assert hash_or_error(first) == hash_or_error(second)

    def test_fields_cannot_be_set_or_deleted(self, name):
        (first, _, _), (twin, _, _) = self.objects(name)
        field = first.__match_args__[0]
        before = repr(first)
        for obj in (first, twin):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            with pytest.raises(AttributeError):
                obj.unrelated = 1
        assert repr(first) == before

    def test_pickle_copy_and_deepcopy(self, name):
        (first, _, _), _ = self.objects(name)
        for clone in (
            pickle.loads(pickle.dumps(first)),
            copy.copy(first),
            copy.deepcopy(first),
        ):
            assert type(clone) is type(first)
            assert clone == first
            assert repr(clone) == repr(first)
            with pytest.raises(AttributeError):
                setattr(clone, first.__match_args__[0], None)


def test_value_classes_build_from_keywords_and_defaults():
    framework, actions = frobo()
    document = moralagg.ScenarioDocument(framework, actions)
    assert document.default_swf is None
    assert document == moralagg.ScenarioDocument(
        actions=actions, framework=framework, default_swf=None
    )
    spec = moralagg.SwfSpec(moralagg.SwfKind.MEC)
    assert (spec.k, spec.trim_mode) == (None, moralagg.TrimMode.LITERAL)
    assert spec == moralagg.SwfSpec(kind=moralagg.SwfKind.MEC) == moralagg.SwfSpec.mec()
    # __post_init__ runs on keyword construction too.
    assert moralagg.SwfSpec(moralagg.SwfKind.KTHM, k="1/10").k == F(1, 10)
    with pytest.raises(moralagg.InvalidSpec):
        moralagg.SwfSpec(k="1/10", kind=moralagg.SwfKind.MEC)
    suite = moralagg.SuiteResult(name="mec", level="1/10", passed=1, total=1)
    assert suite == moralagg.SuiteResult("mec", "1/10", 1, 1) and suite.ok


@pytest.mark.parametrize("name", sorted(value_samples()))
def test_value_classes_reject_missing_or_extra_arguments(name):
    sample = value_samples()[name](0)
    cls, values = type(sample), [getattr(sample, n) for n in sample.__match_args__]
    first = sample.__match_args__[0]
    for args, kwargs in [
        ((), {}),
        ((*values, None), {}),
        (values, {first: values[0]}),
        (values, {"unknown": 1}),
    ]:
        for build in (cls, dataclass_twin(cls)):
            with pytest.raises(TypeError):
                build(*args, **kwargs)


def test_value_samples_cover_every_value_class():
    decorated = {
        node.name
        for path in SOURCE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        and any(getattr(d, "id", None) == "_frozen" for d in node.decorator_list)
    }
    assert decorated == set(value_samples())
    assert len(decorated) == 12


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

    @pytest.mark.parametrize("c", [2, 3], ids=["tied", "apart"])
    def test_repeated_action_in_a_plain_sequence_rejected(self, c):
        # A plain sequence, unlike an ActionSet, can repeat an id.  Every
        # compile validates here, so no entry point misreads the repeat:
        # with b and c tied, aggregate would drop c from its result.
        framework = EthicalFramework(
            [
                Theory("t1", {"a": 1, "b": 2, "c": c}),
                Theory("t2", {"a": 0, "b": 2, "c": c}),
            ],
            {"t1": "1/2", "t2": "1/2"},
        )
        actions = ("a", "b", "b", "c")
        calls = (
            lambda: validate_framework(framework, actions),
            lambda: aggregate(SwfSpec.mec(), framework, actions),
            lambda: is_dominant_subset(SwfSpec.mec(), framework, actions, ["t1"]),
            lambda: enumerate_dominant_subsets(SwfSpec.hm(), framework, actions),
            lambda: witness_mec(framework, actions, "1/10"),
        )
        for call in calls:
            with pytest.raises(DuplicateActionId) as err:
                call()
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

    @pytest.mark.parametrize(
        "credences", [("1/4", "1/4"), ("1/2", "-1/2")], ids=["half", "zero"]
    )
    def test_old_credences_must_sum_to_one(self, credences):
        # Rescaling would hide the defect (1/4 + 1/4 came back as 1/2 +
        # 1/2) or divide by zero (1/2 - 1/2).
        base = EthicalFramework(
            [Theory("t1", {"a": 0}), Theory("t2", {"a": 1})],
            dict(zip(("t1", "t2"), credences)),
        )
        with pytest.raises(CredenceSumNotOne) as raised:
            extend(base, [])
        assert raised.value.total == sum(map(F, credences))

    @pytest.mark.parametrize("seed", range(30))
    def test_old_credence_sum_matches_the_fraction_sum(self, seed):
        # Seeded credences that sum to 1, or miss it by one part in the
        # lcm of their denominators, checked against the Fraction sum.
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        dens = [
            rng.choice((rng.randint(1, 60), rng.randint(2, 10**12))) for _ in range(n)
        ]
        credences = [F(rng.randint(1, d), d * n) for d in dens[:-1]]
        credences.append(1 - sum(credences, F(0)))
        lcm = math.lcm(*(c.denominator for c in credences))
        off = (0, F(1, lcm), F(-1, lcm))[seed % 3]
        credences[-1] += off
        names = [f"t{i}" for i in range(n)]
        base = EthicalFramework(
            [Theory(name, {"a": i}) for i, name in enumerate(names)],
            dict(zip(names, credences)),
        )
        total = sum(credences, F(0))
        assert total == 1 + off
        new = [(Theory("new", {"a": 0}), F(1, 7))]
        if off == 0:
            out = extend(base, new)
            expected = {name: c * F(6, 7) for name, c in zip(names, credences)}
            assert out.credences == {**expected, "new": F(1, 7)}
            return
        with pytest.raises(CredenceSumNotOne) as raised:
            extend(base, new)
        assert raised.value.total == total
        assert str(raised.value) == str(CredenceSumNotOne(total))

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

    def test_empty_score_table_rejected(self):
        with pytest.raises(ValueError, match="^cannot rank an empty score table$"):
            ranking_from_scores({})

    def test_str_is_worst_to_best(self):
        r = ranking_from_scores({"a": 1, "b": 0, "c": 1})
        assert str(r) == "b ≺ a ~ c"

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
    assert r1 == r1
    assert (r1 == r2) == (r2 == r1)
    if r1 == r2 and r2 == r3:
        assert r1 == r3


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


# The public names, as they were when every module loaded with the package.
PUBLIC_NAMES = [
    "ActionSet",
    "AggregateResult",
    "AuditReport",
    "BadCredence",
    "BadCredencePair",
    "ConstructionFailed",
    "CredenceMassExceeded",
    "CredenceOutOfRange",
    "CredenceSumNotOne",
    "CredenceTooHigh",
    "DominanceVerdict",
    "DominantSubset",
    "DuplicateActionId",
    "DuplicateTheoryId",
    "EmptyRestriction",
    "EthicalFramework",
    "InvalidSpec",
    "MissingEvaluation",
    "MoralAggError",
    "NotProperSubset",
    "NumberFormatError",
    "Ranking",
    "ScenarioDocument",
    "ScenarioError",
    "ScenarioSyntaxError",
    "SuiteResult",
    "SwfKind",
    "SwfSpec",
    "TargetIsUniqueMaximizer",
    "Theory",
    "TooManyTheories",
    "TrimMode",
    "UnknownAction",
    "UnknownTheoryId",
    "ValidationError",
    "WitnessReport",
    "aggregate",
    "bottom_k",
    "canonical_family",
    "enumerate_dominant_subsets",
    "extend",
    "is_dominant_subset",
    "min_evaluation",
    "parse_scenario",
    "probe_hm_non_fanatical",
    "probe_kthm_non_fanatical",
    "ranking_from_scores",
    "restrict",
    "run_audit",
    "serialize_scenario",
    "sorted_evaluations",
    "theory_ranking",
    "to_rational",
    "top_k",
    "trimmed_wam",
    "validate_framework",
    "wam",
    "witness_kthm",
    "witness_maximin",
    "witness_mec",
    "wmedian",
]


def test_public_names_are_unchanged_and_star_import_resolves_them():
    assert moralagg.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from moralagg import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(moralagg, name), name


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        moralagg.nonexistent
