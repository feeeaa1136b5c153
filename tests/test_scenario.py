from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given

from moralagg import (
    ActionSet,
    EthicalFramework,
    NumberFormatError,
    Ranking,
    ScenarioDocument,
    ScenarioSyntaxError,
    SwfSpec,
    Theory,
    TrimMode,
    ValidationError,
    aggregate,
    parse_scenario,
    scenario,
    serialize_scenario,
    to_rational,
)

import strategies

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def frobo_document():
    return ScenarioDocument(
        EthicalFramework(
            [
                Theory("u", {"l": F(-1), "r": F(-2)}),
                Theory("d", {"l": F(-10000), "r": F(-1000)}),
            ],
            {"u": F(99, 100), "d": F(1, 100)},
        ),
        ActionSet(("l", "r")),
    )


class TestParsing:
    def test_firefighter_fixture(self):
        data = (FIXTURES / "frobo.scenario").read_bytes()
        assert parse_scenario(data) == frobo_document()

    def test_three_theory_fixture(self):
        data = (FIXTURES / "tiebreaker.scenario").read_bytes()
        doc = parse_scenario(data)
        assert doc.actions == ActionSet(("l", "r"))
        assert doc.framework.theory_ids() == ("u", "dprime", "t")
        assert doc.framework.credence("t") == F(1, 100)
        assert doc.default_swf is None

    def test_fixtures_are_canonical(self):
        for name in ("frobo.scenario", "tiebreaker.scenario"):
            data = (FIXTURES / name).read_bytes()
            assert serialize_scenario(parse_scenario(data)) == data

    def test_comments_blank_lines_and_indentation(self):
        text = """
        # firefighter, two readings of the same night
        scenario v1

        actions l r   # declaration order matters
        theory u credence 0.99
              eval l -1
        \teval r -2  # tabs are fine too
        theory d credence 0.01
          eval l -10000
          eval r -1000
        """
        assert parse_scenario(text) == frobo_document()

    def test_decimal_literals_become_exact_fractions(self):
        doc = parse_scenario(
            "actions a\ntheory t credence 1.00\n  eval a 0.125\n"
        )
        assert doc.framework.credence("t") == F(1)
        assert doc.framework.theory("t").evaluations["a"] == F(1, 8)

    def test_version_header_is_optional(self):
        doc = parse_scenario("actions a\ntheory t credence 1\n  eval a 0\n")
        assert doc.actions == ActionSet(("a",))

    def test_swf_variants(self):
        base = "actions a\ntheory t credence 1\n  eval a 0\n"
        cases = [
            ("swf mec", SwfSpec.mec()),
            ("swf maximin", SwfSpec.maximin()),
            ("swf hm", SwfSpec.hm()),
            ("swf kthm k 1/10", SwfSpec.kthm("1/10")),
            (
                "swf kthm k 2/5 trim renormalized",
                SwfSpec.kthm("2/5", TrimMode.RENORMALIZED),
            ),
        ]
        for line, expected in cases:
            assert parse_scenario(base + line + "\n").default_swf == expected

    def test_bytes_and_str_agree(self):
        text = (FIXTURES / "frobo.scenario").read_text()
        assert parse_scenario(text) == parse_scenario(text.encode())

    def test_document_is_usable_directly(self):
        doc = parse_scenario((FIXTURES / "frobo.scenario").read_bytes())
        result = aggregate(SwfSpec.hm(), doc.framework, doc.actions)
        assert result.ranking == Ranking([{"r"}, {"l"}])


def expect_error(text, kind, line=None, column=None, needle=None):
    with pytest.raises(kind) as info:
        parse_scenario(text)
    err = info.value
    assert err.line == line
    assert err.column == column
    if needle is not None:
        assert needle in str(err)


class TestSyntaxErrors:
    def test_unknown_directive(self):
        expect_error(
            "actions a\nbogus x\n",
            ScenarioSyntaxError,
            2,
            1,
            "unknown directive",
        )

    def test_version_header_not_first(self):
        expect_error(
            "actions a\nscenario v1\n",
            ScenarioSyntaxError,
            2,
            1,
            "must come first",
        )

    def test_unsupported_version(self):
        expect_error(
            "scenario v2\nactions a\n",
            ScenarioSyntaxError,
            1,
            10,
            "unsupported schema version",
        )

    def test_theory_arity(self):
        expect_error(
            "actions a\ntheory t credence\n",
            ScenarioSyntaxError,
            2,
            10,
            "theory <id> credence <rational>",
        )

    def test_theory_keyword(self):
        expect_error(
            "actions a\ntheory t weight 1\n",
            ScenarioSyntaxError,
            2,
            10,
        )

    def test_eval_before_theory(self):
        expect_error(
            "actions a\neval a 0\n",
            ScenarioSyntaxError,
            2,
            1,
            "before any theory",
        )

    def test_theory_before_actions(self):
        expect_error(
            "theory t credence 1\n",
            ScenarioSyntaxError,
            1,
            1,
            "actions must be declared before",
        )

    def test_duplicate_actions_line(self):
        expect_error(
            "actions a\nactions b\n",
            ScenarioSyntaxError,
            2,
            1,
            "duplicate actions",
        )

    def test_empty_actions_line(self):
        expect_error("actions\n", ScenarioSyntaxError, 1, 1, "at least one")

    def test_missing_actions(self):
        expect_error(
            "# nothing here\n",
            ScenarioSyntaxError,
            1,
            1,
            "missing actions",
        )

    def test_unknown_functional(self):
        expect_error(
            "actions a\ntheory t credence 1\n  eval a 0\nswf average\n",
            ScenarioSyntaxError,
            4,
            5,
            "unknown functional",
        )

    def test_duplicate_swf(self):
        expect_error(
            "actions a\ntheory t credence 1\n  eval a 0\nswf mec\nswf hm\n",
            ScenarioSyntaxError,
            5,
            1,
            "duplicate swf",
        )

    def test_kthm_needs_k_keyword(self):
        expect_error(
            "actions a\ntheory t credence 1\n  eval a 0\nswf kthm q 1/10\n",
            ScenarioSyntaxError,
            4,
            10,
            "expected 'k'",
        )

    def test_trim_mode_must_be_known(self):
        expect_error(
            "actions a\ntheory t credence 1\n  eval a 0\n"
            "swf kthm k 1/10 trim winsorized\n",
            ScenarioSyntaxError,
            4,
            22,
            "unknown trim mode",
        )

    def test_bad_utf8(self):
        with pytest.raises(ScenarioSyntaxError) as info:
            parse_scenario(b"actions \xff\n")
        assert "UTF-8" in str(info.value)


class TestNumberErrors:
    def test_exponent_notation_rejected(self):
        expect_error(
            "actions a\ntheory t credence 1e-2\n",
            NumberFormatError,
            2,
            19,
            "bad rational literal",
        )

    def test_zero_denominator_rejected(self):
        expect_error(
            "actions a\ntheory t credence 1\n  eval a 1/0\n",
            NumberFormatError,
            3,
            10,
        )


class TestLiteralsAndDirectiveWords:
    """Each distinct literal is converted once per parse; errors keep their place."""

    @staticmethod
    def repeated(n):
        lines = ["actions a b"]
        for i in range(n):
            lines += [f"theory t{i} credence 1/{n}", "  eval a -3/7", "  eval b 12.5"]
        return lines

    def test_bad_evaluation_after_many_good_copies_keeps_its_position(self):
        lines = self.repeated(40) + ["theory u credence 1/40", "  eval a   -3/0"]
        expect_error(
            "\n".join(lines) + "\n",
            NumberFormatError,
            len(lines),
            12,
            "bad rational literal '-3/0'",
        )

    def test_bad_credence_after_many_good_copies_keeps_its_position(self):
        lines = self.repeated(40) + ["theory u credence 1/40.", "  eval a -3/7"]
        expect_error(
            "\n".join(lines) + "\n",
            NumberFormatError,
            len(lines) - 1,
            19,
            "bad rational literal '1/40.'",
        )

    def test_a_bad_literal_is_reported_at_each_parse(self):
        text = "actions a\ntheory t credence 1\n  eval a 1/0\n"
        for _ in range(2):
            expect_error(text, NumberFormatError, 3, 10)

    def test_repeated_literals_parse_equal_to_their_first_parse(self):
        words = ["1/4", "0.25", "-0", "+3", "007/10", "-.5", "1/4", "0.25"]
        lines = ["actions " + " ".join(f"x{j}" for j in range(len(words)))]
        for i in range(4):
            lines.append(f"theory t{i} credence 0.25")
            for j in range(len(words)):
                lines.append(f"  eval x{j} {words[(i + j) % len(words)]}")
        doc = parse_scenario("\n".join(lines) + "\n")
        assert set(doc.framework.credences.values()) == {F(1, 4)}
        for i, theory in enumerate(doc.framework.theories):
            for j in range(len(words)):
                value = theory.evaluations[f"x{j}"]
                assert type(value) is F
                assert value == to_rational(words[(i + j) % len(words)])

    def test_each_distinct_literal_is_converted_once_per_parse(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return to_rational(text)

        monkeypatch.setattr(scenario, "to_rational", counting)
        text = "\n".join(self.repeated(40) + ["swf kthm k 1/40"]) + "\n"
        for _ in range(2):
            parse_scenario(text)
        assert sorted(calls) == sorted(["1/40", "-3/7", "12.5"] * 2)

    @pytest.mark.parametrize(
        "word",
        ["__init__", "_on_eval", "on_eval", "feed", "finish", "_rational",
         "_HANDLERS", "literals", "__class__", "Eval", "eval:"],
    )
    def test_parser_names_are_unknown_directives(self, word):
        expect_error(
            f"actions a\n{word} a 1\n",
            ScenarioSyntaxError,
            2,
            1,
            f"unknown directive {word!r}",
        )


class TestValidationErrors:
    def test_duplicate_action(self):
        expect_error(
            "actions a b a\n",
            ValidationError,
            1,
            13,
            "duplicate action",
        )

    def test_duplicate_theory(self):
        expect_error(
            "actions a\ntheory t credence 1/2\n  eval a 0\n"
            "theory t credence 1/2\n  eval a 0\n",
            ValidationError,
            4,
            8,
            "duplicate theory",
        )

    def test_undeclared_action(self):
        expect_error(
            "actions a\ntheory t credence 1\n  eval b 0\n",
            ValidationError,
            3,
            8,
            "undeclared action",
        )

    def test_duplicate_evaluation(self):
        expect_error(
            "actions a\ntheory t credence 1\n  eval a 0\n  eval a 1\n",
            ValidationError,
            4,
            8,
            "duplicate evaluation",
        )

    def test_no_theories(self):
        expect_error("actions a\n", ValidationError, None, None, "no theories")

    def test_missing_evaluation_is_reported(self):
        expect_error(
            "actions a b\ntheory t credence 1\n  eval a 0\n",
            ValidationError,
            None,
            None,
        )

    def test_credence_sum_is_checked(self):
        expect_error(
            "actions a\ntheory t credence 1/2\n  eval a 0\n",
            ValidationError,
            None,
            None,
        )

    def test_credence_range_is_checked(self):
        expect_error(
            "actions a\ntheory t credence 0\n  eval a 0\n"
            "theory s credence 1\n  eval a 0\n",
            ValidationError,
            None,
            None,
        )

    def test_kthm_level_range_is_checked(self):
        expect_error(
            "actions a\ntheory t credence 1\n  eval a 0\nswf kthm k 1/2\n",
            ValidationError,
            4,
            1,
        )


class TestSerialization:
    def test_canonical_form(self):
        doc = ScenarioDocument(
            EthicalFramework([Theory("t", {"a": F(1, 2), "b": F(-3)})], {"t": F(1)}),
            ActionSet(("a", "b")),
            SwfSpec.kthm("1/10"),
        )
        assert serialize_scenario(doc) == (
            b"scenario v1\n"
            b"actions a b\n"
            b"theory t credence 1\n"
            b"  eval a 1/2\n"
            b"  eval b -3\n"
            b"swf kthm k 1/10 trim literal\n"
        )

    def test_decimals_are_normalized(self):
        doc = parse_scenario(
            "actions a\ntheory t credence 0.75\n  eval a 0\n"
            "theory s credence 0.25\n  eval a 0\n"
        )
        out = serialize_scenario(doc).decode()
        assert "credence 3/4" in out
        assert "credence 1/4" in out


@given(strategies.scenario_documents())
def test_round_trip_preserves_the_document(doc):
    data = serialize_scenario(doc)
    again = parse_scenario(data)
    assert again == doc
    assert serialize_scenario(again) == data
