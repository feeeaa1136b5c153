"""The error contract of the scenario parser and the command line.

``parse_scenario`` returns a document or raises a ``ScenarioError`` on any
text or bytes, and a positioned error names the start of a word inside
the input.  ``main(argv)`` ends every run in exit 0, 1 or 2, prints no
traceback, and writes nothing to stdout when it fails.
"""

import contextlib
import io

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from moralagg import ScenarioError, parse_scenario
from moralagg.cli import main

from scenario_corpus import WORDS, corpus

MISSING_ACTIONS = "line 1, column 1: missing actions declaration"

near_valid = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join), max_size=8
).map("\n".join)


def _check_position(text: str, exc: ScenarioError) -> None:
    if exc.line is None:
        assert exc.column is None
        return
    lines = text.split("\n")
    assert 1 <= exc.line <= len(lines)
    if str(exc) == MISSING_ACTIONS:
        return
    body = lines[exc.line - 1].split("#", 1)[0]
    at = exc.column - 1
    assert 0 <= at < len(body)
    assert not body[at].isspace()
    assert at == 0 or body[at - 1].isspace()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.binary(), near_valid))
def test_parse_returns_a_document_or_a_positioned_scenario_error(data):
    try:
        parse_scenario(data)
    except ScenarioError as exc:
        if isinstance(data, bytes):
            try:
                data = data.decode("utf-8")
            except UnicodeDecodeError:
                assert exc.line is None
                return
        _check_position(data, exc)


SAMPLE = sorted(corpus().items())[::7]


@pytest.mark.parametrize(
    "argv", [["validate", "--json"], ["rank", "--swf", "hm"]], ids=" ".join
)
def test_cli_exit_codes_on_the_corpus(argv, tmp_path):
    for name, data in SAMPLE:
        path = tmp_path / f"{name}.scenario"
        path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv[:1] + [str(path)] + argv[1:])
        assert code in (0, 1, 2), name
        assert "Traceback" not in err.getvalue(), name
        if code:
            assert out.getvalue() == "", name
            assert err.getvalue().startswith(("error: ", "usage error: ")), name
