"""The ``--json`` writer against the ``json.dumps`` rendering it replaced.

``reference`` is the conversion the CLI used before it rendered JSON
itself: each value became plain JSON data, and ``json.dumps(...,
sort_keys=True, indent=2)`` printed that.  The writer must give the same
text on generated payloads and on the payload of every ``--json`` case
in ``cli_golden.json``, and it must not reach the stdlib encoder at all.
"""

import contextlib
import enum
import io
import json
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import hypothesis.strategies as st
import pytest
from hypothesis import given

from moralagg import Ranking, SwfKind, TrimMode, cli

from test_cli_golden import CASES, TABLE, _prepare, _run

JSON_CASES = sorted(case for case, argv in CASES.items() if "--json" in argv)
GOLDEN = json.loads(TABLE.read_text())


def reference(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Ranking):
        return [sorted(group) for group in value.groups]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(reference(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [reference(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): reference(v) for k, v in value.items()}
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def reference_text(value) -> str:
    return json.dumps(reference(value), sort_keys=True, indent=2)


def written(value) -> str:
    chunks = []
    cli._write(value, "\n", chunks.append)
    return "".join(chunks)


class Mark(enum.Enum):
    LOW = 1
    HIGH = 2


strings = st.one_of(
    st.text(max_size=8),
    st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\n\té€ \U0001f600'), max_size=8),
)
big_ints = st.integers(-(10**60), 10**60)
fractions = st.one_of(
    st.fractions(),
    st.builds(Fraction, big_ints, st.integers(1, 10**60)),
)


@st.composite
def rankings(draw):
    actions = draw(st.permutations("abcde"))[: draw(st.integers(1, 5))]
    cuts = draw(st.lists(st.booleans(), min_size=len(actions), max_size=len(actions)))
    groups, group = [], []
    for action, cut in zip(actions, cuts):
        group.append(action)
        if cut:
            groups.append(group)
            group = []
    if group:
        groups.append(group)
    return Ranking(groups)


leaves = st.one_of(
    strings,
    st.integers(),
    big_ints,
    fractions,
    st.booleans(),
    st.none(),
    st.sampled_from([*SwfKind, *TrimMode, *Mark]),
    rankings(),
    st.sets(strings, max_size=4),
    st.frozensets(big_ints, max_size=4),
    st.frozensets(st.sampled_from(list(SwfKind)), max_size=4),
)

payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(strings, children, max_size=4).map(MappingProxyType),
    ),
    max_leaves=20,
)


@given(payloads)
def test_writer_matches_the_reference_rendering(value):
    assert written(value) == reference_text(value)


@pytest.mark.parametrize("case", JSON_CASES)
def test_golden_payloads_render_as_the_reference(case, tmp_path, monkeypatch):
    payloads = []
    emit = cli._emit_json

    def recording(payload):
        payloads.append({**payload, "schema": cli.JSON_SCHEMA})
        emit(payload)

    _prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_emit_json", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(CASES[case])
    assert code in (0, 1)
    assert len(payloads) == 1
    assert out.getvalue() == reference_text(payloads[0]) + "\n"


@pytest.mark.parametrize("case", JSON_CASES)
def test_golden_bytes_without_the_stdlib_encoder(case, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the --json writer reached json.JSONEncoder")

    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    _prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(CASES[case]) == GOLDEN[case]


@pytest.mark.parametrize(
    "value",
    [10**4400, Fraction(1, 10**4400), {"a": [Fraction(-(10**4400), 3)]}],
    ids=["int", "fraction", "nested"],
)
def test_past_the_digit_limit_raises_as_the_reference(value):
    # main() turns this ValueError into its "more than N digits" error.
    for render in (written, reference_text):
        with pytest.raises(ValueError, match="integer string conversion"):
            render(value)


@pytest.mark.parametrize("value", [0.5, b"x", object(), {"a": [1, 2.0]}])
def test_unknown_types_raise_as_the_reference(value):
    messages = []
    for render in (written, reference_text):
        with pytest.raises(TypeError) as raised:
            render(value)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("cannot render ")
