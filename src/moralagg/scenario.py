"""Reading and writing ``.scenario`` files.

A scenario is a line-oriented document of whitespace-separated words; ``#``
starts a comment anywhere on a line and blank lines are ignored::

    scenario v1
    actions l r
    theory u credence 99/100
      eval l -1
      eval r -2
    theory d credence 1/100
      eval l -10000
      eval r -1000
    swf kthm k 1/10 trim literal

Directives:

``scenario v1``
    Optional schema-version header; when present it must be the first
    directive.  Serialization always emits it.
``actions <id>...``
    Exactly once, before any theory; declares the action set in order.
``theory <id> credence <rational>``
    Opens a theory block; later ``eval`` lines attach to it.
``eval <action> <rational>``
    One evaluation of a declared action by the current theory.
``swf mec|maximin|hm`` or ``swf kthm k <rational> [trim literal|renormalized]``
    At most once; an optional default functional for this scenario.

Numbers are decimal ("0.99") or fraction ("99/100") literals and convert
to exact rationals; anything else (floats in exponent notation included)
is a :class:`NumberFormatError`.  Unknown directives are rejected, not
skipped.  All reported positions are 1-indexed line and column.

Serialization is canonical: declaration order throughout, every number a
lowest-terms fraction string, ``eval`` lines indented two spaces, one
trailing newline.  Parsing a serialized document yields an equal
document, and serializing is idempotent byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .core import (
    ActionSet,
    EthicalFramework,
    MoralAggError,
    Theory,
    _frozen,
    to_rational,
    validate_framework,
)
from .functionals import InvalidSpec, SwfKind, SwfSpec, TrimMode

SCHEMA_VERSION = "v1"


class ScenarioError(MoralAggError):
    """Base for scenario-file errors; carries a 1-indexed position."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class ScenarioSyntaxError(ScenarioError):
    pass


class NumberFormatError(ScenarioError):
    pass


class ValidationError(ScenarioError):
    pass


@_frozen
class ScenarioDocument:
    """Parsed scenario: the framework, its action set, optional default functional."""

    framework: EthicalFramework
    actions: ActionSet
    default_swf: Optional[SwfSpec] = None


class _WordError(Exception):
    """A ``kind`` error at word ``index`` of the line being parsed.

    Only :func:`parse_scenario` knows the line, and it turns the index
    into the reported column; a line that parses pays nothing for it.
    """

    def __init__(self, message: str, index: int = 0,
                 kind: type[ScenarioError] = ScenarioSyntaxError):
        super().__init__(message)
        self.message = message
        self.index = index
        self.kind = kind


def _arity(words: list[str], n: int, usage: str) -> None:
    if len(words) != n:
        raise _WordError(f"expected '{usage}'", min(n, len(words) - 1))


def _swf(words: list[str], rational) -> SwfSpec:
    """The functional an ``swf`` line names; ``rational`` reads its ``k``."""
    if len(words) < 2:
        raise _WordError("swf declaration needs a functional name")
    try:
        kind = SwfKind(words[1])
    except ValueError:
        raise _WordError(f"unknown functional {words[1]!r}", 1) from None
    if kind is not SwfKind.KTHM:
        _arity(words, 2, f"swf {kind.value}")
        return SwfSpec(kind)
    if len(words) not in (4, 6):
        raise _WordError(
            "expected 'swf kthm k <rational> [trim literal|renormalized]'"
        )
    if words[2] != "k":
        raise _WordError("expected 'k' after 'swf kthm'", 2)
    k = rational(words, 3)
    mode = TrimMode.LITERAL
    if len(words) == 6:
        if words[4] != "trim":
            raise _WordError("expected 'trim' before the trim mode", 4)
        try:
            mode = TrimMode(words[5])
        except ValueError:
            raise _WordError(f"unknown trim mode {words[5]!r}", 5) from None
    try:
        return SwfSpec.kthm(k, mode)
    except InvalidSpec as exc:
        raise _WordError(str(exc), 0, ValidationError) from exc


def parse_scenario(data: Union[str, bytes]) -> ScenarioDocument:
    """Parse scenario text into a validated :class:`ScenarioDocument`.

    Raises :class:`ScenarioSyntaxError`, :class:`NumberFormatError` or
    :class:`ValidationError`; syntax and number errors carry the exact
    1-indexed line and column of the offending word.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioSyntaxError(f"not valid UTF-8: {exc}") from exc
    actions: Optional[list[str]] = None
    declared: set[str] = set()
    credences: dict[str, Fraction] = {}
    evaluations: dict[str, dict[str, Fraction]] = {}
    current: Optional[str] = None
    block: Optional[dict[str, Fraction]] = None
    swf: Optional[SwfSpec] = None
    any_directive = False
    # Each distinct literal is converted once per parse; only successes
    # are kept, so a bad literal is reported where it occurs.
    literals: dict[str, Fraction] = {}

    def rational(words: list[str], index: int) -> Fraction:
        text = words[index]
        value = literals.get(text)
        if value is None:
            try:
                value = to_rational(text)
            except (ValueError, TypeError):
                raise _WordError(
                    f"bad rational literal {text!r}", index, NumberFormatError
                ) from None
            literals[text] = value
        return value

    for lineno, line in enumerate(data.split("\n"), start=1):
        body = line.split("#", 1)[0]
        words = body.split()
        if not words:
            continue
        head = words[0]
        try:
            if head == "eval":
                if block is None:
                    raise _WordError("eval before any theory declaration")
                if len(words) != 3:
                    _arity(words, 3, "eval <action> <rational>")
                action = words[1]
                if action not in declared:
                    raise _WordError(
                        f"evaluation of undeclared action {action!r}", 1,
                        ValidationError,
                    )
                if action in block:
                    raise _WordError(
                        f"duplicate evaluation of {action!r} by {current!r}", 1,
                        ValidationError,
                    )
                block[action] = rational(words, 2)
            elif head == "theory":
                if actions is None:
                    raise _WordError("actions must be declared before theories")
                _arity(words, 4, "theory <id> credence <rational>")
                current = words[1]
                if words[2] != "credence":
                    raise _WordError("expected 'theory <id> credence <rational>'", 2)
                if current in credences:
                    raise _WordError(
                        f"duplicate theory {current!r}", 1, ValidationError
                    )
                credences[current] = rational(words, 3)
                evaluations[current] = block = {}
            elif head == "actions":
                # A theory needs the actions first, so a later declaration
                # is always a duplicate.
                if actions is not None:
                    raise _WordError("duplicate actions declaration")
                if len(words) < 2:
                    raise _WordError("actions declaration needs at least one action")
                for index, action in enumerate(words[1:], start=1):
                    if action in declared:
                        raise _WordError(
                            f"duplicate action {action!r}", index, ValidationError
                        )
                    declared.add(action)
                actions = words[1:]
            elif head == "swf":
                if swf is not None:
                    raise _WordError("duplicate swf declaration")
                swf = _swf(words, rational)
            elif head == "scenario":
                if any_directive:
                    raise _WordError("version header must come first")
                _arity(words, 2, "scenario v1")
                if words[1] != SCHEMA_VERSION:
                    raise _WordError(f"unsupported schema version {words[1]!r}", 1)
            else:
                raise _WordError(f"unknown directive {head!r}")
        except _WordError as err:
            # The one place a position is worked out: find where word
            # ``err.index`` starts, scanning the words before it in turn.
            start = end = 0
            for word in words[: err.index + 1]:
                start = body.index(word, end)
                end = start + len(word)
            raise err.kind(err.message, lineno, start + 1) from err.__cause__
        any_directive = True
    if actions is None:
        raise ScenarioSyntaxError("missing actions declaration", 1, 1)
    if not credences:
        raise ValidationError("scenario declares no theories")
    action_set = ActionSet(actions)
    framework = EthicalFramework(
        [Theory(tid, evals) for tid, evals in evaluations.items()], credences
    )
    try:
        validate_framework(framework, action_set)
    except MoralAggError as exc:
        raise ValidationError(str(exc)) from exc
    return ScenarioDocument(framework, action_set, swf)


def serialize_scenario(document: ScenarioDocument) -> bytes:
    """Render ``document`` in canonical form as UTF-8 bytes."""
    lines = [f"scenario {SCHEMA_VERSION}", "actions " + " ".join(document.actions)]
    framework = document.framework
    for theory in framework.theories:
        lines.append(f"theory {theory.id} credence {framework.credences[theory.id]}")
        for action in document.actions:
            lines.append(f"  eval {action} {theory.evaluations[action]}")
    swf = document.default_swf
    if swf is not None:
        if swf.kind is SwfKind.KTHM:
            lines.append(f"swf kthm k {swf.k} trim {swf.trim_mode.value}")
        else:
            lines.append(f"swf {swf.kind.value}")
    return ("\n".join(lines) + "\n").encode("utf-8")
