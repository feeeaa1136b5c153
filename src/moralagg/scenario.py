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


class _Parser:
    def __init__(self) -> None:
        self.actions: Optional[list[str]] = None
        self.declared: set[str] = set()
        self.credences: dict[str, Fraction] = {}
        self.evaluations: dict[str, dict[str, Fraction]] = {}
        self.current: Optional[str] = None
        self.block: Optional[dict[str, Fraction]] = None
        self.swf: Optional[SwfSpec] = None
        self.any_directive = False
        # Each distinct literal is converted once per parse; only
        # successes are kept, so a bad literal is reported where it occurs.
        self.literals: dict[str, Fraction] = {}

    def feed(self, words: list[str]) -> None:
        handler = self._HANDLERS.get(words[0])
        if handler is None:
            raise _WordError(f"unknown directive {words[0]!r}")
        handler(self, words)
        self.any_directive = True

    def _rational(self, words: list[str], index: int) -> Fraction:
        text = words[index]
        value = self.literals.get(text)
        if value is None:
            try:
                value = to_rational(text)
            except (ValueError, TypeError):
                raise _WordError(
                    f"bad rational literal {text!r}", index, NumberFormatError
                ) from None
            self.literals[text] = value
        return value

    def _on_scenario(self, words: list[str]) -> None:
        if self.any_directive:
            raise _WordError("version header must come first")
        _arity(words, 2, "scenario v1")
        if words[1] != SCHEMA_VERSION:
            raise _WordError(f"unsupported schema version {words[1]!r}", 1)

    def _on_actions(self, words: list[str]) -> None:
        # A theory needs the actions first, so a later declaration is
        # always a duplicate.
        if self.actions is not None:
            raise _WordError("duplicate actions declaration")
        if len(words) < 2:
            raise _WordError("actions declaration needs at least one action")
        seen = set()
        for index, action in enumerate(words[1:], start=1):
            if action in seen:
                raise _WordError(
                    f"duplicate action {action!r}", index, ValidationError
                )
            seen.add(action)
        self.actions = words[1:]
        self.declared = seen

    def _on_theory(self, words: list[str]) -> None:
        if self.actions is None:
            raise _WordError("actions must be declared before theories")
        _arity(words, 4, "theory <id> credence <rational>")
        name = words[1]
        if words[2] != "credence":
            raise _WordError("expected 'theory <id> credence <rational>'", 2)
        if name in self.credences:
            raise _WordError(f"duplicate theory {name!r}", 1, ValidationError)
        self.credences[name] = self._rational(words, 3)
        self.evaluations[name] = self.block = {}
        self.current = name

    def _on_eval(self, words: list[str]) -> None:
        block = self.block
        if block is None:
            raise _WordError("eval before any theory declaration")
        if len(words) != 3:
            _arity(words, 3, "eval <action> <rational>")
        action = words[1]
        if action not in self.declared:
            raise _WordError(
                f"evaluation of undeclared action {action!r}", 1, ValidationError
            )
        if action in block:
            raise _WordError(
                f"duplicate evaluation of {action!r} by {self.current!r}",
                1,
                ValidationError,
            )
        block[action] = self._rational(words, 2)

    def _on_swf(self, words: list[str]) -> None:
        if self.swf is not None:
            raise _WordError("duplicate swf declaration")
        if len(words) < 2:
            raise _WordError("swf declaration needs a functional name")
        try:
            kind = SwfKind(words[1])
        except ValueError:
            raise _WordError(f"unknown functional {words[1]!r}", 1) from None
        if kind is not SwfKind.KTHM:
            _arity(words, 2, f"swf {kind.value}")
            self.swf = SwfSpec(kind)
            return
        if len(words) not in (4, 6):
            raise _WordError(
                "expected 'swf kthm k <rational> [trim literal|renormalized]'"
            )
        if words[2] != "k":
            raise _WordError("expected 'k' after 'swf kthm'", 2)
        k = self._rational(words, 3)
        mode = TrimMode.LITERAL
        if len(words) == 6:
            if words[4] != "trim":
                raise _WordError("expected 'trim' before the trim mode", 4)
            try:
                mode = TrimMode(words[5])
            except ValueError:
                raise _WordError(f"unknown trim mode {words[5]!r}", 5) from None
        try:
            self.swf = SwfSpec.kthm(k, mode)
        except InvalidSpec as exc:
            raise _WordError(str(exc), 0, ValidationError) from exc

    # Directive word to handler; a word with no entry is an unknown directive.
    _HANDLERS = {
        "scenario": _on_scenario,
        "actions": _on_actions,
        "theory": _on_theory,
        "eval": _on_eval,
        "swf": _on_swf,
    }

    def finish(self) -> ScenarioDocument:
        if self.actions is None:
            raise ScenarioSyntaxError("missing actions declaration", 1, 1)
        if not self.credences:
            raise ValidationError("scenario declares no theories")
        actions = ActionSet(self.actions)
        framework = EthicalFramework(
            [Theory(tid, block) for tid, block in self.evaluations.items()],
            self.credences,
        )
        try:
            validate_framework(framework, actions)
        except MoralAggError as exc:
            raise ValidationError(str(exc)) from exc
        return ScenarioDocument(framework, actions, self.swf)


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
    parser = _Parser()
    for lineno, line in enumerate(data.split("\n"), start=1):
        body = line.split("#", 1)[0]
        words = body.split()
        if not words:
            continue
        try:
            parser.feed(words)
        except _WordError as err:
            # The one place a position is worked out: find where word
            # ``err.index`` starts, scanning the words before it in turn.
            start = end = 0
            for word in words[: err.index + 1]:
                start = body.index(word, end)
                end = start + len(word)
            raise err.kind(err.message, lineno, start + 1) from err.__cause__
    return parser.finish()


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
