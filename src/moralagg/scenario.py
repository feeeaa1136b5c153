"""Reading and writing ``.scenario`` files.

A scenario is a line-oriented, whitespace-tokenized document; ``#``
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

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import (
    ActionSet,
    EthicalFramework,
    MoralAggError,
    Theory,
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


@dataclass(frozen=True)
class ScenarioDocument:
    """Parsed scenario: the framework, its action set, optional default functional."""

    framework: EthicalFramework
    actions: ActionSet
    default_swf: Optional[SwfSpec] = None


_TOKEN_RE = re.compile(r"\S+")


@dataclass
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[list[_Token]]:
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(), lineno, m.start() + 1)
            for m in _TOKEN_RE.finditer(body)
        ]
        if tokens:
            lines.append(tokens)
    return lines


def _rational_token(tok: _Token) -> Fraction:
    try:
        return to_rational(tok.text)
    except (ValueError, TypeError):
        raise NumberFormatError(
            f"bad rational literal {tok.text!r}", tok.line, tok.column
        ) from None


def _arity(tokens: list[_Token], n: int, usage: str) -> None:
    if len(tokens) != n:
        bad = tokens[min(n, len(tokens) - 1)]
        raise ScenarioSyntaxError(
            f"expected '{usage}'", bad.line, bad.column
        )


class _Parser:
    def __init__(self) -> None:
        self.actions: Optional[list[str]] = None
        self.order: list[str] = []
        self.credences: dict[str, Fraction] = {}
        self.evaluations: dict[str, dict[str, Fraction]] = {}
        self.current: Optional[str] = None
        self.swf: Optional[SwfSpec] = None
        self.any_directive = False

    def feed(self, tokens: list[_Token]) -> None:
        head = tokens[0]
        handler = getattr(self, f"_on_{head.text}", None)
        if handler is None:
            raise ScenarioSyntaxError(
                f"unknown directive {head.text!r}", head.line, head.column
            )
        handler(tokens)
        self.any_directive = True

    def _on_scenario(self, tokens: list[_Token]) -> None:
        head = tokens[0]
        if self.any_directive:
            raise ScenarioSyntaxError(
                "version header must come first", head.line, head.column
            )
        _arity(tokens, 2, "scenario v1")
        version = tokens[1]
        if version.text != SCHEMA_VERSION:
            raise ScenarioSyntaxError(
                f"unsupported schema version {version.text!r}",
                version.line,
                version.column,
            )

    def _on_actions(self, tokens: list[_Token]) -> None:
        head = tokens[0]
        if self.actions is not None:
            raise ScenarioSyntaxError(
                "duplicate actions declaration", head.line, head.column
            )
        if self.order:
            raise ScenarioSyntaxError(
                "actions must be declared before theories", head.line, head.column
            )
        if len(tokens) < 2:
            raise ScenarioSyntaxError(
                "actions declaration needs at least one action",
                head.line,
                head.column,
            )
        seen = set()
        for tok in tokens[1:]:
            if tok.text in seen:
                raise ValidationError(
                    f"duplicate action {tok.text!r}", tok.line, tok.column
                )
            seen.add(tok.text)
        self.actions = [tok.text for tok in tokens[1:]]

    def _on_theory(self, tokens: list[_Token]) -> None:
        head = tokens[0]
        if self.actions is None:
            raise ScenarioSyntaxError(
                "actions must be declared before theories", head.line, head.column
            )
        _arity(tokens, 4, "theory <id> credence <rational>")
        name, kw, value = tokens[1], tokens[2], tokens[3]
        if kw.text != "credence":
            raise ScenarioSyntaxError(
                "expected 'theory <id> credence <rational>'", kw.line, kw.column
            )
        if name.text in self.credences:
            raise ValidationError(
                f"duplicate theory {name.text!r}", name.line, name.column
            )
        self.order.append(name.text)
        self.credences[name.text] = _rational_token(value)
        self.evaluations[name.text] = {}
        self.current = name.text

    def _on_eval(self, tokens: list[_Token]) -> None:
        head = tokens[0]
        if self.current is None:
            raise ScenarioSyntaxError(
                "eval before any theory declaration", head.line, head.column
            )
        _arity(tokens, 3, "eval <action> <rational>")
        action, value = tokens[1], tokens[2]
        assert self.actions is not None
        if action.text not in self.actions:
            raise ValidationError(
                f"evaluation of undeclared action {action.text!r}",
                action.line,
                action.column,
            )
        block = self.evaluations[self.current]
        if action.text in block:
            raise ValidationError(
                f"duplicate evaluation of {action.text!r} by {self.current!r}",
                action.line,
                action.column,
            )
        block[action.text] = _rational_token(value)

    def _on_swf(self, tokens: list[_Token]) -> None:
        head = tokens[0]
        if self.swf is not None:
            raise ScenarioSyntaxError(
                "duplicate swf declaration", head.line, head.column
            )
        if len(tokens) < 2:
            raise ScenarioSyntaxError(
                "swf declaration needs a functional name", head.line, head.column
            )
        kind = tokens[1]
        try:
            if kind.text in ("mec", "maximin", "hm"):
                _arity(tokens, 2, f"swf {kind.text}")
                self.swf = SwfSpec(SwfKind(kind.text))
                return
            if kind.text == "kthm":
                if len(tokens) not in (4, 6):
                    raise ScenarioSyntaxError(
                        "expected 'swf kthm k <rational> [trim literal|renormalized]'",
                        head.line,
                        head.column,
                    )
                if tokens[2].text != "k":
                    raise ScenarioSyntaxError(
                        "expected 'k' after 'swf kthm'",
                        tokens[2].line,
                        tokens[2].column,
                    )
                k = _rational_token(tokens[3])
                mode = TrimMode.LITERAL
                if len(tokens) == 6:
                    if tokens[4].text != "trim":
                        raise ScenarioSyntaxError(
                            "expected 'trim' before the trim mode",
                            tokens[4].line,
                            tokens[4].column,
                        )
                    try:
                        mode = TrimMode(tokens[5].text)
                    except ValueError:
                        raise ScenarioSyntaxError(
                            f"unknown trim mode {tokens[5].text!r}",
                            tokens[5].line,
                            tokens[5].column,
                        ) from None
                self.swf = SwfSpec.kthm(k, mode)
                return
        except InvalidSpec as exc:
            raise ValidationError(str(exc), head.line, head.column) from exc
        raise ScenarioSyntaxError(
            f"unknown functional {kind.text!r}", kind.line, kind.column
        )

    def finish(self) -> ScenarioDocument:
        if self.actions is None:
            raise ScenarioSyntaxError("missing actions declaration", 1, 1)
        if not self.order:
            raise ValidationError("scenario declares no theories")
        actions = ActionSet(self.actions)
        framework = EthicalFramework(
            [Theory(tid, self.evaluations[tid]) for tid in self.order],
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
    1-indexed line and column of the offending token.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioSyntaxError(f"not valid UTF-8: {exc}") from exc
    parser = _Parser()
    for tokens in _tokenize(data):
        parser.feed(tokens)
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
