"""A seeded corpus of near-valid scenario inputs, and their outcomes.

Each fixture under ``scenarios/`` yields ``MUTANTS`` inputs, each made by
one to three seeded edits: a line dropped, a line duplicated, a line
re-worded (a word, often the last, replaced, inserted or deleted, from
``WORDS``) or a line of ``WORDS`` inserted.  ``WORDS`` mixes the
directive words, exotic whitespace, ``#`` and literals the grammar
rejects, so the corpus reaches most of the parser's raise sites;
``HAND_CASES`` covers the ones the edits miss.
"""

import hashlib
import random
from pathlib import Path

from moralagg import ScenarioError, parse_scenario, serialize_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"
MUTANTS = 300

WORDS = (
    "scenario", "v1", "v2", "actions", "theory", "credence", "eval", "swf",
    "mec", "maximin", "hm", "kthm", "k", "trim", "literal", "renormalized",
    "bogus", "l", "r", "u", "d", "t", "dprime",
    "0", "1", "-1", "1/2", "99/100", "1/100", "2", "1/10", "+3/4",
    "1e-2", "1/0", ".5", "5.", "0.99", "1/-2", "0x1", "\u00bd",
    "#", "#x", "a#b", "",
    "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85", "\u00a0", "\u1680",
    "\u2003", "\u2009", "\u2028", "\u3000", "\u180e", "\u200b", "\ufeff",
)

HAND_CASES = {
    "missing-actions": "scenario v1\n",
    "empty": "",
    "comment-only": "# nothing here\n",
    "no-theories": "scenario v1\nactions a b\n",
    "actions-none": "scenario v1\nactions\n",
    "actions-none-comment": "actions # a b\n",
    "credence-sum-low": "actions a\ntheory t credence 1/2\n  eval a 1\n",
    "credence-sum-high": (
        "actions a\ntheory t credence 1/2\n  eval a 1\n"
        "theory s credence 2/3\n  eval a 1\n"
    ),
    "credence-zero": "actions a\ntheory t credence 0\n  eval a 1\n",
    "credence-above-one": "actions a\ntheory t credence 3/2\n  eval a 1\n",
    "credence-negative": "actions a\ntheory t credence -1/2\n  eval a 1\n",
    "missing-evaluation": "actions a b\ntheory t credence 1\n  eval a 1\n",
    "kthm-k-half": "actions a\ntheory t credence 1\n  eval a 1\nswf kthm k 1/2\n",
    "kthm-k-negative": "actions a\ntheory t credence 1\n  eval a 1\nswf kthm k -1/10\n",
    "kthm-short": "actions a\nswf kthm k\n",
    "kthm-five-words": "actions a\nswf kthm k 1/10 trim\n",
    "kthm-no-k-keyword": "actions a\nswf kthm q 1/10\n",
    "kthm-no-trim-keyword": "actions a\nswf kthm k 1/10 cut literal\n",
    "kthm-bad-mode": "actions a\nswf kthm k 1/10 trim sideways\n",
    "kthm-bad-k": "actions a\nswf kthm k 1e-1\n",
    "swf-no-name": "actions a\ntheory t credence 1\n  eval a 1\nswf\n",
    "swf-unknown": "actions a\nswf lexicographic\n",
    "swf-extra-word": "actions a\nswf mec now\n",
    "swf-twice": "actions a\nswf mec\nswf hm\n",
    "scenario-alone": "scenario\n",
    "scenario-extra": "scenario v1 extra\n",
    "scenario-late": "actions a\nscenario v1\n",
    "scenario-v2": "scenario v2\n",
    "theory-before-actions": "theory t credence 1\n",
    "theory-short": "actions a\ntheory t credence\n",
    "theory-long": "actions a\ntheory t credence 1 2\n",
    "theory-keyword": "actions a\ntheory t weight 1\n",
    "theory-twice": "actions a\ntheory t credence 1\ntheory t credence 1\n",
    "eval-first": "eval a 1\n",
    "eval-short": "actions a\ntheory t credence 1\n  eval a\n",
    "eval-long": "actions a\ntheory t credence 1\n  eval a 1 2\n",
    "eval-undeclared": "actions a\ntheory t credence 1\n  eval b 1\n",
    "eval-twice": "actions a\ntheory t credence 1\n  eval a 1\n  eval a 2\n",
    "eval-bad-number": "actions a\ntheory t credence 1\n  eval a 1/0\n",
    "actions-twice": "actions a\nactions b\n",
    "actions-after-theory": "actions a\ntheory t credence 1\nactions b\n",
    "actions-duplicate": "actions a b a\n",
    "unknown-directive": "actions a\n  weigh a 1\n",
    "exotic-indent": "\u3000\u00a0actions a\ntheory t credence 1\n\teval\x0ba\x1c1/0\n",
    "crlf": "scenario v1\r\nactions a\r\ntheory t credence 1\r\n  eval a 1\r\n",
    "bad-utf8": b"scenario v1\nactions \xff\n",
    "bad-utf8-truncated": b"actions a\n# \xe2\x82\n",
    "bytes-valid": "actions a\ntheory t credence 1\n  eval a 1\n".encode(),
}


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        at = rng.randrange(len(lines)) if lines else 0
        if op == 0 and lines:
            del lines[at]
        elif op == 1 and lines:
            lines.insert(at, lines[at])
        elif op == 2 and lines:
            parts = lines[at].split(" ")
            where = rng.randrange(len(parts))
            edit = rng.randrange(4)
            if edit == 0:
                parts[where] = rng.choice(WORDS)
            elif edit == 1:
                parts[-1] = rng.choice(WORDS)
            elif edit == 2:
                parts.insert(where, rng.choice(WORDS))
            else:
                del parts[where]
            lines[at] = " ".join(parts)
        else:
            words = [rng.choice(WORDS) for _ in range(rng.randint(1, 5))]
            lines.insert(at, " ".join(words))
    return lines


def corpus() -> dict[str, object]:
    """Every input by case name: the seeded mutants, then ``HAND_CASES``."""
    cases: dict[str, object] = {}
    for path in sorted(FIXTURES.glob("*.scenario")):
        rng = random.Random(path.stem)
        lines = path.read_text().split("\n")
        for i in range(MUTANTS):
            cases[f"{path.stem}-{i:03d}"] = "\n".join(_mutate(rng, lines))
    cases.update(HAND_CASES)
    return cases


def outcome(data) -> dict:
    """What ``parse_scenario`` made of ``data``: an error, or a digest."""
    try:
        document = parse_scenario(data)
    except ScenarioError as exc:
        return {
            "error": type(exc).__name__,
            "line": exc.line,
            "column": exc.column,
            "message": str(exc),
        }
    return {"sha256": hashlib.sha256(serialize_scenario(document)).hexdigest()}
