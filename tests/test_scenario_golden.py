"""Golden table of parser outcomes on the seeded corpus of ``scenario_corpus``.

``scenario_golden.json`` holds, for each input, only its outcome: the
error's class name, line, column and full message, or the SHA-256 of
``serialize_scenario`` of the parsed document.  An exception that is not
a ``ScenarioError`` fails the test.

Re-record the table (``PYTHONPATH=src python tests/test_scenario_golden.py``)
only in a change that intends to alter what the parser accepts or how
it reports an error, and name the moved cases in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from scenario_corpus import HAND_CASES, corpus, outcome

TABLE = Path(__file__).resolve().parent / "scenario_golden.json"
CORPUS = corpus()


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text())


def test_table_covers_exactly_the_corpus(golden):
    assert sorted(golden) == sorted(CORPUS)


def test_corpus_reaches_every_outcome_kind(golden):
    kinds = {entry.get("error", "document") for entry in golden.values()}
    assert kinds == {
        "document", "ScenarioSyntaxError", "NumberFormatError", "ValidationError",
    }


def _group(name: str) -> str:
    return "hand" if name in HAND_CASES else name.rsplit("-", 1)[0]


@pytest.mark.parametrize("group", ["frobo", "tiebreaker", "hand"])
def test_parser_outcomes_match_the_recorded_table(group, golden):
    names = [name for name in CORPUS if _group(name) == group]
    assert names
    moved = [name for name in names if outcome(CORPUS[name]) != golden[name]]
    assert moved == []


if __name__ == "__main__":
    table = {name: outcome(data) for name, data in CORPUS.items()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases in {TABLE}", file=sys.stderr)
