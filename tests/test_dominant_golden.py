"""Byte-level golden check of ``dominant`` on the README's recipe files.

``scenarios/recipes/recipe-N.scenario`` is the first 4-action draw of
``sampling.random_framework(random.Random(5), (N, N))`` for N = 12, 14
and 16 theories, written with ``scenario.serialize_scenario`` and
committed, so the digests do not depend on ``sampling``.  Each case runs
``main(argv)`` in-process under one of the five rule variants, in text
or ``--json`` form, and compares the SHA-256 of stdout with the table in
``dominant_golden.json``.

Re-record the table (``PYTHONPATH=src python tests/test_dominant_golden.py``)
only in a change that intends to alter ``dominant``'s output, and name
every case whose digest moved, with the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from moralagg.cli import main

HERE = Path(__file__).resolve().parent
RECIPES = HERE.parent / "scenarios" / "recipes"
TABLE = HERE / "dominant_golden.json"

KTHM = ["--swf", "kthm", "--k", "1/10", "--trim-mode"]
VARIANTS = {
    "mec": ["--swf", "mec"],
    "maximin": ["--swf", "maximin"],
    "kthm_literal": KTHM + ["literal"],
    "kthm_renormalized": KTHM + ["renormalized"],
    "hm": ["--swf", "hm"],
}
CASES = {
    f"{n}-{variant}-{fmt}": ["dominant", str(RECIPES / f"recipe-{n}.scenario")]
    + flags
    + tail
    for n in (12, 14, 16)
    for variant, flags in VARIANTS.items()
    for fmt, tail in (("text", []), ("json", ["--json"]))
}


def stdout_digest(argv: list[str]) -> str:
    """The SHA-256 of stdout from one successful, silent run of ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text())


def test_table_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dominant_bytes_match_the_recorded_table(case, golden):
    assert stdout_digest(CASES[case]) == golden[case]


if __name__ == "__main__":
    table = {case: stdout_digest(argv) for case, argv in CASES.items()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases in {TABLE}", file=sys.stderr)
