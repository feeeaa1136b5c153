"""Byte-level golden check of the command line and the demos.

Each CLI case runs ``main(argv)`` in-process, in a scratch directory
holding copies of the fixtures, and compares the exit code and the
SHA-256 of stdout, of stderr and of the ``--out`` file (when one is
written) with the table in ``cli_golden.json``.  The cases cover every
subcommand in text and ``--json`` form on both fixtures, ``dominant``
under every rule on an eight-theory scenario with exact ties, every
``kthm`` trim mode, every ``witness`` usage error, and the domain errors
of each command.  Each demo case compares the SHA-256 of the demo's
stdout.

Re-record the table (``PYTHONPATH=src python tests/test_cli_golden.py``)
only in a change that intends to alter CLI output, and name every case
whose digests moved, with the reason, in CHANGES.md.  A refactor must
leave the table as it is.
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from moralagg.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "scenarios"
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
TABLE = HERE / "cli_golden.json"
OUT = "out.scenario"

KTHM = ["--swf", "kthm", "--k", "1/10"]
SWF_FLAGS = {
    "mec": ["--swf", "mec"],
    "maximin": ["--swf", "maximin"],
    "kthm": KTHM,
    "kthm_literal": KTHM + ["--trim-mode", "literal"],
    "kthm_renormalized": KTHM + ["--trim-mode", "renormalized"],
    "hm": ["--swf", "hm"],
}
COMPARE_FLAGS = {
    "default": [],
    "two_levels": ["--k", "2/5", "--k", "1/10", "--k", "2/5"],
    "renormalized": ["--trim-mode", "renormalized"],
    "zero": ["--k", "0"],
}
WITNESS_FLAGS = {
    "mec": ["--swf", "mec", "--credence", "1/100"],
    "mec_target": ["--swf", "mec", "--credence", "1/4", "--target", "l"],
    "maximin": ["--swf", "maximin", "--credence", "1/100"],
    "kthm": ["--swf", "kthm", "--k", "1/10", "--kprime", "1/5"],
    "kthm_target": ["--swf", "kthm", "--k", "0", "--kprime", "2/5", "--target", "l"],
}
WITNESS = ["witness", "frobo.scenario", "--swf"]
RANK = ["rank", "frobo.scenario"]
ERRORS = {
    "witness-mec-no-credence": WITNESS + ["mec"],
    "witness-mec-k": WITNESS + ["mec", "--credence", "1/4", "--k", "1/10"],
    "witness-mec-kprime": WITNESS + ["mec", "--credence", "1/4", "--kprime", "1/5"],
    "witness-maximin-no-credence": WITNESS + ["maximin"],
    "witness-maximin-k": WITNESS + ["maximin", "--credence", "1/4", "--k", "1/10"],
    "witness-maximin-target": (
        WITNESS + ["maximin", "--credence", "1/4", "--target", "l"]
    ),
    "witness-kthm-neither": WITNESS + ["kthm"],
    "witness-kthm-no-kprime": WITNESS + ["kthm", "--k", "1/10"],
    "witness-kthm-no-k": WITNESS + ["kthm", "--kprime", "1/5"],
    "witness-mec-bad-credence": WITNESS + ["mec", "--credence", "1/2"],
    "witness-mec-unique-best-target": (
        WITNESS + ["mec", "--credence", "1/4", "--target", "r"]
    ),
    "witness-kthm-bad-pair": WITNESS + ["kthm", "--k", "1/5", "--kprime", "1/10"],
    "rank-no-swf": RANK,
    "rank-k-no-swf": RANK + ["--k", "1/10"],
    "rank-k-with-swf-line": ["rank", "swf.scenario", "--k", "1/10"],
    "rank-kthm-no-k": RANK + ["--swf", "kthm"],
    "rank-mec-k": RANK + ["--swf", "mec", "--k", "1/10"],
    "rank-hm-trim-mode": RANK + ["--swf", "hm", "--trim-mode", "literal"],
    "rank-bad-k": RANK + ["--swf", "kthm", "--k", "1/2"],
    "rank-missing-file": ["rank", "missing.scenario", "--swf", "mec"],
    "validate-bad-literal": ["validate", "bad.scenario"],
    "dominant-no-swf": ["dominant", "frobo.scenario"],
    "dominant-too-many": (
        ["dominant", "tiebreaker.scenario", "--swf", "mec", "--max-theories", "2"]
    ),
    "audit-negative-trials": ["audit", "--trials", "-1"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in ("frobo", "tiebreaker"):
        path = f"{name}.scenario"
        for fmt, tail in (("text", []), ("json", ["--json"])):
            cases[f"validate-{name}-{fmt}"] = ["validate", path] + tail
            for variant, flags in SWF_FLAGS.items():
                cases[f"rank-{name}-{variant}-{fmt}"] = ["rank", path] + flags + tail
                cases[f"dominant-{name}-{variant}-{fmt}"] = (
                    ["dominant", path] + flags + tail
                )
            for variant, flags in COMPARE_FLAGS.items():
                cases[f"compare-{name}-{variant}-{fmt}"] = (
                    ["compare", path] + flags + tail
                )
            for variant, flags in WITNESS_FLAGS.items():
                cases[f"witness-{name}-{variant}-{fmt}"] = (
                    ["witness", path] + flags + ["--out", OUT] + tail
                )
    for fmt, tail in (("text", []), ("json", ["--json"])):
        for variant, flags in SWF_FLAGS.items():
            cases[f"dominant-ties8-{variant}-{fmt}"] = (
                ["dominant", "ties8.scenario"] + flags + tail
            )
        cases[f"rank-swf-line-{fmt}"] = ["rank", "swf.scenario"] + tail
        cases[f"dominant-swf-line-{fmt}"] = ["dominant", "swf.scenario"] + tail
        cases[f"audit-seed0-{fmt}"] = ["audit", "--trials", "3"] + tail
        cases[f"audit-seed7-{fmt}"] = ["audit", "--seed", "7", "--trials", "2"] + tail
        cases[f"audit-zero-{fmt}"] = ["audit", "--trials", "0"] + tail
    cases.update(ERRORS)
    return cases


CASES = _cases()


# Eight theories over four actions, for ``dominant`` at a size where every
# rule finds dozens of dominant subsets: t1 and t6 are identical, t4 ties
# every action, credence denominators are pairwise coprime, and the full
# ranking ties two actions under maximin and under the median.
TIES8 = """scenario v1
actions a b c d
theory t1 credence 1/5
  eval a 3
  eval b 1
  eval c 1
  eval d 0
theory t2 credence 1/7
  eval a 1
  eval b 3
  eval c 2
  eval d 2
theory t3 credence 1/9
  eval a 0
  eval b 0
  eval c 4
  eval d 1/2
theory t4 credence 1/11
  eval a 2
  eval b 2
  eval c 2
  eval d 2
theory t5 credence 1/13
  eval a -1
  eval b 5/3
  eval c 0
  eval d 3
theory t6 credence 1/8
  eval a 3
  eval b 1
  eval c 1
  eval d 0
theory t7 credence 1/16
  eval a 1/2
  eval b -2
  eval c 1
  eval d 7
theory t8 credence 137441/720720
  eval a 1
  eval b 1
  eval c 3
  eval d -1
"""


def _prepare(workdir: Path) -> None:
    for name in ("frobo", "tiebreaker"):
        shutil.copy(FIXTURES / f"{name}.scenario", workdir)
    frobo = (FIXTURES / "frobo.scenario").read_text()
    (workdir / "swf.scenario").write_text(frobo + "swf kthm k 1/10 trim renormalized\n")
    (workdir / "ties8.scenario").write_text(TIES8)
    (workdir / "bad.scenario").write_text(
        "scenario v1\nactions a\ntheory t credence 1e0\n  eval a 1\n"
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_demo(path: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return {"stdout": _sha(out.getvalue().encode("utf-8"))}


def _run(argv: list[str]) -> dict:
    """Run one CLI case in the current directory and digest what it produced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = Path(OUT)
    out_sha = _sha(written.read_bytes()) if written.exists() else None
    written.unlink(missing_ok=True)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode("utf-8")),
        "stderr": _sha(err.getvalue().encode("utf-8")),
        "out": out_sha,
    }


def _record() -> dict:
    table = {f"demo-{path.stem}": _run_demo(path) for path in DEMOS}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        _prepare(Path(scratch))
        os.chdir(scratch)
        try:
            table.update((case, _run(argv)) for case, argv in CASES.items())
        finally:
            os.chdir(cwd)
    return table


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text())


def test_table_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted([*CASES, *(f"demo-{p.stem}" for p in DEMOS)])


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_matches_the_recorded_table(path, golden):
    assert _run_demo(path) == golden[f"demo-{path.stem}"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_the_recorded_table(case, golden, tmp_path, monkeypatch):
    _prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(CASES[case]) == golden[case]


if __name__ == "__main__":
    table = _record()
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases in {TABLE}", file=sys.stderr)
