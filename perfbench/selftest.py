"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload in ``run.WORKLOADS``, at one second per run (a run
still completes one whole cycle, and a traced run its fixed prefix), it
checks that

1. ``--trace 0`` reports every end-to-end metric of BENCHMARK.json with
   its unit, ``--trace 1`` every per-layer metric, and both pass the
   output gate with no failed operation;
2. a corrupted expected digest makes the run fail that operation and
   report ``"correct": false`` instead of passing.

It also checks that in a directory holding only BENCHMARK.json and the
benchmark's own files, the benchmark exits nonzero without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SEED = 3


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", "1", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().split("\n")[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise AssertionError(f"{label}: metric names differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        if got[name]["unit"] != unit or not isinstance(got[name]["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is {got[name]}, want unit {unit}")


def check_workload(name: str, declared: dict) -> None:
    for trace, metrics in ((0, declared["end_to_end"]), (1, declared["per_layer"])):
        result = result_line(bench(ROOT, "--workload", name, "--trace", str(trace)))
        label = f"{name} --trace {trace}"
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            raise AssertionError(f"{label}: {result['attempted']} attempted, {result['failed']} failed")
        check_metrics(result, metrics, label)
        if trace == 0 and not all(m["value"] > 0 for m in result["metrics"].values()):
            raise AssertionError(f"{label}: an end-to-end metric reads 0")

    record = json.loads((WORK / "results" / f"{name}-seed{SEED}-trace0.json").read_text())
    first_key = record["op_seconds"][0][0]
    table = json.loads((HERE / "digests.json").read_text())
    expected = table["digests"][first_key]
    table["digests"][first_key] = {k: "0" * 64 for k in expected}
    corrupt = WORK / "corrupt-digests.json"
    corrupt.write_text(json.dumps(table))
    done = bench(ROOT, "--workload", name, "--trace", "0", "--digests", str(corrupt))
    result = result_line(done)
    if result["correct"] or result["failed"] < 1 or f"FAILED {first_key}" not in done.stdout:
        raise AssertionError(f"{name}: corrupted digest of {first_key} was not reported")
    print(f"ok {name}", flush=True)


def check_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(bare, "--workload", "dominance", "--trace", "0")
    shutil.rmtree(bare)
    last = (done.stdout.strip().split("\n") or [""])[-1]
    if done.returncode == 0 or last.startswith("{"):
        raise AssertionError("benchmark without the program did not fail")
    print("ok without program", flush=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    check_without_program()
    for name in WORKLOADS:
        check_workload(name, declared)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
