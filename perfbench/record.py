"""Record the expected output digest of every operation in every pool.

Run once, from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record.py [WORKLOAD ...]

Each operation runs once, untraced.  Recording stops with an error if any
operation exits nonzero, prints a traceback, reports a failed audit, or,
for ``dominance``, disagrees with the brute-force oracle.
Digests of workloads not named on the command line are kept.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run  # first: it turns off bytecode writing for the benchmark's modules
import oracle


def record(name: str) -> dict:
    workload = run.WORKLOADS[name]()
    run.WORK.mkdir(exist_ok=True)
    workload.setup(0)
    digests = {}
    for i, op in enumerate(workload.all_ops()):
        outcome = workload.run(op, None, i)
        if outcome.problem:
            raise SystemExit(f"{op.key}: {outcome.problem}")
        if name == "dominance":
            _, shape, idx, variant = op.key.split("/")
            text = oracle.dominant_subsets_text(variant, workload.data[f"{shape}/{idx}"])
            if outcome.digests["result"] != run.sha256(text.encode()):
                raise SystemExit(f"{op.key}: disagrees with the brute-force oracle")
        digests[op.key] = outcome.digests
    return digests


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    path = run.DIGESTS
    table = json.loads(path.read_text()) if path.exists() else {"digests": {}}
    for name in names or list(run.WORKLOADS):
        start = perf_counter()
        fresh = record(name)
        table["digests"] = {
            k: v for k, v in table["digests"].items() if not k.startswith(f"{name}/")
        }
        table["digests"].update(fresh)
        print(f"{name}: {len(fresh)} digests in {perf_counter() - start:.1f} s", flush=True)
    table = {
        "schema": "perfbench.digests/1",
        "source_sha256": run.source_digest(),
        "digests": dict(sorted(table["digests"].items())),
    }
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
