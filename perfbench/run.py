"""Benchmark for moralagg: three seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload dominance --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 1

Workloads (see perfbench/README.md for why each exists):

- ``dominance``: in-process ``enumerate_dominant_subsets`` on 6-10-theory
  frameworks, each under all five spec variants;
- ``cli_wide``: ``moralagg`` subprocesses on 1000-theory scenario files;
- ``audit``: ``moralagg audit --json`` over consecutive seeds.

Load is a closed loop with one caller: each operation starts after the
previous one ends.  Every operation's output is checked (exit code, no
traceback, SHA-256 of stdout and of any ``--out`` file against
``digests.json``, ``"ok": true`` for audits; for ``dominance`` the
recorded rendering plus a brute-force oracle).  Inputs come from fixed
pools whose outputs were recorded once; ``--seed`` picks which pool
members a run uses and in what order.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run takes a fixed prefix of the seeded schedule
(``trace_ops`` operations, whatever ``--seconds`` and the machine's
speed), times it untraced, replays it with every layer wrapped, and the
last line carries the per-layer metrics: totals over that prefix.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_REL = ".perfbench-work"
WORK = ROOT / WORK_REL
OUT_REL = f"{WORK_REL}/out.scenario"
DIGESTS = HERE / "digests.json"

VARIANTS = ("mec", "maximin", "kthm_literal", "kthm_renormalized", "hm")
OP_TIMEOUT_S = 120


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Op:
    """One operation: its digest key and, for the CLI, its arguments."""

    key: str
    argv: tuple[str, ...] = ()
    out: str | None = None
    check_ok: bool = False


@dataclass
class Outcome:
    op: Op
    seconds: float
    digests: dict
    problem: str = ""
    rss_mb: float = 0.0
    spans: dict | None = field(default=None, repr=False)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile) by nearest rank; with ten samples or
    fewer there is no such percentile and the maximum is returned as the
    100th.
    """
    ordered = sorted(times)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def check(outcome: Outcome, expected: dict | None) -> Outcome:
    if outcome.problem:
        return outcome
    if expected is None:
        outcome.problem = "no recorded digest"
    elif outcome.digests != expected:
        outcome.problem = f"digest mismatch: got {outcome.digests}, want {expected}"
    return outcome


# --------------------------------------------------------------------------
# dominance: in-process enumeration


class Dominance:
    """``enumerate_dominant_subsets`` under all five spec variants.

    The seed picks ``picks`` of the ``pool`` frameworks of each
    (theories, actions) shape, mostly 8-10 theories.  A cycle runs every
    picked framework under every variant, so whole cycles always hold the
    same work whatever the machine's speed.  A cycle is ``picks`` rounds of
    one framework per shape; the 6-theory shape opens each round so that
    even the first round covers every variant on a framework the oracle
    can check quickly.
    """

    name = "dominance"
    in_process = True
    setup_every = 6
    slots = ((6, 5), (9, 4), (8, 3), (10, 3), (7, 4), (8, 5))
    pool = 6
    picks = 3
    trace_ops = len(slots) * len(VARIANTS)

    def __init__(self) -> None:
        import moralagg

        self.api = moralagg
        k = Fraction(1, 10)
        renormalized = moralagg.TrimMode.RENORMALIZED
        self.specs = {
            "mec": moralagg.SwfSpec.mec(),
            "maximin": moralagg.SwfSpec.maximin(),
            "kthm_literal": moralagg.SwfSpec.kthm(k),
            "kthm_renormalized": moralagg.SwfSpec.kthm(k, renormalized),
            "hm": moralagg.SwfSpec.hm(),
        }
        self.data: dict[str, gen.FrameworkData] = {}
        self.frameworks: dict = {}

    def picked(self, seed: int) -> dict[tuple[int, int], list[int]]:
        rng = random.Random(seed)
        return {slot: rng.sample(range(self.pool), self.picks) for slot in self.slots}

    def _load(self, shape: str, idx: str):
        """The framework and action set of one pool member, built once."""
        key = f"{shape}/{idx}"
        if key not in self.frameworks:
            nt, na = (int(n) for n in shape.split("x"))
            data = gen.framework_data(gen.pool_rng(f"dominance-{shape}", int(idx)), nt, na)
            api = self.api
            theories = [api.Theory(tid, values) for tid, _, values in data.theories]
            credences = {tid: c for tid, c, _ in data.theories}
            self.data[key] = data
            self.frameworks[key] = (
                api.EthicalFramework(theories, credences),
                api.ActionSet(data.actions),
            )
        return self.frameworks[key]

    def setup(self, seed: int) -> None:
        self.data.clear()
        self.frameworks.clear()
        for (nt, na), indices in self.picked(seed).items():
            for idx in indices:
                self._load(f"{nt}x{na}", str(idx))
        framework, actions = self._load("8x3", str(self.picked(seed)[(8, 3)][0]))
        self.api.enumerate_dominant_subsets(self.specs["mec"], framework, actions)

    def schedule(self, seed: int):
        picked = self.picked(seed)
        cycle = [
            Op(f"dominance/{nt}x{na}/{picked[nt, na][round_]}/{variant}")
            for round_ in range(self.picks)
            for nt, na in self.slots
            for variant in VARIANTS
        ]
        while True:
            yield cycle

    def all_ops(self):
        for nt, na in self.slots:
            for idx in range(self.pool):
                for variant in VARIANTS:
                    yield Op(f"dominance/{nt}x{na}/{idx}/{variant}")

    def run(self, op: Op, tracer: Tracer | None, op_id: int) -> Outcome:
        """Time one enumeration; with a tracer, spans carry ``op_id``."""
        _, shape, idx, variant = op.key.split("/")
        framework, actions = self._load(shape, idx)
        spec = self.specs[variant]
        enumerate_ = self.api.enumerate_dominant_subsets
        if tracer is not None:
            tracer.op = op_id
        start = perf_counter()
        found = enumerate_(spec, framework, actions)
        seconds = perf_counter() - start
        text = render_dominance(found)
        return Outcome(op, seconds, {"result": sha256(text.encode())})

    def check_oracle(self, outcomes: list[Outcome]) -> None:
        """Check, per variant, the smallest framework run against the oracle."""
        smallest: dict[str, Outcome] = {}
        for outcome in outcomes:
            _, shape, _, variant = outcome.op.key.split("/")
            best = smallest.get(variant)
            if best is None or _theories(shape) < _theories(best.op.key.split("/")[1]):
                smallest[variant] = outcome
        for variant, outcome in smallest.items():
            _, shape, idx, _ = outcome.op.key.split("/")
            text = oracle.dominant_subsets_text(variant, self.data[f"{shape}/{idx}"])
            if outcome.digests != {"result": sha256(text.encode())}:
                outcome.problem = outcome.problem or "disagrees with the brute-force oracle"

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def sizes(self, ops: list[Op]) -> dict:
        shapes = [op.key.split("/")[1].split("x") for op in ops]
        return {
            "theories": sorted({int(nt) for nt, _ in shapes}),
            "actions": sorted({int(na) for _, na in shapes}),
            "bytes": 0,
            "ops": len(ops),
        }


def _theories(shape: str) -> int:
    return int(shape.split("x")[0])


def render_dominance(found) -> str:
    """Canonical text of an enumeration result, one subset per line."""
    lines = []
    for subset in found:
        verdict = subset.verdict
        lines.append(
            "|".join(
                (
                    ",".join(sorted(subset.theory_ids)),
                    str(subset.total_credence),
                    oracle.render_groups(verdict.full_ranking.groups),
                    oracle.render_groups(verdict.dominant_ranking.groups),
                    oracle.render_groups(verdict.yielding_ranking.groups),
                )
            )
        )
    return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------------------
# CLI workloads: one moralagg subprocess per operation


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Pin the output encoding so recorded digests do not depend on locale.
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def spawn(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; returns (seconds, exit code, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


class CliWorkload:
    """Base for the workloads that spawn the ``moralagg`` command."""

    name = ""
    in_process = False

    def __init__(self) -> None:
        self.env = child_env()
        self.stdout = WORK / f"{self.name}.stdout"
        self.stderr = WORK / f"{self.name}.stderr"

    # Subclasses define files(seed) and pool_files(), both lists of
    # (label, path, text or None for a file that already exists), and
    # commands(label, path), a list of (name, argv, out file or None).

    def setup(self, seed: int) -> None:
        WORK.mkdir(exist_ok=True)
        for _, path, text in self.files(seed):
            if text is not None:
                (ROOT / path).write_text(text, encoding="utf-8")
        argv = [sys.executable, "-m", "moralagg", *self.warmup_argv(seed)]
        spawn(argv, self.env, self.stdout, self.stderr)

    def warmup_argv(self, seed: int) -> list[str]:
        _, path, _ = self.files(seed)[0]
        return ["validate", path]

    def ops_for(self, label: str, path: str) -> list[Op]:
        return [
            Op(f"{self.name}/{label}/{name}", tuple(argv), out)
            for name, argv, out in self.commands(label, path)
        ]

    def schedule(self, seed: int):
        files = self.files(seed)
        while True:
            for label, path, _ in files:
                yield self.ops_for(label, path)

    def all_ops(self):
        for label, path, text in self.pool_files():
            if text is not None:
                (ROOT / path).write_text(text, encoding="utf-8")
            yield from self.ops_for(label, path)

    def run(self, op: Op, tracer: Tracer | None, op_id: int) -> Outcome:
        if tracer is None:
            argv = [sys.executable, "-m", "moralagg", *op.argv]
        else:
            spans = WORK / f"{self.name}.spans.json"
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans), str(op_id), "--", *op.argv]
        out_path = ROOT / op.out if op.out else None
        if out_path is not None and out_path.exists():
            out_path.unlink()
        seconds, code, rss = spawn(argv, self.env, self.stdout, self.stderr)
        stdout = self.stdout.read_bytes()
        stderr = self.stderr.read_bytes()
        digests = {"stdout": sha256(stdout)}
        problem = ""
        if out_path is not None:
            digests["out"] = sha256(out_path.read_bytes()) if out_path.exists() else None
        if code != 0:
            problem = f"exit code {code}: {stderr[-300:].decode(errors='replace')}"
        elif b"Traceback" in stderr:
            problem = "traceback on stderr"
        elif op.check_ok and not _reports_ok(stdout):
            problem = 'audit did not report "ok": true'
        outcome = Outcome(op, seconds, digests, problem, rss)
        if tracer is not None and spans.exists():
            outcome.spans = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        return outcome

    def check_oracle(self, outcomes: list[Outcome]) -> None:
        pass

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        return max(o.rss_mb for o in outcomes)

    def sizes(self, ops: list[Op]) -> dict:
        shapes = {}
        for label, path, _ in self.files(self.seed):
            text = (ROOT / path).read_text(encoding="utf-8")
            first = text.split("\n", 2)[1].split()
            shapes[label] = (text.count("\ntheory "), len(first) - 1, len(text.encode()))
        return {
            "theories": sorted({t for t, _, _ in shapes.values()}),
            "actions": sorted({a for _, a, _ in shapes.values()}),
            "bytes": sum(b for _, _, b in shapes.values()),
            "ops": len(ops),
        }


def _reports_ok(stdout: bytes) -> bool:
    try:
        return json.loads(stdout).get("ok") is True
    except (ValueError, AttributeError):
        return False


class CliWide(CliWorkload):
    """Parse, wide per-action sorts, witnesses and JSON on 1000-theory files."""

    name = "cli_wide"
    setup_every = 11
    pool = 8
    picks = 3
    trace_ops = 33  # one cycle of eleven commands on each picked file

    def _file(self, idx: int):
        data = gen.framework_data(gen.pool_rng("cli_wide", idx), 1000, 6)
        return str(idx), f"{WORK_REL}/cli_wide-{idx}.scenario", gen.scenario_text(data)

    def files(self, seed: int):
        self.seed = seed
        return [self._file(i) for i in random.Random(seed).sample(range(self.pool), self.picks)]

    def pool_files(self):
        return [self._file(i) for i in range(self.pool)]

    def commands(self, label: str, path: str):
        # Eleven commands: with an odd count the median falls inside one
        # command's cluster of times instead of between two of them.
        kthm = ["--swf", "kthm", "--k", "1/10"]
        return [
            ("validate", ["validate", "--json", path], None),
            ("rank-mec", ["rank", "--json", "--swf", "mec", path], None),
            ("rank-mec-text", ["rank", "--swf", "mec", path], None),
            ("rank-maximin", ["rank", "--json", "--swf", "maximin", path], None),
            ("rank-kthm-literal", ["rank", "--json", *kthm, path], None),
            (
                "rank-kthm-renormalized",
                ["rank", "--json", *kthm, "--trim-mode", "renormalized", path],
                None,
            ),
            ("rank-hm", ["rank", "--json", "--swf", "hm", path], None),
            ("compare", ["compare", "--json", path], None),
            (
                "witness-mec-out",
                ["witness", "--swf", "mec", "--credence", "1/100", "--out", OUT_REL, path],
                OUT_REL,
            ),
            (
                "witness-maximin",
                ["witness", "--json", "--swf", "maximin", "--credence", "1/10", path],
                None,
            ),
            (
                "witness-kthm",
                ["witness", "--json", *kthm, "--kprime", "1/5", path],
                None,
            ),
        ]


class Audit(CliWorkload):
    """``audit --json`` over consecutive seeds: many fresh tiny frameworks."""

    name = "audit"
    setup_every = 4
    pool = 64
    trials = 25
    trace_ops = 32

    def files(self, seed: int):
        self.seed = seed
        return []

    def pool_files(self):
        return []

    def warmup_argv(self, seed: int) -> list[str]:
        return ["audit", "--json", "--trials", "1", "--seed", "0"]

    def _op(self, audit_seed: int) -> Op:
        argv = ("audit", "--json", "--trials", str(self.trials), "--seed", str(audit_seed))
        return Op(f"audit/{audit_seed}", argv, None, check_ok=True)

    def schedule(self, seed: int):
        start = random.Random(seed).randrange(self.pool)
        i = 0
        while True:
            yield [self._op((start + i) % self.pool)]
            i += 1

    def all_ops(self):
        return (self._op(s) for s in range(self.pool))

    def sizes(self, ops: list[Op]) -> dict:
        # The audit draws its own frameworks with moralagg.sampling's defaults.
        return {
            "theories": [2, 5],
            "actions": [2, 4],
            "bytes": 0,
            "trials_per_op": self.trials,
            "ops": len(ops),
        }


WORKLOADS = {w.name: w for w in (Dominance, CliWide, Audit)}


# --------------------------------------------------------------------------
# measurement


def closed_loop(workload, cycles, seconds, digests, tracer=None, first_id=0, set_up=None):
    """Run whole cycles of ops back to back for about ``seconds``.

    A cycle is the workload's unit of fixed composition, so every run
    weighs the kinds of operation alike wherever the deadline falls.  A
    new cycle starts only while it is expected to end nearer the deadline
    than stopping would, so a run lasts ``seconds`` on average.  With
    ``seconds=None`` every cycle runs.

    ``set_up``, if given, runs after every ``workload.setup_every`` ops,
    so that the set-up times sample the same stretch of machine speed as
    the ops do.  Its time is left out of the returned wall time.
    """
    outcomes = []
    start = perf_counter()
    paused = 0.0
    done = 0
    for cycle in cycles:
        elapsed = perf_counter() - start - paused
        if seconds is not None and done and elapsed + elapsed / done / 2 >= seconds:
            break
        for op in cycle:
            outcome = workload.run(op, tracer, first_id + len(outcomes))
            outcomes.append(check(outcome, digests.get(op.key)))
            if set_up is not None and len(outcomes) % workload.setup_every == 0:
                paused += set_up()
        done += 1
    return outcomes, perf_counter() - start - paused


def cli_startup_metrics() -> dict:
    """Bare interpreter start and ``import moralagg.cli`` on top of it."""
    env = child_env()
    out, err = WORK / "startup.stdout", WORK / "startup.stderr"

    def median_of(code):
        return statistics.median(
            spawn([sys.executable, "-c", code], env, out, err)[0] for _ in range(7)
        )

    bare = median_of("pass")
    imported = median_of("import moralagg.cli")
    return {"cli.interpreter_s": (bare, "s"), "cli.import_s": (imported - bare, "s")}


def source_digest() -> str:
    files = sorted((SRC / "moralagg").glob("*.py"))
    return sha256(b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files))


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def measure(workload_name: str, seed: int, seconds: float, trace: bool, digests: dict):
    workload = WORKLOADS[workload_name]()
    WORK.mkdir(exist_ok=True)
    setups = []

    def set_up() -> float:
        start = perf_counter()
        workload.setup(seed)
        setups.append(perf_counter() - start)
        return setups[-1]

    set_up()
    if trace:
        # The same operations on every run of a seed, so the per-layer
        # totals change only when the work per operation does.
        ops = itertools.chain.from_iterable(workload.schedule(seed))
        prefix = list(itertools.islice(ops, workload.trace_ops))
        outcomes, wall = closed_loop(workload, [prefix], None, digests)
    else:
        outcomes, wall = closed_loop(
            workload, workload.schedule(seed), seconds, digests, set_up=set_up
        )
    all_outcomes = list(outcomes)
    metrics: dict[str, tuple[float, str]] = {}
    times = [o.seconds for o in outcomes]
    tail_value, tail_pct = tail(times)
    completed = sum(1 for o in outcomes if not o.problem)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (completed / wall, "1/s"),
        "peak_rss_mb": (workload.peak_rss_mb(outcomes), "MB"),
    }
    spans_file = None
    if trace:
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        try:
            traced, traced_wall = closed_loop(
                workload, [prefix], None, digests, tracer, len(outcomes)
            )
        finally:
            tracer.uninstall()
        if workload.in_process:
            dumps = [tracer.dump()]
        else:
            dumps = [o.spans for o in traced if o.spans is not None]
        all_outcomes += traced
        metrics.update(layer_metrics(dumps))
        metrics.update(cli_startup_metrics())
        metrics["trace.ops"] = (len(traced), "count")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        metrics["trace.overhead_ratio"] = ((traced_wall - wall) / wall, "ratio")
        spans_file = WORK / f"spans-{workload_name}-seed{seed}.json"
        spans_file.write_text(json.dumps(dumps), encoding="utf-8")
    else:
        metrics.update(end_to_end)

    workload.check_oracle(all_outcomes)
    failed = [o for o in all_outcomes if o.problem]
    record = {
        "schema": "perfbench.record/1",
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "inputs": workload.sizes([o.op for o in outcomes]),
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "setup_runs": len(setups),
        "op_tail_percentile": tail_pct,
        "op_samples": len(times),
        "op_seconds": [[o.op.key, o.seconds] for o in outcomes],
        "attempted": len(all_outcomes),
        "failed": len(failed),
        "failures": [f"{o.op.key}: {o.problem}" for o in failed[:20]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    return record, end_to_end


def report(record: dict, end_to_end: dict) -> None:
    name = record["workload"]
    for key, (value, unit) in end_to_end.items():
        note = ""
        if key == "op_tail_s":
            note = f"  (p{record['op_tail_percentile']:.1f} of {record['op_samples']} ops)"
        print(f"{name} {key} = {value} {unit}{note}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{name} failed_ratio = {failed / attempted} ratio  ({failed} of {attempted})")
    for line in record["failures"]:
        print(f"{name} FAILED {line}")
    if record["trace"]:
        for key, metric in record["metrics"].items():
            print(f"{name} {key} = {metric['value']} {metric['unit']}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(f"{name} record = {path.relative_to(ROOT)}  inputs {json.dumps(record['inputs'])}")


def run_all(args) -> dict:
    """Run every workload in its own process and merge the result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--digests", str(args.digests)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path, default=DIGESTS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "moralagg" / "__init__.py").is_file():
        print(f"error: no moralagg sources under {SRC}", file=sys.stderr)
        return 2
    if not args.digests.is_file():
        print(f"error: no recorded digests at {args.digests}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        digests = json.loads(args.digests.read_text(encoding="utf-8"))["digests"]
        record, end_to_end = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), digests
        )
        report(record, end_to_end)
        result = {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
