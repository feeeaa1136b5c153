"""Command-line interface.

Subcommands: validate, rank, compare, dominant, witness, audit.  Exit
codes: 0 on success, 1 on domain or input errors (bad scenario files,
failed constructions, oversized enumerations, results too large to
render), 2 on usage errors.  Either kind of error leaves stdout empty.

Human-readable output always shows exact fractions; decimal forms are
6-significant-digit approximations and are marked with "~=".  With
``--json`` the output is a single JSON object with sorted keys in which
every rational appears as a ``{"num": ..., "den": ...}`` integer pair,
so byte-identical inputs (and, for ``audit``, equal seeds) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import enum
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .audit import run_audit
from .core import MoralAggError, Ranking, to_rational
from .fanaticism import (
    DominanceVerdict,
    WitnessReport,
    enumerate_dominant_subsets,
    witness_kthm,
    witness_maximin,
    witness_mec,
)
from .functionals import SwfKind, SwfSpec, TrimMode, aggregate
from .scenario import ScenarioDocument, parse_scenario, serialize_scenario

JSON_SCHEMA = "moralagg.report/1"


class _UsageError(Exception):
    pass


def _rational_arg(text: str) -> Fraction:
    try:
        return to_rational(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def approx(value: Fraction) -> str:
    """6-significant-digit decimal rendering of an exact rational."""
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(d)


def _fmt(value: Fraction) -> str:
    return f"{value} (~= {approx(value)})"


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Ranking):
        return [sorted(group) for group in value.groups]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _emit_json(payload: dict) -> None:
    payload = dict(payload)
    payload["schema"] = JSON_SCHEMA
    print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))


def _swf_json(spec: SwfSpec):
    return {"kind": spec.kind, "k": spec.k, "trim_mode": spec.trim_mode}


def _rankings_json(verdict: DominanceVerdict):
    return {
        "full_ranking": verdict.full_ranking,
        "dominant_ranking": verdict.dominant_ranking,
        "yielding_ranking": verdict.yielding_ranking,
    }


def _load(path: str) -> ScenarioDocument:
    return parse_scenario(Path(path).read_bytes())


def _spec_from_flags(args, document: ScenarioDocument) -> SwfSpec:
    if args.swf is None:
        if document.default_swf is None:
            raise _UsageError(
                "no functional selected: pass --swf or add a swf line to the scenario"
            )
        if args.k is not None or args.trim_mode is not None:
            raise _UsageError("--k and --trim-mode only apply with --swf kthm")
        return document.default_swf
    kind = SwfKind(args.swf)
    if kind is SwfKind.KTHM:
        if args.k is None:
            raise _UsageError("--swf kthm needs --k")
        return SwfSpec.kthm(args.k, args.trim_mode or TrimMode.LITERAL)
    if args.k is not None:
        raise _UsageError(f"--k only applies to --swf kthm, not {args.swf}")
    if args.trim_mode is not None:
        raise _UsageError(f"--trim-mode only applies to --swf kthm, not {args.swf}")
    return SwfSpec(kind)


def _cmd_validate(args) -> int:
    document = _load(args.scenario)
    framework = document.framework
    if args.json:
        _emit_json(
            {
                "command": "validate",
                "ok": True,
                "actions": list(document.actions),
                "theories": [
                    {
                        "id": t.id,
                        "credence": framework.credences[t.id],
                        "evaluations": t.evaluations,
                    }
                    for t in framework.theories
                ],
                "default_swf": (
                    _swf_json(document.default_swf)
                    if document.default_swf
                    else None
                ),
            }
        )
        return 0
    print(
        f"ok: {len(framework.theories)} theories over {len(document.actions)} actions"
    )
    print("actions: " + " ".join(document.actions))
    for theory in framework.theories:
        print(f"theory {theory.id} credence {_fmt(framework.credences[theory.id])}")
    if document.default_swf is not None:
        print(f"default swf: {document.default_swf.label()}")
    return 0


def _cmd_rank(args) -> int:
    document = _load(args.scenario)
    spec = _spec_from_flags(args, document)
    result = aggregate(spec, document.framework, document.actions)
    if args.json:
        _emit_json(
            {
                "command": "rank",
                "swf": _swf_json(spec),
                "scores": result.scores,
                "ranking": result.ranking,
            }
        )
        return 0
    print(f"swf: {spec.label()}")
    print("scores:")
    width = max(len(a) for a in document.actions)
    for action in document.actions:
        print(f"  {action:<{width}}  {_fmt(result.scores[action])}")
    print(f"ranking (worst to best): {result.ranking}")
    return 0


def _compare_specs(args) -> list[SwfSpec]:
    mode = args.trim_mode or TrimMode.LITERAL
    kthms = [SwfSpec.kthm(k, mode) for k in sorted(set(args.k or [Fraction(1, 10)]))]
    return [SwfSpec.mec(), SwfSpec.maximin(), *kthms, SwfSpec.hm()]


def _cmd_compare(args) -> int:
    document = _load(args.scenario)
    specs = _compare_specs(args)
    results = [
        aggregate(spec, document.framework, document.actions) for spec in specs
    ]
    if args.json:
        _emit_json(
            {
                "command": "compare",
                "columns": [spec.label() for spec in specs],
                "swfs": [_swf_json(spec) for spec in specs],
                "scores": {
                    spec.label(): result.scores
                    for spec, result in zip(specs, results)
                },
                "rankings": {
                    spec.label(): result.ranking
                    for spec, result in zip(specs, results)
                },
                "best_actions": {
                    spec.label(): result.ranking.maximal_group()
                    for spec, result in zip(specs, results)
                },
            }
        )
        return 0
    labels = [spec.label() for spec in specs]
    rows = []
    for action in document.actions:
        rows.append(
            [action] + [_fmt(result.scores[action]) for result in results]
        )
    header = ["action"] + labels
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    print("rankings (worst to best):")
    for label, result in zip(labels, results):
        print(f"  {label}: {result.ranking}")
    best = {label: result.ranking.maximal_group()
            for label, result in zip(labels, results)}
    distinct = {frozenset(v) for v in best.values()}
    if len(distinct) == 1:
        only = sorted(next(iter(distinct)))
        print("all functionals agree on the best actions: " + " ".join(only))
    else:
        print("functionals disagree on the best actions:")
        for label in labels:
            print(f"  {label}: " + " ".join(sorted(best[label])))
    return 0


def _cmd_dominant(args) -> int:
    document = _load(args.scenario)
    spec = _spec_from_flags(args, document)
    found = enumerate_dominant_subsets(
        spec, document.framework, document.actions, args.max_theories
    )
    if args.json:
        _emit_json(
            {
                "command": "dominant",
                "swf": _swf_json(spec),
                "dominant_subsets": [
                    {
                        "theory_ids": subset.theory_ids,
                        "total_credence": subset.total_credence,
                        **_rankings_json(subset.verdict),
                    }
                    for subset in found
                ],
            }
        )
        return 0
    print(f"swf: {spec.label()}")
    if not found:
        print("no dominant subsets")
        return 0
    print(f"dominant subsets ({len(found)}):")
    for subset in found:
        ids = ", ".join(sorted(subset.theory_ids))
        print(f"  {{{ids}}}  credence {_fmt(subset.total_credence)}")
    return 0


def _witness_report(args, document: ScenarioDocument) -> WitnessReport:
    kthm = args.swf == "kthm"
    if kthm and (args.k is None or args.kprime is None):
        raise _UsageError("--swf kthm needs --k and --kprime")
    if not kthm and args.credence is None:
        raise _UsageError(f"--swf {args.swf} needs --credence")
    if not kthm and (args.k is not None or args.kprime is not None):
        raise _UsageError("--k/--kprime only apply to --swf kthm")
    if args.swf == "maximin" and args.target is not None:
        raise _UsageError("--target does not apply to --swf maximin")
    framework, actions = document.framework, document.actions
    if kthm:
        return witness_kthm(framework, actions, args.k, args.kprime, target=args.target)
    if args.swf == "maximin":
        return witness_maximin(framework, actions, args.credence)
    return witness_mec(framework, actions, args.credence, target=args.target)


def _cmd_witness(args) -> int:
    document = _load(args.scenario)
    report = _witness_report(args, document)
    spec = report.spec
    actions = document.actions
    injected_id = next(iter(report.injected_theories))
    injected = report.extended_framework.theory(injected_id)
    out_path = None
    if args.out:
        out_doc = ScenarioDocument(report.extended_framework, actions, spec)
        out_path = Path(args.out)
        out_path.write_bytes(serialize_scenario(out_doc))
    if args.json:
        _emit_json(
            {
                "command": "witness",
                "swf": _swf_json(spec),
                "injected_theory": {
                    "id": injected.id,
                    "credence": report.total_credence,
                    "evaluations": injected.evaluations,
                },
                "extended_credences": report.extended_framework.credences,
                "construction": dict(report.construction),
                "verdict": {
                    "is_dominant": report.verdict.is_dominant,
                    **_rankings_json(report.verdict),
                },
                "out": str(out_path) if out_path else None,
            }
        )
        return 0
    print(f"witness under {spec.label()} at credence {report.total_credence}")
    print(f"injected theory {injected.id}:")
    width = max(len(a) for a in actions)
    for action in actions:
        print(f"  {action:<{width}}  {_fmt(injected.evaluations[action])}")
    print("extended credences:")
    for theory in report.extended_framework.theories:
        c = report.extended_framework.credences[theory.id]
        print(f"  {theory.id}: {_fmt(c)}")
    parts = []
    for key, value in report.construction.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    print("construction: " + " ".join(parts))
    ids = ", ".join(sorted(report.injected_theories))
    print(
        f"verified: {{{ids}}} is a dominant subset "
        f"(credence {_fmt(report.total_credence)})"
    )
    print("rankings (worst to best):")
    print(f"  full:     {report.verdict.full_ranking}")
    print(f"  dominant: {report.verdict.dominant_ranking}")
    print(f"  yielding: {report.verdict.yielding_ranking}")
    if out_path:
        print(f"wrote {out_path}")
    return 0


def _cmd_audit(args) -> int:
    if args.trials < 0:
        raise _UsageError("--trials must be >= 0")
    report = run_audit(seed=args.seed, trials=args.trials)
    if args.json:
        _emit_json(
            {
                "command": "audit",
                "seed": report.seed,
                "trials": report.trials,
                "suites": [
                    {
                        "name": s.name,
                        "level": s.level,
                        "passed": s.passed,
                        "total": s.total,
                        "ok": s.ok,
                    }
                    for s in report.suites
                ],
                "ok": report.ok,
            }
        )
        return 0 if report.ok else 1
    print(f"audit seed={report.seed} trials={report.trials}")
    name_w = max(len(s.name) for s in report.suites)
    level_w = max(len(s.level) for s in report.suites)
    for s in report.suites:
        status = "ok" if s.ok else "FAIL"
        print(
            f"  {s.name:<{name_w}}  {s.level:<{level_w}}  "
            f"{s.passed}/{s.total}  {status}"
        )
    if report.trials == 0:
        print("note: 0 trials, all suites pass vacuously")
    print("result: " + ("PASS" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def _add_swf_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--swf",
        choices=["mec", "maximin", "kthm", "hm"],
        help="functional to run (defaults to the scenario's swf line)",
    )
    parser.add_argument(
        "--k",
        type=_rational_arg,
        help="trim level for --swf kthm, a rational in [0, 1/2)",
    )
    parser.add_argument(
        "--trim-mode",
        choices=["literal", "renormalized"],
        help="kthm only: keep trimmed mass zeroed (literal, default) "
        "or divide by the surviving mass",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moralagg",
        description="Aggregate ethical-theory evaluations under moral "
        "uncertainty, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.add_argument("scenario")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("rank", help="rank the actions under one functional")
    p.add_argument("scenario")
    _add_swf_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "compare", help="score a scenario under all four functionals"
    )
    p.add_argument("scenario")
    p.add_argument(
        "--k",
        type=_rational_arg,
        action="append",
        help="trim level for the kthm column; repeatable (default 1/10)",
    )
    p.add_argument(
        "--trim-mode",
        choices=["literal", "renormalized"],
        help="trim mode for the kthm columns (default literal)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "dominant", help="enumerate every dominant subset of theories"
    )
    p.add_argument("scenario")
    _add_swf_flags(p)
    p.add_argument(
        "--max-theories",
        type=int,
        default=16,
        help="refuse frameworks larger than this (enumeration is exponential)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dominant)

    p = sub.add_parser(
        "witness",
        help="construct and verify a capturing extension for a scenario",
    )
    p.add_argument("scenario")
    p.add_argument(
        "--swf", choices=["mec", "maximin", "kthm"], required=True,
        help="functional to capture",
    )
    p.add_argument(
        "--credence",
        type=_rational_arg,
        help="injected credence for mec/maximin, a rational in (0, 1/2); "
        "ignored for kthm, whose injected credence is --kprime",
    )
    p.add_argument(
        "--k",
        type=_rational_arg,
        help="kthm only: trim level the capture must beat",
    )
    p.add_argument(
        "--kprime",
        type=_rational_arg,
        help="kthm only: injected credence, must exceed --k",
    )
    p.add_argument(
        "--target",
        help="action the injected theory pushes to the top "
        "(mec/kthm; default: a worst-ranked action)",
    )
    p.add_argument(
        "--out", help="write the extended framework to this scenario file"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser(
        "audit", help="run the randomized capture/resistance self-audit"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trials", type=int, default=200, help="draws per suite (default 200)"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; its stdout is written only if it raised no error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MoralAggError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Python refuses to render an int past sys.get_int_max_str_digits();
        # the limit stays, since the conversion is quadratic in the length.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has more than {limit} digits", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
