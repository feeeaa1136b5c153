"""Spans and counters recorded around moralagg's public functions, from outside.

``Tracer.install`` replaces each traced function by a wrapper at every
place the name is looked up: the defining module, each module that
imported it (``fanaticism.aggregate``, ``cli.aggregate``,
``scenario.validate_framework``, ...) and the package namespace.  No file
of the library changes.  Spans stay in memory as
``[name, start, end, parent, op, tag]`` lists and are written out once,
when the traced run ends.

Only layer entry points get spans, so that a span's self time (its
duration minus the time its child spans cover) is the time spent in that
layer's own code.  Per-action kernels (``wam``, ``trimmed_wam``, ...)
therefore count towards ``functionals.aggregate``, and
``sorted_evaluations`` is counted without a span.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("core", "functionals", "fanaticism", "scenario", "cli", "audit", "sampling")


def _variant(spec) -> str:
    kind = spec.kind.value
    return f"kthm_{spec.trim_mode.value}" if kind == "kthm" else kind


def _max_den_bits(args, result) -> int:
    framework = args[1]
    bits = max(c.denominator.bit_length() for c in framework.credences.values())
    return max(bits, *(s.denominator.bit_length() for s in result.scores.values()))


# (module, function, span name); ``None`` as span name counts calls only.
TRACED = (
    ("core", "validate_framework", "core.validate_framework"),
    ("core", "restrict", "core.restrict"),
    ("core", "extend", "core.extend"),
    ("core", "ranking_from_scores", "core.ranking_from_scores"),
    ("functionals", "aggregate", "functionals.aggregate"),
    ("functionals", "sorted_evaluations", None),
    ("fanaticism", "is_dominant_subset", "fanaticism.is_dominant_subset"),
    ("fanaticism", "enumerate_dominant_subsets", "fanaticism.enumerate_dominant_subsets"),
    ("fanaticism", "witness_mec", "fanaticism.witness"),
    ("fanaticism", "witness_maximin", "fanaticism.witness"),
    ("fanaticism", "witness_kthm", "fanaticism.witness"),
    ("fanaticism", "probe_kthm_non_fanatical", "fanaticism.probe"),
    ("fanaticism", "probe_hm_non_fanatical", "fanaticism.probe"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("scenario", "serialize_scenario", "scenario.serialize_scenario"),
    ("audit", "run_audit", "audit.run_audit"),
    # random_rational and random_credences run inside random_framework and
    # count towards its span; a span per drawn number would swamp the store.
    ("sampling", "random_framework", "sampling"),
    ("sampling", "random_majority_framework", "sampling"),
    ("sampling", "random_adversary", "sampling"),
    ("sampling", "random_target", "sampling"),
)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_den_bits = 0
        self.op = None
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _tag(self, name, args, result):
        if name == "functionals.aggregate":
            self.max_den_bits = max(self.max_den_bits, _max_den_bits(args, result))
            return _variant(args[0])
        if name == "fanaticism.is_dominant_subset":
            return result.is_dominant
        if name == "fanaticism.enumerate_dominant_subsets":
            return len(result)
        if name == "scenario.parse_scenario":
            return len(args[0])
        if name == "audit.run_audit":
            return sum(s.total for s in result.suites)
        return None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        if name is None:
            counts = self.counts
            key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            record[5] = self._tag(name, args, result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span that is not a patched function."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        package = importlib.import_module("moralagg")
        modules = [package] + [importlib.import_module(f"moralagg.{m}") for m in MODULES]
        wrappers = {}
        for module, function, name in TRACED:
            original = getattr(importlib.import_module(f"moralagg.{module}"), function)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "max_den_bits": self.max_den_bits,
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer counts, self times and ratios from one or more span dumps.

    Each dump holds the spans of one process; parent indices refer to
    spans of the same dump.
    """
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    inclusive_s: defaultdict = defaultdict(float)
    counts: Counter = Counter()
    max_bits = 0
    checked = found = aggregates_in_checks = parse_bytes = trials = failed = 0
    n_spans = 0
    for dump in dumps:
        spans = dump["spans"]
        n_spans += len(spans)
        counts.update(dump["counts"])
        max_bits = max(max_bits, dump["max_den_bits"])
        covered = [0.0] * len(spans)
        for name, start, end, parent, _op, _tag in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _op, tag) in enumerate(spans):
            parent_name = spans[parent][0] if parent >= 0 else None
            key = name
            if name == "functionals.aggregate":
                key = f"{name}.{tag}"
                calls[name] += 1
                if parent_name == "fanaticism.is_dominant_subset":
                    aggregates_in_checks += 1
            elif name == "fanaticism.is_dominant_subset":
                if parent_name == "fanaticism.enumerate_dominant_subsets":
                    checked += 1
            elif name == "fanaticism.enumerate_dominant_subsets":
                found += tag or 0
            elif name == "scenario.parse_scenario":
                parse_bytes += tag or 0
            elif name == "audit.run_audit":
                trials += tag or 0
            elif name == "fanaticism.witness" and tag == "ConstructionFailed":
                failed += 1
            calls[key] += 1
            self_s[key] += (end - start) - covered[i]
            inclusive_s[key] += end - start

    def pair(name):
        return {
            f"{name}.calls": (calls[name], "count"),
            f"{name}.self_s": (self_s[name], "s"),
        }

    out: dict[str, tuple[float, str]] = {
        "fanaticism.subsets_checked": (checked, "count"),
        "fanaticism.dominant_found": (found, "count"),
        "fanaticism.hit_ratio": (_ratio(found, checked), "ratio"),
        "fanaticism.aggregate_per_subset": (
            _ratio(aggregates_in_checks, calls["fanaticism.is_dominant_subset"]),
            "ratio",
        ),
    }
    for name in (
        "fanaticism.is_dominant_subset",
        "fanaticism.enumerate_dominant_subsets",
        "fanaticism.witness",
        "fanaticism.probe",
    ):
        out.update(pair(name))
    out["functionals.aggregate.calls"] = (calls["functionals.aggregate"], "count")
    for variant in ("mec", "maximin", "kthm_literal", "kthm_renormalized", "hm"):
        key = f"functionals.aggregate.{variant}"
        out.update(pair(key))
    sorts = counts["functionals.sorted_evaluations"]
    out["functionals.sorted_evaluations.calls"] = (sorts, "count")
    out["functionals.sorts_per_aggregate"] = (
        _ratio(sorts, calls["functionals.aggregate"]),
        "ratio",
    )
    for name in (
        "core.validate_framework",
        "core.restrict",
        "core.extend",
        "core.ranking_from_scores",
    ):
        out.update(pair(name))
    out["core.max_den_bits"] = (max_bits, "bits")
    out.update(pair("scenario.parse_scenario"))
    out["scenario.parse_scenario.bytes_per_s"] = (
        _ratio(parse_bytes, inclusive_s["scenario.parse_scenario"]),
        "B/s",
    )
    out.update(pair("scenario.serialize_scenario"))
    out.update(pair("cli.main"))
    out.update(pair("audit.run_audit"))
    out["audit.trials"] = (trials, "count")
    out["audit.construction_failed"] = (failed, "count")
    out.update(pair("sampling"))
    out["trace.spans"] = (n_spans, "count")
    return out
