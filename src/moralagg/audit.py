"""Randomized self-audit of the capture and resistance claims.

Each suite draws seeded random frameworks or adversaries and checks one
claim exhaustively over the draw:

- the mean and maximin rules are captured by a single injected theory at
  every probed credence level;
- the trimmed mean is captured whenever the injected credence exceeds
  the trim level;
- below the trim level, and under the weighted median at any level below
  one half, no adversary on the canonical family ever becomes dominant.

A failure in any suite signals an implementation bug, not bad luck: the
claims hold for every input, so the pass criterion is 100%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .fanaticism import (
    ConstructionFailed,
    probe_hm_non_fanatical,
    probe_kthm_non_fanatical,
    witness_kthm,
    witness_maximin,
    witness_mec,
)
from .functionals import SwfSpec, TrimMode, aggregate
from .sampling import random_adversary, random_framework, random_target

CAPTURE_LEVELS = (Fraction(1, 100), Fraction(1, 10), Fraction(2, 5))
KTHM_TRIM_LEVEL = Fraction(1, 10)
KTHM_INJECTION_LEVELS = (Fraction(1, 5), Fraction(2, 5))


@dataclass(frozen=True)
class SuiteResult:
    """One audited claim: how many trials, how many behaved as proven."""

    name: str
    level: str
    passed: int
    total: int

    @property
    def ok(self) -> bool:
        return self.passed == self.total


@dataclass(frozen=True)
class AuditReport:
    seed: int
    trials: int
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)


def _capture_suite(rng, trials, name, level, run) -> SuiteResult:
    passed = 0
    for _ in range(trials):
        framework, actions = random_framework(rng)
        try:
            report = run(framework, actions)
        except ConstructionFailed:
            continue
        if report.verdict.is_dominant:
            passed += 1
    return SuiteResult(name=name, level=level, passed=passed, total=trials)


def run_audit(seed: int = 0, trials: int = 200) -> AuditReport:
    """Run every suite with ``trials`` draws each and collect the counts.

    The same seed always reproduces the same report, byte for byte once
    rendered.  ``trials=0`` yields vacuous passes.
    """
    rng = random.Random(seed)
    suites: list[SuiteResult] = []

    for k in CAPTURE_LEVELS:
        def run_mec(framework, actions, k=k):
            base = aggregate(SwfSpec.mec(), framework, actions)
            target = random_target(rng, base.ranking, actions)
            return witness_mec(framework, actions, k, target=target)
        suites.append(
            _capture_suite(rng, trials, "mec capture", f"k={k}", run_mec)
        )

    for k in CAPTURE_LEVELS:
        def run_mm(framework, actions, k=k):
            return witness_maximin(framework, actions, k)
        suites.append(
            _capture_suite(rng, trials, "maximin capture", f"k={k}", run_mm)
        )

    for k_prime in KTHM_INJECTION_LEVELS:
        def run_kthm(framework, actions, k_prime=k_prime):
            base = aggregate(
                SwfSpec.kthm(KTHM_TRIM_LEVEL, TrimMode.LITERAL), framework, actions
            )
            target = random_target(rng, base.ranking, actions)
            return witness_kthm(
                framework, actions, KTHM_TRIM_LEVEL, k_prime, target=target
            )
        suites.append(
            _capture_suite(
                rng,
                trials,
                "kthm capture",
                f"k={KTHM_TRIM_LEVEL} k'={k_prime}",
                run_kthm,
            )
        )

    for name, probe in (
        ("kthm resistance", probe_kthm_non_fanatical),
        ("hm resistance", probe_hm_non_fanatical),
    ):
        for k in CAPTURE_LEVELS:
            draws = (random_adversary(rng, ("a", "b"), k) for _ in range(trials))
            passed = sum(probe(k, adversary) for adversary in draws)
            suites.append(SuiteResult(name, f"k={k}", passed, trials))

    return AuditReport(seed=seed, trials=trials, suites=tuple(suites))
