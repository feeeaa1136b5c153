"""Seeded inputs for the benchmark, generated without the library's help.

The benchmark owns its generator so that a change to ``moralagg.sampling``
or to the scenario serializer cannot silently change what is measured or
invalidate the recorded output digests.  The draws mirror
``moralagg.sampling.random_framework``: exact fractions of random
integers, positive integer credence weights, and with probability
``tie_prob`` per theory one evaluation copied from another cell so that
exact ties occur.  Floats never reach the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

ACTION_NAMES = ("a", "b", "c", "d", "e", "f")


@dataclass(frozen=True)
class FrameworkData:
    """Plain data for one framework: actions and (id, credence, values)."""

    actions: tuple[str, ...]
    theories: tuple[tuple[str, Fraction, dict[str, Fraction]], ...]


def pool_rng(workload: str, index: int) -> random.Random:
    """The generator for one pool member; the same on every platform."""
    return random.Random(f"perfbench:{workload}:{index}")


def framework_data(
    rng: random.Random,
    n_theories: int,
    n_actions: int,
    lo: int = -100,
    hi: int = 100,
    max_den: int = 12,
    tie_prob: float = 0.25,
) -> FrameworkData:
    actions = ACTION_NAMES[:n_actions]

    def rational() -> Fraction:
        den = rng.randint(1, max_den)
        return Fraction(rng.randint(lo * den, hi * den), den)

    evaluations = [{a: rational() for a in actions} for _ in range(n_theories)]
    for row in evaluations:
        if rng.random() < tie_prob:
            source = evaluations[rng.randrange(n_theories)]
            row[rng.choice(actions)] = source[rng.choice(actions)]
    weights = [rng.randint(1, 60) for _ in range(n_theories)]
    total = sum(weights)
    return FrameworkData(
        actions=actions,
        theories=tuple(
            (f"t{i + 1}", Fraction(w, total), row)
            for i, (w, row) in enumerate(zip(weights, evaluations))
        ),
    )


def scenario_text(data: FrameworkData, swf_line: str | None = None) -> str:
    """Render ``data`` in the scenario file format (``scenario v1``)."""
    lines = ["scenario v1", "actions " + " ".join(data.actions)]
    for tid, credence, values in data.theories:
        lines.append(f"theory {tid} credence {credence}")
        lines.extend(f"  eval {a} {values[a]}" for a in data.actions)
    if swf_line:
        lines.append(swf_line)
    return "\n".join(lines) + "\n"
