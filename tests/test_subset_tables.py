"""Split subset tables against the per-mask path and the plain reference.

:func:`enumerate_dominant_subsets` keys every mask from
``_Compiled.tables()``: sums over the low and the high half of the
theory bits, two lookups per mask and table.  :func:`is_dominant_subset`,
:func:`aggregate` and the witnesses key one to three masks with
``_Compiled.key``, which ``test_dominance_kernel.py`` holds to
``reference.py`` from 2 to 24 theories.  These tests hold the tables to
both, under all five variants plus ``kthm`` at 0, 1/7 and 49/100 in both
modes:

- at 9 and 10 theories, the enumeration against one ranking per subset
  from ``restrict`` plus ``reference.py``;
- at 11 to 14 theories, every mask's table key and mass against
  ``_Compiled.key`` and ``_Compiled.mass``, and the enumeration against
  a walk of those per-mask keys;
- on built frameworks with uniform and with dyadic credences, where the
  sorted rows of many masks reach exactly half the mask's weight, so
  that ``hm`` averages two rows.

A memory guard counts table entries instead of timing: an enumeration
builds at most ``6 · actions · 2^ceil(n/2)`` of them, afresh on every
call, and ``aggregate``, ``is_dominant_subset``, ``_Compiled.key`` and
the witnesses build none.  Within one call, subsets whose complements
rank alike share one verdict.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from moralagg import (
    ActionSet,
    EthicalFramework,
    SwfSpec,
    Theory,
    TrimMode,
    aggregate,
    enumerate_dominant_subsets,
    functionals,
    is_dominant_subset,
    witness_kthm,
    witness_mec,
)
from moralagg.core import _ranking, restrict
from moralagg.functionals import _Compiled
from moralagg.sampling import random_framework

import reference
from test_dominance_kernel import SPECS, fields

EXTRA = tuple(SwfSpec.kthm(k, mode) for k in ("0", "1/7", "49/100") for mode in TrimMode)
ALL_SPECS = SPECS + EXTRA


def reference_enumeration(spec, framework, actions):
    """The enumeration's fields from one reference ranking per subset."""
    ids = sorted(framework.theory_ids())
    ranked = {
        frozenset(combo): reference.ranking(spec, restrict(framework, combo), actions)
        for size in range(1, len(ids))
        for combo in itertools.combinations(ids, size)
    }
    full = reference.ranking(spec, framework, actions)
    everyone = frozenset(ids)
    return [
        (subset, framework.total_credence(subset), full, ranking, ranked[everyone - subset])
        for subset, ranking in ranked.items()
        if ranking == full != ranked[everyone - subset]
    ]


def assert_tables_match_per_mask(spec, framework, actions):
    """Table keys and masses equal ``_Compiled``'s on every mask, and the
    enumeration equals a walk of the per-mask keys."""
    compiled = _Compiled(spec, framework, actions)
    key, mass = compiled.tables()
    everyone = compiled.everyone
    keys = {}
    for mask in range(1, everyone + 1):
        keys[mask] = compiled.key(mask)
        assert key(mask) == keys[mask], mask
        assert mass(mask) == compiled.mass(mask), mask
    full = _ranking(actions, keys[everyone])
    ids = list(zip(framework.theory_ids(), compiled.bits))
    walked = []
    for mask in range(1, everyone):
        if keys[mask] == keys[everyone] != keys[everyone ^ mask]:
            combo = sorted(tid for tid, bit in ids if mask & bit)
            yielding = _ranking(actions, keys[everyone ^ mask])
            credence = F(compiled.mass(mask), compiled.den)
            walked.append(((len(combo), combo), (frozenset(combo), credence, full, full, yielding)))
    walked.sort(key=lambda entry: entry[0])
    got = fields(enumerate_dominant_subsets(spec, framework, actions))
    assert got == [row for _, row in walked]


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
def test_enumeration_matches_reference_at_ten_theories(spec):
    framework, actions = random_framework(random.Random(16_010), (10, 10))
    got = fields(enumerate_dominant_subsets(spec, framework, actions))
    assert got == reference_enumeration(spec, framework, actions)


@pytest.mark.parametrize("spec", EXTRA, ids=SwfSpec.label)
def test_enumeration_matches_reference_at_nine_theories(spec):
    framework, actions = random_framework(random.Random(16_009), (9, 9))
    got = fields(enumerate_dominant_subsets(spec, framework, actions))
    assert got == reference_enumeration(spec, framework, actions)


@pytest.mark.parametrize(
    "spec, nt",
    [(spec, nt) for spec in SPECS for nt in range(11, 15)]
    + [(spec, nt) for spec in EXTRA for nt in (11, 12)],
    ids=lambda value: value.label() if isinstance(value, SwfSpec) else str(value),
)
def test_tables_match_per_mask_keys(spec, nt):
    framework, actions = random_framework(random.Random(16_000 + nt), (nt, nt))
    assert_tables_match_per_mask(spec, framework, actions)


def built_framework(credences, rng):
    """Theories with ``credences`` and values in -2..2, so rows often tie."""
    actions = ActionSet(("a", "b", "c"))
    theories = [
        Theory(f"t{i + 1}", {a: rng.randint(-2, 2) for a in actions})
        for i in range(len(credences))
    ]
    return EthicalFramework(
        theories, {t.id: c for t, c in zip(theories, credences)}
    ), actions


def uniform(n):
    return [F(1, n)] * n


def dyadic(n):
    """1/2, 1/4, ..., 1/2^(n-1), and 1/2^(n-1) again."""
    return [F(1, 2 ** (i + 1)) for i in range(n - 1)] + [F(1, 2 ** (n - 1))]


def exact_halves(framework, actions):
    """How many (mask, action) pairs have a sorted prefix weighing half the mask."""
    count = 0
    ids = framework.theory_ids()
    for size in range(2, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            for action in actions:
                _, weights, _ = reference._ascending(restrict(framework, combo), action)
                sums = list(itertools.accumulate(weights))
                count += any(2 * s == 1 for s in sums)
    return count


@pytest.mark.parametrize("credences", [uniform, dyadic], ids=["uniform", "dyadic"])
@pytest.mark.parametrize("seed", range(2))
def test_exact_half_frameworks_match_reference(credences, seed):
    framework, actions = built_framework(credences(7), random.Random(16_100 + seed))
    assert exact_halves(framework, actions) > 0
    for spec in ALL_SPECS:
        got = fields(enumerate_dominant_subsets(spec, framework, actions))
        assert got == reference_enumeration(spec, framework, actions)


def test_exact_half_framework_matches_per_mask_keys():
    framework, actions = built_framework(dyadic(11), random.Random(16_211))
    for spec in ALL_SPECS:
        assert_tables_match_per_mask(spec, framework, actions)


@pytest.fixture
def table_sizes(monkeypatch):
    """The length of every subset table built while the test runs."""
    sizes = []
    original = functionals._subset_sums

    def counting(items):
        table = original(items)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(functionals, "_subset_sums", counting)
    return sizes


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SwfSpec.label)
def test_enumeration_tables_grow_with_half_the_theories(spec, table_sizes):
    rng = random.Random(16_300)
    for nt in range(2, 12):
        framework, actions = random_framework(rng, (nt, nt))
        bound = 2 ** ((nt + 1) // 2)
        for _ in range(2):
            table_sizes.clear()
            enumerate_dominant_subsets(spec, framework, actions)
            assert table_sizes, nt
            assert max(table_sizes) <= bound, nt
            assert sum(table_sizes) <= 6 * len(actions) * bound, nt


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SwfSpec.label)
def test_single_mask_paths_build_no_table(spec, table_sizes):
    framework, actions = random_framework(random.Random(16_400), (12, 12))
    aggregate(spec, framework, actions)
    is_dominant_subset(spec, framework, actions, framework.theory_ids()[:5])
    compiled = _Compiled(spec, framework, actions)
    for mask in range(1, compiled.everyone + 1, 97):
        compiled.key(mask)
    witness_mec(framework, actions, "1/100")
    witness_kthm(framework, actions, "1/10", "1/5")
    assert table_sizes == []


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
def test_one_verdict_per_yielding_ranking(spec):
    # Within one call, subsets whose complements rank alike share one
    # verdict object; the next call builds its own.
    framework, actions = random_framework(random.Random(16_500), (9, 9))
    first = enumerate_dominant_subsets(spec, framework, actions)
    assert first
    shared = {}
    for subset in first:
        verdict = shared.setdefault(subset.verdict.yielding_ranking, subset.verdict)
        assert subset.verdict is verdict
    again = enumerate_dominant_subsets(spec, framework, actions)
    assert again == first
    assert all(a.verdict is not b.verdict for a, b in zip(again, first))
