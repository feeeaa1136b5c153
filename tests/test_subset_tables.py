"""Block enumeration against the per-mask path and the plain reference.

:func:`enumerate_dominant_subsets` reads the sides that ``_Compiled.sides``
reports, and that walks the subsets one block at a time
(``_Compiled.blocks``): each action's scores over every low index of a
block, one column each, read from subset tables over the low and the
high theory places, and a chain of column comparisons that says which
subsets rank like the full framework.  :func:`is_dominant_subset`, :func:`aggregate` and
the witnesses key one to three masks with ``_Compiled.key``, which
``test_dominance_kernel.py`` holds to ``reference.py`` from 2 to 24
theories.  These tests hold the blocks to both, under all five variants
plus ``kthm`` at 0, 1/7 and 49/100 in both modes:

- at 9 and 10 theories, the enumeration against one ranking per subset
  from ``restrict`` plus ``reference.py``;
- at 11 to 14 theories, every subset's ids, flag, mass and key,
  dense-ranked from its block's columns, one list of integers per
  action in blocks of ``2^(n // 2)`` masks under every rule, against
  ``_Compiled.key`` and ``_Compiled.mass``, and the reported sides
  (with their order keys) and the enumeration against a walk of those
  per-mask keys;
- at 9 and 10 theories whose ids sort in another order than they are
  declared, the enumeration's order: by size, then by sorted ids;
- on built frameworks with uniform and with dyadic credences, where the
  sorted rows of many masks reach exactly half the mask's weight, so
  that ``hm`` averages two rows;
- on the chain test's edge cases: a full ranking of one group, a single
  action, odd theory counts, and renormalized ``kthm`` means that tie
  as ``t1 / m1 == t2 / m2`` with ``t1 != t2``.

A memory guard counts entries instead of timing: every rule builds
``4 + 2 · actions`` subset tables, the masses and ids over both halves
and two per action, and those tables, plus the most block entries alive
at once, stay within ``6 · actions · 2^ceil(n/2)``, afresh on every
call, and ``aggregate``, ``is_dominant_subset``, ``_Compiled.key`` and
the witnesses build no table.  Every compile is freed by reference
counting alone as its call returns, and ``core._dense_ranks`` runs once
for the full framework and once per reported subset.  No library path,
from ``aggregate`` to the audit, hands ``core._dense_ranks`` a
``Fraction``: every ranking is the compile's integer key.  Within one
call, subsets whose complements rank alike share one verdict.
"""

import gc
import importlib
import itertools
import random
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest

from moralagg import (
    ActionSet,
    EthicalFramework,
    SwfSpec,
    Theory,
    TrimMode,
    aggregate,
    core,
    enumerate_dominant_subsets,
    functionals,
    is_dominant_subset,
    probe_hm_non_fanatical,
    probe_kthm_non_fanatical,
    run_audit,
    witness_kthm,
    witness_maximin,
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


def order_key(subset, framework):
    """The sum over members of ``2^n - 2^(n - 1 - r)``, ``r`` the id's sorted place."""
    n = len(framework.theories)
    ranks = {tid: r for r, tid in enumerate(sorted(framework.theory_ids()))}
    return sum(2**n - 2 ** (n - 1 - ranks[tid]) for tid in subset)


def assert_tables_match_per_mask(spec, framework, actions):
    """Every block's masses, ids, flags and keys equal ``_Compiled``'s on
    every subset, each subset in one block once, and the reported sides
    and the enumeration equal a walk of the per-mask keys."""
    compiled = _Compiled(spec, framework, actions)
    everyone = compiled.everyone
    ids = list(zip(framework.theory_ids(), compiled.bits))
    keys = {everyone: compiled.key(everyone)}
    links = functionals._links(keys[everyone])
    mass_lo, mass_hi, ids_lo, ids_hi, block = compiled.blocks()
    size = len(mass_lo)
    assert size == 2 ** (len(framework.theories) // 2)
    assert len(ids_lo) == size
    assert len(mass_hi) == len(ids_hi) == (everyone + 1) // size
    seen = set()
    for b in range((everyone + 1) // size):
        columns = block(b)
        flags = list(functionals._alike(columns, links, size, iter))
        assert len(flags) == size
        for a in range(size):
            subset = ids_lo[a] | ids_hi[b]
            mask = sum(bit for tid, bit in ids if tid in subset)
            assert mask not in seen, mask
            seen.add(mask)
            if not mask:
                continue
            keys[mask] = compiled.key(mask)
            assert functionals._key_at(columns, a) == keys[mask], mask
            assert flags[a] == (keys[mask] == keys[everyone]), mask
            assert mass_lo[a] + mass_hi[b] == compiled.mass(mask), mask
    assert len(seen) == everyone + 1
    full = _ranking(actions, keys[everyone])
    walked = []
    reported = {}
    for mask in range(1, everyone):
        if keys[mask] == keys[everyone] != keys[everyone ^ mask]:
            combo = frozenset(tid for tid, bit in ids if mask & bit)
            order = order_key(combo, framework)
            credence = F(compiled.mass(mask), compiled.den)
            reported[combo] = (credence, order, keys[everyone ^ mask])
            yielding = _ranking(actions, keys[everyone ^ mask])
            walked.append((order, (combo, credence, full, full, yielding)))
    full_key, found = compiled.sides()
    assert full_key == keys[everyone]
    sides = [(side, rest) for side, *rest in found]
    assert len(sides) == len(reported)
    assert {side: tuple(rest) for side, rest in sides} == reported
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


# Ids whose sorted order differs from declaration order in both halves of
# the theories: "t10" sorts between "t1" and "t2", and the letters before
# every "t".
SHUFFLED_IDS = ("t9", "b", "t10", "a", "t1", "z", "t2", "c", "t11", "m")


def renamed(framework, ids):
    """``framework`` with its theories renamed to ``ids``, in declared order."""
    theories = [Theory(tid, t.evaluations) for tid, t in zip(ids, framework.theories)]
    credences = [framework.credences[t.id] for t in framework.theories]
    return EthicalFramework(theories, dict(zip(ids, credences)))


@pytest.mark.parametrize("spec", SPECS, ids=SwfSpec.label)
@pytest.mark.parametrize("nt", (9, 10))
def test_enumeration_order_follows_sorted_ids(spec, nt):
    # The order key must list subsets by size, then by sorted ids, however
    # the declared order interleaves them.
    framework, actions = random_framework(random.Random(16_600 + nt), (nt, nt))
    framework = renamed(framework, SHUFFLED_IDS[:nt])
    found = enumerate_dominant_subsets(spec, framework, actions)
    assert len(found) > 1
    order = [sorted(subset.theory_ids) for subset in found]
    assert order == sorted(order, key=lambda ids: (len(ids), ids))
    assert len({tuple(ids) for ids in order}) == len(order)
    assert fields(found) == reference_enumeration(spec, framework, actions)


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
    original = functionals._subset_table

    def counting(items, *args):
        table = original(items, *args)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(functionals, "_subset_table", counting)
    return sizes


class Tracked(list):
    """A list that a weak reference can follow."""


@pytest.fixture
def live_block_entries(monkeypatch):
    """After each block is built, the entries of all blocks then alive.

    A block is its score columns.  Each is handed on copied into a
    ``Tracked`` list, and a block's entries are those lists' lengths; its
    flags are tested as the columns are read, and never stored.
    The test runs with ``gc`` off, so a list is alive exactly until its
    last reference goes.
    """
    counts = []
    live = []
    original = _Compiled.blocks

    def blocks(self):
        *tables, block = original(self)

        def counting(b):
            columns = list(map(Tracked, block(b)))
            live.extend(map(weakref.ref, columns))
            live[:] = [ref for ref in live if ref() is not None]
            counts.append(sum(len(ref()) for ref in live))
            return columns

        return *tables, counting

    monkeypatch.setattr(_Compiled, "blocks", blocks)
    gc.disable()
    yield counts
    gc.enable()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SwfSpec.label)
def test_enumeration_tables_grow_with_half_the_theories(
    spec, table_sizes, live_block_entries
):
    rng = random.Random(16_300)
    for nt in range(2, 12):
        framework, actions = random_framework(rng, (nt, nt))
        bound = 2 ** ((nt + 1) // 2)
        for _ in range(2):
            table_sizes.clear()
            live_block_entries.clear()
            enumerate_dominant_subsets(spec, framework, actions)
            assert table_sizes and live_block_entries, nt
            # Masses and ids over both halves, and two tables per action.
            assert len(table_sizes) == 4 + 2 * len(actions), nt
            assert max(table_sizes) <= bound, nt
            held = sum(table_sizes) + max(live_block_entries)
            assert held <= 6 * len(actions) * bound, nt


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


def test_compiles_are_freed_without_the_cycle_collector(monkeypatch):
    # A compile that held a bound method of itself would wait for the
    # cycle collector; with gc off it would stay alive after its call.
    compiles = []
    original = _Compiled.__init__

    def init(self, *args):
        original(self, *args)
        compiles.append(weakref.ref(self))

    monkeypatch.setattr(_Compiled, "__init__", init)
    framework, actions = random_framework(random.Random(17_000), (7, 7))
    calls = (
        lambda spec: aggregate(spec, framework, actions),
        lambda spec: is_dominant_subset(spec, framework, actions, framework.theory_ids()[:3]),
        lambda spec: enumerate_dominant_subsets(spec, framework, actions),
    )
    gc.disable()
    try:
        for spec in ALL_SPECS:
            for call in calls:
                compiles.clear()
                result = call(spec)
                assert len(compiles) == 1
                assert compiles[0]() is None, spec.label()
                del result
    finally:
        gc.enable()


def patch_dense_ranks(monkeypatch, wrapper):
    """Put ``wrapper`` for ``core._dense_ranks`` in every module that holds it.

    Returns the names of those modules, so that a caller can tell which
    modules still rank.
    """
    original = core._dense_ranks
    holders = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"moralagg.{path.stem}")
        if getattr(module, "_dense_ranks", None) is original:
            monkeypatch.setattr(module, "_dense_ranks", wrapper)
            holders.append(path.stem)
    return holders


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SwfSpec.label)
def test_dense_ranks_once_per_reported_subset(spec, monkeypatch):
    calls = []
    original = core._dense_ranks

    def counting(scores):
        calls.append(len(scores))
        return original(scores)

    assert patch_dense_ranks(monkeypatch, counting) == ["core", "functionals"]
    rng = random.Random(17_100)
    reported = 0
    for nt in (6, 9, 10):
        framework, actions = random_framework(rng, (nt, nt))
        calls.clear()
        found = enumerate_dominant_subsets(spec, framework, actions)
        assert len(calls) <= len(found) + 1, nt
        reported += len(found)
    assert reported


def test_rankings_come_from_integer_keys(monkeypatch):
    # Every ranking the library builds, of the full framework too, comes
    # from the compile's integer key: no path hands exact Fractions to the
    # grouping rule, which hashes them.
    ranked = []
    original = core._dense_ranks

    def integers_only(scores):
        ranked.append([type(s).__name__ for s in scores if not isinstance(s, int)])
        return original(scores)

    patch_dense_ranks(monkeypatch, integers_only)
    framework, actions = random_framework(random.Random(17_200), (7, 7))
    for spec in SPECS:
        aggregate(spec, framework, actions)
        enumerate_dominant_subsets(spec, framework, actions)
    witness_mec(framework, actions, "1/100")
    witness_maximin(framework, actions, "1/100")
    witness_kthm(framework, actions, "1/10", "1/5")
    adversary = [(Theory("x", {"a": 5, "b": -5}), "1/20")]
    assert probe_kthm_non_fanatical("1/10", adversary)
    assert probe_hm_non_fanatical("1/10", adversary)
    run_audit(seed=7, trials=2)
    assert ranked
    assert [kinds for kinds in ranked if kinds] == []


def small_framework(rng, nt, na, values):
    """``nt`` theories over ``na`` actions, evaluations drawn from ``values``
    and credence weights from 1 to 4, so that ties are common."""
    actions = ActionSet(tuple("abcde"[:na]))
    weights = [rng.randint(1, 4) for _ in range(nt)]
    theories = [
        Theory(f"t{i + 1}", {a: rng.choice(values) for a in actions}) for i in range(nt)
    ]
    return EthicalFramework(
        theories, {t.id: F(w, sum(weights)) for t, w in zip(theories, weights)}
    ), actions


def first_framework(seed, accept, nt, na, values):
    """The first of 300 seeded small frameworks that ``accept`` takes."""
    for offset in range(300):
        framework, actions = small_framework(random.Random(seed + offset), nt, na, values)
        if accept(framework, actions):
            return framework, actions
    raise AssertionError(f"no framework from seed {seed} qualifies")


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SwfSpec.label)
def test_full_ranking_of_one_group_matches_reference(spec):
    # The chain is all ``==``, and some single theory ranks otherwise, so
    # the flags are not all alike.  Under ``mec`` (and ``kthm`` at 0) a
    # tied side of a tied framework leaves the other side tied, so only
    # the other rules can report a subset here.
    def accept(framework, actions):
        tied = len(reference.ranking(spec, framework, actions).groups) == 1
        return tied and any(
            len(reference.ranking(spec, restrict(framework, [tid]), actions).groups) > 1
            for tid in framework.theory_ids()
        )

    framework, actions = first_framework(17_200, accept, 6, 2, (-1, 0, 1, 2))
    got = fields(enumerate_dominant_subsets(spec, framework, actions))
    assert got == reference_enumeration(spec, framework, actions)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SwfSpec.label)
def test_single_action_has_no_dominant_subset(spec):
    # No chain at all: every mask ranks like the full framework.
    rng = random.Random(17_300)
    for nt in range(1, 10):
        framework, actions = random_framework(rng, (nt, nt))
        actions = ActionSet(tuple(actions)[:1])
        assert enumerate_dominant_subsets(spec, framework, actions) == []
        if nt <= 6:
            assert reference_enumeration(spec, framework, actions) == []


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SwfSpec.label)
@pytest.mark.parametrize("nt", (2, 3, 5, 7))
def test_small_and_odd_theory_counts_match_reference(spec, nt):
    # The low half of the theory bits is the smaller one; at 2 theories
    # it is empty, and each block holds a single mask.
    for seed in range(3):
        framework, actions = random_framework(random.Random(17_400 + 10 * nt + seed), (nt, nt))
        got = fields(enumerate_dominant_subsets(spec, framework, actions))
        assert got == reference_enumeration(spec, framework, actions)


def test_renormalized_means_tied_across_survivor_masses():
    # Two actions whose renormalized means tie in the full framework,
    # t1 / m1 == t2 / m2, from different survivor sums and masses: the
    # block folds each sum t into t * (L // m), which ties them again.
    spec = SwfSpec.kthm("1/4", TrimMode.RENORMALIZED)

    def tied(framework, actions):
        compiled = _Compiled(spec, framework, actions)
        survivors = compiled._survivors(compiled.everyone)
        return any(
            t1 * m2 == t2 * m1 and t1 != t2
            for (t1, m1), (t2, m2) in itertools.combinations(survivors, 2)
        ) and reference_enumeration(spec, framework, actions)

    framework, actions = first_framework(17_500, tied, 6, 3, (-2, -1, 1, 2, 3))
    got = fields(enumerate_dominant_subsets(spec, framework, actions))
    assert got == reference_enumeration(spec, framework, actions)
