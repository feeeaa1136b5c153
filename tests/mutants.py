"""Mutants of the fast paths, constructions and CLI front end, and their runner.

The differential tests are the proof that every fast path equals the
plain ``Fraction`` path, the fanaticism tests pin the witnesses' and
probes' constructions, and the golden, writer and parser tests pin the
CLI's bytes; this catalogue shows that they would notice a fault.  Each entry
is ``(file, old, new, why, tests)``: a file under ``src/moralagg``, a
text that occurs in it exactly once, its replacement, why the mutant is
not equivalent to the code, and the test files that must kill it.

For each entry the runner copies ``src/``, ``tests/``, ``scenarios/``,
``demos/`` and ``pyproject.toml`` (whose ``pythonpath`` then points
pytest at the copy) into a temporary directory, applies the one
replacement there and runs ``pytest -x -q`` on the entry's test files,
with a timeout per mutant.
Runs are reproducible: the copy's ``conftest.py`` gains a Hypothesis
profile, used only by this runner, with a fixed seed, no example
database and no shrink phase, so the same entry fails the same test in
about the same time on every run.  It prints, for each entry, killed,
survived or timeout, the test that killed it and the time taken.  The
unmutated copy is run first on every file the catalogue names, and must
pass.

Run from anywhere; it runs the whole catalogue::

    python tests/mutants.py

The exit status is 0 when every entry is killed by a failing test.  It
is 1 when one survives or times out, when the unmutated copy fails, or
when an entry's old text no longer occurs exactly once: the catalogue
must move with the code.  An entry leaves the catalogue only when its
code is deleted, or with a written argument that it is equivalent.
pytest does not collect this file.  The script itself uses the standard
library only; the profile it writes is read by pytest's Hypothesis.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The differential files: the fast paths against the plain reference.
DIFFERENTIAL = (
    "tests/test_dominance_kernel.py",
    "tests/test_compile_matches_reference.py",
    "tests/test_kthm_keys.py",
    "tests/test_functionals.py",
    "tests/test_subset_tables.py",
)
CORE = ("tests/test_core.py",)
FANATICISM = ("tests/test_fanaticism.py",)
WRITER = ("tests/test_json_writer.py", "tests/test_cli_golden.py")
COPIED = ("src", "tests", "scenarios", "demos")
TIMEOUT = 150
# Appended to the copy's conftest.py: tier-1 runs keep their own settings.
PROFILE = """
from hypothesis import Phase, settings

settings.register_profile(
    "mutants",
    database=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
"""

MUTANTS = {
    "pair-flag-index": (
        "functionals.py",
        "behind = _alike(theirs, links, size, reversed)",
        "behind = _alike(theirs, links, size, iter)",
        "a mask's complement in block top ^ b sits at index low ^ a, not a;"
        " reading that block forwards compares a mask with an unrelated one",
        DIFFERENTIAL,
    ),
    "pair-side-index": (
        "functionals.py",
        "i, j, key = low ^ a, top ^ b,",
        "i, j, key = a, top ^ b,",
        "a side in the block top ^ b sits at index low ^ a; at index a it is"
        " named, weighed and ordered as another subset",
        DIFFERENTIAL,
    ),
    "pair-side-block": (
        "functionals.py",
        "i, j, key = low ^ a, top ^ b,",
        "i, j, key = low ^ a, b,",
        "a side whose complement is mask a of block b sits in block top ^ b;"
        " in block b it carries the high ids and mass of the complement",
        DIFFERENTIAL,
    ),
    "pair-key-index": (
        "functionals.py",
        "_key_at(theirs, low ^ a)",
        "_key_at(theirs, a)",
        "the complement of mask a of block b is index low ^ a of block"
        " top ^ b; index a there gives another subset's ranking",
        DIFFERENTIAL,
    ),
    "side-high-ids": (
        "functionals.py",
        "ids_lo[i] | ids_hi[j]",
        "ids_lo[i] | ids_hi[b]",
        "a side is named by the high ids of its own block j, which differs"
        " from b for every side read from the mirrored block",
        DIFFERENTIAL,
    ),
    "pair-block-range": (
        "functionals.py",
        "for b in range(top // 2 + 1):",
        "for b in range(top // 2):",
        "block top // 2 is the last block without the top bit; without it"
        " the pairs of that block and its complement block go unvisited",
        DIFFERENTIAL,
    ),
    "pair-ne": (
        "functionals.py",
        "map(sub, ahead, behind)",
        "map(and_, ahead, behind)",
        "a pair is reported when its sides disagree; where both rank like"
        " the full framework neither is dominant",
        DIFFERENTIAL,
    ),
    "pair-empty-skip": (
        "functionals.py",
        "                if not (a or b):\n                    continue\n",
        "",
        "the empty mask's flag means nothing; read as false, it reports the"
        " whole framework as a dominant subset whenever its own flag is set",
        DIFFERENTIAL,
    ),
    "chain-lt": (
        "functionals.py",
        "eq if key[i] == key[j] else lt",
        "eq if key[i] == key[j] else ne",
        "between two groups the order matters: a mask that swaps two"
        " adjacent groups of the full ranking is flagged as ranking alike",
        DIFFERENTIAL,
    ),
    "chain-eq": (
        "functionals.py",
        "eq if key[i] == key[j] else lt",
        "lt if key[i] == key[j] else lt",
        "actions tied in the full ranking must tie in the mask; demanding a"
        " strict order there flags no mask whose full ranking has a tie",
        DIFFERENTIAL,
    ),
    "trim-cap-inclusive": (
        "functionals.py",
        "if low + w > cap:",
        "if low + w >= cap:",
        "a low prefix of weight exactly the cap is trimmed (p / M <= k), so"
        " stopping before it keeps a row the rule sheds",
        DIFFERENTIAL,
    ),
    "cap-ceiling": (
        "functionals.py",
        "return num * mass // den",
        "return -(-num * mass // den)",
        "the cap is the floor of k * M; its ceiling lets a side shed a row"
        " of weight just above k * M whenever k * M is not an integer",
        DIFFERENTIAL,
    ),
    "block-cap-ceiling": (
        "functionals.py",
        "return masses, [num * m // den for m in masses]",
        "return masses, [-(-num * m // den) for m in masses]",
        "a block's walks cut at the same floor of k * M as the per-mask"
        " trim; its ceiling sheds a row of weight just above k * M",
        DIFFERENTIAL,
    ),
    "trim-high-from-lo": (
        "functionals.py",
        "for bit, w, _ in reversed(rows):",
        "for bit, w, _ in reversed(rows[lo:]):",
        "at an exact half the high walk sheds every row from lo up and must"
        " go on past unmasked rows to the last masked row below lo, the"
        " second median row; stopping at lo reads an unmasked row's value",
        DIFFERENTIAL,
    ),
    "hm-median-rows": (
        "functionals.py",
        "scores.append(rows[lo][2] + rows[hi - 1][2])",
        "scores.append(2 * rows[lo][2])",
        "where a prefix weighs exactly half the mask, the median averages"
        " two rows of different values",
        DIFFERENTIAL,
    ),
    "survivor-mass": (
        "functionals.py",
        "survivors.append((total, mass - trimmed))",
        "survivors.append((total, mass))",
        "renormalized kthm divides by the survivors' mass, which differs"
        " between actions when the trim sheds different weights",
        DIFFERENTIAL,
    ),
    "exact-renormalized": (
        "functionals.py",
        "Fraction(total, kept * self.scale)",
        "Fraction(total, self.den * self.scale)",
        "a renormalized mean is divided by its survivor mass, which is below"
        " the whole mass whenever the trim sheds a theory",
        DIFFERENTIAL,
    ),
    "exact-key": (
        "functionals.py",
        "for s in scores], _dense_ranks(scores)",
        "for s in scores], _dense_ranks(scores[::-1])",
        "the ranking aggregate prints is the key of the scores it prints;"
        " a key of the actions in another order ranks the wrong actions",
        DIFFERENTIAL,
    ),
    "exact-renormalized-key": (
        "functionals.py",
        "return scores, _dense_ranks(_renormalize(survivors))",
        "return scores, _dense_ranks([total for total, _ in survivors])",
        "renormalized means are ranked by t / m; the survivor sums alone"
        " misorder actions whose survivor masses differ",
        DIFFERENTIAL,
    ),
    "mec-weights": (
        "functionals.py",
        "sum(w * v for bit, w, v in rows if mask & bit)",
        "sum(v for bit, w, v in rows if mask & bit)",
        "the mean weighs each evaluation by its credence; an unweighted sum"
        " ranks a subset of unequal credences wrongly",
        DIFFERENTIAL,
    ),
    "maximin-mask": (
        "functionals.py",
        "min(v for bit, _, v in rows if mask & bit)",
        "min(v for bit, _, v in rows)",
        "a subset's minimum is over its own theories; over all of them, every"
        " subset ranks like the full framework",
        DIFFERENTIAL,
    ),
    "mass-mask": (
        "functionals.py",
        "return sum(w for bit, w in zip(self.bits, self.weights) if mask & bit)",
        "return self.den",
        "a subset's trim is cut at k times its own mass; the whole mass lets"
        " a proper subset shed more than k of itself",
        DIFFERENTIAL,
    ),
    "key-order": (
        "functionals.py",
        "return _dense_ranks(self.score(mask))",
        "return _dense_ranks(self.score(mask)[::-1])",
        "a key gives each action its own score's rank; read in another order,"
        " a dominance check reports the wrong rankings",
        DIFFERENTIAL,
    ),
    "key-at-index": (
        "functionals.py",
        "return _dense_ranks([column[a] for column in columns])",
        "return _dense_ranks([column[a ^ 1] for column in columns])",
        "a reported subset's complement is ranked from its own index of the"
        " block; a neighbour's scores give another ranking",
        DIFFERENTIAL,
    ),
    "keys-ids": (
        "functionals.py",
        "if t.id in ids)",
        "if t.id not in ids)",
        "the subset named by ids is the candidate; its complement in its"
        " place swaps the dominant and the yielding rankings",
        DIFFERENTIAL,
    ),
    "side-credence": (
        "functionals.py",
        "Fraction(mass_lo[i] + mass_hi[j], den)",
        "Fraction(den - mass_lo[i] - mass_hi[j], den)",
        "a reported subset's credence is its own mass over den, not its"
        " complement's",
        DIFFERENTIAL,
    ),
    "table-doubling": (
        "functionals.py",
        "table += list(map(join, table, repeat(item)))",
        "table = list(map(join, table, repeat(item))) + table",
        "the masks with item i follow the 2^i masks without it; put first,"
        " every entry sits at the index of another subset",
        DIFFERENTIAL,
    ),
    "high-table-index": (
        "functionals.py",
        "y = hi[b]",
        "y = hi[b ^ 1]",
        "block b's high part is entry b of the high table; the entry of"
        " another block adds the wrong theories to every mec and maximin"
        " column",
        DIFFERENTIAL,
    ),
    "prologue-high-mass": (
        "functionals.py",
        "y = mass_hi[b]",
        "y = mass_hi[b ^ 1]",
        "the hm and kthm walks cut at the caps of block b's own masses;"
        " another block's high mass moves every cap",
        DIFFERENTIAL,
    ),
    "hm-high-place-index": (
        "functionals.py",
        "z = place_hi[b]",
        "z = place_hi[b ^ 1]",
        "the hm walk reads block b's high theories at their places in the"
        " value order; another block's places walk the wrong rows",
        DIFFERENTIAL,
    ),
    "id-table-halves": (
        "functionals.py",
        "ids_lo, ids_hi = split(",
        "ids_hi, ids_lo = split(",
        "index a names the low places and block b the high ones; swapped,"
        " a reported subset carries other theories' ids",
        DIFFERENTIAL,
    ),
    "order-rank-bit": (
        "functionals.py",
        "(m.bit_count() << n) - m",
        "(m.bit_count() << n) + m",
        "a member at place p lowers the key by 2^p, so the smallest id,"
        " at the highest place, comes first among subsets of one size;"
        " adding the places reverses that order",
        DIFFERENTIAL,
    ),
    "layout-descending": (
        "functionals.py",
        "key=ids.__getitem__, reverse=True)",
        "key=ids.__getitem__)",
        "the order key reads the smallest id at the highest place; in"
        " ascending layout, subsets of one size come out in reverse",
        DIFFERENTIAL,
    ),
    "block-hm-second-row": (
        "functionals.py",
        "column.append(value_at[before] + value_at[bit])",
        "column.append(2 * value_at[bit])",
        "at an exact half the block's median averages the row before the"
        " stop with the stop row, as the per-mask scan does",
        DIFFERENTIAL,
    ),
    "block-kthm-top-cap": (
        "functionals.py",
        "if top + w > cap:",
        "if top + w >= cap:",
        "a high suffix of weight exactly the cap is shed in a block as in"
        " the per-mask trim; stopping before it keeps a row",
        DIFFERENTIAL,
    ),
    "block-fold-lcm": (
        "functionals.py",
        "common = list(map(lcm, *survivor_masses))",
        "common = list(map(max, *survivor_masses))",
        "a block folds each mean t / m into t * (L // m) with L a common"
        " multiple of the mask's survivor masses; below it, L // m floors,"
        " and means that differ can tie or swap",
        DIFFERENTIAL,
    ),
    "block-fold-factor": (
        "functionals.py",
        "list(map(mul, totals, map(floordiv, common, kept)))",
        "totals",
        "renormalized means are ranked by t / m; a block's survivor sums"
        " alone misorder actions whose survivor masses differ",
        DIFFERENTIAL,
    ),
    "min-table-empty": (
        "functionals.py",
        "join, empty = min, inf",
        "join, empty = min, 0",
        "the empty entry of a table of minima must lose every comparison;"
        " 0 becomes the least value of every subset whose values are all"
        " positive",
        DIFFERENTIAL,
    ),
    "renormalize-lcm": (
        "functionals.py",
        "common = lcm(*[kept for _, kept in survivors])",
        "common = max(kept for _, kept in survivors)",
        "each mean t / m is scaled by a common multiple of every m; below"
        " it, common // m floors, and means that differ can tie or swap",
        DIFFERENTIAL,
    ),
    "dense-ranks-ties": (
        "core.py",
        "distinct = sorted(set(scores))",
        "distinct = sorted(scores)",
        "ranks are places among the distinct scores; counting each tied"
        " score again leaves a rank that no action holds",
        DIFFERENTIAL,
    ),
    "credence-sum": (
        "core.py",
        "if sum(weights) != den:",
        "if sum(weights) > den:",
        "credences that sum to less than one are a defect, raised as"
        " CredenceSumNotOne, not only those that sum to more; validation"
        " and extend share this one check",
        CORE,
    ),
    "duplicate-action": (
        "core.py",
        "if action in islice(actions, i):",
        "if action in islice(actions, 0):",
        "a repeated id in a plain action sequence must be rejected; let"
        " through, the compile's per-action dicts collapse the repeat and"
        " aggregate drops or misgroups an action",
        CORE,
    ),
    "to-rational-sign": (
        "core.py",
        'return Fraction(-value if token[0] == "-" else value, scale)',
        "return Fraction(value, scale)",
        "a negative decimal literal keeps its sign: -0.5 is -1/2",
        CORE,
    ),
    "extend-scaling": (
        "core.py",
        "Fraction(c.numerator * num, c.denominator * d)",
        "Fraction(c.numerator * d, c.denominator * num)",
        "each old credence is scaled by 1 - new_mass = num / d, not divided"
        " by it",
        CORE,
    ),
    "extend-unchecked": (
        "core.py",
        "_credence_weights(framework)  # the old credences must sum to 1",
        "pass  # the old credences go unchecked",
        "old credences that miss 1 would be rescaled as if they summed to it;"
        " extend raises CredenceSumNotOne instead",
        CORE,
    ),
    "write-unsorted-keys": (
        "cli.py",
        "for key in sorted(value):",
        "for key in value:",
        "--json sorts mapping keys, as json.dumps(sort_keys=True) did;"
        " insertion order moves bytes",
        WRITER,
    ),
    "write-unescaped-keys": (
        "cli.py",
        'out(f"{sep}{_quote(key)}: ")',
        """out(f'{sep}"{key}": ')""",
        "a key with a quote, a backslash or a non-ASCII character must be"
        " escaped as json.dumps escapes it",
        WRITER,
    ),
    "write-unsorted-groups": (
        "cli.py",
        "[sorted(group) for group in value.groups]",
        "[list(group) for group in value.groups]",
        "a ranking's groups are frozensets, iterated in hash order; each is"
        " rendered sorted, so equal inputs give equal bytes",
        WRITER,
    ),
    "write-unsorted-set": (
        "cli.py",
        "_write(sorted(value), pad, out)",
        "_write(list(value), pad, out)",
        "a frozenset (theory ids, best actions) is rendered as its sorted"
        " members; hash order moves bytes from run to run",
        WRITER,
    ),
    "write-enum-name": (
        "cli.py",
        "out(_quote(value.value))",
        "out(_quote(value.name))",
        "a rule kind or trim mode is rendered as its value, mec or literal,"
        " the word the CLI and scenario files take, not its name",
        WRITER,
    ),
    "report-on-error": (
        "cli.py",
        "        limit = sys.get_int_max_str_digits()\n",
        "        sys.stdout.write(out.getvalue())\n"
        "        limit = sys.get_int_max_str_digits()\n",
        "a report is written into main's buffer as it is rendered; a run that"
        " fails part-way must leave stdout empty, not print the part it wrote",
        ("tests/test_cli.py",),
    ),
    "literal-cache-key": (
        "scenario.py",
        "value = literals.get(text)",
        'value = literals.get(text.lstrip("+-"))',
        "the literal cache is keyed by the literal's whole text; without its"
        " sign, -1/2 after 1/2 reads back as 1/2",
        ("tests/test_scenario.py",),
    ),
    "literal-memo-store": (
        "scenario.py",
        "literals[text] = value",
        "literals.clear()",
        "each distinct literal is converted once per parse; a memo that keeps"
        " nothing converts every repeat again, with the same values",
        ("tests/test_scenario.py",),
    ),
    "ladder-bound": (
        "fanaticism.py",
        "s = (1 - credence) * base.spread()",
        "s = credence * base.spread()",
        "under kthm the base theories keep mass 1 - credence; a bound scaled"
        " by the injected credence instead is too small to step over them,"
        " and it is the bound the witness records",
        FANATICISM,
    ),
    "undercut-floor": (
        "fanaticism.py",
        "floor = min(scores)",
        "floor = max(scores)",
        "the injected theory must undercut every evaluation, so it steps"
        " below the least maximin score, not the greatest",
        FANATICISM,
    ),
    "probe-trim-check": (
        "fanaticism.py",
        "if ids - low - high:",
        "if ids - low:",
        "an adversary theory may be shed from either end; checking the low"
        " side only reports an adversary shed from the top as surviving",
        FANATICISM,
    ),
    "directive-prefix": (
        "scenario.py",
        'if head == "eval":',
        'if head.startswith("eval"):',
        "a directive is its whole first word; by prefix, a word such as"
        " eval: is read as eval instead of rejected as unknown",
        ("tests/test_scenario.py",),
    ),
}


def check(mutants: dict) -> list[str]:
    """A line for each entry whose old text does not occur exactly once."""
    stale = []
    for name, (file, old, *_) in mutants.items():
        count = (ROOT / "src" / "moralagg" / file).read_text().count(old)
        if count != 1:
            stale.append(f"{name}: old text occurs {count} times in {file}")
    return stale


def run(mutant, files) -> tuple[str, str, float]:
    """Copy the tree, apply ``mutant`` (or nothing), and run the test ``files``.

    Returns the outcome (``passed``, ``failed`` or ``timeout``), the
    first failing test or the timeout, and the seconds taken.
    """
    with tempfile.TemporaryDirectory(prefix="moralagg-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for folder in COPIED:
            shutil.copytree(ROOT / folder, work / folder, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        with open(work / "tests" / "conftest.py", "a") as conftest:
            conftest.write(PROFILE)
        if mutant is not None:
            file, old, new = mutant
            path = work / "src" / "moralagg" / file
            path.write_text(path.read_text().replace(old, new))
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile=mutants",
        ]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command + list(files),
                cwd=work,
                capture_output=True,
                text=True,
                timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "timeout", f"(timed out at {TIMEOUT} s)", time.perf_counter() - start
        took = time.perf_counter() - start
    if done.returncode == 0:
        return "passed", "", took
    first = next(
        (
            line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in done.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))
        ),
        f"pytest exit {done.returncode}",
    )
    return "failed", first, took


def main() -> int:
    stale = check(MUTANTS)
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 1
    files = dict.fromkeys(f for *_, tests in MUTANTS.values() for f in tests)
    outcome, test, took = run(None, files)
    print(f"{'unmutated':24} {outcome:9} {took:6.1f} s {test}", flush=True)
    if outcome != "passed":
        return 1
    killed = 0
    for name, (file, old, new, _, tests) in MUTANTS.items():
        outcome, test, took = run((file, old, new), tests)
        verdict = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
        killed += verdict == "killed"
        print(f"{name:24} {verdict:9} {took:6.1f} s {test}", flush=True)
    print(f"{killed} of {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
