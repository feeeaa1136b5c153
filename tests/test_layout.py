"""Checks on the shape of the source tree, read with ``ast`` only.

- Every function the benchmark's tracer patches still exists: the tracer
  looks each one up with ``getattr`` when a traced run starts, so a
  removed name would crash every ``--trace 1`` run.
- Every top-level function and class in ``src/moralagg`` is used
  somewhere other than its own definition, or is exported in
  ``__all__``: a helper that nothing calls is dead code.
- No module in ``src/moralagg`` imports ``dataclasses``: it pulls
  ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every process, and
  ``core._frozen`` gives the value classes what they use of it.
- Capturing reads one integer compile: ``fanaticism`` and ``audit``
  import neither ``aggregate`` nor ``AggregateResult``, and nothing in
  ``src/moralagg`` calls ``is_dominant_subset``, which stays a public,
  traced entry point.
- The integer compile's form belongs to ``functionals``: no other module
  in ``src/moralagg`` takes the attribute ``rows``, ``scale``, ``score``,
  ``trim`` or ``weights``, nor those of its block layout, ``blocks``,
  ``flags`` or ``columns``.  They ask ``_Compiled`` for keys, dominant
  sides, exact scores and theory ids instead.
- Enumeration takes each subset's ids and place in the result order from
  ``_Compiled.sides``: ``fanaticism`` imports no ``_subset_table``, and
  ``enumerate_dominant_subsets`` reads no theory bits or ids and sorts
  once.
- Subset masks belong to ``functionals``: no code in ``fanaticism`` does
  mask arithmetic (``& | ^ << >>``) or takes ``bits``, ``everyone``,
  ``den``, ``mass`` or ``key`` from a compile; it names subsets by
  theory ids.
- The full framework's ranking comes from the compile's integer key:
  ``fanaticism`` imports no ``_dense_ranks``, and ``aggregate`` calls no
  ``ranking_from_scores``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "moralagg"
READERS = ("src", "demos", "tests", "perfbench")


def traced_functions():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(module, fn) for module, fn, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_every_traced_function_exists():
    traced = traced_functions()
    assert traced
    for module, function in traced:
        found = getattr(importlib.import_module(f"moralagg.{module}"), function)
        assert callable(found), (module, function)


def used_names(tree):
    """Names read, attributes taken and names imported anywhere in ``tree``.

    Inside a top-level definition its own name is ignored, so that a
    definition does not count as its own use.
    """
    used = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_top_level_definition_is_used_or_exported():
    import moralagg

    defined = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, path.name)
    used = set()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= used_names(ast.parse(path.read_text()))
    unused = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in used and name not in moralagg.__all__
    )
    assert unused == []


def test_capturing_reads_the_compile_only():
    for module in ("fanaticism.py", "audit.py"):
        imported = {
            alias.name
            for node in ast.walk(ast.parse((SOURCE / module).read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not imported & {"aggregate", "AggregateResult"}, module
    callers = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "is_dominant_subset"
    )
    assert callers == []


def test_no_module_imports_dataclasses():
    importers = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        )
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dataclasses"
        )
    )
    assert importers == []


def test_only_functionals_reads_the_integer_form():
    private = {"rows", "scale", "score", "trim", "weights", "blocks", "flags", "columns"}
    readers = sorted(
        f"{path.name}:{node.attr}"
        for path in SOURCE.glob("*.py")
        if path.name != "functionals.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    )
    assert readers == []


def test_enumeration_reads_ids_and_order_from_sides():
    tree = ast.parse((SOURCE / "fanaticism.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_subset_table" not in imported
    (enumerate_,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "enumerate_dominant_subsets"
    ]
    nodes = list(ast.walk(enumerate_))
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert "sides" in attributes
    assert not attributes & {"bits", "theory_ids", "sort", "blocks"}
    sorts = [
        node
        for node in nodes
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted"
    ]
    assert len(sorts) == 1


def test_only_functionals_builds_subset_masks():
    tree = ast.parse((SOURCE / "fanaticism.py").read_text())
    masking = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)
    arithmetic = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, masking)
    ]
    assert arithmetic == []
    # Attributes of ``self`` are the module's own (an error's ``mass``).
    taken = sorted(
        f"{node.lineno}:{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in {"bits", "everyone", "den", "mass", "key"}
        and getattr(node.value, "id", None) != "self"
    )
    assert taken == []


def test_full_rankings_come_from_the_compile_key():
    tree = ast.parse((SOURCE / "fanaticism.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_dense_ranks" not in imported
    tree = ast.parse((SOURCE / "functionals.py").read_text())
    (aggregate,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "aggregate"
    ]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(aggregate)
        if isinstance(node, ast.Call)
    }
    assert "ranking_from_scores" not in called
