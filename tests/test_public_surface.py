"""The package re-exports only what something uses.

Every name ``detsched/__init__.py`` re-exports must be used as code (an
identifier or an attribute, not docstring text) somewhere outside its own
definition: in another module of the package, in ``scripts/``, or in
``perfbench/``.  ``perfbench/spans.py`` names the functions it wraps as
strings in its hook table, so identifier-shaped string constants there
count too.  Tests do not count: a name only tests need belongs in
``tests/lemmas.py``, or in ``tests/reference.py`` when it is a route the
library is checked against.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detsched"
STRING_TABLES = {ROOT / "perfbench" / "spans.py"}


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used(path: Path) -> set[str]:
    """The identifiers ``path`` reads and the attributes it names; an
    assignment's target, a def's or a class's name and an import are
    not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (
            path in STRING_TABLES
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            used.add(node.value)
    return used


def test_every_export_is_used_outside_the_tests():
    places = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    places += sorted((ROOT / "scripts").glob("*.py"))
    places += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_used, places))
    unused = sorted(_exported() - used)
    assert not unused, f"re-exported but used by no module, script or bench: {unused}"


# Names the package no longer has: the four policy aliases, each of which
# was ``run(instance, choice).schedule``, and the schedule writer and
# parser that no command called (``tests/test_reference_routes.py`` keeps
# those two as the library routes it checks).
REMOVED = ("non_idling", "non_interfering", "ectf", "best_of_two", "write_schedule", "parse_schedule")


def test_removed_names_stay_removed():
    modules = ["detsched"] + sorted(f"detsched.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    back = [
        f"{module}.{name}"
        for module in modules
        for name in REMOVED
        if hasattr(importlib.import_module(module), name)
    ]
    assert not back, f"removed names are back: {back}"
