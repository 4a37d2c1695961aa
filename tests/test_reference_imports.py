"""The reference model shares no arithmetic with the code it checks.

``tests/reference.py`` may import from ``detsched`` only data types,
enums and exception classes, and the text primitives that the routes
share by contract.  This test reads its syntax tree and fails on any
other name it imports from the package, and on a plain ``import
detsched``, which would reach every function through attributes.
"""

from __future__ import annotations

import ast
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.py"

DATA_TYPES = {"Instance", "Job", "Schedule", "EvalReport", "OptResult", "FamilySpec", "ExperimentRow"}
ENUMS = {"Family", "Objective", "SchedulerChoice"}
EXCEPTIONS = {
    "SchedulingError", "ParseError", "InfeasibleSchedule", "NotAPermutation", "InvalidArgument", "NotRational",
    "DuplicateId", "NegativeParameter", "BetaNonPositive", "EmptyInstance", "InstanceTooLarge", "DegenerateOptimum",
}
TEXT_PRIMITIVES = {
    "parse_rational", "format_rational", "format_rationals", "decimal_string", "_loads", "_check_writable", "_dumps",
}
ALLOWED = DATA_TYPES | ENUMS | EXCEPTIONS | TEXT_PRIMITIVES


def forbidden_imports(source: str) -> list[str]:
    """Each import of a ``detsched`` name outside :data:`ALLOWED`, and each
    plain import of a ``detsched`` module, as ``"line: what"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "detsched"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "detsched":
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name not in ALLOWED]
    return found


def test_reference_imports_only_the_allowed_names():
    assert forbidden_imports(REFERENCE.read_text()) == []


def test_catches_a_planted_import():
    source = REFERENCE.read_text()
    plant = "from detsched.model import Job, _timeline as timeline\nimport detsched.oracle\n"
    planted = source.replace("import random\n", "import random\n" + plant)
    assert planted != source
    line = planted.splitlines().index(plant.splitlines()[0]) + 1
    assert forbidden_imports(planted) == [f"{line}: _timeline", f"{line + 1}: import detsched.oracle"]
    assert forbidden_imports("from detsched import run, Instance\n") == ["1: run"]
