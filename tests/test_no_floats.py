"""No float enters the library.

Every quantity in ``src/detsched`` is an int or a Fraction, so that terms
like ``(1 + beta) ** n`` compare exactly.  This test reads each module's
syntax tree and fails on any float (or complex) literal and on any use of
the ``float`` builtin.  The one exception is ``experiment.py``'s
``--timings`` column: its wall times come from ``time.perf_counter`` and
never feed a comparison, so a float literal may stand on a line that
calls it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detsched"

TIMING_FILE = "experiment.py"
TIMING_CALL = "time.perf_counter("


def float_uses(name: str, source: str) -> list[str]:
    """Each float literal and each ``float`` name in ``source``, as
    ``"name:line: what"``, less the timing column's literals."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            if name == TIMING_FILE and TIMING_CALL in lines[node.lineno - 1]:
                continue
            what = f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            what = "the float builtin"
        else:
            continue
        found.append(f"{name}:{node.lineno}: {what}")
    return found


def test_library_has_no_floats():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [use for path in modules for use in float_uses(path.name, path.read_text())]
    assert not found, found


def test_the_timing_column_is_the_only_exception():
    timing = (PACKAGE / TIMING_FILE).read_text()
    assert TIMING_CALL in timing
    # the same lines anywhere else are caught
    assert float_uses("model.py", timing)


def test_catches_a_planted_float():
    source = (PACKAGE / "model.py").read_text()
    assert float_uses("model.py", source) == []
    planted = source.replace("ZERO = Fraction(0)", "ZERO = Fraction(0)\nHALF = 1.0 / 2")
    assert planted != source
    assert float_uses("model.py", planted) == [
        f"model.py:{planted.splitlines().index('HALF = 1.0 / 2') + 1}: literal 1.0"
    ]
    assert float_uses("oracle.py", "def f(x):\n    return float(x)\n") == [
        "oracle.py:2: the float builtin"
    ]
    assert float_uses(TIMING_FILE, "elapsed = 1.0\n") == ["experiment.py:1: literal 1.0"]
