"""No float enters the library, and no decimal rounds in it.

Every quantity in ``src/detsched`` is an int or a Fraction, so that terms
like ``(1 + beta) ** n`` compare exactly.  This test reads each module's
syntax tree and fails on any float (or complex) literal and on any use of
the ``float`` builtin.  The one exception is ``experiment.py``'s
``--timings`` column: its wall times come from ``time.perf_counter`` and
never feed a comparison, so a float literal may stand on a line that
calls it.

The texts of policy schedules are made from exact decimal integers, in a
context of the library's own that traps every rounding.  The thread's
decimal context belongs to the caller, so the library must not read or
set it: no call to ``decimal.getcontext``, ``setcontext`` or a bare
``localcontext()``.
"""

from __future__ import annotations

import ast
import decimal
from pathlib import Path

import pytest

from detsched.serialization import _EXACT

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


THREAD_CONTEXT_CALLS = ("getcontext", "setcontext")


def thread_context_uses(name: str, source: str) -> list[str]:
    """Each call in ``source`` that reads or sets the thread's decimal
    context, as ``"name:line: what"``: ``getcontext()``, ``setcontext()``
    and ``localcontext()`` without a context, by name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called in THREAD_CONTEXT_CALLS or (
            called == "localcontext" and not node.args and not node.keywords
        ):
            found.append(f"{name}:{node.lineno}: {called}()")
    return found


def test_library_leaves_the_thread_decimal_context_alone():
    modules = sorted(PACKAGE.glob("*.py"))
    found = [use for path in modules for use in thread_context_uses(path.name, path.read_text())]
    assert not found, found


def test_catches_a_planted_thread_context_call():
    assert thread_context_uses("serialization.py", "import decimal\nctx = decimal.getcontext()\n") == [
        "serialization.py:2: getcontext()"
    ]
    assert thread_context_uses("model.py", "with localcontext() as ctx:\n    pass\n") == [
        "model.py:1: localcontext()"
    ]
    assert thread_context_uses("model.py", "setcontext(ctx)\n") == ["model.py:1: setcontext()"]
    # a context of one's own is not the thread's
    assert thread_context_uses("model.py", "with localcontext(ctx) as c:\n    pass\n") == []


def test_exact_context_refuses_an_inexact_division():
    three = _EXACT.create_decimal(3)
    assert _EXACT.to_sci_string(_EXACT.divide(_EXACT.create_decimal(6), three)) == "2"
    # libmpdec cannot hold 1/3 to MAX_PREC digits, so it raises MemoryError
    # before it could round
    with pytest.raises((decimal.Inexact, MemoryError)):
        _EXACT.divide(_EXACT.create_decimal(1), three)
    with pytest.raises(decimal.DivisionByZero):
        _EXACT.divide(three, _EXACT.create_decimal(0))
