"""Instance and schedule files, and the exact-rational text syntax.

Rationals travel as strings, ``"p"`` or ``"p/q"`` in the ASCII digits
0-9.  Decimal-point and exponent syntax is rejected on purpose: a ``0.1``
that silently became a float upstream would poison every exact
comparison downstream, so the parser refuses to guess.

Every rational has exactly one canonical text, the one
:func:`format_rational` writes: lowest terms, a positive denominator
written only when it is not 1, no sign on zero and no leading zeros.

``solve`` and ``eval`` spell the starts, completions and gaps of a policy
or canonical schedule without converting a binary int to decimal text,
which the interpreter does in time quadratic in the digits.
:func:`_walk` computes each value in exact decimal integers, in a context
of its own that traps every rounding, reduces it to lowest terms by gcds
of small residues, and spells it in linear time.  ``solve``
(:func:`_write_run`) first makes an integer pass over the policy loop's
time, and refuses the first start past the interpreter's limit on digits
per integer string conversion, with :func:`write_schedule`'s message,
before it makes any text.  ``eval`` (:func:`_eval_report`) writes the
walk's texts when each start of the document is, string for string, the
walk's text for that position of the order's canonical schedule, and no
value passes the digit limit.  Every other document (a delayed or
respelled start, an order that is not a permutation, a missing field, a
value past the limit) goes through the route that parses every start
and walks the schedule once in Fractions, which gives the same report and
every refusal.

The schedule, ``eval`` and ``opt`` documents are flat: strings, and lists
of ints or of strings that JSON never escapes.  :func:`_dumps` writes
them byte for byte as ``json.dumps(doc, indent=2)`` would, without its
per-character escaper and with one join over the pieces of the document.
:func:`write_instance` does the same for the instance document, whose
ids are ints and whose every other value is a canonical text.  Every
writer checks each id and value it writes against the interpreter's
limit on digits per integer string conversion before it converts any, and
names the first one past it (``beta``, ``jobs[3].alpha``, ``order[0]``).

:func:`parse_instance` builds the instance from its integer record
(:class:`~detsched.model._Prepared`), and makes no :class:`Job`.  One
loop checks every job document field by field and reads each distinct
alpha or release text of the document once: a text of ASCII digits goes
straight to an int, any other through :func:`parse_rational`.  ``d`` is
the lcm of the texts' denominators, each text is scaled to it once, and
the ``(R, A, id)`` keys are checked as :class:`Instance` checks them,
after every :class:`ParseError` of the document.  :func:`write_instance`
writes from the same record.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from collections.abc import Callable, Iterator, Sequence
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    FloatOperation,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from fractions import Fraction
from typing import TYPE_CHECKING

from .model import (
    EvalReport,
    Instance,
    Schedule,
    SchedulingError,
    _Prepared,
    _fractions,
    _report,
    _timeline,
)

if TYPE_CHECKING:
    from .schedulers import PolicyRun


class ParseError(SchedulingError):
    """Malformed input text; the message names the offending field."""


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str, context: str = "value") -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (ASCII digits only) into a Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"{context}: expected a rational string, got {type(text).__name__}")
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(
            f"{context}: {text!r} is not 'p' or 'p/q' in decimal digits"
        )
    num, _, den = text.partition("/")
    try:
        if not den:
            return Fraction(int(num))
        numerator, denominator = int(num), int(den)
    except ValueError:  # the interpreter's limit on digits per conversion
        digits = max(len(num.lstrip("-")), len(den))
        raise ParseError(
            f"{context}: {digits} digits exceed the limit for integer string conversion"
        ) from None
    if denominator == 0:
        raise ParseError(f"{context}: zero denominator in {text!r}")
    return Fraction(numerator, denominator)


def _digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits.  ``bytes.isdigit``
    reads a table where ``str.isdigit`` looks each character up in the
    Unicode database, several times slower on a text of thousands."""
    return text.isascii() and text.encode().isdigit()


def format_rational(value: Fraction, context: str | None = None) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"``; exact round trip.

    Raises :class:`SchedulingError`, naming ``context`` when given, for a
    value past the interpreter's limit on digits per integer string
    conversion.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # the interpreter's limit on digits per conversion
        raise _unwritable(value, context, sys.get_int_max_str_digits()) from None


def format_rationals(values: Sequence[Fraction], context: str) -> list[str]:
    """Render every value of a list, or none of them.

    Each value is checked by :func:`_check_writable` before any is
    converted, so a list that cannot be written costs no conversion.
    Raises :class:`SchedulingError` naming ``context[i]`` for the first
    value past the interpreter's limit on digits per integer string
    conversion.
    """
    _check_writable(values, lambda i: f"{context}[{i}]")
    return [format_rational(value) for value in values]


def _check_writable(values: Sequence[int | Fraction], name: Callable[[int], str]) -> None:
    """Raise :class:`SchedulingError`, naming ``name(k)``, for the first
    ``values[k]`` past the interpreter's limit on digits per integer string
    conversion, before any value is converted.  The check is the
    interpreter's own rule: a nonzero int has more than ``limit`` digits
    exactly when its absolute value is at least ``10**limit``; a limit of 0
    means none.  Takes ints too: an int has a numerator and a denominator."""
    limit = sys.get_int_max_str_digits()
    if limit:
        bound = _digit_bound(limit)
        for k, value in enumerate(values):
            if abs(value.numerator) >= bound or value.denominator >= bound:
                raise _unwritable(value, name(k), limit)


@functools.lru_cache(maxsize=4)
def _digit_bound(limit: int) -> int:
    """``10**limit``, the least int with more than ``limit`` digits.  Made
    once per limit: at the default limit it is a 14k-bit power that takes
    longer to compute than a small document takes to write."""
    return 10**limit


def _unwritable(value: Fraction, context: str | None, limit: int) -> SchedulingError:
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    where = "" if context is None else f"{context}: "
    return SchedulingError(
        f"{where}cannot write a {bits}-bit value: it passes the limit of "
        f"{limit} digits for integer string conversion"
    )


def decimal_string(value: Fraction, digits: int = 10) -> str:
    """Human-readable decimal rendering: ``digits`` significant digits,
    ties to even.  Display only; never parsed back.

    It renders in a context of its own, never the thread's, so no trap,
    exponent range or exponent spelling set there changes the text.
    """
    display = _display_context(digits)
    exact = _EXACT.create_decimal
    return display.to_sci_string(display.divide(exact(value.numerator), exact(value.denominator)))


@functools.lru_cache(maxsize=4)
def _display_context(digits: int) -> Context:
    """:func:`decimal_string`'s context for ``digits``, made once: making
    one costs about as much as the division.  Its flags record what each
    division rounded, and nothing reads them."""
    return Context(
        prec=digits,
        rounding=ROUND_HALF_EVEN,
        Emax=MAX_EMAX,
        Emin=MIN_EMIN,
        capitals=1,
        clamp=0,
        flags=[],
        traps=[InvalidOperation, DivisionByZero, Overflow],
    )


def _loads(text: str, what: str) -> object:
    """``json.loads``, with every way it refuses a document as a
    :class:`ParseError` naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # an integer literal past the limit on digits per conversion
        raise ParseError(
            f"{what}: an integer exceeds the limit of {sys.get_int_max_str_digits()} "
            "digits for integer string conversion"
        ) from None
    except RecursionError:
        raise ParseError(f"{what}: arrays or objects nested too deeply") from None


_JOB_KEYS = ("id", "alpha", "release")


def parse_instance(text: str) -> Instance:
    """Parse an instance document into an :class:`Instance` built from its
    integer record, which validates it; no :class:`Job` is made.

    One loop checks every job document, field by field, and reads each
    distinct alpha or release text once: a text of ASCII digits goes
    straight to an int, any other through :func:`parse_rational`, whose
    message names the field.  ``d`` is the lcm of the texts'
    denominators, and each text is scaled to ``d`` once.  Every
    :class:`ParseError` of the document comes before any validation error.
    """
    doc = _loads(text, "instance")
    if not isinstance(doc, dict):
        raise ParseError("instance: top level must be an object")
    if "beta" not in doc:
        raise ParseError("instance: missing field 'beta'")
    if "jobs" not in doc:
        raise ParseError("instance: missing field 'jobs'")
    beta = parse_rational(doc["beta"], "beta")
    jobs_doc = doc["jobs"]
    if not isinstance(jobs_doc, list):
        raise ParseError("jobs: expected an array")
    # each distinct alpha or release text, as its lowest-terms numerator
    # and denominator
    values: dict[str, tuple[int, int]] = {}
    rows = []
    for idx, job_doc in enumerate(jobs_doc):
        if not isinstance(job_doc, dict):
            raise ParseError(f"jobs[{idx}]: expected an object")
        try:
            jid, alpha, release = job_doc["id"], job_doc["alpha"], job_doc["release"]
        except KeyError:
            missing = next(key for key in _JOB_KEYS if key not in job_doc)
            raise ParseError(f"jobs[{idx}]: missing field '{missing}'") from None
        if not isinstance(jid, int) or isinstance(jid, bool):
            raise ParseError(f"jobs[{idx}].id: expected an integer")
        if type(alpha) is not str or alpha not in values:
            values[alpha] = _parts(alpha, idx, "alpha")
        if type(release) is not str or release not in values:
            values[release] = _parts(release, idx, "release")
        rows.append((release, alpha, jid))
    # the document is the largest thing alive here, and the keys need none of it
    del doc, jobs_doc
    d = math.lcm(*{den for _, den in values.values()})
    scaled = {value: num * (d // den) for value, (num, den) in values.items()}
    keys = tuple((scaled[release], scaled[alpha], jid) for release, alpha, jid in rows)
    return Instance._from_keys(beta, d, keys)


def _parts(text: object, idx: int, key: str) -> tuple[int, int]:
    """The numerator and denominator in lowest terms of ``jobs[idx].key``'s
    text.  A text of ASCII digits goes straight to an int; any other text,
    or one past the digit limit, goes through :func:`parse_rational`, whose
    message names the field."""
    if isinstance(text, str) and _digits(text):
        try:
            return int(text), 1
        except ValueError:  # the interpreter's limit on digits per conversion
            pass
    value = parse_rational(text, f"jobs[{idx}].{key}")
    return value.numerator, value.denominator


def write_instance(instance: Instance) -> str:
    """The instance document, byte for byte ``json.dumps(doc, indent=2) +
    "\\n"`` of ``{"beta": ..., "jobs": [{"id": ..., "alpha": ...,
    "release": ...}, ...]}``, made by one join over its pieces.

    The values come from the instance's integer record: an alpha or
    release is its ``A`` or ``R`` itself when ``d`` is 1, and ``A / d``
    or ``R / d`` otherwise, so no :class:`Job` is read.  Raises
    :class:`SchedulingError` naming ``beta`` or ``jobs[i].id``,
    ``.alpha`` or ``.release`` for the first value, in document order, past
    the digit limit, before any value is converted.
    """
    prepared = instance._prepared
    keys = prepared.keys
    if prepared.d != 1:
        fractions = _fractions(prepared)
        keys = tuple((fractions[r], fractions[a], jid) for r, a, jid in keys)
    values = [instance.beta]
    for release, alpha, jid in keys:
        values += (jid, alpha, release)
    _check_writable(values, _instance_field)
    pieces = ['{\n  "beta": "', format_rational(instance.beta), '",\n  "jobs": [\n    {\n      "id": ']
    for release, alpha, jid in keys:
        pieces += (
            str(jid),
            ',\n      "alpha": "',
            format_rational(alpha),
            '",\n      "release": "',
            format_rational(release),
            '"\n    },\n    {\n      "id": ',
        )
    # an instance has at least one job, so the last piece is a separator
    pieces[-1] = '"\n    }\n  ]\n}\n'
    return "".join(pieces)


def _instance_field(k: int) -> str:
    """The name of the ``k``-th value of :func:`write_instance`'s list."""
    if not k:
        return "beta"
    idx, key = divmod(k - 1, 3)
    return f"jobs[{idx}].{_JOB_KEYS[key]}"


def parse_schedule(text: str, instance: Instance) -> Schedule:
    """Parse a schedule document against ``instance``.

    A document without ``starts`` yields the canonical schedule of its
    order; explicit starts are checked for feasibility.  Raises
    :class:`ParseError` for a malformed document or start, before
    :class:`NotAPermutation` or :class:`InfeasibleSchedule`.
    """
    return _schedule_from_doc(_loads(text, "schedule"), instance)[0]


def _schedule_from_doc(doc: object, instance: Instance) -> tuple[Schedule, EvalReport]:
    """:func:`parse_schedule` on the document ``json.loads`` gave, and the
    report of its timeline.  Every start is parsed before the one walk of
    :func:`_timeline` checks the schedule, so a malformed start is named
    even next to an order that is not a permutation.
    """
    if not isinstance(doc, dict):
        raise ParseError("schedule: top level must be an object")
    if "order" not in doc:
        raise ParseError("schedule: missing field 'order'")
    order_doc = doc["order"]
    if not isinstance(order_doc, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in order_doc
    ):
        raise ParseError("order: expected an array of integers")
    order = tuple(order_doc)
    if "starts" not in doc or doc["starts"] is None:
        starts, completions, gaps = _timeline(instance, order, None)
    else:
        starts_doc = doc["starts"]
        if not isinstance(starts_doc, list):
            raise ParseError("starts: expected an array")
        if len(starts_doc) != len(order):
            raise ParseError(
                f"starts: {len(starts_doc)} entries for {len(order)} order positions"
            )
        starts = [parse_rational(s, f"starts[{i}]") for i, s in enumerate(starts_doc)]
        _, completions, gaps = _timeline(instance, order, starts)
    return Schedule(order, tuple(starts)), _report(starts, completions, gaps)


def _eval_report(text: str, instance: Instance) -> dict:
    """``eval``'s output document for a schedule document.

    A document that gives every start of its order's canonical schedule in
    its canonical text, with every value within the digit limit, is
    reported by :func:`_canonical_eval`.  Any other goes through
    :func:`_schedule_from_doc` and :func:`_eval_document`, which give the
    same document for the former, and every refusal.
    """
    doc = _loads(text, "schedule")
    report = _canonical_eval(doc, instance)
    if report is None:
        schedule, timeline = _schedule_from_doc(doc, instance)
        report = _eval_document(schedule.order, timeline)
    return report


def _canonical_eval(doc: object, instance: Instance) -> dict | None:
    """``eval``'s output document for ``doc`` when its order is a
    permutation of the instance's ids and each of its starts is the text
    :func:`_walk` makes for that position of the order's canonical
    schedule; None otherwise, or when a start, completion or gap passes the
    digit limit.

    One pass of :func:`_scaled_timeline` decides on integers where the
    canonical schedule waits for a release, and sums the completions: each
    is added at its own power of ``q`` and the sums folded, once, to the
    largest.  :func:`_walk` then gives the texts.  A completion followed by
    no idle gap is the next start, so it takes that start's text.
    """
    if not isinstance(doc, dict):
        return None
    order, given = doc.get("order"), doc.get("starts")
    if not (isinstance(order, list) and isinstance(given, list) and len(given) == len(order)):
        return None
    if not all(type(jid) is int for jid in order):
        return None
    prepared = instance._prepared
    if sorted(order) != sorted(jid for _, _, jid in prepared.keys):
        return None
    q = prepared.q
    jumps: list[bool] = []
    parts: dict[int, int] = {}  # the completions at scale d * q**k, by k
    for jumped, _, _, k, completion in _scaled_timeline(prepared, order):
        jumps.append(jumped)
        parts[k + 1] = parts.get(k + 1, 0) + completion
    limit = sys.get_int_max_str_digits()

    def within(value: _Value) -> bool:
        # a nonzero int of exactly limit + 1 digits has adjusted() == limit
        return not limit or (value[0].adjusted() < limit and value[1].adjusted() < limit)

    n = len(order)
    gaps, completions = [], []
    for k, (start, gap, completion) in enumerate(_walk(prepared, order, jumps)):
        if not within(start) or given[k] != _text(start):
            return None
        if gap is None:
            gaps.append("0")
        elif within(gap):
            gaps.append(_text(gap))
        else:
            return None
        if k + 1 < n and not jumps[k + 1]:
            completions.append(given[k + 1])
        elif within(completion):
            completions.append(_text(completion))
        else:
            return None
    top = max(parts)
    total = 0
    for k in range(top + 1):
        total = total * q + parts.get(k, 0)
    return {
        "order": order,
        "starts": given,
        "completions": completions,
        "gaps": gaps,
        "makespan": completions[-1],
        "total_completion": format_rational(
            Fraction(total, prepared.d * q**top), "total_completion"
        ),
    }


def _eval_document(order: Sequence[int], report: EvalReport) -> dict:
    """``eval``'s output document for ``report``.  Each list is written by
    :func:`format_rationals` in the output's order, so the first list past
    the digit limit is refused before any of it is converted; the makespan
    is the last completion's text.
    """
    starts = format_rationals(report.starts, "starts")
    completions = format_rationals(report.completions, "completions")
    gaps = format_rationals(report.gaps, "gaps")
    return {
        "order": list(order),
        "starts": starts,
        "completions": completions,
        "gaps": gaps,
        "makespan": completions[-1],
        "total_completion": format_rational(report.total_completion, "total_completion"),
    }


# Exact decimal integers, for the texts of policy schedules.  Every
# operation on them is exact: the precision holds any integer, and an
# inexact or failed operation raises (an inexact quotient as MemoryError,
# since libmpdec cannot hold it to this precision) instead of rounding.
# The context is used only through its methods, so the thread's decimal
# context is never read or set.
_EXACT = Context(
    prec=MAX_PREC,
    rounding=ROUND_HALF_EVEN,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    capitals=1,
    clamp=0,
    flags=[],
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow, FloatOperation],
)
_ZERO = _EXACT.create_decimal(0)
_ONE = _EXACT.create_decimal(1)

_Value = tuple[Decimal, Decimal]


def _scaled_timeline(
    prepared: _Prepared, order: Sequence[int]
) -> Iterator[tuple[bool, int, int, int, int]]:
    """The policy loops' integer time along the canonical schedule of
    ``order``: per position, whether the job starts at its release, its
    start ``T`` at the scale ``d * Q`` with ``Q = q**k``, ``Q``, ``k``, and
    its completion at the scale ``d * Q * q`` (see
    :mod:`detsched.schedulers`).  A job starts at its release exactly when
    that is later than the previous completion, ``R * Q > T``.  ``order``
    must be a permutation of the instance's ids.
    """
    keys = {jid: (r, a) for r, a, jid in prepared.keys}
    q, pq = prepared.q, prepared.p + prepared.q
    T, Q, k = 0, 1, 0
    for jid in order:
        r, a = keys[jid]
        jumped = r * Q > T
        if jumped:
            T, Q, k = r, 1, 0
        Qq = Q * q
        completion = a * Qq + pq * T
        yield jumped, T, Q, k, completion
        T, Q, k = completion, Qq, k + 1


def _walk(
    prepared: _Prepared, order: Sequence[int], jumps: Sequence[bool]
) -> Iterator[tuple[_Value, _Value | None, _Value]]:
    """Per position of ``order``: its start, the idle gap before it (None
    when the job starts at the previous completion) and its completion,
    each as a numerator and a denominator in lowest terms, exact decimal
    integers that :func:`_text` spells.

    A position starts at its job's release where ``jumps`` says so and at
    the previous completion otherwise (see :func:`_scaled_timeline`).
    With ``beta = p/q``, a start ``N/D`` in lowest terms completes at
    ``x / y = (A*q*D + d*(p+q)*N) / (d*q*D)``.  Every denominator has only
    the primes of ``m = d*q``, so ``g = gcd(x, y, m)``, read from residues
    mod ``m``, divides ``m``, and dividing ``x`` and ``y`` by it until it
    is 1 leaves them in lowest terms; no gcd of ints larger than ``m``
    runs.  With ``d == 1``, ``g = gcd(x mod q, q)`` is already
    ``gcd(x, y)``: a prime of ``D`` divides ``q``, so it divides neither
    ``N`` nor ``p + q``, and so not ``x``.  A residue goes to an int
    without text, so no digit limit applies to it.
    """
    ctx = _EXACT
    mul, add, sub, dec = ctx.multiply, ctx.add, ctx.subtract, ctx.create_decimal
    # every g below divides what it divides, so the quotient that truncates
    # is exact, and faster than ctx.divide
    div = ctx.divide_int
    p, q, d = prepared.p, prepared.q, prepared.d
    m = d * q
    modulus = dec(m)

    def residue(x: Decimal) -> int:
        return int(ctx.remainder(x, modulus))

    def lowest(x: Decimal, y: Decimal) -> _Value:
        while (g := math.gcd(residue(x), residue(y), m)) > 1:
            x, y = div(x, dec(g)), div(y, dec(g))
        return x, y

    # per job: its release in lowest terms, and A * q
    jobs = {}
    for r, a, jid in prepared.keys:
        g = math.gcd(r, d)
        jobs[jid] = (dec(r // g), dec(d // g), dec(a * q))
    growth = dec(d * (p + q))
    # per divisor g of m met so far: g and m // g as decimals
    divisors: dict[int, _Value] = {}
    num, den = _ZERO, _ONE  # the previous completion
    for jid, jumped in zip(order, jumps):
        r_num, r_den, aq = jobs[jid]
        gap = None
        if jumped:
            if d == 1:  # release - num/den, and den is prime to num
                gap = sub(mul(r_num, den), num), den
            else:
                gap = lowest(sub(mul(r_num, den), mul(num, r_den)), mul(r_den, den))
            num, den = r_num, r_den
        start = num, den
        x = add(mul(aq, den), mul(growth, num))
        g = math.gcd(residue(x), m)
        if g not in divisors:
            divisors[g] = dec(g), dec(m // g)
        g_dec, cofactor = divisors[g]
        if g > 1:
            x = div(x, g_dec)
        num, den = x, mul(den, cofactor)
        if d > 1 and g > 1:
            num, den = lowest(num, den)
        yield start, gap, (num, den)


def _text(value: _Value) -> str:
    """The canonical text of a :func:`_walk` value."""
    num, den = value
    text = _EXACT.to_sci_string(num)
    if _EXACT.compare(den, _ONE).is_zero():
        return text
    return f"{text}/{_EXACT.to_sci_string(den)}"


def _check_starts(prepared: _Prepared, order: Sequence[int]) -> list[bool]:
    """Per position of the canonical schedule of ``order``, whether the job
    starts at its release, from one pass of :func:`_scaled_timeline`.

    Raises :class:`SchedulingError` naming ``starts[k]`` for the first
    start past the interpreter's limit on digits per integer string
    conversion, as :func:`write_schedule` would, before any text is made.
    A start ``T / (d * Q)`` is reduced only when ``T`` or ``d * Q`` passes
    the limit: its lowest terms are no larger."""
    limit = sys.get_int_max_str_digits()
    bound = _digit_bound(limit) if limit else None
    d = prepared.d
    jumps = []
    for k, (jumped, T, Q, _, _) in enumerate(_scaled_timeline(prepared, order)):
        jumps.append(jumped)
        if bound is not None and (T >= bound or d * Q >= bound):
            start = Fraction(T, d * Q)
            if start.numerator >= bound or start.denominator >= bound:
                raise _unwritable(start, f"starts[{k}]", limit)
    return jumps


def _write_run(record: PolicyRun) -> str:
    """The schedule document of a policy run, byte for byte
    :func:`write_schedule` of ``record.schedule`` and with the same
    refusals, raised before any text is made.  A policy schedule is the
    canonical schedule of its order, so the starts come from :func:`_walk`
    on the order and the jump flags :func:`_check_starts` finds."""
    prepared, order = record.instance._prepared, record.order
    _check_writable(order, lambda i: f"order[{i}]")
    jumps = _check_starts(prepared, order)
    starts = [_text(start) for start, _, _ in _walk(prepared, order, jumps)]
    return _dumps({"order": list(order), "starts": starts})


def write_schedule(schedule: Schedule) -> str:
    """The schedule document.  Raises :class:`SchedulingError` naming
    ``order[i]`` or ``starts[i]`` for the first value past the digit limit,
    before any value is converted."""
    _check_writable(schedule.order, lambda i: f"order[{i}]")
    doc = {
        "order": list(schedule.order),
        "starts": format_rationals(schedule.starts, "starts"),
    }
    return _dumps(doc)


def _dumps(doc: dict[str, str | Sequence[int] | Sequence[str]]) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a flat document: every
    value a string, or a list of ints or of strings.

    Every string is quoted as it is, so none may need escaping: the
    documents that detsched writes this way carry canonical rational texts
    and enum values only (``[-0-9a-z/]``).  The pieces refer to the texts
    already made, so the document is copied once, by one join.
    """
    pieces = ["{\n  "]
    for i, (key, value) in enumerate(doc.items()):
        if i:
            pieces.append(",\n  ")
        pieces += ('"', key, '": ')
        if isinstance(value, str):
            pieces += ('"', value, '"')
        elif not value:
            pieces.append("[]")
        else:
            quote = '"' if isinstance(value[0], str) else ""
            items = value if quote else map(str, value)
            pieces.append("[\n    " + quote)
            separator = quote + ",\n    " + quote
            for item in items:
                pieces += (item, separator)
            pieces[-1] = quote + "\n  ]"
    pieces.append("\n}\n")
    return "".join(pieces)
