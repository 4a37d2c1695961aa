"""Instance and schedule files, and the exact-rational text syntax.

Rationals travel as strings, ``"p"`` or ``"p/q"`` in decimal digits.
Decimal-point and exponent syntax is rejected on purpose: a ``0.1`` that
silently became a float upstream would poison every exact comparison
downstream, so the parser refuses to guess.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Sequence
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

from .model import (
    Instance,
    Job,
    NotAPermutation,
    Schedule,
    SchedulingError,
    canonical_starts,
    evaluate,
)


class ParseError(SchedulingError):
    """Malformed input text; the message names the offending field."""


_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str, context: str = "value") -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (decimal digits only) into a Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"{context}: expected a rational string, got {type(text).__name__}")
    if not _RATIONAL_RE.match(text):
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

    Each value is checked against the interpreter's limit on digits per
    integer string conversion before any is converted, so a list that
    cannot be written costs no conversion.  The check is the interpreter's
    own rule: a nonzero int has more than ``limit`` digits exactly when its
    absolute value is at least ``10**limit``; a limit of 0 means none.
    Raises :class:`SchedulingError` naming ``context[i]`` for the first
    value past the limit.
    """
    limit = sys.get_int_max_str_digits()
    if limit:
        bound = 10**limit
        for i, value in enumerate(values):
            if abs(value.numerator) >= bound or value.denominator >= bound:
                raise _unwritable(value, f"{context}[{i}]", limit)
    return [format_rational(value) for value in values]


def _unwritable(value: Fraction, context: str | None, limit: int) -> SchedulingError:
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    where = "" if context is None else f"{context}: "
    return SchedulingError(
        f"{where}cannot write a {bits}-bit value: it passes the limit of "
        f"{limit} digits for integer string conversion"
    )


def decimal_string(value: Fraction, digits: int = 10) -> str:
    """Human-readable decimal rendering: ``digits`` significant digits,
    ties to even.  Display only; never parsed back."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        result = Decimal(value.numerator) / Decimal(value.denominator)
    return str(result)


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


def parse_instance(text: str) -> Instance:
    """Parse an instance document; building the :class:`Instance` validates it."""
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
    jobs = []
    for idx, job_doc in enumerate(jobs_doc):
        where = f"jobs[{idx}]"
        if not isinstance(job_doc, dict):
            raise ParseError(f"{where}: expected an object")
        for key in ("id", "alpha", "release"):
            if key not in job_doc:
                raise ParseError(f"{where}: missing field '{key}'")
        jid = job_doc["id"]
        if not isinstance(jid, int) or isinstance(jid, bool):
            raise ParseError(f"{where}.id: expected an integer")
        alpha = parse_rational(job_doc["alpha"], f"{where}.alpha")
        release = parse_rational(job_doc["release"], f"{where}.release")
        jobs.append(Job(jid, alpha, release))
    return Instance(beta, tuple(jobs))


def write_instance(instance: Instance) -> str:
    doc = {
        "beta": format_rational(instance.beta),
        "jobs": [
            {
                "id": job.id,
                "alpha": format_rational(job.alpha),
                "release": format_rational(job.release),
            }
            for job in instance.jobs
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_schedule(text: str, instance: Instance) -> Schedule:
    """Parse a schedule document against ``instance``.

    A document without ``starts`` yields the canonical schedule of its
    order; explicit starts are validated for feasibility.
    """
    schedule, explicit = _schedule_from_text(text, instance)
    if explicit:
        evaluate(instance, schedule)  # raises on infeasible or non-permutation input
    return schedule


def _schedule_from_text(text: str, instance: Instance) -> tuple[Schedule, bool]:
    """A schedule document's schedule, and whether its starts came from the
    document: those are not yet checked against ``instance``, and
    :func:`evaluate` is the check."""
    doc = _loads(text, "schedule")
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
        return canonical_starts(instance, order), False
    starts_doc = doc["starts"]
    if not isinstance(starts_doc, list):
        raise ParseError("starts: expected an array")
    if len(starts_doc) != len(order):
        raise ParseError(
            f"starts: {len(starts_doc)} entries for {len(order)} order positions"
        )
    starts = tuple(
        parse_rational(s, f"starts[{i}]") for i, s in enumerate(starts_doc)
    )
    return Schedule(order, starts), True


def write_schedule(schedule: Schedule) -> str:
    doc = {
        "order": list(schedule.order),
        "starts": format_rationals(schedule.starts, "starts"),
    }
    return json.dumps(doc, indent=2) + "\n"
