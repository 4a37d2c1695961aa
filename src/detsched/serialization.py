"""Instance and schedule files, and the exact-rational text syntax.

Rationals travel as strings, ``"p"`` or ``"p/q"`` in the ASCII digits
0-9.  Decimal-point and exponent syntax is rejected on purpose: a ``0.1``
that silently became a float upstream would poison every exact
comparison downstream, so the parser refuses to guess.

Every rational has exactly one canonical text, the one
:func:`format_rational` writes: lowest terms, a positive denominator
written only when it is not 1, no sign on zero and no leading zeros.  A
schedule document's starts are checked against the earliest starts of its
order position by position.  A start whose text has the canonical
spelling (ASCII digits, no sign, no leading zero, a ``/q`` part exactly
when the earliest start's denominator is not 1) and whose numerator and
denominator read as that start's, compared as ints, is that start: it is
neither reduced by a gcd nor written again.  This is what every schedule
that detsched writes looks like.  From the first start that does not
match (a delayed start, or a spelling such as ``"6/4"`` or ``"07"``) on,
the starts are parsed, then checked.

The schedule, ``eval`` and ``opt`` documents are flat: strings, and lists
of ints or of strings that JSON never escapes.  :func:`_dumps` writes
them byte for byte as ``json.dumps(doc, indent=2)`` would, without its
per-character escaper and with one join over the pieces of the document.
:func:`write_instance` does the same for the instance document, whose
ids are ints and whose every other value is a canonical text.  Every
writer checks each id and value it writes against the interpreter's
limit on digits per integer string conversion before it converts any, and
names the first one past it (``beta``, ``jobs[3].alpha``, ``order[0]``).

:func:`parse_instance` checks every job document field by field, in one
loop, and reads each distinct alpha or release text of a document once:
a text of ASCII digits goes straight to an int, any other through
:func:`parse_rational`, and the Fraction is reused for the same text.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from collections.abc import Callable, Sequence
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

from .model import (
    EvalReport,
    Instance,
    Job,
    NotAPermutation,
    Schedule,
    SchedulingError,
    _report,
    _timeline,
)


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
    return _fill_texts(values, [None] * len(values), context)


def _fill_texts(
    values: Sequence[Fraction], texts: list[str | None], context: str
) -> list[str]:
    """``texts``, with each None replaced by the text of the value at its
    position: :func:`format_rationals` for the positions whose text is not
    known yet.  Texts already given are canonical, so within the limit."""
    todo = [i for i, text in enumerate(texts) if text is None]
    _check_writable([values[i] for i in todo], lambda k: f"{context}[{todo[k]}]")
    for i in todo:
        texts[i] = format_rational(values[i])
    return texts


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


_JOB_KEYS = ("id", "alpha", "release")


def parse_instance(text: str) -> Instance:
    """Parse an instance document; building the :class:`Instance` validates it.

    Each distinct alpha or release text of the document is read once and
    its Fraction reused, since alphas repeat heavily.
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
    values: dict[str, Fraction] = {}
    jobs = []
    for idx, job_doc in enumerate(jobs_doc):
        if not isinstance(job_doc, dict):
            raise ParseError(f"jobs[{idx}]: expected an object")
        for key in _JOB_KEYS:
            if key not in job_doc:
                raise ParseError(f"jobs[{idx}]: missing field '{key}'")
        jid = job_doc["id"]
        if not isinstance(jid, int) or isinstance(jid, bool):
            raise ParseError(f"jobs[{idx}].id: expected an integer")
        alpha = _job_value(job_doc, idx, "alpha", values)
        release = _job_value(job_doc, idx, "release", values)
        jobs.append(Job(jid, alpha, release))
    return Instance(beta, tuple(jobs))


def _job_value(job_doc: dict, idx: int, key: str, values: dict[str, Fraction]) -> Fraction:
    """A job's ``alpha`` or ``release``, kept in ``values`` by its text.  A
    text of ASCII digits only goes straight to an int; any other text, or
    one past the digit limit, goes through :func:`parse_rational`, whose
    message names the field."""
    text = job_doc[key]
    if isinstance(text, str):
        value = values.get(text)
        if value is not None:
            return value
        if _digits(text):
            try:
                value = values[text] = Fraction(int(text))
                return value
            except ValueError:  # the interpreter's limit on digits per conversion
                pass
    value = values[text] = parse_rational(text, f"jobs[{idx}].{key}")
    return value


def write_instance(instance: Instance) -> str:
    """The instance document, byte for byte ``json.dumps(doc, indent=2) +
    "\\n"`` of ``{"beta": ..., "jobs": [{"id": ..., "alpha": ...,
    "release": ...}, ...]}``, made by one join over its pieces.

    Raises :class:`SchedulingError` naming ``beta`` or ``jobs[i].id``,
    ``.alpha`` or ``.release`` for the first value, in document order, past
    the digit limit, before any value is converted.
    """
    values = [instance.beta]
    for job in instance.jobs:
        values += (job.id, job.alpha, job.release)
    _check_writable(values, _instance_field)
    pieces = ['{\n  "beta": "', format_rational(instance.beta), '",\n  "jobs": [\n    {\n      "id": ']
    for job in instance.jobs:
        pieces += (
            str(job.id),
            ',\n      "alpha": "',
            format_rational(job.alpha),
            '",\n      "release": "',
            format_rational(job.release),
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
    order; explicit starts are checked for feasibility.  A start whose text
    is the canonical text of its position's earliest start (see
    :func:`_spells`) needs no check and is not parsed into a Fraction: the
    canonical text is unique, so the two values are equal.  Raises :class:`ParseError` for a malformed document or start,
    before :class:`NotAPermutation` or :class:`InfeasibleSchedule`.
    """
    return _schedule_from_text(text, instance)[0]


def _schedule_from_text(
    text: str, instance: Instance
) -> tuple[Schedule, EvalReport, list[str | None]]:
    """A schedule document's schedule, checked against ``instance``; the
    report of its timeline; and the text of each start where the document
    gave its canonical text (None where a start's text is still to be made).

    The earliest starts of the order come from one derived walk.  The
    document's starts keep them for as long as their texts spell them;
    from the first mismatch on, the remaining starts are parsed, every one
    before any is checked, and the whole schedule is walked once more with
    its starts given.  An order that is not a permutation has no earliest
    starts, so all its starts are parsed before that walk refuses it.
    """
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
        starts, completions, gaps = _timeline(instance, order, None)
        return Schedule(order, starts), _report(starts, completions, gaps), [None] * len(order)
    starts_doc = doc["starts"]
    if not isinstance(starts_doc, list):
        raise ParseError("starts: expected an array")
    if len(starts_doc) != len(order):
        raise ParseError(
            f"starts: {len(starts_doc)} entries for {len(order)} order positions"
        )
    try:
        starts, completions, gaps = _timeline(instance, order, None)
    except NotAPermutation:
        starts = []  # so every start is parsed before the walk below refuses the order
    texts: list[str | None] = []
    for start, given in zip(starts, starts_doc):
        if not _spells(given, start):
            break
        texts.append(given)
    matched = len(texts)
    if matched < len(order) or not starts:
        starts = starts[:matched] + [
            parse_rational(s, f"starts[{i}]")
            for i, s in enumerate(starts_doc[matched:], start=matched)
        ]
        _, completions, gaps = _timeline(instance, order, starts)
        texts += [None] * (len(order) - matched)
    return Schedule(order, starts), _report(starts, completions, gaps), texts


def _spells(text: object, value: Fraction) -> bool:
    """Whether ``text`` is the canonical text of ``value``, a value >= 0.

    The spelling is checked first: ASCII digits, no sign, no leading zero,
    and a ``/q`` part exactly when ``value``'s denominator is not 1.  Then
    each part, read as an int, must equal ``value``'s numerator or
    denominator; both are in lowest terms, so no gcd is needed.  A part
    past the digit limit spells nothing here; :func:`parse_rational`
    names it.
    """
    if not isinstance(text, str):
        return False
    num, slash, den = text.partition("/")
    if not _digits(num) or (num[0] == "0" and len(num) > 1):
        return False
    try:
        if value.denominator == 1:
            if slash:
                return False
        elif not _digits(den) or den[0] == "0" or int(den) != value.denominator:
            return False
        return int(num) == value.numerator
    except ValueError:  # the interpreter's limit on digits per conversion
        return False


def _eval_document(
    order: Sequence[int], report: EvalReport, start_texts: list[str | None]
) -> dict:
    """``eval``'s output document for ``report``, writing each text once.

    A start keeps the text it came with (see :func:`_schedule_from_text`).
    A completion followed by a zero gap is the next start, so it takes that
    start's text; a zero gap is ``"0"``; the makespan is the last
    completion's text.  The rest is written as :func:`format_rationals`
    would, list by list in the output's order, so a list past the digit
    limit is refused before any of it is converted.
    """
    starts = _fill_texts(report.starts, start_texts, "starts")
    nexts = [starts[k] if not report.gaps[k] else None for k in range(1, len(starts))]
    completions = _fill_texts(report.completions, nexts + [None], "completions")
    gaps = _fill_texts(report.gaps, ["0" if not gap else None for gap in report.gaps], "gaps")
    return {
        "order": list(order),
        "starts": starts,
        "completions": completions,
        "gaps": gaps,
        "makespan": completions[-1],
        "total_completion": format_rational(report.total_completion, "total_completion"),
    }


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
