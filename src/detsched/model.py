"""Domain model: single-machine jobs whose processing times grow with start time.

A job with fixed part ``alpha`` started at time ``s`` occupies the machine for
``alpha + beta * s`` time units, so it completes at ``alpha + (1 + beta) * s``.
The deterioration rate ``beta > 0`` is shared by every job of an instance;
each job carries its own fixed part and release time.

All quantities are exact rationals (``fractions.Fraction``) or exact
integers.  Terms like ``(1 + beta) ** n`` must compare exactly for the
oracle and the bound checks to mean anything, so floats are kept out of
every computation in this package.

An :class:`Instance` carries its times on integers, in one record
(:class:`_Prepared`) built and checked when the instance is.  The parser
and the random generators build an instance straight from that record;
its :class:`Job` tuple of Fractions is then made only when something
reads it, such as :func:`canonical_starts` and :func:`evaluate`, which
walk the timeline in Fractions.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence


class SchedulingError(Exception):
    """Base class for all errors raised by this package."""


class BetaNonPositive(SchedulingError):
    """The deterioration rate must be strictly positive."""


class NegativeParameter(SchedulingError):
    """A fixed part, release time, or job id is out of range."""


class DuplicateId(SchedulingError):
    """Two jobs share an id."""


class EmptyInstance(SchedulingError):
    """An instance must contain at least one job."""


class NotAPermutation(SchedulingError):
    """A schedule order must list every job id of the instance exactly once."""


class InfeasibleSchedule(SchedulingError):
    """A start time violates a release time or overlaps the predecessor."""


class InvalidArgument(SchedulingError, ValueError):
    """A library call got an argument outside its domain.  Also a
    ``ValueError``, so callers that catch that keep working."""


class NotRational(SchedulingError, TypeError):
    """A scheduling quantity is not an int or a Fraction (floats and bools
    are refused).  Also a ``TypeError``, so callers that catch that keep
    working."""


ZERO = Fraction(0)


def rational(value: int | Fraction) -> Fraction:
    """Coerce ``value`` to an exact rational.  Floats are rejected outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise NotRational("booleans are not scheduling quantities")
    if isinstance(value, int):
        return Fraction(value)
    raise NotRational(f"expected an int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class Job:
    """One job: opaque positive integer id, fixed part, release time."""

    id: int
    alpha: Fraction
    release: Fraction

    def __post_init__(self) -> None:
        # skip rational() and the setattr for a value that is already a Fraction
        if type(self.alpha) is not Fraction:
            object.__setattr__(self, "alpha", rational(self.alpha))
        if type(self.release) is not Fraction:
            object.__setattr__(self, "release", rational(self.release))


class Instance:
    """A deterioration rate and the jobs subject to it; immutable.

    Every instance is valid once built: its integer record
    (:class:`_Prepared`) is built and checked by :func:`validate_instance`
    when the instance is.  ``Instance(beta, jobs)`` derives the record
    from the jobs.  The private :meth:`_from_keys` takes it as the
    integers the parser read or a generator drew, and such an instance
    makes its :attr:`jobs` only when they are first read.  Equality and
    hash are those of ``(beta, jobs)``, read off the record, which
    determines both.
    """

    beta: Fraction
    _prepared: _Prepared

    def __init__(self, beta: int | Fraction, jobs: Iterable[Job]) -> None:
        beta = rational(beta)
        jobs = tuple(jobs)
        d = math.lcm(*(v.denominator for j in jobs for v in (j.alpha, j.release)))
        keys = tuple(
            (
                j.release.numerator * (d // j.release.denominator),
                j.alpha.numerator * (d // j.alpha.denominator),
                j.id,
            )
            for j in jobs
        )
        vars(self)["jobs"] = jobs
        _record(self, beta, d, keys)

    @classmethod
    def _from_keys(cls, beta: Fraction, d: int, keys: tuple[tuple[int, int, int], ...]) -> Instance:
        """The instance of ``beta`` and one ``(R, A, id)`` key per job, in
        instance order, with every alpha and release ``A / d`` and ``R /
        d``.  ``d`` must be the lcm of their lowest-terms denominators, as
        :class:`_Prepared` defines it."""
        instance = cls.__new__(cls)
        _record(instance, beta, d, keys)
        return instance

    @cached_property
    def jobs(self) -> tuple[Job, ...]:
        """The jobs in instance order, made from the record on first read
        when the instance was built from it, with one Fraction per
        distinct value."""
        fractions = _fractions(self._prepared)
        return tuple(Job(jid, fractions[a], fractions[r]) for r, a, jid in self._prepared.keys)

    @property
    def n(self) -> int:
        return len(self._prepared.keys)

    @property
    def growth(self) -> Fraction:
        """The completion multiplier ``1 + beta``."""
        return 1 + self.beta

    def job_map(self) -> dict[int, Job]:
        return {job.id: job for job in self.jobs}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._prepared[:4] == other._prepared[:4]

    def __hash__(self) -> int:
        return hash(self._prepared[:4])

    def __repr__(self) -> str:
        return f"Instance(beta={self.beta!r}, jobs={self.jobs!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Prepared(NamedTuple):
    """An instance's integer set-up, shared by everything that decides on
    integers: the policy loops, the subset DP, both lower bounds, and the
    writers and checks of ``solve`` and ``eval``.

    ``beta = p/q`` in lowest terms and ``d`` is the lcm of every alpha and
    release denominator, so ``R = release * d`` and ``A = alpha * d`` are
    exact integers.  ``keys`` holds one ``(R, A, id)`` per job in instance
    order; ``by_release`` holds the same keys sorted, by ``(R, A, id)``.
    Integer keys order and tie exactly as the Fractions would.

    The record is built where the values arrive: from the jobs by
    ``Instance(beta, jobs)``, from the document's texts by
    :func:`~detsched.serialization.parse_instance`, and from the drawn
    ints, with ``d = 1``, by the random and two-release generators.
    """

    p: int
    q: int
    d: int
    keys: tuple[tuple[int, int, int], ...]
    by_release: tuple[tuple[int, int, int], ...]


def _record(
    instance: Instance, beta: Fraction, d: int, keys: tuple[tuple[int, int, int], ...]
) -> None:
    """Give ``instance`` its ``beta`` and its record of ``keys`` at scale
    ``d``, checked by :func:`validate_instance` before the keys are
    sorted: both :class:`Instance` constructors build theirs here, once
    per instance."""
    record = _Prepared(beta.numerator, beta.denominator, d, keys, ())
    vars(instance).update(beta=beta, _prepared=record)
    validate_instance(instance)
    vars(instance)["_prepared"] = record._replace(by_release=tuple(sorted(keys)))


def _fractions(prepared: _Prepared) -> dict[int, Fraction]:
    """Each distinct ``A`` and ``R`` of the record's keys, mapped to its
    value ``A / d`` or ``R / d``, one Fraction apiece."""
    d = prepared.d
    return {v: Fraction(v, d) for r, a, _ in prepared.keys for v in (r, a)}


@dataclass(frozen=True)
class Schedule:
    """An execution order (job ids by position) with explicit start times."""

    order: tuple[int, ...]
    starts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        starts = tuple(self.starts)
        if not all(type(s) is Fraction for s in starts):
            starts = tuple(map(rational, starts))
        object.__setattr__(self, "starts", starts)
        if len(self.order) != len(self.starts):
            raise InvalidArgument("order and starts must have equal length")


@dataclass(frozen=True)
class EvalReport:
    """Per-position timings plus both objective values."""

    starts: tuple[Fraction, ...]
    completions: tuple[Fraction, ...]
    gaps: tuple[Fraction, ...]
    makespan: Fraction
    total_completion: Fraction


def _show(value: int | Fraction) -> str:
    """``str(value)`` for an error message, or the value's size when its
    digits would pass the interpreter's limit on integer string conversion.
    Takes job ids too: an int has a numerator and a denominator."""
    try:
        return str(value)
    except ValueError:
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        return f"a {bits}-bit value"


def validate_instance(instance: Instance) -> Instance:
    """Check every instance invariant on its record's integers; return the
    instance unchanged.

    Both :class:`Instance` constructors run this when they build the
    record, so a second call only repeats the checks: at least one job,
    ``beta > 0``, and per job in instance order, a positive non-bool int
    id, ``A >= 0``, ``R >= 0`` and an id not seen before.  A message shows
    a value as its Fraction.  Raises :class:`EmptyInstance`,
    :class:`BetaNonPositive`, :class:`NegativeParameter`, or
    :class:`DuplicateId`.
    """
    d, keys = instance._prepared.d, instance._prepared.keys
    if not keys:
        raise EmptyInstance("instance has no jobs")
    # a Fraction's sign is its numerator's: its denominator is positive
    if instance.beta.numerator <= 0:
        raise BetaNonPositive(f"beta must be > 0, got {_show(instance.beta)}")
    seen: set[int] = set()
    for r, a, jid in keys:
        if not isinstance(jid, int) or isinstance(jid, bool) or jid < 1:
            raise NegativeParameter(f"job id must be a positive integer, got {_show(jid)}")
        if a < 0:
            raise NegativeParameter(f"job {_show(jid)}: alpha must be >= 0, got {_show(Fraction(a, d))}")
        if r < 0:
            raise NegativeParameter(f"job {_show(jid)}: release must be >= 0, got {_show(Fraction(r, d))}")
        if jid in seen:
            raise DuplicateId(f"job id {_show(jid)} occurs more than once")
        seen.add(jid)
    return instance


def _timeline(
    instance: Instance, order: Sequence[int], starts: Sequence[Fraction] | None
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """The model's forward pass of ``s = max(release, C); C = alpha +
    (1+beta)*s`` in Fractions, shared by :func:`canonical_starts` and
    :func:`evaluate`.

    With ``starts`` None each job starts as early as it can; otherwise the
    given starts are checked against releases and predecessor completions.
    Returns the starts, the completions and the idle gap ahead of each
    position, in both modes; a derived start's gap is zero unless the job
    waits for its release.
    """
    if sorted(order) != sorted(job.id for job in instance.jobs):
        raise NotAPermutation("order must list every job id of the instance exactly once")
    jobs = instance.job_map()
    g = instance.growth
    derived = starts is None
    out_starts: list[Fraction] = [] if derived else list(starts)
    completions: list[Fraction] = []
    gaps: list[Fraction] = []
    completion = ZERO
    for k, jid in enumerate(order):
        job = jobs[jid]
        if derived:
            if job.release > completion:
                s = job.release
                gaps.append(s - completion)
            else:
                s = completion
                gaps.append(ZERO)
            out_starts.append(s)
        else:
            s = out_starts[k]
            if s < job.release:
                raise InfeasibleSchedule(
                    f"job {_show(jid)} starts at {_show(s)}, before its release {_show(job.release)}"
                )
            gap = ZERO if s == completion else s - completion
            if gap < 0:
                raise InfeasibleSchedule(
                    f"job {_show(jid)} starts at {_show(s)}, before its predecessor "
                    f"completes at {_show(completion)}"
                )
            gaps.append(gap)
        completion = job.alpha + g * s
        completions.append(completion)
    return out_starts, completions, gaps


def canonical_starts(instance: Instance, order: Sequence[int]) -> Schedule:
    """Earliest-start schedule for ``order``: each job begins at
    ``max(release, predecessor completion)``.

    Completions are monotone in starts, so among all feasible start
    assignments with this order the canonical one minimizes both the
    makespan and the total completion time.
    """
    starts, _, _ = _timeline(instance, order, None)
    return Schedule(tuple(order), tuple(starts))


def evaluate(instance: Instance, schedule: Schedule) -> EvalReport:
    """Simulate ``schedule`` forward; report starts, completions, gaps, and
    both objective values.

    A gap is the idle interval before a position: ``starts[k] - completion
    of position k-1`` (the first position's gap is its start time).  Raises
    :class:`InfeasibleSchedule` when a start precedes a release or its
    predecessor's completion.  The total completion is summed per distinct
    denominator, then across them (see :func:`_report`).
    """
    _, completions, gaps = _timeline(instance, schedule.order, schedule.starts)
    return _report(schedule.starts, completions, gaps)


def _report(
    starts: Sequence[Fraction], completions: Sequence[Fraction], gaps: Sequence[Fraction]
) -> EvalReport:
    """The :class:`EvalReport` of a timeline that :func:`_timeline` walked.

    The total completion adds the numerators of each distinct denominator
    first, then folds those partial sums in ascending denominator order,
    as ``num * (L // den) + part * (L // q)`` over ``L = lcm(den, q)``.
    The big-int gcd that reduces the result runs once rather than at every
    addition, and no numerator is scaled to the common denominator of all
    the completions.  When each denominator divides the next, as powers of
    ``1 + beta`` do, every scale factor is small.
    """
    parts: dict[int, int] = {}
    for c in completions:
        parts[c.denominator] = parts.get(c.denominator, 0) + c.numerator
    num, den = 0, 1
    for q in sorted(parts):
        common = math.lcm(den, q)
        num = num * (common // den) + parts[q] * (common // q)
        den = common
    return EvalReport(
        starts=tuple(starts),
        completions=tuple(completions),
        gaps=tuple(gaps),
        makespan=completions[-1] if completions else ZERO,
        total_completion=Fraction(num, den),
    )
