"""Domain model: single-machine jobs whose processing times grow with start time.

A job with fixed part ``alpha`` started at time ``s`` occupies the machine for
``alpha + beta * s`` time units, so it completes at ``alpha + (1 + beta) * s``.
The deterioration rate ``beta > 0`` is shared by every job of an instance;
each job carries its own fixed part and release time.

All quantities are exact rationals (``fractions.Fraction``).  Terms like
``(1 + beta) ** n`` must compare exactly for the oracle and the bound checks
to mean anything, so floats are kept out of every computation in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence


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


@dataclass(frozen=True)
class Instance:
    """A deterioration rate and the jobs subject to it.

    Every instance is valid once built: construction runs
    :func:`validate_instance`, so nothing downstream checks it again.
    """

    beta: Fraction
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", rational(self.beta))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        validate_instance(self)

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def growth(self) -> Fraction:
        """The completion multiplier ``1 + beta``."""
        return 1 + self.beta

    def job_map(self) -> dict[int, Job]:
        return {job.id: job for job in self.jobs}

    @cached_property
    def _prepared(self) -> _Prepared:
        """The instance's times on integers (see :class:`_Prepared`),
        built on first use and then kept."""
        return _prepare(self)


class _Prepared(NamedTuple):
    """An instance's integer set-up, shared by everything that decides on
    integers: the policy loops, the subset DP and both lower bounds.

    ``beta = p/q`` in lowest terms and ``d`` is the lcm of every alpha and
    release denominator, so ``R = release * d`` and ``A = alpha * d`` are
    exact integers.  ``keys`` holds one ``(R, A, id)`` per job in instance
    order; ``by_release`` holds the same keys sorted, by ``(R, A, id)``.
    Integer keys order and tie exactly as the Fractions would.
    """

    p: int
    q: int
    d: int
    keys: tuple[tuple[int, int, int], ...]
    by_release: tuple[tuple[int, int, int], ...]


def _prepare(instance: Instance) -> _Prepared:
    """:attr:`Instance._prepared`'s body: one lcm, 2n scalings, one sort."""
    jobs = instance.jobs
    d = math.lcm(*(v.denominator for j in jobs for v in (j.alpha, j.release)))
    keys = tuple(
        (
            j.release.numerator * (d // j.release.denominator),
            j.alpha.numerator * (d // j.alpha.denominator),
            j.id,
        )
        for j in jobs
    )
    beta = instance.beta
    return _Prepared(beta.numerator, beta.denominator, d, keys, tuple(sorted(keys)))


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
    """Check every instance invariant; return the instance unchanged.

    :class:`Instance` runs this when it is built, so a second call only
    repeats the checks.  Raises :class:`EmptyInstance`, :class:`BetaNonPositive`,
    :class:`NegativeParameter`, or :class:`DuplicateId`.
    """
    if not instance.jobs:
        raise EmptyInstance("instance has no jobs")
    # a Fraction's sign is its numerator's: its denominator is positive
    if instance.beta.numerator <= 0:
        raise BetaNonPositive(f"beta must be > 0, got {_show(instance.beta)}")
    seen: set[int] = set()
    for job in instance.jobs:
        if not isinstance(job.id, int) or isinstance(job.id, bool) or job.id < 1:
            raise NegativeParameter(f"job id must be a positive integer, got {_show(job.id)}")
        if job.alpha.numerator < 0:
            raise NegativeParameter(f"job {_show(job.id)}: alpha must be >= 0, got {_show(job.alpha)}")
        if job.release.numerator < 0:
            raise NegativeParameter(f"job {_show(job.id)}: release must be >= 0, got {_show(job.release)}")
        if job.id in seen:
            raise DuplicateId(f"job id {_show(job.id)} occurs more than once")
        seen.add(job.id)
    return instance


def _timeline(
    instance: Instance, order: Sequence[int], starts: Sequence[Fraction] | None
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """The one forward pass of ``s = max(release, C); C = alpha + (1+beta)*s``.

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
