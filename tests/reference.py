"""The reference model: every route the tests check the library against,
written once, on Fractions, from the model's definitions.

pytest does not collect this file; tests import it as ``import
reference``.  It is independent of the code it checks by one rule: from
``detsched`` it may import data types, enums and exception classes, and
the text primitives that the routes share by contract
(:func:`parse_rational`, :func:`format_rational`,
:func:`format_rationals`, :func:`decimal_string`, ``_loads``,
``_check_writable`` and ``_dumps``), and nothing that computes a time, an
order, an optimum or a bound.  ``tests/test_reference_imports.py``
enforces the rule.  A route that takes an order, such as the ``opt``
writer, is given the library's order by the test and derives everything
else from it.

Here are the timeline, the policies as plain O(n^2) loops, brute force,
the subset DP (on integers at a scale derived here from the Fractions),
the two lower bounds, and the document routes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction

from detsched import Family, FamilySpec, Instance, Job, Objective, OptResult, Schedule, SchedulerChoice
from detsched.experiment import ExperimentRow
from detsched.model import InfeasibleSchedule, InvalidArgument, NotAPermutation, NotRational, SchedulingError
from detsched.serialization import (
    ParseError,
    _check_writable,
    _loads,
    decimal_string,
    format_rational,
    format_rationals,
    parse_rational,
)

ZERO = Fraction(0)


def show(value: int | Fraction) -> str:
    """A value as a message spells it: its text, or its size in bits when
    its digits pass the interpreter's limit on integer string conversion."""
    try:
        return str(value)
    except ValueError:
        return f"a {max(value.numerator.bit_length(), value.denominator.bit_length())}-bit value"


def timeline(instance: Instance, order, starts=None) -> tuple[list, list, list]:
    """The starts, completions and gaps of ``order``.  Each job starts at
    the later of its release and its predecessor's completion, or at the
    given start, which may be neither earlier than its release nor earlier
    than that completion; it completes at ``alpha + (1 + beta) * start``."""
    jobs = {job.id: job for job in instance.jobs}
    if sorted(order) != sorted(jobs):
        raise NotAPermutation("order must list every job id of the instance exactly once")
    out, completions, gaps = [], [], []
    completion = ZERO
    for k, jid in enumerate(order):
        job = jobs[jid]
        if starts is None:
            start = max(job.release, completion)
        else:
            start = starts[k]
            if start < job.release:
                raise InfeasibleSchedule(
                    f"job {show(jid)} starts at {show(start)}, before its release {show(job.release)}"
                )
            if start < completion:
                raise InfeasibleSchedule(
                    f"job {show(jid)} starts at {show(start)}, before its predecessor "
                    f"completes at {show(completion)}"
                )
        out.append(start)
        gaps.append(start - completion)
        completion = job.alpha + (1 + instance.beta) * start
        completions.append(completion)
    return out, completions, gaps


def schedule(instance: Instance, order) -> Schedule:
    """The canonical schedule of ``order``."""
    return Schedule(tuple(order), tuple(timeline(instance, order)[0]))


def total(completions) -> Fraction:
    """The sum of ``completions``, over the common denominator of them all."""
    common = math.lcm(*(c.denominator for c in completions))
    return Fraction(sum(c.numerator * (common // c.denominator) for c in completions), common)


# The policies.  The greedy ones take the pending job with the smallest
# (alpha, release, id) and never idle while a job is pending, except that
# non-interfering waits for the release of a shorter job that the
# candidate would run over.  ECTF takes the job with the smallest
# (estimated completion, alpha, id), waiting for its release if need be.

def is_interfering(instance: Instance, candidate_id: int, t: int | Fraction) -> Fraction | None:
    """The smallest release ``r`` with ``t < r < (1 + beta) * t +
    alpha_candidate`` among jobs with a strictly smaller fixed part, or
    None: whether starting ``candidate_id`` at ``t`` would run over a
    shorter job's release.  Both inequalities are strict."""
    candidate = next(job for job in instance.jobs if job.id == candidate_id)
    horizon = (1 + instance.beta) * t + candidate.alpha
    blocking = [
        job.release
        for job in instance.jobs
        if job.id != candidate_id and job.alpha < candidate.alpha and t < job.release < horizon
    ]
    return min(blocking) if blocking else None


def _greedy(instance: Instance, interfering: bool) -> list[int]:
    remaining = list(instance.jobs)
    t = ZERO
    order = []
    while remaining:
        pending = [j for j in remaining if j.release <= t]
        if not pending:
            t = min(j.release for j in remaining)
            continue
        job = min(pending, key=lambda j: (j.alpha, j.release, j.id))
        blocking = is_interfering(instance, job.id, t) if interfering else None
        if blocking is not None:
            t = blocking  # jobs already started never block: their releases are <= t
            continue
        remaining.remove(job)
        order.append(job.id)
        t = job.alpha + (1 + instance.beta) * t
    return order


def _ectf(instance: Instance) -> list[int]:
    g = 1 + instance.beta
    remaining = list(instance.jobs)
    t = ZERO
    order = []
    while remaining:
        job = min(remaining, key=lambda j: (g * max(t, j.release) + j.alpha, j.alpha, j.id))
        remaining.remove(job)
        order.append(job.id)
        t = job.alpha + g * max(t, job.release)
    return order


def policy_order(instance: Instance, choice: SchedulerChoice) -> tuple[int, ...]:
    """``choice``'s order; best-of-two keeps the greedy order of the smaller
    makespan, non-idling on a tie."""
    if choice is SchedulerChoice.NON_IDLING:
        return tuple(_greedy(instance, False))
    if choice is SchedulerChoice.NON_INTERFERING:
        return tuple(_greedy(instance, True))
    if choice is SchedulerChoice.ECTF:
        return tuple(_ectf(instance))
    idling = policy_order(instance, SchedulerChoice.NON_IDLING)
    interfering = policy_order(instance, SchedulerChoice.NON_INTERFERING)
    makespans = [timeline(instance, order)[1][-1] for order in (idling, interfering)]
    return idling if makespans[0] <= makespans[1] else interfering


# The exact optima and the lower bounds.

def brute_force(instance: Instance, objective: Objective) -> OptResult:
    """The best of every order from ``itertools.permutations``, each
    timeline recomputed from the start; ties go to the lexicographically
    smallest order."""
    jobs = {job.id: job for job in instance.jobs}
    g = 1 + instance.beta
    want_total = objective is Objective.TOTAL_COMPLETION
    best_order, best_value = None, None
    for order in itertools.permutations(sorted(jobs)):
        completion = running = ZERO
        for jid in order:
            job = jobs[jid]
            completion = job.alpha + g * (job.release if job.release > completion else completion)
            if want_total:
                running += completion
            elif best_value is not None and completion >= best_value:
                break  # completions only grow: this order cannot improve
        else:
            value = running if want_total else completion
            if best_value is None or value < best_value:
                best_order, best_value = order, value
    return OptResult(objective=objective, best_schedule=schedule(instance, best_order), best_value=best_value)


def time_scale(instance: Instance) -> int:
    """The lcm of every alpha and release denominator."""
    return math.lcm(*(v.denominator for j in instance.jobs for v in (j.alpha, j.release)))


def keys(instance: Instance, scale: int | None = None) -> tuple[tuple[int, int, int], ...]:
    """One ``(release, alpha, id)`` per job in instance order, the times
    multiplied by ``scale``, by :func:`time_scale` when None."""
    scale = time_scale(instance) if scale is None else scale
    return tuple((int(j.release * scale), int(j.alpha * scale), j.id) for j in instance.jobs)


def scaled(instance: Instance) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    """``(L, q, p+q, jobs)`` with ``beta = p/q`` and ``L = time_scale *
    q**n``, and one ``(bit, alpha, release)`` per job in instance order,
    its times multiplied by ``L``.  A completion of k <= n jobs is then an
    integer, and a start of one placed k deep a multiple of ``q**(n-k+1)``,
    so the step ``alpha + start // q * (p+q)`` is exact."""
    q = instance.beta.denominator
    scale = time_scale(instance) * q ** len(instance.jobs)
    jobs = [(1 << i, a, r) for i, (r, a, _) in enumerate(keys(instance, scale))]
    return scale, q, instance.beta.numerator + q, jobs


def dp_min_makespan(instance: Instance) -> Fraction:
    """The full table: ``best[S]`` is the earliest completion of the jobs
    in ``S``, the minimum over its last job ``j`` of ``alpha_j + (1 + beta)
    * max(release_j, best[S - j])``."""
    scale, q, pq, jobs = scaled(instance)
    best = [0] * (1 << len(jobs))
    for mask in range(1, len(best)):
        value = None
        for bit, alpha, release in jobs:
            if mask & bit:
                prev = best[mask ^ bit]
                candidate = alpha + (release if release > prev else prev) // q * pq
                if value is None or candidate < value:
                    value = candidate
        best[mask] = value
    return Fraction(best[-1], scale)


def makespan_optimum(instance: Instance) -> OptResult:
    """The makespan optimum and the lexicographically smallest optimal
    order by id, from the backward table.  ``latest[R]`` is the latest
    free time from which the remaining set R can still finish by the
    optimum: ``latest[{}] = OPT``, and ``latest[R]`` is the max, over jobs
    j in R with ``release_j <= s_j``, of ``s_j = (latest[R - j] - alpha_j)
    * q // (p+q)``, or -1 when no job qualifies.  The floor is exact: a
    reachable start is a multiple of q, so a reachable completion is an
    integer, and an integer is at most x exactly when it is at most
    floor(x).  The walk then takes, at each step, the smallest id whose
    completion still leaves the rest finishable by the optimum."""
    value = dp_min_makespan(instance)
    scale, q, pq, jobs = scaled(instance)
    full = (1 << len(jobs)) - 1
    latest = [-1] * (full + 1)
    latest[0] = int(value * scale)
    for rest in range(1, full + 1):
        for bit, alpha, release in jobs:
            if rest & bit:
                start = (latest[rest ^ bit] - alpha) * q // pq
                if release <= start and start > latest[rest]:
                    latest[rest] = start
    by_id = sorted((job.id, bit, alpha, release) for job, (bit, alpha, release) in zip(instance.jobs, jobs))
    order = []
    free, rest = 0, full
    while rest:
        for jid, bit, alpha, release in by_id:
            if rest & bit:
                completion = alpha + (release if release > free else free) // q * pq
                if completion <= latest[rest ^ bit]:
                    break
        else:  # latest[rest] >= free guarantees a job above
            raise AssertionError("no job leaves the rest finishable by the optimum")
        order.append(jid)
        free = completion
        rest ^= bit
    return OptResult(objective=Objective.MAKESPAN, best_schedule=schedule(instance, order), best_value=value)


def lb_release(instance: Instance) -> Fraction:
    """``sum beta**(n-i) * r_(i)`` over the releases sorted ascending."""
    bound = ZERO
    for release in sorted(job.release for job in instance.jobs):
        bound = bound * instance.beta + release
    return bound


def rational(value: int | Fraction) -> Fraction:
    """``value`` as a Fraction; floats and bools are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise NotRational("booleans are not scheduling quantities")
    if isinstance(value, int):
        return Fraction(value)
    raise NotRational(f"expected an int or Fraction, got {type(value).__name__}")


def sorted_subset_cost(beta, alphas, t) -> Fraction:
    """The completion of ``alphas`` run back to back in ascending order
    from ``t``."""
    beta = rational(beta)
    if beta <= 0:
        raise InvalidArgument(f"beta must be > 0, got {show(beta)}")
    t = rational(t)
    if t < 0:
        raise InvalidArgument(f"t must be >= 0, got {show(t)}")
    completion = t
    for alpha in sorted(rational(a) for a in alphas):
        if alpha < 0:
            raise InvalidArgument(f"alpha must be >= 0, got {show(alpha)}")
        completion = alpha + (1 + beta) * completion
    return completion


# The document routes.  Each document is written by json.dumps(indent=2).

def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _parsed_schedule(text: str, instance: Instance) -> tuple[tuple[int, ...], list, list, list]:
    """A schedule document's order and its timeline: every start parsed,
    then the whole schedule checked."""
    doc = _loads(text, "schedule")
    if not isinstance(doc, dict):
        raise ParseError("schedule: top level must be an object")
    if "order" not in doc:
        raise ParseError("schedule: missing field 'order'")
    order = doc["order"]
    if not isinstance(order, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in order):
        raise ParseError("order: expected an array of integers")
    starts = doc.get("starts")
    if starts is not None:
        if not isinstance(starts, list):
            raise ParseError("starts: expected an array")
        if len(starts) != len(order):
            raise ParseError(f"starts: {len(starts)} entries for {len(order)} order positions")
        starts = [parse_rational(s, f"starts[{i}]") for i, s in enumerate(starts)]
    return (tuple(order), *timeline(instance, order, starts))


def parse_schedule(text: str, instance: Instance) -> Schedule:
    """A schedule document's schedule: the canonical one of its order
    when it gives no starts."""
    order, starts, _, _ = _parsed_schedule(text, instance)
    return Schedule(order, tuple(starts))


def eval_document(text: str, instance: Instance) -> str:
    order, starts, completions, gaps = _parsed_schedule(text, instance)
    return _json(
        {
            "order": list(order),
            "starts": format_rationals(starts, "starts"),
            "completions": format_rationals(completions, "completions"),
            "gaps": format_rationals(gaps, "gaps"),
            "makespan": format_rational(completions[-1], "makespan"),
            "total_completion": format_rational(total(completions), "total_completion"),
        }
    )


def _schedule_fields(instance: Instance, order) -> tuple[dict, list]:
    """The order and starts fields of the canonical schedule of ``order``,
    the order checked first, and its completions."""
    _check_writable(order, lambda i: f"order[{i}]")
    starts, completions, _ = timeline(instance, order)
    return {"order": list(order), "starts": format_rationals(starts, "starts")}, completions


def solve_document(instance: Instance, order) -> str:
    return _json(_schedule_fields(instance, order)[0])


def opt_document(instance: Instance, objective: Objective, order) -> tuple[int, str, str]:
    """``opt``'s exit status, output and error output when ``order`` is the
    optimum's."""
    try:
        fields, completions = _schedule_fields(instance, order)
        value = completions[-1] if objective is Objective.MAKESPAN else total(completions)
        text = _json({"objective": objective.value, **fields, "value": format_rational(value, "value")})
    except SchedulingError as exc:
        return 1, "", f"error: {exc}\n"
    return 0, text, ""


def write_instance(instance: Instance) -> str:
    return _json(
        {
            "beta": format_rational(instance.beta),
            "jobs": [
                {"id": job.id, "alpha": format_rational(job.alpha), "release": format_rational(job.release)}
                for job in instance.jobs
            ],
        }
    )


def parse_instance(text: str) -> Instance:
    """Every job document checked, then parsed, field by field."""
    doc = _loads(text, "instance")
    if not isinstance(doc, dict):
        raise ParseError("instance: top level must be an object")
    for key in ("beta", "jobs"):
        if key not in doc:
            raise ParseError(f"instance: missing field '{key}'")
    beta = parse_rational(doc["beta"], "beta")
    if not isinstance(doc["jobs"], list):
        raise ParseError("jobs: expected an array")
    jobs = []
    for idx, job_doc in enumerate(doc["jobs"]):
        if not isinstance(job_doc, dict):
            raise ParseError(f"jobs[{idx}]: expected an object")
        for key in ("id", "alpha", "release"):
            if key not in job_doc:
                raise ParseError(f"jobs[{idx}]: missing field '{key}'")
        jid = job_doc["id"]
        if not isinstance(jid, int) or isinstance(jid, bool):
            raise ParseError(f"jobs[{idx}].id: expected an integer")
        jobs.append(Job(jid, _job_value(job_doc, idx, "alpha"), _job_value(job_doc, idx, "release")))
    return Instance(beta, tuple(jobs))


def _job_value(job_doc: dict, idx: int, key: str) -> Fraction:
    """A text of ASCII digits only goes straight to an int; any other
    text, or one past the digit limit, goes through parse_rational."""
    text = job_doc[key]
    if isinstance(text, str) and text.isascii() and text.isdigit():
        try:
            return Fraction(int(text))
        except ValueError:  # the interpreter's limit on digits per conversion
            pass
    return parse_rational(text, f"jobs[{idx}].{key}")


def generate(spec: FamilySpec) -> Instance:
    """The random families' jobs as Fractions, drawn with ``randint`` and
    ``randrange``: per job its fixed part, then its release; or every
    fixed part, then every late flag, and one flag flipped if all agree."""
    rng = random.Random(spec.seed)
    if spec.family is Family.RANDOM:
        draw = rng.randint
        return Instance(spec.beta, [Job(i, draw(0, spec.alpha_max), draw(0, spec.r_max)) for i in range(1, spec.n + 1)])
    alphas = [rng.randint(0, spec.alpha_max) for _ in range(spec.n)]
    late = [rng.randint(0, 1) for _ in range(spec.n)]
    if not any(late):
        late[rng.randrange(spec.n)] = 1
    elif all(late):
        late[rng.randrange(spec.n)] = 0
    return Instance(spec.beta, [Job(i + 1, alphas[i], spec.r_max if late[i] else 0) for i in range(spec.n)])


CSV_HEADER = (
    "instance_id", "n", "beta", "family", "seed", "algorithm", "objective", "value",
    "opt_value", "ratio", "ratio_decimal", "lb_release", "lb_fixed", "wall_time_ms",
)


def write_csv(rows: list[ExperimentRow]) -> str:
    """The experiment CSV, one ``writerow`` per row, every cell of the row
    formatted from its own values."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        opt = "" if row.opt_value is None else format_rational(row.opt_value)
        ratio = ("", "") if row.ratio is None else (format_rational(row.ratio), decimal_string(row.ratio))
        writer.writerow([
            row.instance_id, str(row.n), decimal_string(row.beta), row.family, str(row.seed), row.algorithm,
            row.objective, format_rational(row.value), opt, *ratio, format_rational(row.lb_release),
            format_rational(row.lb_fixed), row.wall_time_ms,
        ])
    return buffer.getvalue()
