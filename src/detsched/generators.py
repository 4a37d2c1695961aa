"""Instance families: seeded random instances and the adversarial families
that pin each algorithm's worst-case ratio behavior."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .model import (
    Instance,
    Job,
    NotAPermutation,
    Schedule,
    SchedulingError,
    ZERO,
    _show,
    rational,
)


class Family(Enum):
    RANDOM = "random"
    TWO_RELEASE = "two-release"
    NONINTERFERING_ADV = "noninterfering-adv"
    NONIDLING_ADV = "nonidling-adv"
    ECTF_ADV = "ectf-adv"


class BadSpec(SchedulingError):
    """A family spec's parameters are inconsistent with its family."""


@dataclass(frozen=True)
class FamilySpec:
    """Parameters for one generated instance.

    ``n`` counts jobs for the random and staggered-release families; the
    non-idling and estimate-first adversarial families read it as their size
    parameter k (producing k+1 and 2k jobs).  ``b`` is the scale parameter;
    families pick documented defaults when it is None.  ``alpha_max`` and
    ``r_max`` only apply to the random families.  ``n``, ``seed``,
    ``alpha_max`` and ``r_max`` must be ints (bools are refused), so every
    instance is reproducible from its spec.
    """

    family: Family
    n: int
    beta: Fraction
    b: Fraction | None = None
    seed: int = 0
    alpha_max: int = 8
    r_max: int = 12

    def __post_init__(self) -> None:
        for name in ("n", "seed", "alpha_max", "r_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadSpec(f"{name} must be an int, got {type(value).__name__}")
        object.__setattr__(self, "beta", rational(self.beta))
        if self.b is not None:
            object.__setattr__(self, "b", rational(self.b))
        if self.n < 1:
            raise BadSpec(f"n must be >= 1, got {_show(self.n)}")
        if self.beta <= 0:
            raise BadSpec(f"beta must be > 0, got {_show(self.beta)}")


class _Fractions(dict):
    """Each drawn int as a Fraction, made once per distinct value."""

    def __missing__(self, value: int) -> Fraction:
        fraction = self[value] = Fraction(value)
        return fraction


def _gen_random(spec: FamilySpec) -> Instance:
    """n jobs with integer fixed parts in [0, alpha_max] and integer releases
    in [0, r_max], drawn from a seeded generator."""
    if spec.alpha_max < 0 or spec.r_max < 0:
        raise BadSpec("alpha_max and r_max must be >= 0")
    rng = random.Random(spec.seed)
    fractions = _Fractions()
    jobs = tuple(
        Job(i, fractions[rng.randint(0, spec.alpha_max)], fractions[rng.randint(0, spec.r_max)])
        for i in range(1, spec.n + 1)
    )
    return Instance(spec.beta, jobs)


def _gen_two_release(spec: FamilySpec) -> Instance:
    """Random fixed parts; every release is either 0 or r_max, with at least
    one of each."""
    if spec.n < 2:
        raise BadSpec("two-release instances need n >= 2")
    if spec.r_max < 1:
        raise BadSpec("two-release instances need r_max >= 1")
    if spec.alpha_max < 0:
        raise BadSpec("alpha_max must be >= 0")
    rng = random.Random(spec.seed)
    alphas = [rng.randint(0, spec.alpha_max) for _ in range(spec.n)]
    late = [rng.randint(0, 1) for _ in range(spec.n)]
    if not any(late):
        late[rng.randrange(spec.n)] = 1
    elif all(late):
        late[rng.randrange(spec.n)] = 0
    fractions = _Fractions()
    jobs = tuple(
        Job(i + 1, fractions[alphas[i]], fractions[spec.r_max if late[i] else 0])
        for i in range(spec.n)
    )
    return Instance(spec.beta, jobs)


def _gen_noninterfering_adv(spec: FamilySpec) -> Instance:
    """Staggered releases that bait the non-interfering policy into idling
    through every release: job j has fixed part B + n - j and release
    ``B * sum_{i=1..j} (1 + beta)**(i-1)``.  Requires B >= n; defaults to
    B = n**2 so the ratio growth experiments have headroom."""
    n = spec.n
    b = spec.b if spec.b is not None else Fraction(n * n)
    if b < n:
        raise BadSpec(f"B must be >= n ({_show(n)}), got {_show(b)}")
    g = 1 + spec.beta
    jobs = []
    release = ZERO
    weight = Fraction(1)
    for j in range(1, n + 1):
        release = release + weight * b
        weight = weight * g
        jobs.append(Job(j, b + n - j, release))
    return Instance(spec.beta, tuple(jobs))


def _gen_nonidling_adv(spec: FamilySpec) -> Instance:
    """One heavy job available immediately plus k zero-fixed-part jobs
    released at time 1.  With the default B = (1 + beta)**(k+1), the
    non-idling policy's ratio is exactly (1 + beta)**k / 2."""
    k = spec.n
    g = 1 + spec.beta
    b = spec.b if spec.b is not None else g ** (k + 1)
    if b <= 0:
        raise BadSpec(f"B must be > 0, got {_show(b)}")
    jobs = [Job(1, b, ZERO)]
    jobs.extend(Job(i, ZERO, Fraction(1)) for i in range(2, k + 2))
    return Instance(spec.beta, tuple(jobs))


def _gen_ectf_adv(spec: FamilySpec) -> Instance:
    """k long jobs (fixed part (1 + beta) * B, release 0) interleaved with k
    zero-fixed-part jobs at staggered releases ``B * sum (1 + beta)**(i-1)``.
    The completion-estimate policy runs all the zeros first and loses a
    factor approaching 1 + 1/(1 + beta)**k."""
    k = spec.n
    b = spec.b if spec.b is not None else Fraction(1)
    if b <= 0:
        raise BadSpec(f"B must be > 0, got {_show(b)}")
    g = 1 + spec.beta
    jobs = [Job(i, g * b, ZERO) for i in range(1, k + 1)]
    release = ZERO
    weight = Fraction(1)
    for j in range(1, k + 1):
        release = release + weight * b
        weight = weight * g
        jobs.append(Job(k + j, ZERO, release))
    return Instance(spec.beta, tuple(jobs))


_GENERATORS = {
    Family.RANDOM: _gen_random,
    Family.TWO_RELEASE: _gen_two_release,
    Family.NONINTERFERING_ADV: _gen_noninterfering_adv,
    Family.NONIDLING_ADV: _gen_nonidling_adv,
    Family.ECTF_ADV: _gen_ectf_adv,
}


def generate(spec: FamilySpec) -> Instance:
    """Dispatch to the family named by ``spec.family``."""
    return _GENERATORS[spec.family](spec)


def reduce_instance(instance: Instance, ni_schedule: Schedule) -> Instance:
    """Clamp every release so the given order replays without idling.

    Walking ``ni_schedule``'s order, the job at position k gets release
    ``min(original release, gap-free completion of the first k-1 fixed
    parts)``.  Replaying the same order on the reduced instance has zero
    gaps, and re-running the non-interfering policy reproduces it gap-free
    too, with one tie-break caveat: jobs in a leading all-zero-fixed-part
    block finish at time 0 whatever their sequence, their clamped releases
    collapse to 0, and the deterministic policy re-emits that block in id
    order.  Ids and fixed parts are untouched.  Raises
    :class:`NotAPermutation` unless the order lists every job id of the
    instance exactly once.
    """
    jobs = instance.job_map()
    order = ni_schedule.order
    if len(order) != len(jobs) or set(order) != jobs.keys():
        raise NotAPermutation("order must list every job id of the instance exactly once")
    g = instance.growth
    new_release: dict[int, Fraction] = {}
    prefix = ZERO
    for jid in order:
        job = jobs[jid]
        new_release[jid] = min(job.release, prefix)
        prefix = job.alpha + g * prefix
    reduced = tuple(Job(j.id, j.alpha, new_release[j.id]) for j in instance.jobs)
    return Instance(instance.beta, reduced)
