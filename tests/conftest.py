"""Shared strategies and helpers.

Instances built here always carry exact rationals; strategies lean on
small denominators so brute-force comparisons stay fast.
"""

from __future__ import annotations

import json
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from detsched import Family, FamilySpec, Instance, Job, generate, validate_instance


def make_instance(beta, jobs) -> Instance:
    """jobs: iterable of (id, alpha, release) with ints or Fractions."""
    return validate_instance(
        Instance(
            Fraction(beta),
            tuple(Job(i, Fraction(a), Fraction(r)) for i, a, r in jobs),
        )
    )


# small nonnegative rationals with denominators in {1, 2, 3, 4}
small_rationals = st.builds(
    Fraction,
    st.integers(min_value=0, max_value=24),
    st.sampled_from([1, 2, 3, 4]),
)

# rational texts the syntax refuses: a trailing newline, which ``$``
# matches before, and decimal digits outside ASCII, which ``\d`` matches
LOOSE_RATIONALS = ["5\n", "3/4\n", "\u0663", "\uff11\uff12/\uff15"]

betas = st.sampled_from(
    [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)]
)


@st.composite
def instances(draw, min_n=1, max_n=6, beta_strategy=betas):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    beta = draw(beta_strategy)
    jobs = tuple(
        Job(i, draw(small_rationals), draw(small_rationals))
        for i in range(1, n + 1)
    )
    return validate_instance(Instance(beta, jobs))


def size_betas(n: int) -> st.SearchStrategy[Fraction]:
    """Betas for an instance of size ``n``: three fixed ones, one with
    denominator 7, and the paper's two regimes, 1/n and n+1."""
    return st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 7), Fraction(1, n), Fraction(n + 1)])


def regime_betas(n: int) -> st.SearchStrategy[Fraction]:
    """The two regimes at size ``n``, 1/n and n, or one of :data:`betas`."""
    return st.sampled_from([Fraction(1, n), Fraction(n)]) | betas


@st.composite
def tie_heavy_instances(draw, min_n=1, max_n=7, beta_strategy=size_betas, grid=range(4)):
    """Alphas and releases on ``grid``, by default 0..3, with shuffled ids,
    so many orders tie and every tie-break, down to the id, comes into play."""
    n = draw(st.integers(min_n, max_n))
    beta = draw(beta_strategy(n))
    ids = draw(st.permutations(range(1, n + 1)))
    values = st.sampled_from(grid)
    return validate_instance(Instance(beta, tuple(Job(i, draw(values), draw(values)) for i in ids)))


# grids with denominators 1, 2 and 3
DP_GRID = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
RATIONAL_GRID = sorted(DP_GRID + [Fraction(2, 3)])


def rational_tie_heavy_instances(min_n=1, max_n=12, grid=DP_GRID) -> st.SearchStrategy[Instance]:
    """Tie-heavy instances on a rational ``grid``: many DP states close at
    the same time, and integer keys order the jobs correctly only when
    scaled by the common denominator."""
    return tie_heavy_instances(min_n, max_n, size_betas, grid)


@st.composite
def family_instances(draw, max_jobs=7, min_k=1, adversarial_k=None, beta_strategy=size_betas, families=tuple(Family)):
    """The ``families``, up to ``max_jobs`` jobs: the size k gives k jobs,
    k+1 for nonidling-adv and 2k for ectf-adv.  With ``adversarial_k``, the
    adversarial families' k runs up to it instead.  k starts at ``min_k``,
    and at 2 for two-release."""
    family = draw(st.sampled_from(families))
    if adversarial_k is not None and family not in (Family.RANDOM, Family.TWO_RELEASE):
        k_max = adversarial_k
    else:
        k_max = {Family.NONIDLING_ADV: max_jobs - 1, Family.ECTF_ADV: max_jobs // 2}.get(family, max_jobs)
    k = draw(st.integers(max(min_k, 2 if family is Family.TWO_RELEASE else 1), k_max))
    beta = draw(beta_strategy(k))
    seed = draw(st.integers(0, 2**16))
    return generate(FamilySpec(family=family, n=k, beta=beta, seed=seed))


def delayed_starts(instance, order, delays, keep=None) -> list[Fraction]:
    """Starts that wait ``delays[k]`` past the earliest start at each
    position ``k``; with ``keep``, every undelayed start keeps its value
    there instead, feasible or not."""
    jobs = instance.job_map()
    starts, completion = [], Fraction(0)
    for k, jid in enumerate(order):
        earliest = max(jobs[jid].release, completion)
        if k in delays:
            start = earliest + delays[k]
        else:
            start = earliest if keep is None else keep[k]
        starts.append(start)
        completion = jobs[jid].alpha + instance.growth * start
    return starts


def count_calls(monkeypatch, function) -> list[tuple]:
    """Record the arguments of every call to ``function``, wrapping it in
    each package module that bound it at import."""
    calls: list[tuple] = []

    def counting(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "detsched" and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


@contextmanager
def digit_limit(limit):
    """The interpreter's limit on digits per integer string conversion, set
    to ``limit`` for the block (0 means no limit)."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# Fuzzed parser input: every document gives a valid object or a SchedulingError.

_HUGE = "\x00huge literal"  # swapped for a 5000-digit JSON integer after dumping

_rational_texts = st.one_of(
    st.integers(-3, 10).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 10), st.integers(-2, 10)),
    st.one_of(
        st.sampled_from([4299, 4300, 4301, 5000]).map(lambda k: "7" * k),
        st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4),
        st.text(max_size=6),
    ),
)
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.just(_HUGE),
        _rational_texts,
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_fields = _rational_texts | _json_values
_ids = st.integers(-1, 4) | st.booleans() | st.just(_HUGE) | _json_values
# Each document is well formed in shape or arbitrary, so that both the
# syntax checks and the instance and schedule checks behind them are reached.
_jobs = st.fixed_dictionaries(
    {"id": st.integers(1, 4), "alpha": _rational_texts, "release": _rational_texts}
) | st.fixed_dictionaries({}, optional={"id": _ids, "alpha": _fields, "release": _fields})
instance_docs = st.fixed_dictionaries(
    {"beta": _rational_texts, "jobs": st.lists(_jobs, min_size=1, max_size=4)}
) | st.fixed_dictionaries(
    {}, optional={"beta": _fields, "jobs": st.lists(_jobs | _json_values, max_size=4) | _json_values}
)
schedule_docs = st.fixed_dictionaries(
    {"order": st.permutations([1, 2]), "starts": st.lists(_rational_texts, min_size=2, max_size=2)}
) | st.fixed_dictionaries(
    {},
    optional={
        "order": st.lists(_ids, max_size=3) | st.permutations([1, 2]) | _json_values,
        "starts": st.none() | st.lists(_fields, max_size=3) | _json_values,
    },
)


def doc_text(doc) -> str:
    """The JSON text of a fuzzed document, with a 5000-digit integer for each ``_HUGE``."""
    return json.dumps(doc).replace(json.dumps(_HUGE), "9" * 5000)


@pytest.fixture
def two_job_instance() -> Instance:
    """The running example: beta=1, j1 (alpha 5, release 0), j2 (alpha 1, release 2)."""
    return make_instance(1, [(1, 5, 0), (2, 1, 2)])


# A slip that stops an event loop from advancing would hang the suite; this
# limit fails the test instead.  It is generous: the slowest test, C03,
# takes about 20 s at the slower of a shared host's speeds.
TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_TIME_LIMIT_S``.  Not an
    ``Exception``, so neither the code under test nor hypothesis (which
    would replay the example with no time limit left) catches it."""


@pytest.fixture(autouse=True)
def per_test_time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# The acceptance tests record one verdict line apiece; replay them after the
# run so they survive pytest's stdout capture.

def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture(scope="session")
def verdict(pytestconfig):
    def emit(criterion: str, passed: bool, detail: str) -> str:
        line = f"[acceptance] {criterion} {'PASS' if passed else 'FAIL'}: {detail}"
        pytestconfig._acceptance_lines.append(line)
        print(line)
        return line

    return emit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
