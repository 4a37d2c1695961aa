"""Shared strategies and helpers.

Instances built here always carry exact rationals; strategies lean on
small denominators so brute-force comparisons stay fast.
"""

from __future__ import annotations

import signal
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from detsched import Instance, Job, validate_instance


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
