"""Spans and counters around detsched's module entry points, recorded from
the benchmark's side of the package boundary.

A :class:`Tracer` replaces each function named in ``ENTRY_POINTS`` with a
wrapper in every detsched module namespace, and every module-level dict,
that binds it (``from .oracle import brute_force`` copies the name, so
patching only ``detsched.oracle`` would miss the callers).  Each call
records one span: name, start, end, parent span and operation id.  Spans
stay in memory and are written as JSON lines when the run ends.

Spans sit at module entry points (``write_schedule``, ``write_csv``,
``dp_min_makespan``), never at per-value helpers such as
``format_rational``, so that the wrappers cost little next to the work
they time.  A name that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: str
    end: float = 0.0
    hook_s: float = 0.0
    children_s: float = 0.0

    def self_s(self) -> float:
        return self.end - self.start - self.hook_s - self.children_s


def _first(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _gapped_positions(instance, schedule) -> int:
    jobs = {job.id: job for job in instance.jobs}
    growth = 1 + instance.beta
    completion = Fraction(0)
    gapped = 0
    for jid, start in zip(schedule.order, schedule.starts):
        gapped += start > completion
        completion = jobs[jid].alpha + growth * start
    return gapped


def _max_digits(text: str) -> int:
    return max((len(run) for run in re.findall(r"\d+", text)), default=0)


# Counter hooks run only while the tracer is counting, after the wrapped
# call returns or raises.  Their own time is excluded from every span.

def _hook_dp(t: "Tracer", args, kwargs, result, exc) -> None:
    t.counters["oracle.dp_states"] += 2 ** _first(args, kwargs, "instance").n


def _hook_brute_force(t: "Tracer", args, kwargs, result, exc) -> None:
    if exc is None:
        t.counters["oracle.orders"] += result.permutations_examined


def _hook_policy(t: "Tracer", args, kwargs, result, exc) -> None:
    instance = _first(args, kwargs, "instance")
    t.counters["schedulers.jobs"] += instance.n
    if exc is None:
        t.deferred.append(
            lambda: t.counters.update(
                {"schedulers.gapped_positions": _gapped_positions(instance, result)}
            )
        )


def _hook_evaluate(t: "Tracer", args, kwargs, result, exc) -> None:
    if exc is None:
        t.maximum("model.max_bits", max(map(_bits, result.completions), default=0))


def _hook_canonical(t: "Tracer", args, kwargs, result, exc) -> None:
    if exc is None:
        t.maximum("model.max_bits", max(map(_bits, result.starts), default=0))


def _hook_two_pm(t: "Tracer", args, kwargs, result, exc) -> None:
    if exc is None:
        t.counters["pseudomatching.stages"] += len(result.per_k_matchings)
        t.counters["pseudomatching.reduced"] += bool(result.reduced)


def _text_hook(text: str | None, t: "Tracer", exc) -> None:
    if exc is not None:
        t.counters["serialization.failed"] += 1
        return
    t.counters["serialization.bytes"] += len(text.encode("utf-8"))
    t.deferred.append(lambda: t.maximum("serialization.max_digits", _max_digits(text)))


def _hook_write(t: "Tracer", args, kwargs, result, exc) -> None:
    _text_hook(result, t, exc)


def _hook_parse(t: "Tracer", args, kwargs, result, exc) -> None:
    _text_hook(_first(args, kwargs, "text"), t, exc)


# (module, attribute, span name, counter hook)
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("detsched.cli", "main", "cli", None),
    ("detsched.experiment", "run_experiment", "experiment.run_experiment", None),
    ("detsched.experiment", "write_csv", "experiment.write_csv", None),
    ("detsched.generators", "generate", "generators.generate", None),
    ("detsched.oracle", "dp_min_makespan", "oracle.dp_min_makespan", _hook_dp),
    ("detsched.oracle", "brute_force", "oracle.brute_force", _hook_brute_force),
    ("detsched.oracle", "lb_release", "oracle.bounds", None),
    ("detsched.oracle", "sorted_subset_cost", "oracle.bounds", None),
    ("detsched.schedulers", "non_idling", "schedulers.non_idling", _hook_policy),
    ("detsched.schedulers", "non_interfering", "schedulers.non_interfering", _hook_policy),
    ("detsched.schedulers", "ectf", "schedulers.ectf", _hook_policy),
    ("detsched.schedulers", "best_of_two", "schedulers.best_of_two", None),
    ("detsched.model", "evaluate", "model.evaluate", _hook_evaluate),
    ("detsched.model", "canonical_starts", "model.canonical_starts", _hook_canonical),
    ("detsched.pseudomatching", "construct_two_pm", "pseudomatching.construct_two_pm", _hook_two_pm),
    ("detsched.serialization", "write_instance", "serialization.write", _hook_write),
    ("detsched.serialization", "write_schedule", "serialization.write", _hook_write),
    ("detsched.serialization", "parse_instance", "serialization.parse", _hook_parse),
    ("detsched.serialization", "parse_schedule", "serialization.parse", _hook_parse),
)

# Per-layer metric names, in the order BENCHMARK.json lists them.
CALLS = (
    "oracle.dp_min_makespan",
    "oracle.brute_force",
    "model.evaluate",
    "model.canonical_starts",
    "pseudomatching.construct_two_pm",
)
SELF_TIMES = (
    "oracle.dp_min_makespan",
    "oracle.brute_force",
    "oracle.bounds",
    "schedulers.non_idling",
    "schedulers.non_interfering",
    "schedulers.ectf",
    "schedulers.best_of_two",
    "model.evaluate",
    "model.canonical_starts",
    "pseudomatching.construct_two_pm",
    "serialization.write",
    "serialization.parse",
    "generators.generate",
    "experiment.run_experiment",
    "experiment.write_csv",
    "cli",
)
COUNTS = (
    "oracle.dp_states",
    "oracle.orders",
    "schedulers.jobs",
    "schedulers.gapped_positions",
    "model.max_bits",
    "pseudomatching.stages",
    "serialization.bytes",
    "serialization.max_digits",
    "serialization.failed",
)


SETUP_OP = "setup"


class Tracer:
    """Span recorder.  :meth:`install` puts the wrappers in place and
    :meth:`uninstall` restores the originals.  Set ``counting`` over exactly
    one set-up and one pass, so that every count is exact and repeats from
    run to run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.deferred: list[Callable[[], None]] = []
        self.missing: list[str] = []
        self.counting = False
        self.op = ""
        self._stack: list[Span] = []
        self._wrappers: list[tuple[Callable, Callable]] = []
        self.origin = time.perf_counter()
        for module_name, attr, span_name, hook in ENTRY_POINTS:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._wrappers.append((fn, self._wrap(fn, span_name, hook)))

    def maximum(self, key: str, value: int) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter() - self.origin,
            parent=None if parent is None else parent.id,
            op=self.op,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter() - self.origin
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.end - span.start

    def _wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            result = exc = None
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                if tracer.counting:
                    hooked = time.perf_counter()
                    tracer.counters[f"{name}.calls"] += 1
                    if hook is not None and (returned or exc is not None):
                        try:
                            hook(tracer, args, kwargs, result, exc)
                        except (AttributeError, KeyError, TypeError, IndexError):
                            if f"{name} counters" not in tracer.missing:
                                tracer.missing.append(f"{name} counters")
                    span.hook_s = time.perf_counter() - hooked
                tracer.close(span)

        return traced

    def _namespaces(self):
        for name, module in list(sys.modules.items()):
            if name == "detsched" or name.startswith("detsched."):
                yield vars(module)
                yield from (v for v in vars(module).values() if isinstance(v, dict))

    def _swap(self, pairs: list[tuple[Callable, Callable]]) -> None:
        lookup = {id(old): new for old, new in pairs}
        for namespace in self._namespaces():
            for key, value in list(namespace.items()):
                if id(value) in lookup:
                    namespace[key] = lookup[id(value)]

    def install(self) -> None:
        self._swap(self._wrappers)

    def uninstall(self) -> None:
        self._swap([(new, old) for old, new in self._wrappers])

    def finish_counts(self) -> None:
        """Run the counts deferred out of the traced calls (gaps, digit
        runs); they need time that must not land in any span."""
        for task in self.deferred:
            task()
        self.deferred.clear()

    def layer_metrics(
        self, passes: int, overhead_share: float, paced: Callable[[float, float], float]
    ) -> dict[str, tuple[float, str]]:
        """Self times cover the traced set-up plus the mean traced pass;
        counts cover the set-up plus the one counted pass.  Each span's
        self time is scaled by the pace over the span: ``paced(start, end)``
        seconds, on the ``time.perf_counter`` clock, per wall second."""
        self_s: Counter[str] = Counter()
        for span in self.spans:
            weight = 1.0 if span.op == SETUP_OP else 1.0 / passes
            wall = span.end - span.start
            if wall > 0:
                weight *= paced(span.start + self.origin, span.end + self.origin) / wall
            self_s[span.name] += span.self_s() * weight
        c = self.counters
        metrics: dict[str, tuple[float, str]] = {}
        for name in CALLS:
            metrics[f"{name}.calls"] = (c[f"{name}.calls"], "count")
        for name in SELF_TIMES:
            metrics[f"{name}.self_s"] = (float(self_s[name]), "s")
        for name in COUNTS:
            metrics[name] = (c[name], "count")
        pm_calls = c["pseudomatching.construct_two_pm.calls"]
        metrics["pseudomatching.reduced_share"] = (
            c["pseudomatching.reduced"] / pm_calls if pm_calls else 0.0,
            "share",
        )
        metrics["trace.overhead_share"] = (overhead_share, "share")
        metrics["trace.missing"] = (len(self.missing), "count")
        return metrics

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": round(span.start, 9),
                            "end": round(span.end, 9),
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )
