"""Text formats: strict rational syntax, instance/schedule documents,
decimal rendering."""

from __future__ import annotations

import decimal
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import (
    Instance,
    Job,
    ParseError,
    Schedule,
    SchedulerChoice,
    decimal_string,
    format_rational,
    parse_instance,
    parse_rational,
    run,
    write_instance,
)
from detsched.model import InfeasibleSchedule, NotAPermutation, SchedulingError
from detsched.serialization import _canonical_schedule, _dumps, format_rationals

from conftest import LOOSE_RATIONALS, digit_limit, doc_text, instance_docs, instances, make_instance, schedule_docs
from test_reference_routes import parse_schedule, write_schedule

F = Fraction

TWO_JOB_DOC = (
    '{"beta":"1","jobs":['
    '{"id":1,"alpha":"5","release":"0"},'
    '{"id":2,"alpha":"1","release":"2"}]}'
)


class TestParseRational:
    def test_integer(self):
        assert parse_rational("5") == F(5)

    def test_fraction(self):
        assert parse_rational("3/2") == F(3, 2)

    def test_normalizes(self):
        assert parse_rational("6/4") == F(3, 2)

    def test_negative(self):
        assert parse_rational("-7/2") == F(-7, 2)

    @pytest.mark.parametrize(
        "bad", ["0.5", "1e3", "", " 1", "1 ", "+5", "1/2/3", "a", "1/-2", "5.", "/3"]
    )
    def test_rejects_non_rational_syntax(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", LOOSE_RATIONALS)
    def test_rejects_trailing_newline_and_non_ascii_digits(self, text):
        with pytest.raises(ParseError, match=r"^beta: .* is not 'p' or 'p/q'"):
            parse_rational(text, "beta")

    def test_rejects_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_error_carries_context(self):
        with pytest.raises(ParseError, match="beta"):
            parse_rational("0.5", "beta")

    @pytest.mark.parametrize("text", ["1" * 5000, "-" + "1" * 5000, "1/" + "7" * 5000])
    def test_over_long_number_is_a_parse_error(self, text):
        # past the interpreter's 4300-digit limit on int(str)
        with pytest.raises(ParseError, match=r"starts\[3\]: 5000 digits"):
            parse_rational(text, "starts[3]")


class TestFormatRational:
    def test_integer(self):
        assert format_rational(F(5)) == "5"

    def test_fraction(self):
        assert format_rational(F(3, 2)) == "3/2"

    @given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**4))
    def test_round_trip(self, num, den):
        value = F(num, den)
        assert parse_rational(format_rational(value)) == value

    @pytest.mark.parametrize(
        "value", [F(10**5000), F(-(10**5000)), F(1, 10**5000), F(10**5000 + 1, 3)]
    )
    def test_over_long_value_is_a_scheduling_error(self, value):
        # past the interpreter's 4300-digit limit on str(int)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SchedulingError, match=f"limit of {limit} digits") as caught:
            format_rational(value)
        assert type(caught.value) is SchedulingError

    def test_over_long_value_names_its_field(self):
        with pytest.raises(SchedulingError, match=r"^makespan: cannot write a 16610-bit value: "):
            format_rational(F(10**5000), "makespan")


class TestFormatRationals:
    def test_renders_each_value(self):
        values = (F(0), F(5), F(-7, 2))
        assert format_rationals(values, "starts") == ["0", "5", "-7/2"]

    @pytest.mark.parametrize("limit", [640, 4300])
    @pytest.mark.parametrize(
        "make",
        [F, lambda x: F(-x), lambda x: F(1, x)],
        ids=["numerator", "negative-numerator", "denominator"],
    )
    def test_limit_digits_pass_and_one_more_fail(self, limit, make):
        at, past = make(10**limit - 1), make(10**limit)
        with digit_limit(limit):
            assert format_rationals([at], "starts") == [format_rational(at)]
            bits = (10**limit).bit_length()
            with pytest.raises(
                SchedulingError,
                match=rf"^starts\[1\]: cannot write a {bits}-bit value: it passes the limit of {limit} digits",
            ):
                format_rationals([at, past], "starts")
            # the interpreter draws the line at the same place
            with pytest.raises(SchedulingError):
                format_rational(past)

    def test_limit_zero_means_no_check(self):
        values = [F(10**5000), F(-1, 10**5000)]
        with digit_limit(0):
            assert format_rationals(values, "starts") == [
                str(10**5000),
                "-1/" + str(10**5000),
            ]


class TestWritersPastTheDigitLimit:
    # each writer names the first value past the limit, in document order,
    # with the typed error rather than the interpreter's ValueError
    @pytest.mark.parametrize(
        "where, make",
        [
            ("beta", lambda big: Instance(big, (Job(1, 1, 0), Job(2, 1, 0)))),
            ("jobs[1].id", lambda big: Instance(1, (Job(1, 1, 0), Job(big, 1, 0)))),
            ("jobs[1].alpha", lambda big: Instance(1, (Job(1, 1, 0), Job(2, F(1, big), big)))),
            ("jobs[1].release", lambda big: Instance(1, (Job(1, 1, 0), Job(2, 1, big)))),
            ("jobs[0].alpha", lambda big: Instance(1, (Job(1, big, big),))),
        ],
    )
    def test_write_instance_names_the_field(self, where, make):
        with digit_limit(640):
            instance = make(10**640)
            with pytest.raises(SchedulingError) as caught:
                write_instance(instance)
            assert type(caught.value) is SchedulingError
            assert str(caught.value) == (
                f"{where}: cannot write a 2127-bit value: it passes the limit of 640 digits "
                "for integer string conversion"
            )
            at = make(10**640 - 1)
            assert parse_instance(write_instance(at)) == at

    def test_write_instance_id_at_the_default_limit(self):
        with pytest.raises(SchedulingError, match=r"^jobs\[0\]\.id: cannot write a 16610-bit value: "):
            write_instance(Instance(1, (Job(10**5000, 1, 0),)))

    def test_write_instance_converts_nothing_it_refuses(self):
        converted = []

        class CountedId(int):
            def __str__(self) -> str:
                converted.append(int(self))
                return super().__str__()

        instance = Instance(1, (Job(CountedId(1), 1, 0), Job(CountedId(2), 1, 10**640)))
        with digit_limit(640):
            with pytest.raises(SchedulingError, match=r"^jobs\[1\]\.release: "):
                write_instance(instance)
        assert converted == []
        write_instance(instance)
        assert converted == [1, 2]

    def test_write_schedule_names_the_order_position(self):
        with pytest.raises(SchedulingError, match=r"^order\[0\]: cannot write a 16610-bit value: "):
            write_schedule(Schedule((10**5000,), (0,)))
        with pytest.raises(SchedulingError, match=r"^order\[0\]: cannot write a 16610-bit value: "):
            _canonical_schedule(make_instance(1, [(10**5000, 0, 0)]), (10**5000,))
        with digit_limit(640):
            # the order is checked before the starts; the first start is the
            # first job's release
            with pytest.raises(SchedulingError, match=r"^order\[1\]: .* limit of 640 digits"):
                write_schedule(Schedule((1, 10**640), (F(10**640), 0)))
            with pytest.raises(SchedulingError, match=r"^order\[1\]: .* limit of 640 digits"):
                _canonical_schedule(make_instance(1, [(1, 0, 10**640), (10**640, 0, 0)]), (1, 10**640))
            with pytest.raises(SchedulingError, match=r"^starts\[0\]: .* limit of 640 digits"):
                write_schedule(Schedule((1, 10**640 - 1), (F(10**640), 0)))
            with pytest.raises(SchedulingError, match=r"^starts\[0\]: .* limit of 640 digits"):
                _canonical_schedule(make_instance(1, [(1, 0, 10**640), (9, 0, 0)]), (1, 9))


class TestDecimalString:
    def test_terminating(self):
        assert decimal_string(F(3, 2)) == "1.5"

    def test_repeating_cut_at_ten_digits(self):
        assert decimal_string(F(1, 3)) == "0.3333333333"

    def test_ratio_example(self):
        assert decimal_string(F(15, 11)) == "1.363636364"

    def test_ties_round_to_even(self):
        assert decimal_string(F(10_000_000_005, 10**10)) == "1.000000000"
        assert decimal_string(F(10_000_000_015, 10**10)) == "1.000000002"

    def test_integer(self):
        assert decimal_string(F(4)) == "4"

    def test_ignores_the_thread_context(self):
        values = [F(1, 3), F(10**9, 3), F(15, 11), F(10**20), F(10_000_000_005, 10**10), F(0)]
        expected = [decimal_string(v) for v in values] + [decimal_string(F(2, 3), 6)]
        assert expected[3] == "1.000000000E+20"
        with decimal.localcontext() as hostile:
            hostile.traps[decimal.Inexact] = True
            hostile.traps[decimal.Rounded] = True
            hostile.Emax = 5
            hostile.prec = 3
            hostile.rounding = decimal.ROUND_DOWN
            hostile.capitals = 0
            assert [decimal_string(v) for v in values] + [decimal_string(F(2, 3), 6)] == expected


class TestInstanceDocuments:
    def test_parse_two_job(self):
        inst = parse_instance(TWO_JOB_DOC)
        assert inst.beta == F(1)
        assert [(j.id, j.alpha, j.release) for j in inst.jobs] == [
            (1, F(5), F(0)),
            (2, F(1), F(2)),
        ]

    def test_parse_fractional_beta(self):
        inst = parse_instance(
            '{"beta":"3/2","jobs":[{"id":1,"alpha":"1","release":"0"}]}'
        )
        assert inst.beta == F(3, 2)

    def test_decimal_beta_rejected(self):
        with pytest.raises(ParseError, match="beta"):
            parse_instance(
                '{"beta":"0.5","jobs":[{"id":1,"alpha":"1","release":"0"}]}'
            )

    def test_field_context_in_errors(self):
        with pytest.raises(ParseError, match=r"jobs\[1\]\.alpha"):
            parse_instance(
                '{"beta":"1","jobs":['
                '{"id":1,"alpha":"1","release":"0"},'
                '{"id":2,"alpha":"x","release":"0"}]}'
            )

    @pytest.mark.parametrize("text", LOOSE_RATIONALS)
    def test_loose_rational_names_its_field(self, text):
        doc = json.dumps({"beta": "1", "jobs": [{"id": 1, "alpha": "1", "release": text}]})
        with pytest.raises(ParseError, match=r"^jobs\[0\]\.release: "):
            parse_instance(doc)

    def test_readme_example_parses(self):
        # the instance that README's "File formats" section shows
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## File formats", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        inst = parse_instance(block)
        assert inst.beta == F(3, 2)
        assert [(j.id, j.alpha, j.release) for j in inst.jobs] == [
            (1, F(4), F(1, 2)),
            (2, F(0), F(3)),
        ]

    def test_missing_fields(self):
        with pytest.raises(ParseError, match="beta"):
            parse_instance('{"jobs":[]}')
        with pytest.raises(ParseError, match="jobs"):
            parse_instance('{"beta":"1"}')
        with pytest.raises(ParseError, match=r"jobs\[0\]"):
            parse_instance('{"beta":"1","jobs":[{"id":1,"alpha":"1"}]}')

    def test_invalid_json_reports_location(self):
        with pytest.raises(ParseError, match="line"):
            parse_instance('{"beta":')

    def test_over_long_id_is_a_parse_error(self):
        # json.loads itself raises a bare ValueError for this literal
        doc = '{"beta":"1","jobs":[{"id":' + "9" * 5000 + ',"alpha":"1","release":"0"}]}'
        with pytest.raises(ParseError, match=r"^instance: .* digits"):
            parse_instance(doc)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^instance: .* nested too deeply"):
            parse_instance("[" * 100_000)

    def test_validation_applies(self):
        from detsched.model import BetaNonPositive

        with pytest.raises(BetaNonPositive):
            parse_instance('{"beta":"0","jobs":[{"id":1,"alpha":"1","release":"0"}]}')

    def test_write_shape(self, two_job_instance):
        doc = json.loads(write_instance(two_job_instance))
        assert list(doc) == ["beta", "jobs"]
        assert list(doc["jobs"][0]) == ["id", "alpha", "release"]
        assert write_instance(two_job_instance).endswith("\n")

    @settings(max_examples=150)
    @given(inst=instances())
    def test_round_trip_identity(self, inst):
        assert parse_instance(write_instance(inst)) == inst

    # Each bad job follows a valid one.  Plain digit texts skip
    # parse_rational, so its messages, and which of a job's faults is
    # reported first (id, then alpha, then release), are pinned here.
    @pytest.mark.parametrize(
        "job, message",
        [
            (["1", "0"], "jobs[1]: expected an object"),
            ("job", "jobs[1]: expected an object"),
            ({}, "jobs[1]: missing field 'id'"),
            ({"alpha": "x", "release": "y"}, "jobs[1]: missing field 'id'"),
            ({"id": True, "release": "y"}, "jobs[1]: missing field 'alpha'"),
            ({"id": "1", "alpha": "x"}, "jobs[1]: missing field 'release'"),
            ({"id": True, "alpha": "1", "release": "0"}, "jobs[1].id: expected an integer"),
            ({"id": "1", "alpha": "x", "release": "0"}, "jobs[1].id: expected an integer"),
            (
                {"id": 1, "alpha": "0.5", "release": "x"},
                "jobs[1].alpha: '0.5' is not 'p' or 'p/q' in decimal digits",
            ),
            (
                {"id": 1, "alpha": "1/2", "release": "1e3"},
                "jobs[1].release: '1e3' is not 'p' or 'p/q' in decimal digits",
            ),
            (
                {"id": 1, "alpha": "7" * 5000, "release": "0"},
                "jobs[1].alpha: 5000 digits exceed the limit for integer string conversion",
            ),
            (
                {"id": 1, "alpha": "3", "release": "1/" + "7" * 5000},
                "jobs[1].release: 5000 digits exceed the limit for integer string conversion",
            ),
            (
                {"id": 1, "alpha": "\u0663", "release": "0"},
                "jobs[1].alpha: '\u0663' is not 'p' or 'p/q' in decimal digits",
            ),
            (
                {"id": 1, "alpha": "1", "release": "\uff11\uff12"},
                "jobs[1].release: '\uff11\uff12' is not 'p' or 'p/q' in decimal digits",
            ),
            (
                {"id": 1, "alpha": "\u00b2", "release": "0"},
                "jobs[1].alpha: '\u00b2' is not 'p' or 'p/q' in decimal digits",
            ),
            ({"id": 1, "alpha": 3, "release": "0"}, "jobs[1].alpha: expected a rational string, got int"),
            (
                {"id": 1, "alpha": "3", "release": None},
                "jobs[1].release: expected a rational string, got NoneType",
            ),
        ],
    )
    def test_job_errors_and_their_precedence(self, job, message):
        doc = json.dumps({"beta": "1", "jobs": [{"id": 2, "alpha": "1", "release": "0"}, job]})
        with pytest.raises(ParseError) as raised:
            parse_instance(doc)
        assert str(raised.value) == message

    def test_plain_and_other_spellings_parse_alike(self):
        doc = json.dumps({"beta": "1", "jobs": [
            {"id": 1, "alpha": "007", "release": "6/4"},
            {"id": 2, "alpha": "0", "release": "-0"},
            {"id": 3, "alpha": "12/1", "release": "00"},
        ]})
        assert [(j.alpha, j.release) for j in parse_instance(doc).jobs] == [
            (F(7), F(3, 2)), (F(0), F(0)), (F(12), F(0)),
        ]


class TestScheduleDocuments:
    def test_order_only_canonicalizes(self, two_job_instance):
        sched = parse_schedule('{"order":[2,1]}', two_job_instance)
        assert sched.starts == (F(2), F(5))

    def test_explicit_starts_accepted(self, two_job_instance):
        sched = parse_schedule(
            '{"order":[2,1],"starts":["2","5"]}', two_job_instance
        )
        assert sched.starts == (F(2), F(5))

    def test_infeasible_starts_rejected(self, two_job_instance):
        with pytest.raises(InfeasibleSchedule):
            parse_schedule('{"order":[2,1],"starts":["1","5"]}', two_job_instance)

    def test_non_permutation_rejected(self, two_job_instance):
        with pytest.raises(NotAPermutation):
            parse_schedule('{"order":[2,2]}', two_job_instance)

    @pytest.mark.parametrize("text", LOOSE_RATIONALS)
    def test_loose_start_names_its_field(self, two_job_instance, text):
        doc = json.dumps({"order": [2, 1], "starts": ["2", text]})
        with pytest.raises(ParseError, match=r"^starts\[1\]: "):
            parse_schedule(doc, two_job_instance)

    def test_length_mismatch(self, two_job_instance):
        with pytest.raises(ParseError, match="starts"):
            parse_schedule('{"order":[2,1],"starts":["2"]}', two_job_instance)

    def test_over_long_order_entry_is_a_parse_error(self, two_job_instance):
        doc = '{"order":[1,' + "2" * 5000 + "]}"
        with pytest.raises(ParseError, match=r"^schedule: .* digits"):
            parse_schedule(doc, two_job_instance)

    def test_infeasible_start_message_stays_within_the_digit_limit(self, two_job_instance):
        # the predecessor completes at 5 + 2 * 7...7, one digit past the limit
        doc = json.dumps({"order": [1, 2], "starts": ["7" * 4300, "2"]})
        with pytest.raises(InfeasibleSchedule, match=r"completes at a \d+-bit value$"):
            parse_schedule(doc, two_job_instance)

    def test_missing_order(self, two_job_instance):
        with pytest.raises(ParseError, match="order"):
            parse_schedule('{"starts":["2","5"]}', two_job_instance)

    @settings(max_examples=100)
    @given(inst=instances())
    def test_round_trip(self, inst):
        sched = run(inst, SchedulerChoice.NON_IDLING).schedule
        assert parse_schedule(write_schedule(sched), inst) == sched


# The flat-document writer against json.dumps, on the shapes of the
# schedule, eval and opt documents.

_canonical = st.one_of(
    st.just(F(0)),
    st.integers(0, 10**6).map(F),
    st.builds(F, st.integers(0, 10**6), st.integers(1, 10**6)),
    # numerators of 4290 to 4300 digits, just inside the 4300-digit limit
    st.builds(
        F, st.integers(10**4289, 10**4300 - 1), st.sampled_from([1, 7, 10**4299 + 1])
    ),
).map(format_rational)
_texts = st.lists(_canonical, max_size=4)
_order = st.lists(st.integers(1, 9) | st.integers(10**6, 10**40), max_size=4)


class TestFlatDocuments:
    @settings(max_examples=200)
    @given(
        doc=st.fixed_dictionaries({"order": _order, "starts": _texts})
        | st.fixed_dictionaries(
            {
                "order": _order,
                "starts": _texts,
                "completions": _texts,
                "gaps": _texts,
                "makespan": _canonical,
                "total_completion": _canonical,
            }
        )
        | st.fixed_dictionaries(
            {
                "objective": st.sampled_from(["makespan", "total-completion"]),
                "order": _order,
                "starts": _texts,
                "value": _canonical,
            }
        )
    )
    def test_same_bytes_as_json_dumps(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"

    def test_empty_and_single_lists(self):
        for doc in (
            {"order": [], "starts": []},
            {"order": [3], "starts": ["0"]},
            {"objective": "makespan", "order": [10**30], "starts": ["5/2"], "value": "5/2"},
        ):
            assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"


# Fuzzing the parsers: every input gives a valid object or a SchedulingError.
class TestParsersFuzz:
    @settings(max_examples=400)
    @given(text=st.text() | instance_docs.map(doc_text))
    def test_parse_instance(self, text):
        try:
            assert isinstance(parse_instance(text), Instance)
        except SchedulingError:
            pass

    @settings(max_examples=400)
    @given(text=st.text() | schedule_docs.map(doc_text))
    def test_parse_schedule(self, text):
        instance = parse_instance(TWO_JOB_DOC)
        try:
            assert isinstance(parse_schedule(text, instance), Schedule)
        except SchedulingError:
            pass
