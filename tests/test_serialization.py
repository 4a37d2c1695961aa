"""Text formats: strict rational syntax, instance/schedule documents,
decimal rendering."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import (
    ParseError,
    decimal_string,
    format_rational,
    parse_instance,
    parse_rational,
    parse_schedule,
    write_instance,
    write_schedule,
)
from detsched.model import InfeasibleSchedule, NotAPermutation, SchedulingError
from detsched.schedulers import non_idling

from conftest import instances

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

    def test_length_mismatch(self, two_job_instance):
        with pytest.raises(ParseError, match="starts"):
            parse_schedule('{"order":[2,1],"starts":["2"]}', two_job_instance)

    def test_over_long_order_entry_is_a_parse_error(self, two_job_instance):
        doc = '{"order":[1,' + "2" * 5000 + "]}"
        with pytest.raises(ParseError, match=r"^schedule: .* digits"):
            parse_schedule(doc, two_job_instance)

    def test_missing_order(self, two_job_instance):
        with pytest.raises(ParseError, match="order"):
            parse_schedule('{"starts":["2","5"]}', two_job_instance)

    @settings(max_examples=100)
    @given(inst=instances())
    def test_round_trip(self, inst):
        sched = non_idling(inst)
        assert parse_schedule(write_schedule(sched), inst) == sched
