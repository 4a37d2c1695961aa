"""The sweep harness, its CSV contract, and the cross-objective checks."""

from __future__ import annotations

import csv
import dataclasses
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from detsched import (
    CrossObjectiveReport,
    ExperimentConfig,
    Family,
    FamilySpec,
    Objective,
    SchedulerChoice,
    cross_objective_check,
    generate,
    run,
    run_experiment,
    write_csv,
)
from detsched import experiment, model, schedulers
from detsched.cli import main
from detsched.experiment import CSV_HEADER, MAX_TRIALS, ExperimentRow
from detsched.generators import ADVERSARIAL_MAX_K, RANDOM_MAX_N
from detsched.model import InvalidArgument
from detsched.schedulers import PolicyRun
from detsched.serialization import format_rational, parse_rational, write_instance

from conftest import count_calls, digit_limit, instances, make_instance


def config(**overrides) -> ExperimentConfig:
    base = dict(
        family=Family.RANDOM,
        trials=6,
        n_min=2,
        n_max=4,
        betas=(F(1),),
        seed=7,
        algorithms=(SchedulerChoice.ECTF,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class TestConfigValidation:
    def test_negative_trials(self):
        with pytest.raises(ValueError, match="trials"):
            config(trials=-1)

    def test_zero_n_min(self):
        with pytest.raises(ValueError, match="n_min"):
            config(n_min=0)

    def test_inverted_size_range(self):
        with pytest.raises(ValueError, match="n_min"):
            config(n_min=5, n_max=4)

    def test_negative_bruteforce_cap(self):
        # a cap of -1 ran every trial and left every ratio blank
        with pytest.raises(InvalidArgument, match="^max_bruteforce_n must be >= 0$"):
            config(max_bruteforce_n=-1)
        assert config(max_bruteforce_n=0).max_bruteforce_n == 0

    def test_empty_betas(self):
        with pytest.raises(ValueError, match="betas"):
            config(betas=())

    def test_empty_algorithms(self):
        with pytest.raises(ValueError, match="algorithms"):
            config(algorithms=())

    @pytest.mark.parametrize(
        "field",
        ["trials", "n_min", "n_max", "seed", "alpha_max", "r_max", "max_bruteforce_n"],
    )
    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_non_int_fields_refused(self, field, value):
        # refused as the config is built, so before any trial runs
        with pytest.raises(InvalidArgument, match=f"^{field} must be an int, got "):
            config(**{field: value})

    # each leaked a bare KeyError or AttributeError from the first trial,
    # or (timings=1) was accepted
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("family", "random", "family must be of type Family, got str"),
            ("algorithms", ("ectf",), "algorithms must be of type SchedulerChoice, got str"),
            ("objective", "makespan", "objective must be of type Objective, got str"),
            ("timings", 1, "timings must be of type bool, got int"),
        ],
    )
    def test_enum_and_bool_fields_refused(self, monkeypatch, field, value, message):
        specs = count_calls(monkeypatch, experiment.generate)
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            run_experiment(config(**{field: value}))
        assert specs == []

    # a trial's size is its family spec's n, which the adversarial
    # families read as k, so n_max meets the same cap as FamilySpec's n,
    # before the trials below the cap are run
    @pytest.mark.parametrize(
        "family, cap",
        [(Family.RANDOM, RANDOM_MAX_N), (Family.NONIDLING_ADV, ADVERSARIAL_MAX_K)],
        ids=["random", "nonidling-adv"],
    )
    def test_n_max_past_the_family_cap(self, monkeypatch, family, cap):
        specs = count_calls(monkeypatch, experiment.generate)
        message = f"n_max must be <= {cap} for the {family.value} family, got {cap + 1}"
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            run_experiment(config(family=family, trials=2, n_min=cap, n_max=cap + 1))
        assert specs == []
        assert config(family=family, trials=0, n_min=cap, n_max=cap).n_max == cap

    # a beta of 0 ran every trial before it to the end, and with no
    # trials at all was never refused
    @pytest.mark.parametrize(
        "betas, shown",
        [((1, 0), "0"), ((F(-1, 2),), "-1/2"), ((F(-(10**5000)),), "a 16610-bit value")],
        ids=["zero-second", "negative", "past-the-digit-limit"],
    )
    @pytest.mark.parametrize("trials", [0, 2])
    def test_non_positive_beta_refused(self, monkeypatch, betas, shown, trials):
        specs = count_calls(monkeypatch, experiment.generate)
        with digit_limit(4300), pytest.raises(InvalidArgument, match=f"^beta must be > 0, got {shown}$"):
            run_experiment(config(trials=trials, n_min=14, n_max=14, betas=betas))
        assert specs == []

    def test_trials_past_the_cap(self, monkeypatch):
        specs = count_calls(monkeypatch, experiment.generate)
        message = f"trials must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            run_experiment(config(trials=MAX_TRIALS + 1))
        assert specs == []
        # the cap itself is accepted; the config is not run
        assert config(trials=MAX_TRIALS).trials == MAX_TRIALS

    def test_betas_coerced_to_fractions(self):
        cfg = config(betas=(1, F(1, 2)))
        assert cfg.betas == (F(1), F(1, 2))


class TestRunExperiment:
    def test_estimate_first_adversarial_ratios(self):
        # k = 1, 2, 3 at beta=1, b=1: the heuristic's makespans are 6, 30,
        # 126 against true optima 4, 18, 70
        rows = run_experiment(
            config(
                family=Family.ECTF_ADV,
                trials=3,
                n_min=1,
                n_max=3,
                b=F(1),
            )
        )
        assert [row.ratio for row in rows] == [F(3, 2), F(5, 3), F(9, 5)]
        assert [row.value for row in rows] == [F(6), F(30), F(126)]
        assert [row.opt_value for row in rows] == [F(4), F(18), F(70)]
        assert [row.n for row in rows] == [2, 4, 6]

    def test_random_family_ratio_window(self):
        rows = run_experiment(config(trials=40, n_min=2, n_max=5, seed=3))
        assert len(rows) == 40
        for row in rows:
            assert row.ratio is not None
            # makespan guarantee for the estimate-first rule at beta=1
            assert 1 <= row.ratio <= 4
            assert row.lb_release <= row.opt_value
            assert row.lb_fixed <= row.opt_value

    def test_zero_trials_gives_header_only(self):
        rows = run_experiment(config(trials=0))
        assert rows == []
        assert write_csv(rows) == ",".join(CSV_HEADER) + "\n"

    def test_rows_sorted_by_instance_then_algorithm(self):
        rows = run_experiment(
            config(
                trials=4,
                algorithms=(
                    SchedulerChoice.NON_INTERFERING,
                    SchedulerChoice.NON_IDLING,
                ),
            )
        )
        keys = [(row.instance_id, row.algorithm) for row in rows]
        assert keys == sorted(keys)
        # both algorithms appear under every instance id
        per_instance = {row.instance_id for row in rows}
        assert len(rows) == 2 * len(per_instance)

    def test_oracle_cap_blanks_optimum(self):
        rows = run_experiment(
            config(trials=2, n_min=4, n_max=4, max_bruteforce_n=3)
        )
        for row in rows:
            assert row.opt_value is None and row.ratio is None

    def test_shared_value_and_ratio_objects(self):
        # a row whose value equals the optimum holds the shared ratio 1;
        # under makespan, when nothing beats ECTF, ECTF's row holds the
        # optimum object itself as its value
        rows = run_experiment(config(trials=12, n_min=2, n_max=8, algorithms=tuple(SchedulerChoice)))
        ones = [row.ratio for row in rows if row.value == row.opt_value]
        assert ones and all(ratio is ones[0] for ratio in ones) and ones[0] == 1
        ectf = [row for row in rows if row.algorithm == "ectf"]
        assert any(row.ratio == 1 for row in ectf)
        for row in ectf:
            assert (row.value is row.opt_value) == (row.ratio == 1)

    def test_rows_equal_to_the_frozen_constructor(self):
        # rows are built by filling vars(); each equals the row the frozen
        # constructor gives for the same fields, and stays frozen
        for row in run_experiment(config(trials=3, algorithms=tuple(SchedulerChoice))):
            rebuilt = ExperimentRow(**{f.name: getattr(row, f.name) for f in dataclasses.fields(row)})
            assert row == rebuilt and hash(row) == hash(rebuilt) and repr(row) == repr(rebuilt)
            assert vars(row) == vars(rebuilt)
            with pytest.raises(dataclasses.FrozenInstanceError):
                row.value = F(0)

    def test_beta_cycling(self):
        rows = run_experiment(
            config(trials=4, n_min=3, n_max=3, betas=(F(1, 2), F(2)))
        )
        assert [row.beta for row in rows] == [F(1, 2), F(2), F(1, 2), F(2)]


def count_schedule_builds(monkeypatch) -> list:
    """Record every run whose schedule is built, by replacing
    :attr:`PolicyRun.schedule` with a counting property."""
    built = []
    build = PolicyRun.schedule.func

    def counting(record):
        built.append(record)
        return build(record)

    monkeypatch.setattr(PolicyRun, "schedule", property(counting))
    return built


class TestOneRunPerTrial:
    """Within a trial, each policy loop runs at most once: best-of-two
    reuses the two greedy runs.  Under makespan the loops' own makespans
    are the values, so no schedule is built or evaluated; under total
    completion each distinct run's schedule is built and evaluated once.
    The instance's integer record is built once per trial, once per
    ``solve`` and once per ``eval``, by either constructor: ``model._record``
    counts both."""

    @pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
    @pytest.mark.parametrize(
        "algorithms",
        [tuple(SchedulerChoice), tuple(reversed(SchedulerChoice))],
        ids=["best-of-two-third", "best-of-two-first"],
    )
    def test_one_trial_all_algorithms(self, monkeypatch, objective, algorithms):
        loops = count_calls(monkeypatch, schedulers._loop)
        evaluate = count_calls(monkeypatch, model.evaluate)
        built = count_schedule_builds(monkeypatch)
        prepared = count_calls(monkeypatch, model._record)
        rows = run_experiment(
            config(trials=1, n_min=5, n_max=5, algorithms=algorithms, objective=objective)
        )
        assert len(rows) == 4
        assert sorted(choice.value for _, choice in loops) == [
            "ectf",
            "non-idling",
            "non-interfering",
        ]
        assert len(evaluate) == (0 if objective is Objective.MAKESPAN else 3)
        assert len(built) == (0 if objective is Objective.MAKESPAN else 3)
        assert len(prepared) == 1

    def test_makespan_bound_shares_ectf_run(self, monkeypatch):
        # the subset DP's bound is ECTF's makespan, from the trial's runs,
        # so ECTF's loop runs once per trial whether or not it has a row
        loops = count_calls(monkeypatch, schedulers._loop)
        run_experiment(config(trials=6, algorithms=tuple(SchedulerChoice)))
        assert [choice for _, choice in loops].count(SchedulerChoice.ECTF) == 6
        run_experiment(config(trials=6, algorithms=(SchedulerChoice.NON_IDLING,)))
        assert [choice for _, choice in loops].count(SchedulerChoice.ECTF) == 12

    def test_one_record_per_trial(self, monkeypatch):
        prepared = count_calls(monkeypatch, model._record)
        rows = run_experiment(
            config(trials=12, n_min=2, n_max=8, algorithms=tuple(SchedulerChoice))
        )
        assert len(rows) == 48
        assert len(prepared) == 12

    @pytest.mark.parametrize("algorithm", [c.value for c in SchedulerChoice])
    def test_solve_and_eval_prepare_once_each(self, monkeypatch, tmp_path, capsys, algorithm):
        inst = generate(FamilySpec(family=Family.RANDOM, n=9, beta=F(1, 3), seed=4))
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(write_instance(inst), encoding="utf-8")
        sched_path = tmp_path / "sched.json"
        prepared = count_calls(monkeypatch, model._record)
        argv = ["solve", "--instance", str(inst_path), "--algorithm", algorithm]
        assert main(argv + ["--out", str(sched_path)]) == 0
        assert len(prepared) == 1
        assert main(["eval", "--instance", str(inst_path), "--schedule", str(sched_path)]) == 0
        assert len(prepared) == 2

    @pytest.mark.parametrize("algorithm", [c.value for c in SchedulerChoice])
    def test_solve_and_eval_build_no_job(self, monkeypatch, tmp_path, capsys, algorithm):
        # both read the parsed instance's record only: no Fraction job is made
        inst = generate(FamilySpec(family=Family.RANDOM, n=9, beta=F(1, 3), seed=4))
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(write_instance(inst), encoding="utf-8")
        sched_path = tmp_path / "sched.json"
        jobs = count_calls(monkeypatch, model.Job)
        argv = ["solve", "--instance", str(inst_path), "--algorithm", algorithm]
        assert main(argv + ["--out", str(sched_path)]) == 0
        assert main(["eval", "--instance", str(inst_path), "--schedule", str(sched_path)]) == 0
        assert jobs == []

    def test_makespan_sweep_builds_no_schedule(self, monkeypatch):
        built = count_schedule_builds(monkeypatch)
        rows = run_experiment(
            config(trials=12, n_min=2, n_max=8, algorithms=tuple(SchedulerChoice))
        )
        assert len(rows) == 48
        assert built == []

    def test_best_of_two_evaluates_nothing(self, monkeypatch):
        loops = count_calls(monkeypatch, schedulers._loop)
        evaluate = count_calls(monkeypatch, model.evaluate)
        built = count_schedule_builds(monkeypatch)
        inst = generate(FamilySpec(family=Family.RANDOM, n=6, beta=F(1), seed=3))
        run(inst, SchedulerChoice.BEST_OF_TWO).schedule
        assert [choice for _, choice in loops] == [
            SchedulerChoice.NON_IDLING,
            SchedulerChoice.NON_INTERFERING,
        ]
        assert evaluate == []
        assert len(built) == 1


class TestCsvContract:
    def test_reruns_are_byte_identical(self):
        cfg = config(trials=8)
        assert write_csv(run_experiment(cfg)) == write_csv(run_experiment(cfg))

    def test_timings_differ_only_in_wall_time(self):
        cfg = config(trials=4)
        timed = parse_csv(write_csv(run_experiment(config(trials=4, timings=True))))
        plain = parse_csv(write_csv(run_experiment(cfg)))
        for trow, prow in zip(timed, plain):
            assert trow["wall_time_ms"] != ""
            assert prow["wall_time_ms"] == ""
            trow["wall_time_ms"] = prow["wall_time_ms"] = ""
            assert trow == prow

    def test_cells_round_trip_exactly(self):
        rows = parse_csv(
            write_csv(run_experiment(config(trials=6, betas=(F(1, 2),))))
        )
        assert len(rows) == 6
        for row in rows:
            assert row["beta"] == "0.5"
            value = parse_rational(row["value"])
            opt = parse_rational(row["opt_value"])
            assert parse_rational(row["ratio"]) == value / opt
            assert "." not in row["value"]

    def test_shared_cells_follow_each_row(self):
        # a trial's rows share one beta, optimum and bound object each, and
        # their cells are formatted once; a row holding other objects, even
        # with the same instance id, gets its own cells
        rows = run_experiment(config(trials=2, algorithms=tuple(SchedulerChoice)))
        rows[1] = dataclasses.replace(rows[1], beta=F(3, 2), lb_release=F(1, 7))
        rows[2] = dataclasses.replace(rows[2], opt_value=None, ratio=None)
        cells = parse_csv(write_csv(rows))
        assert [(c["beta"], c["lb_release"]) for c in cells[:3]] == [
            ("1", format_rational(rows[0].lb_release)),
            ("1.5", "1/7"),
            ("1", format_rational(rows[0].lb_release)),
        ]
        assert cells[2]["opt_value"] == "" and cells[3]["opt_value"] == cells[0]["opt_value"]
        assert [c["lb_fixed"] for c in cells[:4]] == [format_rational(rows[0].lb_fixed)] * 4

    def test_replaced_ratio_gets_its_own_cells(self):
        # the value, ratio and decimal cells are formatted once per pair of
        # value and ratio objects: a row whose ratio is replaced while its
        # value object is kept gets the new ratio's cells, and a row that
        # shares both objects with another shares its cells
        # best-of-two's run is non-idling's own record here, and its value
        # equals the optimum, so both rows hold one value and one ratio
        rows = run_experiment(
            config(family=Family.ECTF_ADV, trials=1, n_min=2, n_max=2, b=F(1),
                   algorithms=(SchedulerChoice.NON_IDLING, SchedulerChoice.BEST_OF_TWO))
        )
        assert rows[0].value is rows[1].value and rows[0].ratio is rows[1].ratio
        rows[1] = dataclasses.replace(rows[1], ratio=F(7, 4))
        rows.append(dataclasses.replace(rows[0], algorithm="x"))
        cells = parse_csv(write_csv(rows))
        assert [(c["value"], c["ratio"], c["ratio_decimal"]) for c in cells] == [
            ("18", "1", "1"),
            ("18", "7/4", "1.75"),
            ("18", "1", "1"),
        ]

    def test_ratio_decimal_is_display_only(self):
        rows = run_experiment(
            config(
                family=Family.ECTF_ADV, trials=1, n_min=2, n_max=2, b=F(1)
            )
        )
        cells = parse_csv(write_csv(rows))[0]
        assert cells["ratio"] == "5/3"
        assert cells["ratio_decimal"] == "1.666666667"

    def test_header_matches_contract(self):
        assert CSV_HEADER == (
            "instance_id",
            "n",
            "beta",
            "family",
            "seed",
            "algorithm",
            "objective",
            "value",
            "opt_value",
            "ratio",
            "ratio_decimal",
            "lb_release",
            "lb_fixed",
            "wall_time_ms",
        )


class TestCrossObjectiveCheck:
    def test_two_job_example(self, two_job_instance):
        report = cross_objective_check(two_job_instance)
        assert report.makespan_opt.best_value == F(11)
        assert report.total_completion_opt.best_value == F(16)
        by_label = {check.label: check for check in report.checks}
        assert by_label["sum-optimum-makespan"].lhs == F(11)
        assert by_label["sum-optimum-makespan"].rhs == F(22)
        assert by_label["makespan-optimum-sum"].lhs == F(16)
        assert by_label["makespan-optimum-sum"].rhs == F(32)
        assert by_label["ectf-sum"].lhs == F(20)
        assert by_label["ectf-sum"].rhs == F(128)
        assert report.all_hold

    def test_single_job_collapses(self):
        inst = make_instance(2, [(1, 4, 1)])
        report = cross_objective_check(inst)
        assert report.makespan_opt.best_value == F(7)
        assert report.total_completion_opt.best_value == F(7)
        assert report.all_hold

    @settings(max_examples=150, deadline=None)
    @given(inst=instances(min_n=1, max_n=5))
    def test_inequalities_hold_on_random_instances(self, inst):
        report = cross_objective_check(inst)
        assert report.all_hold, [
            (c.label, c.lhs, c.rhs) for c in report.checks if not c.holds
        ]
