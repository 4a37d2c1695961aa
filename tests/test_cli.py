"""End-to-end runs of the command-line surface via main(argv).

Covers the gen/solve/eval/opt pipeline on temp files, exit-code
semantics (0 ok, 1 usage or validation, 2 violated bound), seed
handling through DETSCHED_SEED, and the JSON document shapes.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from detsched import cli, model, serialization
from detsched.cli import main
from detsched.experiment import MAX_TRIALS
from detsched.generators import ADVERSARIAL_MAX_K, RANDOM_MAX_N, Family, FamilySpec, generate
from detsched.oracle import BRUTE_FORCE_MAX_N, DP_MAX_N
from detsched.schedulers import SchedulerChoice
from detsched.serialization import parse_instance, parse_rational, write_instance

from conftest import LOOSE_RATIONALS, count_calls, digit_limit, make_instance


@pytest.fixture()
def no_env_seed(monkeypatch):
    monkeypatch.delenv("DETSCHED_SEED", raising=False)


@pytest.fixture()
def two_job_file(tmp_path, two_job_instance):
    path = tmp_path / "two_job.json"
    path.write_text(write_instance(two_job_instance), encoding="utf-8")
    return str(path)


@pytest.fixture()
def past_ceiling_file(tmp_path):
    """One job more than brute force will ever enumerate."""
    n = BRUTE_FORCE_MAX_N + 1
    path = tmp_path / "past_ceiling.json"
    inst = make_instance(1, [(i, i, 0) for i in range(1, n + 1)])
    path.write_text(write_instance(inst), encoding="utf-8")
    return str(path)


@pytest.fixture()
def past_dp_cap_file(tmp_path):
    """One job more than the subset DP will ever tabulate."""
    n = DP_MAX_N + 1
    path = tmp_path / "past_dp_cap.json"
    inst = make_instance(1, [(i, i, 0) for i in range(1, n + 1)])
    path.write_text(write_instance(inst), encoding="utf-8")
    return str(path)


@pytest.fixture()
def steep_files(tmp_path):
    """Seven jobs whose starts grow about 10**1000-fold each, so the seventh
    passes the interpreter's 4300-digit limit on int-to-str, and an
    order-only schedule of them."""
    inst = tmp_path / "steep.json"
    inst.write_text(
        write_instance(make_instance(10**1000, [(i, 1, 0) for i in range(1, 8)])),
        encoding="utf-8",
    )
    sched = tmp_path / "steep_order.json"
    sched.write_text('{"order":[1,2,3,4,5,6,7]}', encoding="utf-8")
    return {"instance": str(inst), "order": str(sched)}


BRUTE_FORCE_COMMANDS = [
    pytest.param(["opt", "--objective", "total-completion"], id="opt-total-completion"),
    pytest.param(["cross-check"], id="cross-check"),
]
SUBSET_DP_COMMANDS = [
    pytest.param(["opt", "--objective", "makespan"], id="opt-makespan"),
    pytest.param(["verify-pm"], id="verify-pm"),
]


@pytest.mark.parametrize("command", BRUTE_FORCE_COMMANDS)
def test_bruteforce_ceiling_ignores_raised_cap(capsys, past_ceiling_file, command):
    argv = command + ["--instance", past_ceiling_file, "--max-bruteforce-n", "25"]
    assert main(argv) == 1
    assert f"brute-force cap of {BRUTE_FORCE_MAX_N}" in capsys.readouterr().err


@pytest.mark.parametrize("command", SUBSET_DP_COMMANDS)
def test_raised_cap_reaches_past_bruteforce_ceiling(capsys, past_ceiling_file, command):
    # makespan optima come from the subset DP, which a raised cap unlocks
    argv = command + ["--instance", past_ceiling_file, "--max-bruteforce-n", "25"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", SUBSET_DP_COMMANDS)
def test_subset_dp_ceiling_ignores_raised_cap(capsys, past_dp_cap_file, command):
    argv = command + ["--instance", past_dp_cap_file, "--max-bruteforce-n", "25"]
    assert main(argv) == 1
    assert f"subset-DP cap of {DP_MAX_N}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["opt", "verify-pm", "cross-check", "experiment"])
def test_max_n_help_names_both_caps(capsys, command):
    with pytest.raises(SystemExit) as caught:
        main([command, "--help"])
    assert caught.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"subset DP up to {DP_MAX_N} jobs" in text
    assert f"brute force up to {BRUTE_FORCE_MAX_N} jobs" in text


class TestGen:
    def test_stdout_document_parses(self, capsys, no_env_seed):
        assert main(["gen", "--family", "random", "--n", "4", "--seed", "1"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.n == 4

    def test_seed_flag_is_deterministic(self, capsys, no_env_seed):
        main(["gen", "--n", "5", "--seed", "9"])
        first = capsys.readouterr().out
        main(["gen", "--n", "5", "--seed", "9"])
        assert capsys.readouterr().out == first
        main(["gen", "--n", "5", "--seed", "10"])
        assert capsys.readouterr().out != first

    def test_env_seed_supplies_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DETSCHED_SEED", "9")
        main(["gen", "--n", "5"])
        from_env = capsys.readouterr().out
        main(["gen", "--n", "5", "--seed", "9"])
        assert capsys.readouterr().out == from_env

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DETSCHED_SEED", "three")
        assert main(["gen", "--n", "3"]) == 1
        assert "DETSCHED_SEED" in capsys.readouterr().err

    def test_out_writes_file(self, tmp_path, no_env_seed):
        target = tmp_path / "inst.json"
        assert main(["gen", "--n", "3", "--seed", "2", "--out", str(target)]) == 0
        assert parse_instance(target.read_text(encoding="utf-8")).n == 3

    def test_k_alias_for_adversarial_size(self, capsys, no_env_seed):
        assert main(["gen", "--family", "ectf-adv", "--k", "2", "--b", "1"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.n == 4  # k longs + k shorts

    @pytest.mark.parametrize("family", ["random", "two-release"])
    def test_n_past_the_cap_rejected(self, capsys, no_env_seed, family):
        argv = ["gen", "--family", family, "--n", str(RANDOM_MAX_N + 1), "--seed", "1"]
        assert main(argv) == 1
        assert f"n must be <= {RANDOM_MAX_N}" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["noninterfering-adv", "nonidling-adv", "ectf-adv"])
    def test_k_past_the_cap_rejected(self, capsys, no_env_seed, family):
        # k = 3000000 ran until killed before the adversarial families had a cap
        assert main(["gen", "--family", family, "--k", "3000000"]) == 1
        assert f"n must be <= {ADVERSARIAL_MAX_K}" in capsys.readouterr().err

    def test_decimal_beta_rejected(self, capsys, no_env_seed):
        assert main(["gen", "--n", "3", "--beta", "0.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_beta_rejected(self, capsys, no_env_seed):
        assert main(["gen", "--n", "3", "--beta", "0"]) == 1
        assert "beta" in capsys.readouterr().err


class TestPipeline:
    def test_gen_solve_eval_opt(self, tmp_path, capsys, no_env_seed):
        inst_path = tmp_path / "inst.json"
        sched_path = tmp_path / "sched.json"
        assert main(["gen", "--n", "5", "--seed", "4", "--out", str(inst_path)]) == 0

        assert (
            main(
                [
                    "solve",
                    "--instance",
                    str(inst_path),
                    "--algorithm",
                    "best-of-two",
                    "--out",
                    str(sched_path),
                ]
            )
            == 0
        )

        assert (
            main(["eval", "--instance", str(inst_path), "--schedule", str(sched_path)])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "order",
            "starts",
            "completions",
            "gaps",
            "makespan",
            "total_completion",
        }
        makespan = parse_rational(report["makespan"])

        assert main(["opt", "--instance", str(inst_path)]) == 0
        opt_doc = json.loads(capsys.readouterr().out)
        assert parse_rational(opt_doc["value"]) <= makespan

    def test_solve_missing_file(self, capsys):
        assert main(["solve", "--instance", "/nonexistent.json", "--algorithm", "ectf"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_opt_respects_bruteforce_cap(self, capsys, two_job_file):
        assert main(["opt", "--instance", two_job_file, "--max-bruteforce-n", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_rejects_infeasible_schedule(self, tmp_path, capsys, two_job_file):
        sched = tmp_path / "bad.json"
        # job 2 cannot start before its release at 2
        sched.write_text(
            json.dumps({"order": [2, 1], "starts": ["0", "1"]}) + "\n",
            encoding="utf-8",
        )
        assert main(["eval", "--instance", two_job_file, "--schedule", str(sched)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", LOOSE_RATIONALS)
    def test_eval_rejects_loose_rational(self, tmp_path, capsys, two_job_file, text):
        # a trailing newline or non-ASCII digits, after a start that matches
        sched = tmp_path / "loose.json"
        sched.write_text(json.dumps({"order": [2, 1], "starts": ["2", text]}), encoding="utf-8")
        assert main(["eval", "--instance", two_job_file, "--schedule", str(sched)]) == 1
        assert capsys.readouterr().err.startswith("error: starts[1]: ")

    def test_eval_rejects_over_long_number(self, tmp_path, capsys, two_job_file):
        sched = tmp_path / "long.json"
        sched.write_text(
            json.dumps({"order": [1, 2], "starts": ["0", "1" * 5000]}) + "\n",
            encoding="utf-8",
        )
        assert main(["eval", "--instance", two_job_file, "--schedule", str(sched)]) == 1
        assert "error: starts[1]: 5000 digits" in capsys.readouterr().err

    def test_solve_rejects_over_long_start(self, tmp_path, capsys):
        # Each start is about 10**1000 times the one before, so the seventh
        # passes the interpreter's 4300-digit limit on int-to-str.
        inst = tmp_path / "steep.json"
        inst.write_text(
            write_instance(make_instance(10**1000, [(i, 1, 0) for i in range(1, 8)])),
            encoding="utf-8",
        )
        out = tmp_path / "steep.schedule.json"
        argv = ["solve", "--instance", str(inst), "--algorithm", "ectf", "--out", str(out)]
        assert main(argv) == 1
        assert f"limit of {sys.get_int_max_str_digits()} digits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--algorithm", "ectf"],
            ["opt"],
            ["opt", "--objective", "total-completion"],
            ["eval", "--schedule", "order"],
        ],
        ids=["solve", "opt", "opt-total-completion", "eval"],
    )
    def test_unwritable_list_converts_nothing(self, monkeypatch, capsys, steep_files, command):
        # the whole list of starts is checked against the digit limit before
        # any of it is converted, and the refusal names the first value past it
        conversions = []
        convert = serialization.format_rational

        def counting(value, context=None):
            conversions.append(value)
            return convert(value, context)

        monkeypatch.setattr(serialization, "format_rational", counting)
        monkeypatch.setattr(cli, "format_rational", counting)
        argv = [command[0], "--instance", steep_files["instance"]] + [
            steep_files.get(arg, arg) for arg in command[1:]
        ]
        assert main(argv) == 1
        limit = sys.get_int_max_str_digits()
        assert re.match(
            rf"error: starts\[6\]: cannot write a \d+-bit value: "
            f"it passes the limit of {limit} digits",
            capsys.readouterr().err,
        )
        assert conversions == []

    def test_eval_of_a_solve_output_parses_no_start(self, monkeypatch, tmp_path):
        # every start that solve writes is its earliest start's canonical
        # text, so eval parses none of them: it spells each start once, from
        # the decimal walk, and compares the texts; it spells a completion
        # only where an idle gap follows it or no position does, and formats
        # only the total from a Fraction
        inst, sched, out = (str(tmp_path / name) for name in ("i.json", "s.json", "r.json"))
        gen = ["gen", "--family", "two-release", "--n", "8", "--beta", "1/2", "--seed", "2"]
        assert main(gen + ["--out", inst]) == 0
        solve = ["solve", "--instance", inst, "--algorithm", "non-interfering"]
        assert main(solve + ["--out", sched]) == 0
        parsed, formatted, spelled = [], [], []
        parse, convert, spell = serialization.parse_rational, serialization.format_rational, serialization._text

        def counting_parse(text, context="value"):
            parsed.append(context)
            return parse(text, context)

        def counting_format(value, context=None):
            formatted.append(value)
            return convert(value, context)

        def counting_spell(value):
            text = spell(value)
            spelled.append(F(text))
            return text

        monkeypatch.setattr(serialization, "parse_rational", counting_parse)
        monkeypatch.setattr(serialization, "format_rational", counting_format)
        monkeypatch.setattr(serialization, "_text", counting_spell)
        monkeypatch.setattr(cli, "format_rational", counting_format)
        assert main(["eval", "--instance", inst, "--schedule", sched, "--out", out]) == 0
        assert not [context for context in parsed if context.startswith("starts")]
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        starts, completions, gaps = ([F(text) for text in report[key]] for key in ("starts", "completions", "gaps"))
        gapped = [k for k in range(1, len(gaps)) if gaps[k]]
        assert 0 < len(gapped) < len(gaps) - 1
        written = starts + [completions[k - 1] for k in gapped] + completions[-1:]
        written += [gap for gap in gaps if gap]
        assert Counter(spelled) == Counter(written)
        assert formatted == [F(report["total_completion"])]

    def test_long_horizon_round_trip(self, tmp_path):
        # the long-horizon regime: starts of about 1700 digits, written as
        # their canonical texts, which eval compares with its own walk's
        # texts string for string
        inst = generate(FamilySpec(family=Family.RANDOM, n=1600, beta=F(1, 1600), seed=5, r_max=6400))
        path = tmp_path / "i.json"
        path.write_text(write_instance(inst), encoding="utf-8")
        jobs = inst.job_map()

        def canonical(value):
            return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"

        for algorithm in ("non-interfering", "ectf"):
            sched, out = tmp_path / f"{algorithm}.json", tmp_path / f"{algorithm}.eval.json"
            assert main(["solve", "--instance", str(path), "--algorithm", algorithm, "--out", str(sched)]) == 0
            assert main(["eval", "--instance", str(path), "--schedule", str(sched), "--out", str(out)]) == 0
            texts = [p.read_text(encoding="utf-8") for p in (sched, out)]
            schedule, report = (json.loads(text) for text in texts)
            for doc, text in zip((schedule, report), texts):
                assert text == json.dumps(doc, indent=2) + "\n"
            # replay the order from its earliest starts, in Fractions
            starts, completions, gaps, completion = [], [], [], F(0)
            for jid in schedule["order"]:
                start = max(jobs[jid].release, completion)
                gaps.append(start - completion)
                completion = jobs[jid].alpha + inst.growth * start
                starts.append(start)
                completions.append(completion)
            start_texts = [canonical(s) for s in starts]
            assert max(map(len, start_texts)) > 1500
            assert schedule["starts"] == report["starts"] == start_texts
            # a completion followed by no idle gap is the next start
            assert report["completions"] == [
                start_texts[k + 1] if k + 1 < len(gaps) and not gaps[k + 1] else canonical(c)
                for k, c in enumerate(completions)
            ]
            assert report["gaps"] == [canonical(g) for g in gaps]
            assert report["makespan"] == canonical(completion)
            assert report["total_completion"] == canonical(sum(completions))

    def test_long_horizon_non_idling_refused_before_any_text(self, monkeypatch, tmp_path, capsys):
        # non-idling's start at position 1390 has 14294 bits, past the
        # default limit; solve names it before it spells any start
        inst = generate(FamilySpec(family=Family.RANDOM, n=1600, beta=F(1, 1600), seed=5, r_max=6400))
        path, out = tmp_path / "i.json", tmp_path / "s.json"
        path.write_text(write_instance(inst), encoding="utf-8")
        spelled = []
        spell = serialization._text

        def counting_spell(value):
            spelled.append(value)
            return spell(value)

        monkeypatch.setattr(serialization, "_text", counting_spell)
        argv = ["solve", "--instance", str(path), "--algorithm", "non-idling", "--out", str(out)]
        with digit_limit(4300):
            assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: starts[1390]: cannot write a 14294-bit value: it passes the limit "
            "of 4300 digits for integer string conversion\n"
        )
        assert spelled == []
        assert not out.exists()

    def test_eval_names_the_unwritable_completion(self, tmp_path, capsys):
        # six jobs: the last start has about 4000 digits, its completion 5000
        inst = tmp_path / "steep6.json"
        inst.write_text(
            write_instance(make_instance(10**1000, [(i, 1, 0) for i in range(1, 7)])),
            encoding="utf-8",
        )
        sched = tmp_path / "order.json"
        sched.write_text('{"order":[1,2,3,4,5,6]}', encoding="utf-8")
        assert main(["eval", "--instance", str(inst), "--schedule", str(sched)]) == 1
        assert capsys.readouterr().err.startswith("error: completions[5]: cannot write a")

    @pytest.mark.parametrize("choice", [c.value for c in SchedulerChoice])
    def test_one_validation_per_solve(self, monkeypatch, two_job_file, choice):
        # building the parsed instance checks it; no policy checks it again
        calls = []
        check = model.validate_instance

        def counting(instance):
            calls.append(instance)
            return check(instance)

        monkeypatch.setattr(model, "validate_instance", counting)
        assert main(["solve", "--instance", two_job_file, "--algorithm", choice]) == 0
        assert len(calls) == 1

    def test_over_long_json_integers(self, tmp_path, capsys, two_job_file):
        inst = tmp_path / "long_id.json"
        inst.write_text(
            '{"beta":"1","jobs":[{"id":' + "9" * 5000 + ',"alpha":"1","release":"0"}]}',
            encoding="utf-8",
        )
        assert main(["solve", "--instance", str(inst), "--algorithm", "ectf"]) == 1
        assert capsys.readouterr().err.startswith("error: instance: an integer exceeds")
        sched = tmp_path / "long_order.json"
        sched.write_text('{"order":[1,' + "2" * 5000 + "]}", encoding="utf-8")
        assert main(["eval", "--instance", two_job_file, "--schedule", str(sched)]) == 1
        assert capsys.readouterr().err.startswith("error: schedule: an integer exceeds")

    def test_unknown_algorithm(self, capsys, two_job_file):
        with pytest.raises(SystemExit):
            main(["solve", "--instance", two_job_file, "--algorithm", "spt"])


class TestExperiment:
    def test_reruns_byte_identical(self, tmp_path, no_env_seed):
        args = [
            "experiment",
            "--trials",
            "6",
            "--n-min",
            "2",
            "--n-max",
            "4",
            "--betas",
            "1,2",
            "--seed",
            "11",
            "--algorithms",
            "ectf,non-idling",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("instance_id,n,beta,family,seed,algorithm")

    def test_bad_algorithm_list(self, capsys):
        assert main(["experiment", "--algorithms", "ectf,, nope", "--seed", "0"]) == 1
        assert "choose from" in capsys.readouterr().err

    def test_repeated_algorithm(self, tmp_path, capsys):
        # one row per (trial, algorithm): a repeated name would write two
        out = tmp_path / "rows.csv"
        argv = ["experiment", "--algorithms", "ectf, non-idling,ectf", "--trials", "1",
                "--seed", "0", "--out", str(out)]
        assert main(argv) == 1
        assert "'ectf' is named twice" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_betas(self, capsys):
        assert main(["experiment", "--betas", " , ", "--seed", "0"]) == 1
        assert "--betas" in capsys.readouterr().err

    def test_n_max_past_the_family_cap(self, monkeypatch, capsys):
        specs = count_calls(monkeypatch, generate)
        argv = ["experiment", "--family", "nonidling-adv", "--trials", "2",
                "--n-min", str(ADVERSARIAL_MAX_K), "--n-max", str(ADVERSARIAL_MAX_K + 1),
                "--seed", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: n_max must be <= {ADVERSARIAL_MAX_K} for the nonidling-adv family, "
            f"got {ADVERSARIAL_MAX_K + 1}\n"
        )
        assert specs == []

    # trial 0 ran to the end (generation, both bounds, every policy) before
    # trial 1's spec refused its beta, and with no trials the beta passed
    @pytest.mark.parametrize(
        "argv",
        [
            ["--trials", "2", "--n-min", "14", "--n-max", "14", "--betas", "1,0"],
            ["--trials", "0", "--betas", "0"],
        ],
        ids=["second-beta-zero", "no-trials"],
    )
    def test_non_positive_beta(self, monkeypatch, capsys, tmp_path, argv):
        specs = count_calls(monkeypatch, generate)
        out = tmp_path / "rows.csv"
        assert main(["experiment", *argv, "--seed", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: beta must be > 0, got 0\n"
        assert specs == []
        assert not out.exists()

    def test_trials_past_the_cap(self, monkeypatch, capsys):
        specs = count_calls(monkeypatch, generate)
        argv = ["experiment", "--trials", str(MAX_TRIALS + 1), "--seed", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: trials must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}\n"
        assert specs == []

    @staticmethod
    def _rows(tmp_path, args) -> list[dict[str, str]]:
        out = tmp_path / "rows.csv"
        assert main(args + ["--out", str(out)]) == 0
        return list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))

    def test_trial_past_dp_cap(self, tmp_path):
        # a raised cap stops at the subset DP's ceiling: the trial still
        # runs, and like a trial past --max-bruteforce-n it has no ratio
        n = str(DP_MAX_N + 1)
        args = [
            "experiment", "--objective", "makespan", "--max-bruteforce-n", "25",
            "--trials", "1", "--n-min", n, "--n-max", n, "--seed", "0",
        ]
        rows = self._rows(tmp_path, args)
        assert rows and all(r["opt_value"] == r["ratio"] == r["ratio_decimal"] == "" for r in rows)

    def test_trial_past_bruteforce_ceiling(self, tmp_path):
        # total completion has no DP: a raised cap used to start a 13! run
        args = [
            "experiment", "--objective", "total-completion", "--max-bruteforce-n", "25",
            "--trials", "1", "--n-min", "13", "--n-max", "13", "--seed", "0",
        ]
        rows = self._rows(tmp_path, args)
        assert rows and all(r["opt_value"] == r["ratio"] == r["ratio_decimal"] == "" for r in rows)

    def test_ceiling_blanks_only_the_trials_past_it(self, tmp_path):
        # under a cap of 25, n = DP_MAX_N gets its optimum and one job more does not
        args = [
            "experiment", "--objective", "makespan", "--max-bruteforce-n", "25",
            "--trials", "2", "--n-min", str(DP_MAX_N), "--n-max", str(DP_MAX_N + 1),
            "--seed", "0", "--algorithms", "ectf",
        ]
        rows = self._rows(tmp_path, args)
        assert [(int(r["n"]), r["ratio"] == "") for r in rows] == [
            (DP_MAX_N, False),
            (DP_MAX_N + 1, True),
        ]


class TestVerifyPm:
    def test_ok_document(self, capsys, two_job_file):
        assert main(["verify-pm", "--instance", two_job_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        # the gap forces the reduction; on the reduced pair the policy is
        # never behind, so no stages are needed
        assert doc["verdict"] == "ok"
        assert doc["reduced"] is True
        assert doc["last_critical_index"] == 2
        assert doc["stages"] == []

    def test_no_reduce_keeps_stages(self, capsys, two_job_file):
        assert main(["verify-pm", "--instance", two_job_file, "--no-reduce"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "ok"
        assert doc["reduced"] is False
        assert doc["stages"] == [
            {"k": 2, "edges": [[2, 1]], "load_lhs": "5", "load_rhs": "12"}
        ]


class TestCrossCheck:
    def test_all_hold(self, capsys, two_job_file):
        assert main(["cross-check", "--instance", two_job_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_hold"] is True
        assert [c["label"] for c in doc["checks"]] == [
            "sum-optimum-makespan",
            "makespan-optimum-sum",
            "ectf-sum",
        ]
        first = doc["checks"][0]
        assert (first["lhs"], first["rhs"]) == ("11", "22")
        assert first["holds"] is True

    def test_cap_too_small(self, capsys, two_job_file):
        assert main(["cross-check", "--instance", two_job_file, "--max-bruteforce-n", "1"]) == 1


@pytest.fixture()
def bad_inputs(tmp_path, two_job_file):
    """The error-path table's files by name: good inputs, inputs every
    command must refuse, and output paths it cannot write."""
    files = {
        "missing": None,
        "not_utf8": b'\xff\xfe{"beta": "1"}',
        "deep": b"[" * 100_000,
        "long_id": b'{"beta":"1","jobs":[{"id":' + b"9" * 5000 + b',"alpha":"1","release":"0"}]}',
        "invalid": b'{"beta":"0","jobs":[{"id":1,"alpha":"1","release":"0"}]}',
        "long_order": b'{"order":[1,' + b"2" * 5000 + b"]}",
        "not_permutation": b'{"order":[1,1]}',
    }
    paths = {"good": two_job_file, "dir": str(tmp_path), "no_dir": str(tmp_path / "no" / "out")}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        if data is not None:
            path.write_bytes(data)
        paths[name] = str(path)
    good_sched = tmp_path / "good_sched.json"
    good_sched.write_text('{"order":[1,2]}', encoding="utf-8")
    paths["good_sched"] = str(good_sched)
    return paths


BAD_INSTANCES = ["missing", "not_utf8", "deep", "long_id", "invalid"]
UNWRITABLE = ["dir", "no_dir"]
ERROR_PATHS = (
    [["gen", "--out", out] for out in UNWRITABLE]
    + [["gen", "--n", "0"], ["gen", "--beta", "0"], ["gen", "--alpha-max", "-1"]]
    + [
        [cmd, "--instance", inst] + extra
        for cmd, extra in [
            ("solve", ["--algorithm", "ectf"]),
            ("opt", []),
            ("opt", ["--objective", "total-completion"]),
            ("verify-pm", []),
            ("cross-check", []),
            ("eval", ["--schedule", "good_sched"]),
        ]
        for inst in BAD_INSTANCES
    ]
    + [
        ["eval", "--instance", "good", "--schedule", sched]
        for sched in ["missing", "not_utf8", "deep", "long_order", "not_permutation"]
    ]
    + [
        argv + ["--out", out]
        for argv in [
            ["solve", "--instance", "good", "--algorithm", "ectf"],
            ["opt", "--instance", "good"],
            ["eval", "--instance", "good", "--schedule", "good_sched"],
            ["verify-pm", "--instance", "good"],
            ["cross-check", "--instance", "good"],
            ["experiment", "--trials", "1", "--n-max", "3", "--seed", "0"],
        ]
        for out in UNWRITABLE
    ]
    + [
        ["experiment", "--trials", "-1", "--seed", "0"],
        ["experiment", "--n-min", "0", "--seed", "0"],
        ["experiment", "--betas", "0", "--trials", "1", "--seed", "0"],
        ["experiment", "--alpha-max", "-1", "--trials", "1", "--seed", "0"],
        ["experiment", "--max-bruteforce-n", "-1", "--trials", "1", "--seed", "0"],
    ]
    + [
        [cmd, "--instance", "good", "--max-bruteforce-n", "-5"]
        for cmd in ("opt", "verify-pm", "cross-check")
    ]
)


@pytest.mark.parametrize("argv", ERROR_PATHS, ids=lambda argv: " ".join(argv))
def test_error_paths_exit_one(capsys, bad_inputs, argv):
    # every refusal is a SchedulingError: main has no other safety net
    argv = [bad_inputs.get(arg, arg) for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
