"""Pinned outputs: a fixed command matrix and the sha256 of each output.

Every command runs in-process through ``detsched.cli.main`` and writes to
a file; the test compares the file's digest with the one checked in
here.  A change that alters an output on purpose updates its digest in
the same commit and says which output changed and why.  The list is never
regenerated wholesale to make a run pass.

The sizes are small on purpose: total completion runs on brute force,
and the adversarial families grow with k (``nonidling-adv`` has k+1
jobs, ``ectf-adv`` 2k).  So ``opt --objective total-completion`` and
``cross-check`` run only on the three adversarial instances (5 to 6
jobs), not on the random (9) and two-release (8) ones.  The benchmark's
digests cover the big inputs.

Error paths pin their stderr text and exit code: 1 for a refused input,
2 for a finding.  No command reaches a finding on any instance tried
(the bounds ``cross-check`` and ``verify-pm`` check held on every one),
so the exit-2 case is the random ratio sweep script flagging the
non-interfering regime, for the reason C07 records.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from detsched.cli import main
from detsched.serialization import format_rational, parse_instance, parse_rational

from conftest import delayed_starts

# family -> (--n-min, --n-max); random and two-release go one job past
# --max-bruteforce-n so that some rows leave the ratio blank
EXPERIMENT_SIZES = {
    "random": (2, 6),
    "two-release": (2, 6),
    "noninterfering-adv": (1, 5),
    "nonidling-adv": (1, 4),
    "ectf-adv": (1, 3),
}

EXPERIMENT_DIGESTS = {
    ("random", "makespan"): "16e03e0214d1483808a422a35ee7c615381efe15c8e7f97a821a72854f967329",
    ("random", "total-completion"): "b62d7bd815953606fb5b7370f6b119d7d5778c3a45f58490365f8020d29ff5ad",
    ("two-release", "makespan"): "0a95480da5501ebd1de21ea04883b91a8dd077984406371ee455f1fd58d0a282",
    ("two-release", "total-completion"): "32765ea841001f361c0b9eafd4a89004c636455a2d500ea9b8cc0cb690508ca0",
    ("noninterfering-adv", "makespan"): "efd3cdcd2bf69adf5dd738d577fbc209c1b5ce576f53ad953c75f361017ce5eb",
    ("noninterfering-adv", "total-completion"): "db7540b306bed9a84230f6c78dfd1f710b93d910d37b1823f87b3b16db413d4b",
    ("nonidling-adv", "makespan"): "f16f1d2ab2a0837f2904ffd3474d8d98c1badd348a42c9862dcc14ea17511a37",
    ("nonidling-adv", "total-completion"): "60a120bb372f4a6b788a7cce77822f63a4a28cd38203e27779541d3cfc97cb02",
    ("ectf-adv", "makespan"): "65c4e11a1a2cbe375d6e134feb297bf3bd7c35d086b45e5305230c261345814d",
    ("ectf-adv", "total-completion"): "57c140dfe00497ce7b614103e20136062f8768b3857041fb0acea3684c92fa37",
}

# name -> gen arguments
INSTANCES = {
    "random": ["--family", "random", "--n", "9", "--beta", "1", "--seed", "4"],
    "two-release": ["--family", "two-release", "--n", "8", "--beta", "1/2", "--seed", "2"],
    "noninterfering-adv": ["--family", "noninterfering-adv", "--n", "5", "--beta", "2"],
    "nonidling-adv": ["--family", "nonidling-adv", "--n", "4", "--beta", "1"],
    "ectf-adv": ["--family", "ectf-adv", "--n", "3", "--beta", "1/2"],
    # past brute force, for the subset DP's makespan optimum only
    "random-14": ["--family", "random", "--n", "14", "--beta", "1/2", "--seed", "6"],
    "random-20": ["--family", "random", "--n", "20", "--beta", "1/20", "--seed", "6"],
    "two-release-20": ["--family", "two-release", "--n", "20", "--beta", "1/2", "--seed", "2"],
}

GEN_DIGESTS = {
    "random": "05eebb33376aab7532860df9fc1b56ef6766fc70b3fd9c29fb9cc4fbf510f582",
    "two-release": "93aa072456b21ab5657af7f337a8a5d78262f22cf3924988b0d25a5b8d0c6de2",
    "noninterfering-adv": "a2f680ae5926ad315540461999e0e835da0abb8527fd61d3a85e1a9747ff4d90",
    "nonidling-adv": "7d0b2e65e4f50a5ee9d1920cc12bd316c7a4e93844bbdfb60b828e818c698c91",
    "ectf-adv": "e1b09960818f198528f1909534ce15af914e8f2e3ad929334f9eaee634da68ae",
}

SOLVE_DIGESTS = {
    ("random", "best-of-two"): "a7ae413af22b041080a95b36712a6c924da566a8589433fae99a87083ad7f980",
    ("two-release", "best-of-two"): "aba8edc1d5dee152ad4fc789b2acd1a02eedbb6b76168f5d63ac762aa1408aa7",
    ("noninterfering-adv", "best-of-two"): "b573af65e74182aa63047def88dbd5c690eb15fbef4b56f943ec84cf63eb7afc",
    ("nonidling-adv", "best-of-two"): "903d2e2c9fa364f197ae3e64fcba2f122ea9217360153953d96a7df4a5631613",
    ("ectf-adv", "best-of-two"): "c34715224a43d51b518fca4ff30fb9d209253b3d8984fa903bd54de362c0efa1",
    ("random", "non-idling"): "a7ae413af22b041080a95b36712a6c924da566a8589433fae99a87083ad7f980",
    ("random", "non-interfering"): "ca140b2d9b8121ecf90d4965fa353a10324cf2551afc712ffebd3df986697798",
    ("random", "ectf"): "a7ae413af22b041080a95b36712a6c924da566a8589433fae99a87083ad7f980",
}


def _run(tmp_path, args: list[str]) -> str:
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _experiment_args(family: str, objective: str) -> list[str]:
    n_min, n_max = EXPERIMENT_SIZES[family]
    return [
        "experiment", "--family", family, "--objective", objective,
        "--trials", "12", "--n-min", str(n_min), "--n-max", str(n_max),
        "--betas", "1/2,1,2", "--seed", "3", "--max-bruteforce-n", "5",
    ]


@pytest.mark.parametrize(
    "family, objective", list(EXPERIMENT_DIGESTS), ids=map("-".join, EXPERIMENT_DIGESTS)
)
def test_experiment_csv(tmp_path, family, objective):
    digest = _run(tmp_path, _experiment_args(family, objective))
    assert digest == EXPERIMENT_DIGESTS[family, objective]


@pytest.mark.parametrize("name", list(GEN_DIGESTS))
def test_gen(tmp_path, name):
    assert _run(tmp_path, ["gen"] + INSTANCES[name]) == GEN_DIGESTS[name]


@pytest.mark.parametrize(
    "name, algorithm", list(SOLVE_DIGESTS), ids=map("-".join, SOLVE_DIGESTS)
)
def test_solve(tmp_path, name, algorithm):
    instance = tmp_path / "instance.json"
    assert main(["gen"] + INSTANCES[name] + ["--out", str(instance)]) == 0
    args = ["solve", "--instance", str(instance), "--algorithm", algorithm]
    assert _run(tmp_path, args) == SOLVE_DIGESTS[name, algorithm]


# (name, objective) -> digest of `opt`; total completion on brute force
# only where it takes milliseconds
OPT_DIGESTS = {
    ("random", "makespan"): "37d4c6a868dab6ca0520d3a71ad175b22379cac62e7577583db64d854a18c989",
    ("two-release", "makespan"): "9f89a7360cd220e0ecdcc5c4308b3085a9bca5934c6f1a51c0b3be4fb9f7b012",
    ("noninterfering-adv", "makespan"): "1fa169b58987d33e5296a9212d34caa64f5ac342d18f9ed06de09df2659b50f0",
    ("nonidling-adv", "makespan"): "1afd460fff978250c9ad50fe39ffd65402c788997ece704d825907598dd86768",
    ("random-14", "makespan"): "f13bac58f11cd9507ca95e9ce841533cf745b5124a89295142a865667c71f200",
    ("ectf-adv", "makespan"): "4ecbbd826b3b5bf36ee2ab5bce92816cf6b0941870e36fdb4deec8047bcf6209",
    ("random-20", "makespan"): "9f48cafa39fbb1697c5fbf900028f722033627a8d09a01b009b24e536b28071a",
    ("two-release-20", "makespan"): "8806d740d3c3a2dc3b8a8494d980fe13f91637e009d7f9b2aeb91ff024bae086",
    ("noninterfering-adv", "total-completion"): "2768a4b9da48b842a255f84e90d749be41282d62cb6000ab13ed916641751e5d",
    ("nonidling-adv", "total-completion"): "2e985eeb1e966a09ad03210a7f0c36f708bd8a9898521d7c6061ca2160cb4206",
    ("ectf-adv", "total-completion"): "d2cd40e5d46fccc1d74dcb9a3943ce2c095208a23a2ec215a85a934221147bf2",
}

# (name, algorithm) -> digest of `eval` on that policy's `solve` output;
# best-of-two keeps non-interfering on the first instance and non-idling
# on the second
EVAL_DIGESTS = {
    ("nonidling-adv", "non-idling"): "ad87fd96881f88e6f044763604c365847100482158646e4655ce6c7fbf1f0835",
    ("nonidling-adv", "non-interfering"): "5fcf165ef5306feeb07dc31dcc0f6f623096cc861b5c34af90de5b15c21af08e",
    ("nonidling-adv", "best-of-two"): "5fcf165ef5306feeb07dc31dcc0f6f623096cc861b5c34af90de5b15c21af08e",
    ("nonidling-adv", "ectf"): "5fcf165ef5306feeb07dc31dcc0f6f623096cc861b5c34af90de5b15c21af08e",
    ("ectf-adv", "non-idling"): "ce93d8f98c8196430f3cb7045e6b72d36c6f9122173ebbaaccd5285c4bbe55df",
    ("ectf-adv", "non-interfering"): "053315686dfc4655eb7bbf3f74836cbc6b304c4d27943c8bc7518668d6e7724c",
    ("ectf-adv", "best-of-two"): "ce93d8f98c8196430f3cb7045e6b72d36c6f9122173ebbaaccd5285c4bbe55df",
    ("ectf-adv", "ectf"): "053315686dfc4655eb7bbf3f74836cbc6b304c4d27943c8bc7518668d6e7724c",
}

CROSS_CHECK_DIGESTS = {
    "noninterfering-adv": "be2dc920bac887226d263b08be22644d614dcffe36b32c67b484402376b660f6",
    "nonidling-adv": "9c89abfebf32372a58df6dbe2e71efb2bb96cde47d23aeb18930127049ba7c5b",
    "ectf-adv": "e7e7d04b2099b8b0db13d393fc1c21705085e9c75e31e29bd6e4ca7bf7081f19",
}

# (name, "reduce" or "no-reduce") -> digest of `verify-pm`
VERIFY_PM_DIGESTS = {
    ("random", "reduce"): "f9dcf8d5b0f5856e701651940ad0773a53a175ad22f74ca4310679029e5c4854",
    ("random", "no-reduce"): "ff321abc6e1115af3962e0961166902fc793b65b521d8104ac87b6b84c1a27c0",
    ("two-release", "reduce"): "b41834bd1c68b57b3a1576d1f29af31ca3b91ec742035b62c616f52f6626c6e0",
    ("two-release", "no-reduce"): "40bb89f37829cd38499d0c8393fea0fb69f1e0a4fc2c40bc20df677fa3a83213",
    ("noninterfering-adv", "reduce"): "9533acc245f386c24fa4691d44ed654f9492a6b7491913c142d2c7a74bd5ca7c",
    ("noninterfering-adv", "no-reduce"): "f85a1e4d19c7f0b8f24d04a569248f1a22297b16fc38c79df853ca9df1d4f761",
    ("nonidling-adv", "reduce"): "9533acc245f386c24fa4691d44ed654f9492a6b7491913c142d2c7a74bd5ca7c",
    ("nonidling-adv", "no-reduce"): "0585e2b9afa526578d1f04081188cf779a1325ea97506ea2da5ee234e5531e7e",
    ("ectf-adv", "reduce"): "0ba4023a3c84c35b4b27c5feeb3eec66182a999dafca7711069b676eccbda743",
    ("ectf-adv", "no-reduce"): "b2b0420d4073e35aaf5b1dfafcdf2d16d0859771fb4ec1ad40d063a3b97c42f2",
}


def _instance_file(tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.json"
    assert main(["gen"] + INSTANCES[name] + ["--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize(
    "name, objective", list(OPT_DIGESTS), ids=map("-".join, OPT_DIGESTS)
)
def test_opt(tmp_path, name, objective):
    args = [
        "opt", "--instance", _instance_file(tmp_path, name), "--objective", objective,
        "--max-bruteforce-n", "20",
    ]
    assert _run(tmp_path, args) == OPT_DIGESTS[name, objective]


@pytest.mark.parametrize(
    "name, algorithm", list(EVAL_DIGESTS), ids=map("-".join, EVAL_DIGESTS)
)
def test_eval(tmp_path, name, algorithm):
    instance = _instance_file(tmp_path, name)
    schedule = tmp_path / "schedule.json"
    solve = ["solve", "--instance", instance, "--algorithm", algorithm]
    assert main(solve + ["--out", str(schedule)]) == 0
    args = ["eval", "--instance", instance, "--schedule", str(schedule)]
    assert _run(tmp_path, args) == EVAL_DIGESTS[name, algorithm]


def _delayed(instance, doc) -> list[str]:
    """Position 2 waits 1/3 and the last position 1 past its earliest start;
    every other start is the earliest its predecessor allows."""
    delays = {2: Fraction(1, 3), len(doc["order"]) - 1: Fraction(1)}
    return [format_rational(s) for s in delayed_starts(instance, doc["order"], delays)]


def _respelled(instance, doc) -> list[str]:
    """The starts from position 4 on in non-canonical text: integers with
    a leading zero, fractions with both terms tripled."""
    values = [parse_rational(s) for s in doc["starts"][4:]]
    return doc["starts"][:4] + [
        f"0{v.numerator}" if v.denominator == 1 else f"{3 * v.numerator}/{3 * v.denominator}"
        for v in values
    ]


# edit -> (name, algorithm, digest of `eval` on that `solve` output with its
# starts edited); eval parses and checks these starts one by one
EDITED_EVAL_DIGESTS = {
    "delayed": (
        "two-release", "non-interfering",
        "443fc25b4b712f68bf00c6a4c83e32c6a76e2115c5fef607e12e746dacb47486",
    ),
    "respelled": (
        "two-release", "ectf",
        "8915157a100586b2eff66a8203061c370e1c8dc64483cad2a1243d7cb0466c47",
    ),
}
EDITS = {"delayed": _delayed, "respelled": _respelled}


@pytest.mark.parametrize("edit", list(EDITED_EVAL_DIGESTS))
def test_eval_edited_starts(tmp_path, edit):
    name, algorithm, digest = EDITED_EVAL_DIGESTS[edit]
    instance = _instance_file(tmp_path, name)
    schedule = tmp_path / "schedule.json"
    solve = ["solve", "--instance", instance, "--algorithm", algorithm]
    assert main(solve + ["--out", str(schedule)]) == 0
    doc = json.loads(schedule.read_text(encoding="utf-8"))
    doc["starts"] = EDITS[edit](parse_instance(Path(instance).read_text(encoding="utf-8")), doc)
    schedule.write_text(json.dumps(doc), encoding="utf-8")
    args = ["eval", "--instance", instance, "--schedule", str(schedule)]
    assert _run(tmp_path, args) == digest


@pytest.mark.parametrize("name", list(CROSS_CHECK_DIGESTS))
def test_cross_check(tmp_path, name):
    args = ["cross-check", "--instance", _instance_file(tmp_path, name)]
    assert _run(tmp_path, args) == CROSS_CHECK_DIGESTS[name]


@pytest.mark.parametrize(
    "name, mode", list(VERIFY_PM_DIGESTS), ids=map("-".join, VERIFY_PM_DIGESTS)
)
def test_verify_pm(tmp_path, name, mode):
    args = ["verify-pm", "--instance", _instance_file(tmp_path, name)]
    if mode == "no-reduce":
        args.append("--no-reduce")
    assert _run(tmp_path, args) == VERIFY_PM_DIGESTS[name, mode]


# argv, with "INSTANCE" standing for the random instance's file and "BAD"
# for a file that is not JSON -> the exact stderr
EXIT_ONE = {
    "opt-bad-json": (
        ["opt", "--instance", "BAD"],
        "error: instance: invalid JSON at line 1, column 24: Expecting value\n",
    ),
    "solve-bad-json": (
        ["solve", "--instance", "BAD", "--algorithm", "ectf"],
        "error: instance: invalid JSON at line 1, column 24: Expecting value\n",
    ),
    "opt-total-completion-past-cap": (
        ["opt", "--instance", "INSTANCE", "--objective", "total-completion",
         "--max-bruteforce-n", "8"],
        "error: n=9 exceeds the brute-force cap of 8\n",
    ),
    "opt-makespan-past-cap": (
        ["opt", "--instance", "INSTANCE", "--max-bruteforce-n", "8"],
        "error: n=9 exceeds the subset-DP cap of 8\n",
    ),
    "cross-check-past-cap": (
        ["cross-check", "--instance", "INSTANCE", "--max-bruteforce-n", "8"],
        "error: n=9 exceeds the brute-force cap of 8\n",
    ),
}


@pytest.mark.parametrize("case", list(EXIT_ONE))
def test_exit_one(tmp_path, capsys, case):
    argv, stderr = EXIT_ONE[case]
    bad = tmp_path / "bad.json"
    bad.write_text('{"beta": "1", "jobs": [', encoding="utf-8")
    files = {"INSTANCE": _instance_file(tmp_path, "random"), "BAD": str(bad)}
    capsys.readouterr()
    assert main([files.get(arg, arg) for arg in argv]) == 1
    assert capsys.readouterr().err == stderr


RATIO_SWEEP_ARGS = ["--trials", "2", "--n-min", "10", "--n-max", "11", "--betas", "1"]
RATIO_SWEEP_DIGEST = "248b2224a78782df39eef3860a58b65a6fd704014d9824ea994dec6310e1f06c"


def test_exit_two_ratio_sweep_finding(capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_random_ratio_sweep.py"
    spec = importlib.util.spec_from_file_location("run_random_ratio_sweep", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(RATIO_SWEEP_ARGS) == 2
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RATIO_SWEEP_DIGEST
