"""Pinned outputs: a fixed command matrix and the sha256 of each output.

Every command runs in-process through ``detsched.cli.main`` and writes to
a file; the test compares the file's digest with the one checked in
here.  A change that alters an output on purpose updates its digest in
the same commit and says which output changed and why.  The list is never
regenerated wholesale to make a run pass.

The sizes are small on purpose: total completion runs on brute force,
and the adversarial families grow with k (``nonidling-adv`` has k+1
jobs, ``ectf-adv`` 2k).  The benchmark's digests cover the big inputs.
"""

from __future__ import annotations

import hashlib

import pytest

from detsched.cli import main

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
