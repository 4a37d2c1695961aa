"""One pass of each of the benchmark's workloads, run the way the
benchmark runs them: ``perfbench/run.py`` from a fresh copy of the
checkout, importing the package from that copy's ``src/``.

A ``certify`` pass, whose total-completion optima run on brute force,
takes a few seconds; the other two take well under a second.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Operations that fail in every pass today.  Long-horizon's non-idling
# chain writes a start past the interpreter's digit limit (ROADMAP item 3).
EXPECTED_FAILED = {"sweep": 0, "certify": 0, "long-horizon": 1}

# The digest of every byte a pass writes, for seed 5: a change to what the
# benchmark's commands write fails here, not only in the benchmark.
EXPECTED_SHA256 = {
    "sweep": "0438edc041fcf0dda8483153fbb1ba561e5d5189a33a7052ffb319332a584aa5",
    "certify": "f68621d4f907fe2b3818834cdc396505f1141b3de290f4276a5858974d7c7dcf",
    "long-horizon": "18167601febb8f0f47a75e7176e0be4b13d9565d4e3492b7b59c75dcdf7ae1bc",
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_FAILED))
def test_one_pass_is_correct(tmp_path, workload):
    ignore = shutil.ignore_patterns(".out", "__pycache__")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "0"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == EXPECTED_FAILED[workload]
    assert f"outputs_sha256 = {EXPECTED_SHA256[workload]}" in lines
