"""Smoke tests for the two sweep scripts under ``scripts/``: each ``main()``
runs on tiny arguments and returns its documented exit code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from detsched.oracle import DP_MAX_N

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_adversarial_families_match_predictions(capsys):
    main = _load("run_adversarial_families").main
    assert main(["--max-size", "3"]) == 0
    assert "all observed ratios match their predictions" in capsys.readouterr().out


def test_random_sweep_reaches_past_brute_force(capsys):
    # n=11 is past brute force but within the subset DP; the non-interfering
    # regime beta >= n+1 is flagged there, for the reason C07 records
    main = _load("run_random_ratio_sweep").main
    assert main(["--trials", "2", "--n-min", "10", "--n-max", "11", "--betas", "1"]) == 2
    out = capsys.readouterr().out
    assert "non-interfering, beta >= n+1" in out
    assert "BOUND VIOLATIONS FOUND" in out


def test_random_sweep_refuses_past_the_dp():
    main = _load("run_random_ratio_sweep").main
    with pytest.raises(SystemExit) as caught:
        main(["--n-max", str(DP_MAX_N + 1)])
    assert caught.value.code == 2
