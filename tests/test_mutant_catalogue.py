"""The mutant catalogue in ``tests/mutants.py`` still points at live code.

The full run, which applies each mutant and runs its tests, is a separate
command (``python tests/mutants.py``).  Here only the cheap part runs:
every snippet occurs exactly once in its file, and every test it names
is defined where the node id says.
"""

from __future__ import annotations

import re

import pytest

from mutants import CATALOGUE, ROOT


def test_names_are_unique():
    names = [m.name for m in CATALOGUE]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for kind, name in zip(["class"] * (len(names) - 1) + ["def"], names):
            assert re.search(rf"^\s*{kind} {name}\b", source, re.M), node
