"""The consistency suite itself: every check passes for every degree."""

from __future__ import annotations

import time

import pytest

import kuwalls.checks as checks_module
from kuwalls.chern import DEGREES
from kuwalls.checks import check_line_pairing_and_differences, run_all_checks, run_checks
from kuwalls.delpezzo import DPContext, enumerate_roots


@pytest.mark.parametrize("d", DEGREES)
def test_all_checks_pass(d):
    results = run_checks(d)
    failing = [result.line for result in results if not result.passed]
    assert failing == []
    assert all(result.degree == d for result in results)


def test_check_lines_are_formatted():
    results = run_checks(2)
    assert all(result.line.endswith(": PASS") for result in results)
    names = [result.name for result in results]
    assert "euler pairing matrix" in names
    assert "unique wall for w at beta=-1/2" in names


def test_full_run_within_budget():
    start = time.perf_counter()
    results = run_all_checks()
    elapsed = time.perf_counter() - start
    assert all(result.passed for result in results)
    assert len(results) == len(run_checks(1)) * len(DEGREES)
    assert elapsed < 10.0


def test_line_pairing_check_counts_the_roots_that_split(monkeypatch):
    passing = check_line_pairing_and_differences(2)
    assert passing.passed and passing.detail == "pairs: 28, decomposed roots: 126"
    real = checks_module.root_as_line_difference
    unsplit = enumerate_roots(DPContext(2))[17]
    monkeypatch.setattr(
        checks_module, "root_as_line_difference", lambda ctx, root: None if root == unsplit else real(ctx, root)
    )
    failing = check_line_pairing_and_differences(2)
    assert not failing.passed
    assert failing.detail == "pairs: 28, decomposed roots: 125"
