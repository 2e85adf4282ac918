"""``tools/benchcheck.py``'s verdict on one run's exit status and output."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import benchcheck  # noqa: E402

NAMES = ["items_per_s", "ap"]


def result(**changes):
    res = {"attempted": 3, "correct": True, "failed": 0,
           "metrics": {"items_per_s": {"unit": "items/s", "value": 900.5},
                       "ap": {"unit": "ratio", "value": 1.0}}}
    res.update(changes)
    return '{"environment": {}}\n' + json.dumps(res) + "\n"


def test_clean_run_passes():
    assert benchcheck.run_problems(0, result(), "", NAMES) == []


@pytest.mark.parametrize("returncode,stdout,stderr,problem", [
    (1, result(), "", "exit status 1"),
    (0, result(), "Exception ignored in atexit\n", "standard error"),
    (0, result() + "late output\n", "", "strict JSON"),
    (0, "", "", "strict JSON"),
    (0, result().replace("900.5", "NaN"), "", "strict JSON"),
    (0, result().replace("1.0", "Infinity"), "", "strict JSON"),
    (0, result(correct=False), "", "correct is False"),
    (0, result(metrics={"items_per_s": {"value": 1.0}}), "", "metric ap"),
    (0, result(metrics={"items_per_s": {"value": "fast"},
                        "ap": {"value": 1.0}}), "", "metric items_per_s"),
])
def test_each_broken_rule_fails_the_run(returncode, stdout, stderr, problem):
    problems = benchcheck.run_problems(returncode, stdout, stderr, NAMES)
    assert any(problem in p for p in problems), problems


FAILED = "FAILED verify: exit 1 error: [Errno 28] No space left on device"


@pytest.mark.parametrize("stdout", [
    FAILED + "\n" + result(correct=False, failed=1),
    FAILED + "\n" + result(correct=False, failed=1) + "late output\n"])
def test_a_failed_run_names_the_benchmarks_failed_checks(stdout):
    """Not only ``correct is False``: the benchmark's own account of what
    failed comes with it."""
    problems = benchcheck.run_problems(0, stdout, "", NAMES)
    assert problems[-1] == FAILED, problems
