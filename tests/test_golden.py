"""Replay the recorded CLI outputs: every fixture render stays byte-identical.

The cases and their recorded outputs come from `tests/golden/record.py`;
re-record them there only when an output is meant to change.
"""

import json

import pytest

from golden.record import OUTPUTS, ROOT, cases, run_case

with open(OUTPUTS, encoding="utf-8") as _handle:
    RECORDED = json.load(_handle)

CASES = [" ".join(argv) for argv in cases()]


def test_recorded_cases_are_the_current_cases():
    assert sorted(RECORDED) == sorted(CASES)
    assert len(CASES) == 632


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(case.split(" ")) == RECORDED[case]
