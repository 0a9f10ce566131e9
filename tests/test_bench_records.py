"""Every committed benchmark record reports a correct run with no failed op."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_run_is_correct_and_refuses_nothing(path):
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert runs
    for run in runs:
        result = run["result"]
        assert result["correct"] is True, run
        assert result["failed"] == 0, run
        assert result["attempted"] > 0, run
