"""Every committed BENCH_*.json backs the speed claim it makes.

A record holds the medians of alternating parent/change runs of
``benchmark/run.py``; its ``gain_rule`` names the claimed workload and
metric ("claimed on <workload> <metric>: ..."). The check reads the files
only; it runs no benchmark.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MIN_PAIRS = 10
MIN_BETTER_PAIRS = 9


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_bench_record_backs_its_claim(path):
    record = json.loads(path.read_text())
    claim = re.match(r"claimed on (\w+) (\w+):", record["gain_rule"])
    assert claim, f"gain_rule names no workload and metric: {record['gain_rule']!r}"
    workload, metric = claim.groups()
    workloads = record["workloads"]
    for name, result in workloads.items():
        assert result["correct_all_runs"] is True, name
        assert result["failed_ops"] == {"parent": 0, "change": 0}, name
    stats = workloads[workload]["metrics"][metric]
    assert stats["pairs"] >= MIN_PAIRS
    assert stats["parent"]["n"] >= MIN_PAIRS and stats["change"]["n"] >= MIN_PAIRS
    assert stats["change_better_pairs"] >= MIN_BETTER_PAIRS
