"""Every committed BENCH_*.json backs the speed claim it makes.

A record holds the medians of alternating parent/change runs of
``benchmark/run.py``; its ``gain_rule`` names the claimed workload and
metric ("claimed on <workload> <metric>: ..."). Each record covers the
whole benchmark of ``BENCHMARK.json``: every workload, and in each every
end-to-end metric with its unit. The check reads the files only; it runs no
benchmark.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
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
    assert workload in WORKLOADS and metric in UNITS, claim.group(0)
    workloads = record["workloads"]
    assert set(WORKLOADS) <= set(workloads), set(WORKLOADS) - set(workloads)
    for name in WORKLOADS:
        units = {m: stats["unit"] for m, stats in workloads[name]["metrics"].items()}
        assert {m: units.get(m) for m in UNITS} == UNITS, name
    for name, result in workloads.items():
        assert result["correct_all_runs"] is True, name
        assert result["failed_ops"] == {"parent": 0, "change": 0}, name
    stats = workloads[workload]["metrics"][metric]
    assert stats["pairs"] >= MIN_PAIRS
    assert stats["parent"]["n"] >= MIN_PAIRS and stats["change"]["n"] >= MIN_PAIRS
    assert stats["change_better_pairs"] >= MIN_BETTER_PAIRS
