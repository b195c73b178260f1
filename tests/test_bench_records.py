"""Every committed BENCH_*.json backs the speed claim it makes.

A record holds the medians of alternating parent/change runs of
``benchmark/run.py``; its ``gain_rule`` names the claimed workload and
metric ("claimed on <workload> <metric>: ..."). Each record covers the
whole benchmark of ``BENCHMARK.json``: every workload, and in each every
end-to-end metric with its unit. The claim is recounted from the record's raw
``runs``: the pairs and the pairs the change wins, per seed, must match the
stored summary, and the median gap, in the metric's better direction, must
exceed the parent's interquartile range. The check reads the files only; it
runs no benchmark.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}
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
    # the same claim, recounted from the raw runs: one parent and one change run per seed
    sign = 1.0 if LOWER_IS_BETTER[metric] else -1.0
    runs = [run for run in record["runs"] if run["workload"] == workload]
    values = {(run["seed"], run["side"]): run[metric] for run in runs}
    seeds = {seed for seed, _ in values}
    assert len(values) == len(runs) == 2 * len(seeds)
    pairs = [(values[seed, "parent"], values[seed, "change"]) for seed in seeds]
    assert len(pairs) == stats["pairs"]
    better = sum(sign * (parent - change) > 0 for parent, change in pairs)
    assert better == stats["change_better_pairs"]
    parent, change = zip(*pairs)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = sign * (statistics.median(parent) - statistics.median(change))
    assert gap > q3 - q1, f"median gap {gap:.4g} within the parent's IQR {q3 - q1:.4g}"
