"""Tests of the benchmark harness itself (collected by tier-1, seconds-long)."""

import json
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from bench import checks, metrics, stats
from bench.run import OUT, ROOT, disagreements, print_list
from bench.trace import Recorder, Span, self_times

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_follow_the_contract():
    names = metrics.WORKLOAD_NAMES + list(metrics.UNITS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for unit in metrics.UNITS.values():
        assert UNIT_RE.fullmatch(unit), unit
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert len(metrics.PER_LAYER) <= 128
    for w in metrics.WORKLOADS:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    setup = [m for m in metrics.END_TO_END if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert all(0 < m["bound"] <= 0.25 for m in metrics.END_TO_END)
    assert setup[0]["bound"] == max(m["bound"] for m in metrics.END_TO_END)


def test_list_equals_benchmark_json(capsys):
    with open(ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == metrics.benchmark_json()
    print_list()
    listed = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert listed == metrics.WORKLOAD_NAMES + list(metrics.UNITS)


def test_self_time_is_span_minus_direct_children():
    #  root 0..10  |- a 1..4  |- b 2..3 (child of a)  |- c 5..9 ; other thread: d 0..2
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1, 7),
        Span(2, "a", 1.0, 4.0, 1, 1, 7),
        Span(3, "b", 2.0, 3.0, 2, 1, 7),
        Span(4, "c", 5.0, 9.0, 1, 1, 7),
        Span(5, "d", 0.0, 2.0, None, 5, 8),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 2.0}


def test_recorder_links_parent_and_operation():
    rec = Recorder()
    inner = rec.wrap(lambda: 1, "inner")
    outer = rec.wrap(lambda: inner() + inner(), "outer")
    assert outer() == 2 and outer() == 2
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    first, second = by_name["outer"]
    assert first.parent is None and first.op == first.id != second.op
    assert [s.parent for s in by_name["inner"]] == [first.id, first.id, second.id, second.id]
    assert [s.op for s in by_name["inner"]] == [first.op, first.op, second.op, second.op]
    totals = rec.totals()
    assert totals["inner"]["count"] == 4 and totals["outer"]["count"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.tail_percentile(39) is None
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(600) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    values = list(range(1, 601))
    summary = stats.summarize(values)
    assert summary["n"] == 600 and summary["median"] == 300.5
    assert summary["tail"] == pytest.approx(np.percentile(values, 95.0))
    assert stats.summarize([1.0, 2.0, 4.0])["tail"] is None
    assert stats.quiet_time([4.0, 1.0, 2.0, 3.0, 9.0, 1.5, 2.5]) == 1.5


def test_check_plan_trips_on_duplicate_missing_and_overfull():
    sizes = np.array([3, 3, 2, 2, 1, 1])
    good = [[([0, 2], 6), ([4], 6)], [([1, 3], 6), ([5], 6)]]
    assert checks.check_plan(good, sizes, 6) == (6, 0)
    duplicated = [[([0, 2], 6), ([4, 0], 6)], [([1, 3], 6), ([5], 6)]]
    assert checks.check_plan(duplicated, sizes, 6) == (6, 1)
    missing = [[([0, 2], 6)], [([1, 3], 6), ([5], 6)]]
    assert checks.check_plan(missing, sizes, 6) == (6, 1)
    overfull = [[([0, 1, 2], 6), ([4], 6)], [([3], 6), ([5], 6)]]
    assert checks.check_plan(overfull, sizes, 6) == (6, 3)


def test_check_train_trips_on_nan_and_on_not_learning():
    first = [4.0, 4.2]
    assert checks.check_train(first, [1.0, 0.9, 0.5]) == (3, 0)
    assert checks.check_train(first, [1.0, float("nan"), 0.5]) == (3, 3)
    assert checks.check_train(first, [1.0, float("inf"), 0.5]) == (3, 3)
    assert checks.check_train(first, [5.0, 4.0]) == (2, 2)


def test_check_serve_trips_on_missing_and_perturbed_energy():
    records = [SimpleNamespace(req_id=i, energy=float(i)) for i in range(4)]
    assert checks.check_serve(records, 4, {1: 1.0, 3: 3.0}) == (4, 0)
    assert checks.check_serve(records, 4, {1: 1.0 + 1e-8}) == (4, 1)
    assert checks.check_serve(records[:3], 4, {}) == (4, 1)
    records[2].energy = float("inf")
    assert checks.check_serve(records, 4, {}) == (4, 1)


def test_check_md_trips_on_bad_forces_and_drift():
    forces = np.zeros((3, 3))
    assert checks.check_md(5, forces, -1e-9) == (5, 0)
    assert checks.check_md(5, forces, 2e-6) == (5, 5)
    assert checks.check_md(5, forces, float("nan")) == (5, 5)
    bad = forces.copy()
    bad[0, 0] = np.nan
    assert checks.check_md(5, bad, 0.0) == (5, 5)


def test_disagreements_compares_each_metric_to_its_own_bound():
    def one(atoms, rss, setup):
        return {"w": {"end_to_end": {"atoms_per_s": atoms, "peak_rss_mb": rss, "setup_s": setup}}}

    assert disagreements([one(100.0, 50.0, 2.0), one(110.0, 52.0, 2.4)]) == []
    bad = disagreements([one(100.0, 50.0, 2.0), one(130.0, 50.0, 2.0)])
    assert len(bad) == 1 and "atoms_per_s" in bad[0]


def test_smoke_scale_runs_one_workload_end_to_end():
    cmd = [sys.executable, "-m", "bench.run", "--workload", "train_fixed_plan",
           "--scale", "smoke", "--seconds", "0.5", "--seed", "3", "--trace", "1"]  # fmt: skip
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics.PER_LAYER]
    assert result["metrics"]["runtime.plan_hit_ratio"]["value"] == 1.0
    assert result["metrics"]["runtime.replays"]["value"] > 0
    with open(OUT / "run_train_fixed_plan_trace1.json") as fh:
        record = json.load(fh)
    assert list(record["end_to_end"]) == [m["name"] for m in metrics.END_TO_END]
    assert record["fingerprint"]["seed"] == 3
    with open(OUT / "trace_train_fixed_plan.json") as fh:
        events = json.load(fh)["traceEvents"]
    assert len(events) == record["spans"] > 0
    assert {"name", "ph", "ts", "dur", "tid", "args"} <= set(events[0])
