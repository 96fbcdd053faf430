"""Schema of the persisted benchmark trajectory.

Every ``BENCH_<pr>.json`` at the repo root (written by
``scripts/record_bench.sh``) is one full ``python -m bench.run`` and must
stay comparable with the next one: same workloads and end-to-end metrics
as ``BENCHMARK.json``, a machine fingerprint to compare like with like,
and a commit without ``-dirty`` (the script refuses uncommitted changes
to tracked files).
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
ENTRIES = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_is_not_empty():
    assert ENTRIES


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.name)
def test_entry_matches_benchmark_json(path):
    entry = json.loads(path.read_text())
    assert path.name == f"BENCH_{entry['pr']}.json"
    assert isinstance(entry["commit"], str) and entry["commit"]
    if entry["pr"] >= 26:  # BENCH_16 and BENCH_23 predate the clean-tree rule
        assert not entry["commit"].endswith("-dirty")
    assert entry["sets"]
    workloads = {w["name"] for w in DECLARED["workloads"]}
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    for one in entry["sets"]:
        assert set(one) == workloads
        for record in one.values():
            assert set(record["end_to_end"]) == end_to_end
            assert record["fingerprint"]["visible_cores"] >= 1
