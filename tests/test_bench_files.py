"""Each committed BENCH_<n>.json, the output of perfbench/compare.py,
names both checkouts it compared by git SHA, and its rows name only the
workloads and end-to-end metrics that BENCHMARK.json declares."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_files_name_both_commits_and_only_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        assert re.fullmatch(r"BENCH_\d+\.json", path.name), path.name
        data = json.loads(path.read_text())
        shas = data["environment"]["git_sha"]
        for side in ("parent", "change"):
            assert re.fullmatch("[0-9a-f]{40}", shas.get(side) or ""), (path.name, side)
        assert data["rows"], path.name
        for row in data["rows"]:
            assert row["workload"] in workloads, (path.name, row["workload"])
            assert row["metric"] in metrics, (path.name, row["metric"])
