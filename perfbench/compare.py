"""Compare two quandlekit checkouts on the benchmark, in alternating pairs.

    python3 perfbench/compare.py --parent ../parent --change .

Both sides run this checkout's run.py, so the benchmark code and settings
are identical; only the ``src/`` under test differs.  Every workload in
BENCHMARK.json runs in 10 pairs for its ``run_seconds``; pair k uses seed
100 + k on both sides and alternates which side runs first.

For each workload and end-to-end metric it prints one row: each side's
median and quartiles, the pairs the change won (ties count for neither) and
a verdict:

* ``better``: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: either side's interquartile range, as a share of its
  median, exceeds the bound, unless every change run beats every parent run;
* ``same``: none of these.

A side with a failed or mismatched run is reported as ``incorrect``: a gain
does not count when more operations fail.  The rows and the environment
(Python version, nproc, CPU model, load average at start, git SHA of each
side, seeds) are written to .perfbench-out/compare-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10
SEED_BASE = 100
WIN_SHARE = 0.9


def run_side(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit("run.py could not run in %s (exit %d)" % (root, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, int]:
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if wins >= WIN_SHARE * len(parent) and sign * (cm - pm) > p3 - p1:
        return "better", wins
    if sign * (pm - cm) > metric["bound"] * abs(pm):
        return "worse", wins
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > metric["bound"] and not all_better:
        return "unresolved", wins
    return "same", wins


def git_sha(root: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "git_sha": {side: git_sha(root) for side, root in sides.items()},
        "seeds": [SEED_BASE + k for k in range(PAIRS)],
        "seconds": SPEC["run_seconds"],
    }
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(sides[side], workload, SEED_BASE + k))
                print("%s pair %d %s done" % (workload, k, side), file=sys.stderr)
        incorrect = [side for side, rs in runs.items() if not all(r["correct"] for r in rs)]
        for metric in SPEC["end_to_end"]:
            values = {side: [r["metrics"][metric["name"]]["value"] for r in rs] for side, rs in runs.items()}
            result, wins = verdict(metric, values["parent"], values["change"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "parent_quartiles": quartiles(values["parent"]),
                    "change_quartiles": quartiles(values["change"]),
                    "wins": wins,
                    "pairs": PAIRS,
                    "verdict": "incorrect (%s)" % ",".join(incorrect) if incorrect else result,
                    "parent": values["parent"],
                    "change": values["change"],
                }
            )
    print("%-12s %-16s %32s %32s %7s  %s" % ("workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict"))
    for r in rows:
        print(
            "%-12s %-16s %32s %32s %3d/%-3d  %s"
            % (
                r["workload"],
                r["metric"],
                "/".join("%.4g" % v for v in r["parent_quartiles"]),
                "/".join("%.4g" % v for v in r["change_quartiles"]),
                r["wins"],
                r["pairs"],
                r["verdict"],
            )
        )
    out_dir = Path.cwd() / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / ("compare-%d.json" % time.time())
    out.write_text(json.dumps({"environment": env, "rows": rows}, indent=2) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
