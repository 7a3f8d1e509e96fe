"""Run one benchmark workload against the quandlekit checkout in the current
directory and print its metrics.

    python3 perfbench/run.py --workload verify-inj --seed 0 --seconds 36 --trace 0

Every pass runs in a fresh worker process (perfbench/worker.py), as a CLI
user would: caches that outlive a call are paid for in the pass that fills
them.  Passes repeat until the next one would overrun ``--seconds``, but at
least one runs.  Metric names, units and bounds come from
BENCHMARK.json beside this directory.

Times in the end-to-end metrics are adjusted for the host's speed: each
pass's time is divided by the slowdown measured while it ran
(perfbench/hostspeed.py), and the table also prints the raw wall time.

--trace 0 reports the end-to-end metrics.  It first starts a few set-up-only
workers, so that ``setup_s`` is a median of at least ten set-ups.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: layer counts and self times from the traced passes, per-query times
from the untraced ones, and the tracing overhead between the two.

The last line of standard output is one JSON object.  The exit code is 0
when every output matched its golden answer, 1 on any mismatch, and 2 when
the benchmark cannot run here (no ``src/quandlekit`` in the current
directory, or a worker that crashed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--started", repr(started), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def repeat_until(deadline: float, one_round, at_least: int) -> list:
    """Run one_round at_least times, then again while the slowest round so
    far would still end before the deadline."""
    rounds, slowest = [], 0.0
    while True:
        t0 = time.monotonic()
        rounds.append(one_round())
        slowest = max(slowest, time.monotonic() - t0)
        if len(rounds) >= at_least and time.monotonic() + slowest > deadline:
            return rounds


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def adj_wall(p: dict) -> float:
    return p["wall_s"] / p["slowdown"]


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    probes = [run_worker(args.workload, args.seed, "--setup-only") for _ in range(SETUP_PROBES)]
    passes = repeat_until(deadline, lambda: run_worker(args.workload, args.seed), 1)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] / p["setup_slowdown"] for p in probes + passes),
        "adj_wall_s": median_of(passes, adj_wall),
        "adj_morphisms_per_s": median_of(passes, lambda p: p["morphisms"] / adj_wall(p)),
        "peak_rss_mb": median_of(passes, lambda p: p["peak_rss_kb"] / 1024),
    }
    return metrics, passes


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    # Each traced pass overwrites the file, so the last pass's spans remain.
    spans = Path.cwd() / ".perfbench-out" / ("spans-%s.tsv" % args.workload)

    def one_round() -> tuple[dict, dict]:
        return run_worker(args.workload, args.seed), run_worker(args.workload, args.seed, "--spans", str(spans))

    rounds = repeat_until(deadline, one_round, 1)
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    metrics = {name: median_of(traced, lambda p: p["layers"][name]) for name in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = median_of(traced, adj_wall) / median_of(plain, adj_wall) - 1
    for name in plain[0]["queries"]:
        metrics["q.%s_s" % name] = median_of(plain, lambda p: p["queries"][name])
    return metrics, plain + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "quandlekit" / "__init__.py").is_file():
        print("error: run from the root of a quandlekit checkout (no src/quandlekit here)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    try:
        measured, passes = (per_layer if args.trace else end_to_end)(args, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    # Metrics that do not apply to this workload (q.* outside enum) read 0.
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = sorted({msg for p in passes for msg in p["problems"]})
    plain = [p for p in passes if "layers" not in p]

    print("workload %s, seed %d, %d passes (%d traced)" % (args.workload, args.seed, len(passes), len(passes) - len(plain)))
    for name, m in metrics.items():
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("  %-48s %14.6g s" % ("wall_s (raw)", median_of(plain, lambda p: p["wall_s"])))
        print("  %-48s %14.6g" % ("host slowdown", median_of(plain, lambda p: p["slowdown"])))
        for name in plain[0]["queries"]:
            print("  %-48s %14.6g s" % ("q.%s_s" % name, median_of(plain, lambda p: p["queries"][name])))
    print("  %-48s %14.6g (%d of %d)" % ("fail_frac", failed / attempted, failed, attempted))
    for msg in problems:
        print("  MISMATCH %s" % msg)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
