"""One pass of a workload, in a fresh process: set up, time the CLI calls,
judge their outputs, print one JSON line.

run.py starts this from the root of the checkout under test; the package is
imported from ``src/`` there.  ``--started`` is the CLOCK_MONOTONIC reading
taken just before this process was spawned.  Set-up time is what a CLI user
pays before the first call: interpreter start and imports up to
``quandlekit``, plus writing the input files.  Making the inputs is the
benchmark's own work (on ``enum`` it builds conjugation tables of S4 and S5)
and is left out.

Every pass also reports the host's slowdown (perfbench/hostspeed.py): during
the calls for the calls' times, and right after set-up for set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from spans import Tracer

OUT_DIR = ".perfbench-out"


def run_queries(cli, queries, tracer: Tracer | None) -> dict:
    """Time each CLI call in process; judge the outputs after the clock stops."""
    timed = []
    with hostspeed.Sampler() as sampler:
        for request, q in enumerate(queries):
            if tracer is not None:
                tracer.request = request
            buf = io.StringIO()
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(q.argv)
            except Exception as exc:  # a raising query is a failed query, not a crash
                code, error = None, "%s: %r" % (q.name, exc)
            timed.append((q, time.perf_counter() - t0, code, buf.getvalue(), error))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "queries": {},
        "attempted": 0,
        "failed": 0,
        "morphisms": 0,
        "output_bytes": 0,
        "problems": [],
        "peak_rss_kb": peak_rss_kb,
        "slowdown": sampler.slowdown(),
    }
    for q, seconds, code, text, error in timed:
        out["queries"][q.name] = seconds
        out["output_bytes"] += len(text.encode())
        problems = [error] if error else []
        outcome = workloads.Outcome()
        if error is None:
            try:
                outcome = q.judge(code, text)
            except Exception as exc:  # unparseable output is a wrong answer
                problems.append("%s: output not understood: %r" % (q.name, exc))
            problems += ["%s: %s" % (q.name, p) for p in outcome.problems]
        out["attempted"] += 1 + outcome.checks
        out["failed"] += bool(problems) + outcome.failed_checks
        out["morphisms"] += outcome.morphisms
        out["problems"] += problems
    out["wall_s"] = sum(out["queries"].values())
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the calls and write the spans to this file")
    args = parser.parse_args()

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from quandlekit import cli

    imported = time.monotonic()
    workdir = root / OUT_DIR / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs, queries = workloads.build(args.workload, args.seed, workdir)
        writing = time.monotonic()
        for path, text in inputs.items():
            path.write_text(text)
        result = {"setup_s": imported - args.started + time.monotonic() - writing}
        result["setup_slowdown"] = hostspeed.slowdown_now()
        if not args.setup_only:
            tracer = Tracer() if args.spans else None
            if tracer is not None:
                tracer.install()
            try:
                result.update(run_queries(cli, queries, tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                result["layers"] = tracer.layer_metrics(result["output_bytes"])
                tracer.write_spans(Path(args.spans))
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
