"""Quick self-test of the benchmark harness, on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of a quandlekit checkout.  It checks, in about fifteen
seconds:

* BENCHMARK.json against its format rules (names, units, bounds);
* that the input files written at seed 0 equal the package's own writers'
  output, so seed 0 reproduces the ROADMAP inputs;
* the golden path: `verify` on r3,r5 in both flavors, `homs R3->R9` (18
  maps), `star-homs inn(R3)->inn(R9)` (18) and `inn r9` (order 18) pass
  their judges, traced and untraced, and a wrong expected answer is reported
  as a mismatch;
* that the traced queries call every function the tracer wraps, so a layer
  that is renamed or stops going through its module cannot read as 0;
* the output schema of run.py, traced and untraced, and that it exits
  non-zero without a result where there is no ``src/quandlekit``.

Exits 1 and names each failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import COUNTED, SPANNED, Tracer  # noqa: E402
from worker import OUT_DIR, run_queries  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def check_spec() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    expect(all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names), "metric and workload names are valid and unique")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    expect(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics), "units and directions are valid")
    expect(all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"]), "end-to-end bounds are within (0, 0.25]")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    expect(
        len(setup) == 1
        and setup[0]["unit"] == "s"
        and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"]),
        "setup_s is an end-to-end metric in seconds with the largest bound",
    )
    expect(names[:3] == list(workloads.WORKLOADS), "BENCHMARK.json lists the workloads workloads.py builds")
    expect(1 <= SPEC["run_seconds"] <= 60 and 2 <= len(SPEC["workloads"]) <= 8, "run length and workload count are in range")


def check_inputs() -> None:
    from quandlekit import conjugation_quandle, dihedral, genpair_to_text, inn, quandle_to_text, symmetric_group

    ok = all(
        workloads.quandle_text(workloads.dihedral_table(n)) == quandle_to_text(dihedral(n))
        for n in (workloads.M, workloads.N)
    )
    for k in (4, 5):
        group = symmetric_group(k)
        ok &= workloads.quandle_text(*workloads.conjugation_table(k)) == quandle_to_text(
            conjugation_quandle(group, group.sorted_elements())
        )
    for n in (workloads.STAR_M, workloads.N):
        ok &= workloads.inn_pair_text(workloads.dihedral_table(n)) == genpair_to_text(inn(dihedral(n)))
    expect(ok, "seed-0 input files equal the package's own writers' output")


def tiny_queries(workdir: Path, wrong: bool = False) -> list[workloads.Query]:
    """verify on r3,r5 both ways, homs R3->R9 inj, star-homs inn(R3)->inn(R9)
    and inn r9.

    Each verify call makes 34 checks and finds 6 + 20 maps per side
    (Aut(R3) = S3, and the 5 * phi(5) maps R5 -> R5).  With wrong=True the
    expected hom count is off by one.
    """
    r3, r9 = workloads.dihedral_table(3), workloads.dihedral_table(9)
    files = {}
    for name, text in [
        ("r3.q", workloads.quandle_text(r3)),
        ("r9.q", workloads.quandle_text(r9)),
        ("inn-r3.pair", workloads.inn_pair_text(r3)),
        ("inn-r9.pair", workloads.inn_pair_text(r9)),
    ]:
        files[name] = str(workdir / name)
        (workdir / name).write_text(text)
    count = workloads.injective_dihedral_homs(3, 9) + wrong
    corpus = ["r3", "r5"]
    return [
        workloads.Query("verify_inj", workloads.verify_argv("inj", corpus), workloads.verify_judge(corpus, 34, 52, None, 0)),
        workloads.Query("verify_surj", workloads.verify_argv("surj", corpus), workloads.verify_judge(corpus, 34, 52, None, 0)),
        workloads.Query(
            "homs",
            ["homs", files["r3.q"], files["r9.q"], "--mode", "inj", "--json"],
            workloads.count_judge(count, None, 0, lambda maps: workloads.hom_problems(maps, r3, r9, injective=True)),
        ),
        workloads.Query("star_homs", ["star-homs", files["inn-r3.pair"], files["inn-r9.pair"], "--json"], workloads.count_judge(count, None, 0)),
        workloads.Query("inn", ["inn", files["r9.q"]], workloads.inn_judge(18, 9)),
    ]


def check_golden_path() -> None:
    from quandlekit import cli

    with tempfile.TemporaryDirectory(dir=ROOT / OUT_DIR) as tmp:
        workdir = Path(tmp)
        plain = run_queries(cli, tiny_queries(workdir), None)
        expect(not plain["problems"] and plain["failed"] == 0, "tiny queries pass their judges: %s" % plain["problems"])
        expect(plain["attempted"] == 5 + 2 * 34 and plain["morphisms"] == 2 * 52 + 2 * 18, "attempted and morphism counts add up")
        expect(plain["slowdown"] > 0, "the host-speed sampler timed at least one slice during the calls")
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_queries(cli, tiny_queries(workdir), tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics(traced["output_bytes"])
        expect(not traced["problems"], "tiny queries pass their judges when traced")
        wanted = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
        wanted -= {n for n in wanted if n.startswith("q.")}
        expect(wanted <= set(layers), "the tracer yields every per-layer metric: missing %s" % sorted(wanted - set(layers)))
        wrapped = ["%s.%s" % (short, f) for table in (SPANNED, COUNTED) for short, fs in table.items() for f in fs]
        unseen = [name for name in wrapped if not layers[name + ".calls"]]
        expect(
            layers["cli.main.calls"] == 5 and layers["homs.enumerate_homs.results"] > 0 and not unseen,
            "spans and counters see calls made inside the package: no calls to %s" % unseen,
        )
        main = cli.main
        SPANNED["functors"].append("no_such_function")
        try:
            Tracer().install()
            raised = False
        except LookupError:
            raised = True
        finally:
            SPANNED["functors"].pop()
        expect(raised and cli.main is main, "a wrapped function missing from its module stops the tracer and undoes its patches")
        wrong = run_queries(cli, tiny_queries(workdir, wrong=True), None)
        expect(len(wrong["problems"]) == 2 and wrong["failed"] == 2, "a wrong expected count is reported as a mismatch")
        sha = workloads.verify_judge(["r3", "r5"], 34, 52, "verify-inj", 0)
        bad = sha(0, json.dumps({"reports": [{"corpus": ["r3", "r5"], "checks": 34, "failures": 0, "records": []}]}))
        expect(any("sha256" in p for p in bad.problems), "a payload that differs from the golden sha256 is a mismatch")


def run_py(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "verify-surj", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run_py() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_py(ROOT, trace)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {}
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        ok = (
            proc.returncode == 0
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and result["correct"] is True
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and result["failed"] == 0
            and {n: m["unit"] for n, m in result["metrics"].items()} == units
            and all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        )
        expect(ok, "run.py --trace %d prints the %s metrics in the result schema" % (trace, section))
    with tempfile.TemporaryDirectory(dir=ROOT / OUT_DIR) as tmp:
        proc = run_py(Path(tmp), 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "run.py exits non-zero without a result where there is no src/quandlekit")


def main() -> int:
    if not (ROOT / "src" / "quandlekit").is_dir():
        print("error: run from the root of a quandlekit checkout", file=sys.stderr)
        return 2
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    check_spec()
    check_inputs()
    check_golden_path()
    check_run_py()
    print("%d failed" % len(failures) if failures else "all harness checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
