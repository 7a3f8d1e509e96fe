"""The benchmark's workloads: inputs made from a seed, the CLI calls that
consume them, and the answers each call must give.

Inputs and expected answers are built here without importing quandlekit, so
neither set-up nor the golden checks depend on the code under test.  Seed 0
reproduces the inputs named in the ROADMAP exactly.  Other seeds keep every
input's size and change only labels:

* ``verify-*``: the corpus order is shuffled, which changes enumeration order
  but not the work;
* ``enum``: the target of each ``homs`` query and the quandles given to
  ``inn`` are relabelled by a seeded permutation of their points, an
  isomorphic copy.  Hom counts, group orders and the dihedral verdict are
  invariant, and the backtracker explores a tree of the same size.  The
  ``star-homs`` pairs keep their labels: the subset search visits subsets in
  the target's element order, so relabelling would change its work.

Sizes do not vary with the seed, because the spread of a metric across seeds
must stay inside its regression bound.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify-inj", "verify-surj", "enum")

VERIFY_CORPUS = {
    "verify-inj": ("inj", ["r3", "r5", "r7", "r9", "conj:s3"]),
    "verify-surj": ("surj", ["r3", "r9", "r15"]),
}

# Dihedral orders in the enum workload: homs R_M -> R_N, star-homs
# inn(R_STAR_M) -> inn(R_N), inn(R_N).  Both sources are odd divisors of N.
M, STAR_M, N = 9, 3, 81

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

Table = list[list[int]]
Perm = tuple[int, ...]


# ---------------------------------------------------------------- inputs


def dihedral_table(n: int) -> Table:
    """R_n: x |> y = 2x - y mod n."""
    return [[(2 * x - y) % n for y in range(n)] for x in range(n)]


def compose(p: Perm, q: Perm) -> Perm:
    """p after q."""
    return tuple(p[j] for j in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_text(p: Perm) -> str:
    return "[" + " ".join(map(str, p)) + "]"


def conjugation_table(k: int) -> tuple[Table, list[str]]:
    """conj:S_k: points are the elements of S_k in lexicographic order, and
    the symmetry at x sends y to x y x^-1."""
    elems = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(elems)}
    table = []
    for x in elems:
        xinv = inverse(x)
        table.append([index[compose(compose(x, y), xinv)] for y in elems])
    return table, [perm_text(p) for p in elems]


def relabel(table: Table, labels: list[str] | None, sigma: list[int]):
    """The isomorphic copy in which point x is called sigma[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[table[x][y]]
    if labels is None:
        return out, None
    new_labels = [""] * n
    for x in range(n):
        new_labels[sigma[x]] = labels[x]
    return out, new_labels


def quandle_text(table: Table, labels: list[str] | None = None) -> str:
    """The quandle file format: header, then one row per point."""
    lines = ["quandle %d" % len(table)]
    for x, row in enumerate(table):
        line = " ".join(map(str, row))
        if labels is not None:
            line += "  # " + labels[x]
        lines.append(line)
    return "\n".join(lines) + "\n"


def inner_group_elements(table: Table) -> list[Perm]:
    """Closure of the rows of a quandle table under composition."""
    gens = [tuple(row) for row in table]
    seen = {tuple(range(len(table)))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def inn_pair_text(table: Table) -> str:
    """The pair file of inn(Q) as `quandlekit inn --out` writes it: the
    symmetries as generators, then omega as indices into the sorted group."""
    elems = inner_group_elements(table)
    pos = {p: i for i, p in enumerate(elems)}
    gens = []
    for row in table:
        if tuple(row) not in gens:
            gens.append(tuple(row))
    lines = ["perms %d" % len(table)] + [perm_text(g) for g in gens]
    lines.append("omega " + " ".join(str(pos[g]) for g in sorted(gens)))
    return "\n".join(lines) + "\n"


def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def injective_dihedral_homs(m: int, n: int) -> int:
    """#Hom_inj(R_m, R_n) for odd m dividing n: x -> c + u(n/m)x, u a unit mod m."""
    return n * euler_phi(m)


# ---------------------------------------------------------------- queries


@dataclass
class Outcome:
    """What one CLI call produced, judged against its expected answer."""

    checks: int = 0
    failed_checks: int = 0
    morphisms: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Query:
    name: str
    argv: list[str]
    judge: Callable[[int, str], Outcome]


def _sha_problem(key: str | None, seed: int, text: str) -> list[str]:
    if key is None or seed != 0:
        return []
    digest = hashlib.sha256(text.encode()).hexdigest()
    want = GOLDEN["sha256"].get(key)
    return [] if digest == want else ["sha256 %s, golden %s" % (digest, want)]


def hom_problems(maps, src: Table, tgt: Table, injective: bool, stride: int = 1) -> list[str]:
    """Every stride-th map must be a homomorphism src -> tgt."""
    n = len(src)
    for f in maps[::stride]:
        if len(f) != n or not all(0 <= v < len(tgt) for v in f):
            return ["map %s has the wrong shape" % (f,)]
        if injective and len(set(f)) != n:
            return ["map %s is not injective" % (f,)]
        for x in range(n):
            for y in range(n):
                if f[src[x][y]] != tgt[f[x]][f[y]]:
                    return ["map %s breaks equivariance at (%d, %d)" % (f, x, y)]
    return []


def verify_judge(corpus: list[str], checks: int, morphisms: int, sha_key: str | None, seed: int):
    """A verify payload must list the corpus asked for, pass all `checks`
    checks and count `morphisms` hom-set elements over both sides."""

    def judge(code: int, text: str) -> Outcome:
        report = json.loads(text)["reports"][0]
        out = Outcome(checks=report["checks"], failed_checks=report["failures"])
        for r in report["records"]:
            if r["check"] == "hom_count":
                sides = re.fullmatch(r"quandle side (\d+), group side (\d+)", r["detail"])
                out.morphisms += int(sides[1]) + int(sides[2])
        if code != 0:
            out.problems.append("exit code %d" % code)
        if report["corpus"] != corpus:
            out.problems.append("corpus %s, asked for %s" % (report["corpus"], corpus))
        if (report["checks"], report["failures"]) != (checks, 0):
            out.problems.append(
                "%d checks with %d failures, golden %d with 0" % (report["checks"], report["failures"], checks)
            )
        if out.morphisms != morphisms:
            out.problems.append("%d morphisms, golden %d" % (out.morphisms, morphisms))
        out.problems += _sha_problem(sha_key, seed, text)
        return out

    return judge


def verify_argv(mode: str, corpus: list[str]) -> list[str]:
    return ["verify", "--mode", mode, "--corpus", ",".join(corpus), "--json"]


def _verify_query(workload: str, seed: int) -> Query:
    mode, corpus = VERIFY_CORPUS[workload]
    corpus = list(corpus)
    if seed != 0:
        random.Random(seed).shuffle(corpus)
    gold = GOLDEN["verify"][workload]
    judge = verify_judge(corpus, gold["checks"], gold["morphisms"], workload, seed)
    return Query("verify", verify_argv(mode, corpus), judge)


def count_judge(expected: int, sha_key: str | None, seed: int, check_maps=None) -> Callable[[int, str], Outcome]:
    """A homs or star-homs payload must list `expected` distinct morphisms."""

    def judge(code: int, text: str) -> Outcome:
        payload = json.loads(text)
        items = payload["homs"] if "homs" in payload else payload["morphisms"]
        out = Outcome(morphisms=len(items))
        if code != 0:
            out.problems.append("exit code %d" % code)
        if payload["count"] != expected or len(items) != expected:
            out.problems.append("count %d (%d listed), expected %d" % (payload["count"], len(items), expected))
        if len({json.dumps(m, sort_keys=True) for m in items}) != len(items):
            out.problems.append("duplicate morphisms listed")
        if check_maps is not None:
            out.problems += check_maps(items)
        out.problems += _sha_problem(sha_key, seed, text)
        return out

    return judge


def inn_judge(order: int, dihedral_n: int | None) -> Callable[[int, str], Outcome]:
    want = [
        "inner group order: %d" % order,
        "dihedral-recognized: " + ("yes, n=%d" % dihedral_n if dihedral_n else "no"),
    ]

    def judge(code: int, text: str) -> Outcome:
        out = Outcome()
        if code != 0:
            out.problems.append("exit code %d" % code)
        lines = text.splitlines()
        out.problems += ["missing line %r" % w for w in want if w not in lines]
        return out

    return judge


def _enum_queries(seed: int, workdir: Path, inputs: dict[Path, str]) -> list[Query]:
    rng = random.Random(seed)

    def shuffled(n: int) -> list[int]:
        sigma = list(range(n))
        if seed != 0:
            rng.shuffle(sigma)
        return sigma

    def write(name: str, text: str) -> str:
        inputs[workdir / name] = text
        return str(workdir / name)

    rm, rn = dihedral_table(M), dihedral_table(N)
    rn_homs, _ = relabel(rn, None, shuffled(N))
    rn_inn, _ = relabel(rn, None, shuffled(N))
    s4, s4_labels = conjugation_table(4)
    s4_target, s4_target_labels = relabel(s4, s4_labels, shuffled(len(s4)))
    s5, s5_labels = relabel(*conjugation_table(5), shuffled(120))

    f_rm = write("r%d.q" % M, quandle_text(rm))
    f_rn_homs = write("r%d-homs.q" % N, quandle_text(rn_homs))
    f_star_src = write("inn-r%d.pair" % STAR_M, inn_pair_text(dihedral_table(STAR_M)))
    f_star_tgt = write("inn-r%d.pair" % N, inn_pair_text(rn))
    f_s4 = write("conj-s4.q", quandle_text(s4, s4_labels))
    f_s4_target = write("conj-s4-target.q", quandle_text(s4_target, s4_target_labels))
    f_s5 = write("conj-s5.q", quandle_text(s5, s5_labels))
    f_rn_inn = write("r%d-inn.q" % N, quandle_text(rn_inn))

    def dihedral_maps(maps):
        return hom_problems(maps, rm, rn_homs, injective=True)

    def conj_maps(maps):
        return hom_problems(maps, s4, s4_target, injective=False, stride=97)

    return [
        Query(
            "homs_dihedral_inj",
            ["homs", f_rm, f_rn_homs, "--mode", "inj", "--json"],
            count_judge(injective_dihedral_homs(M, N), "homs_dihedral_inj", seed, dihedral_maps),
        ),
        Query(
            "star_homs_dihedral",
            ["star-homs", f_star_src, f_star_tgt, "--json"],
            count_judge(injective_dihedral_homs(STAR_M, N), "star_homs_dihedral", seed),
        ),
        Query(
            "homs_conj_all",
            ["homs", f_s4, f_s4_target, "--mode", "all", "--json"],
            count_judge(GOLDEN["homs_conj_s4_all"], "homs_conj_all", seed, conj_maps),
        ),
        Query("inn_conj", ["inn", f_s5], inn_judge(120, None)),
        Query("inn_dihedral", ["inn", f_rn_inn], inn_judge(2 * N, N)),
    ]


def build(workload: str, seed: int, workdir: Path) -> tuple[dict[Path, str], list[Query]]:
    """The workload's input files under workdir, path to text, and its calls.

    The files are returned, not written, so that the caller can time the
    writes apart from making the inputs."""
    inputs: dict[Path, str] = {}
    if workload in VERIFY_CORPUS:
        return inputs, [_verify_query(workload, seed)]
    if workload == "enum":
        return inputs, _enum_queries(seed, workdir, inputs)
    raise ValueError("unknown workload %r" % workload)
