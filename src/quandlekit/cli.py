"""Command line front end.

Subcommands:

* make       build a quandle (or generator pair) from a short spec
* check      validate a quandle file: axioms and faithfulness
* inn        inner group of a quandle file, with dihedral recognition
* homs       enumerate quandle homomorphisms between two quandle files
* star-homs  enumerate backwards-partial morphisms between two pair files
* verify     machine-check the category equivalences on a corpus

Exit codes: 0 success, 1 a requested check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .grpgen import (
    StarMorphism,
    enumerate_star_morphisms,
    extend_hom,
    genpair_from_text,
    genpair_to_text,
    make_genpair,
)
from .homs import MODE_WORDS, enumerate_homs, homs_to_dict
from .perm import (
    DEFAULT_CAP,
    CapExceeded,
    PermGroup,
    all_transpositions,
    dihedral_reflections,
    find_dihedral_presentation,
    group_from_lines,
    perm_order,
    symmetric_group,
)
from .quandle import (
    Quandle,
    alexander_quandle,
    check_axioms,
    conjugation_quandle,
    dihedral,
    inn,
    is_faithful,
    quandle_from_text,
    quandle_to_text,
    trivial_quandle,
)
from .functors import verify_equivalence


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_quandle(path: str) -> Quandle:
    q = quandle_from_text(Path(path).read_text())
    bad = check_axioms(q)
    if bad:
        raise ValueError("%s: %d axiom violations, e.g. %s at %s" % (path, len(bad), bad[0][0], bad[0][1]))
    return q


def _parse_factors(text: str) -> list[int]:
    parts = text.lower().split("x")
    factors = []
    for part in parts:
        if not part.startswith("z") or not part[1:].isdigit():
            raise ValueError("factors look like z5 or z3xz3, got %r" % text)
        factors.append(int(part[1:]))
    return factors


def _parse_matrix(text: str, rank: int) -> list[list[int]]:
    """Either 'x<k>' (multiply every coordinate by k) or ';'-separated rows."""
    if re.fullmatch(r"x-?\d+", text.lower()):
        k = int(text[1:])
        return [[k if i == j else 0 for j in range(rank)] for i in range(rank)]
    rows = [[int(tok) for tok in row.split(",")] for row in text.split(";")]
    if len(rows) != rank or any(len(row) != rank for row in rows):
        raise ValueError("matrix must be %dx%d" % (rank, rank))
    return rows


def _family_group(words: list[str]) -> PermGroup:
    if not words:
        raise ValueError("missing group family, e.g. 'symmetric 3'")
    return group_from_lines([" ".join(words)])


def _resolve_omega(family: list[str], group: PermGroup, keyword: str) -> list:
    if keyword == "all":
        return group.sorted_elements()
    if keyword == "nonid":
        return [p for p in group.sorted_elements() if p != group.identity]
    if keyword == "reflections":
        if family[0] != "dihedral":
            raise ValueError("'reflections' needs a dihedral group")
        return dihedral_reflections(int(family[1]))
    if keyword == "transpositions":
        if family[0] != "symmetric":
            raise ValueError("'transpositions' needs a symmetric group")
        return all_transpositions(int(family[1]))
    raise ValueError("omega keyword must be all, nonid, reflections or transpositions")


def _quandle_summary(q: Quandle) -> list[str]:
    bad = check_axioms(q)
    lines = ["points: %d" % q.n]
    if bad:
        lines.append("axiom violations: %d" % len(bad))
        lines.extend("  %s at %s" % (name, where) for name, where in bad)
    else:
        lines.append("axioms: ok")
        lines.append("faithful: %s" % ("yes" if is_faithful(q) else "no"))
    return lines


def cmd_make(args: argparse.Namespace) -> int:
    spec = args.spec
    kind = spec[0]
    made = None
    if kind == "trivial" and len(spec) == 2:
        made = trivial_quandle(int(spec[1]))
    elif kind == "dihedral" and len(spec) == 2:
        made = dihedral(int(spec[1]))
    elif kind == "alexander" and len(spec) == 3:
        factors = _parse_factors(spec[1])
        made = alexander_quandle(factors, _parse_matrix(spec[2], len(factors)))
    elif kind in ("conj", "genpair") and len(spec) >= 3:
        family = spec[1:-1]
        group = _family_group(family)
        omega = _resolve_omega(family, group, spec[-1])
        if kind == "conj":
            made = conjugation_quandle(group, omega)
        else:
            pair = make_genpair(group, omega)
            text = genpair_to_text(pair)
            summary = [
                "group order: %d" % len(pair.group),
                "omega size: %d" % len(pair.omega),
                "conj-stable: %s" % ("yes" if pair.conj_stable else "no"),
                "faithful: %s" % ("yes" if pair.faithful else "no"),
            ]
    elif kind == "file" and len(spec) == 2:
        made = _load_quandle(spec[1])
    else:
        raise ValueError(
            "spec must be one of: trivial N | dihedral N | alexander FACTORS PHI"
            " | conj FAMILY N OMEGA | genpair FAMILY N OMEGA | file PATH"
        )
    if made is not None:
        text = quandle_to_text(made)
        summary = _quandle_summary(made)
    _emit(text, args.out)
    # keep the table stream clean: the summary goes to stderr when the
    # table itself goes to stdout
    print("\n".join(summary), file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    q = quandle_from_text(Path(args.path).read_text())
    bad = check_axioms(q)
    lines = _quandle_summary(q)
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if bad else 0


def cmd_inn(args: argparse.Namespace) -> int:
    q = _load_quandle(args.path)
    pair = inn(q, cap=args.cap)
    lines = [
        "inner group order: %d" % len(pair.group),
        "distinct symmetries: %d" % len(pair.omega),
    ]
    found = find_dihedral_presentation(pair.group)
    if found is not None:
        lines.append("dihedral-recognized: yes, n=%d" % perm_order(found[0]))
    else:
        lines.append("dihedral-recognized: no")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        Path(args.out).write_text(genpair_to_text(pair))
    return 0


def cmd_homs(args: argparse.Namespace) -> int:
    mode = MODE_WORDS[args.mode]
    q1 = _load_quandle(args.source)
    q2 = _load_quandle(args.target)
    homs = enumerate_homs(q1, q2, mode)
    if args.json:
        payload = {"schema": 1}
        payload.update(homs_to_dict(q1, q2, mode, homs))
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["count: %d" % len(homs)]
        lines.extend(" ".join(str(v) for v in f.mapping) for f in homs)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _star_to_dict(m: StarMorphism) -> dict:
    tpos, spos = m.target.group.element_index, m.source.group.element_index
    pi = extend_hom(m.proj.items(), m.target.degree, m.source.degree)
    return {
        "subgroup": sorted(tpos(h) for h in m.domain_group.elements),
        "gamma": sorted(tpos(g) for g in m.domain_omega),
        "pi": sorted([tpos(h), spos(v)] for h, v in pi.items()),
        "pi_injective": m.proj_is_injective(),
    }


def cmd_star_homs(args: argparse.Namespace) -> int:
    src = genpair_from_text(Path(args.source).read_text(), cap=args.cap)
    tgt = genpair_from_text(Path(args.target).read_text(), cap=args.cap)
    morphisms = enumerate_star_morphisms(src, tgt)
    if args.json:
        payload = {
            "schema": 1,
            "source_order": len(src.group),
            "target_order": len(tgt.group),
            "count": len(morphisms),
            "morphisms": [_star_to_dict(m) for m in morphisms],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["count: %d" % len(morphisms)]
        lines.extend(
            "H order %d, gamma size %d, pi injective: %s"
            % (len(m.domain_group), len(m.domain_omega), "yes" if m.proj_is_injective() else "no")
            for m in morphisms
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _corpus_member(token: str) -> Quandle:
    t = token.strip()
    m = re.fullmatch(r"r(\d+)", t)
    if m:
        return dihedral(int(m.group(1)))
    m = re.fullmatch(r"(dihedral|trivial):(\d+)", t)
    if m:
        return (dihedral if m.group(1) == "dihedral" else trivial_quandle)(int(m.group(2)))
    if t.startswith(("dihedral:", "trivial:")):
        raise ValueError("corpus token %r must look like dihedral:N or trivial:N" % t)
    if t.startswith("alex:"):
        parts = t.split(":")
        if len(parts) != 3:
            raise ValueError(
                "corpus token %r must look like alex:FACTORS:PHI, e.g. alex:z5:x2" % t
            )
        _, fac, phi = parts
        factors = _parse_factors(fac)
        return alexander_quandle(factors, _parse_matrix(phi, len(factors)))
    m = re.fullmatch(r"conj:s(\d+)", t)
    if m:
        g = symmetric_group(int(m.group(1)))
        return conjugation_quandle(g, g.sorted_elements())
    return _load_quandle(t)


def load_corpus(corpus: str, mode: str) -> tuple[list[str], list[Quandle], list[str]]:
    """The member names, quandles and canonical modes of a verify run.

    corpus is the comma list of members (see the verify --corpus help) and
    mode a MODE_WORDS key; "all" expands to both flavors.  An empty corpus
    raises ValueError.
    """
    tokens = [t.strip() for t in corpus.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty corpus")
    modes = ["surjective", "injective"] if mode == "all" else [MODE_WORDS[mode]]
    return tokens, [_corpus_member(t) for t in tokens], modes


def cmd_verify(args: argparse.Namespace) -> int:
    tokens, corpus, modes = load_corpus(args.corpus, args.mode)
    reports = [
        verify_equivalence(corpus, mode, names=tokens, cap=args.cap) for mode in modes
    ]
    failures = sum(len(r.failures) for r in reports)
    if args.json:
        payload = {"schema": 1, "reports": [r.to_dict() for r in reports]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [r.summary() for r in reports]
        lines.append("all checks passed" if failures == 0 else "%d failing checks" % failures)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandlekit",
        description="finite quandles, their inner groups, and exhaustive hom sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", help="build a quandle or generator pair from a spec")
    p.add_argument("spec", nargs="+", help="trivial N | dihedral N | alexander FACTORS PHI | conj FAMILY N OMEGA | genpair FAMILY N OMEGA | file PATH")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("check", help="validate a quandle file")
    p.add_argument("path")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("inn", help="inner group of a quandle file")
    p.add_argument("path")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="group closure size cap")
    p.add_argument("--out", help="also write the pair (group plus symmetries) to a file")
    p.set_defaults(func=cmd_inn)

    p = sub.add_parser("homs", help="enumerate quandle homomorphisms between two files")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--mode", choices=sorted(MODE_WORDS), default="all")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("star-homs", help="enumerate backwards-partial morphisms between two pair files")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="group closure size cap")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_star_homs)

    p = sub.add_parser("verify", help="machine-check the equivalences on a corpus")
    p.add_argument(
        "--corpus",
        default="r3,r5,r7,r9,conj:s3",
        help="comma list: rN | dihedral:N | trivial:N | alex:FACTORS:PHI | conj:sN | path",
    )
    p.add_argument("--mode", choices=sorted(MODE_WORDS), default="all")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="group closure size cap")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CapExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
