"""Command line front end.

Subcommands:

* make       build a quandle (or generator pair) from a short spec
* check      validate a quandle file: axioms and faithfulness
* inn        inner group of a quandle file, with dihedral recognition
* homs       enumerate quandle homomorphisms between two quandle files
* star-homs  enumerate backwards-partial morphisms between two pair files
* verify     machine-check the category equivalences on a corpus

Output goes to stdout, or to the file --out names, as it is made: a
--json payload equals json.dumps(payload, indent=2) plus a newline and is
written one item of its list at a time (one hom, star morphism or report),
and a text listing one line at a time.

Exit codes: 0 success, 1 a requested check failed, 2 bad input, 141
(128 + SIGPIPE) stdout closed by its reader before the output ended, as
`| head` does; that one prints no error line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path

from .grpgen import (
    StarMorphism,
    enumerate_star_morphisms,
    genpair_from_text,
    genpair_to_text,
    make_genpair,
)
from .homs import MODE_WORDS, enumerate_homs
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
    conjugation_quandle,
    dihedral,
    inn,
    is_faithful,
    quandle_from_text,
    quandle_to_text,
    trivial_quandle,
)
from .functors import verify_equivalence


def _render(obj: object, indent: str) -> str:
    """json.dumps(obj, indent=2) at the given indent, byte for byte, for a
    tree of dicts with string keys, lists, tuples and scalars.

    With indent set the stdlib leaves its C encoder for the pure-Python
    one, which writes every int of a large payload as its own chunk; here
    a list of plain ints (bools excluded) is joined in one call, strings
    are quoted by the stdlib's own quoting function, and only the other
    scalars go through json.dumps.
    """
    if isinstance(obj, str):
        return quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([quote(k) + ": " + _render(v, inner) for k, v in obj.items()])
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if all(type(v) is int for v in obj):
            body = (",\n" + inner).join(map(str, obj))
        else:
            body = (",\n" + inner).join([_render(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(obj)


def _json_chunks(obj: object, indent: str = "") -> Iterator[str]:
    """The text of _render(obj, indent) in chunks, one per item.

    A dict is written key by key, and a list, a tuple or an iterator (a
    generator, say) item by item: each item is rendered whole by _render,
    and only once the chunk before it has been taken.  An empty iterator
    is written "[]".  So a payload's long list is never held as text, nor
    as a list when the caller hands a generator.
    """
    if isinstance(obj, dict) and obj:
        inner = indent + "  "
        sep = "{\n"
        for k, v in obj.items():
            yield sep + inner + quote(k) + ": "
            yield from _json_chunks(v, inner)
            sep = ",\n"
        yield "\n" + indent + "}"
    elif isinstance(obj, (list, tuple, Iterator)):
        inner = indent + "  "
        sep = "[\n"
        for v in obj:
            yield sep + inner + _render(v, inner)
            sep = ",\n"
        yield "[]" if sep == "[\n" else "\n" + indent + "]"
    else:
        yield _render(obj, indent)


def _json_text(obj: object) -> str:
    """json.dumps(obj, indent=2), byte for byte: the join of _json_chunks."""
    return "".join(_json_chunks(obj))


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks in order, each as soon as it is made, to the file
    out, or to stdout when out is empty."""
    if out:
        with open(out, "w") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(payload: dict, out: str | None) -> None:
    """The payload as json.dumps(payload, indent=2) plus a newline,
    written by _emit item by item."""
    _emit(chain(_json_chunks(payload), ["\n"]), out)


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """Text-mode output for _emit: each line with its newline."""
    for line in lines:
        yield line + "\n"


def _load_quandle(path: str) -> Quandle:
    q = quandle_from_text(Path(path).read_text())
    bad = q.violations
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


def _integer(text: str) -> int:
    """N as an integer, or ValueError naming the word."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("N must be an integer, got %r" % text) from None


def _parse_matrix(text: str, rank: int) -> list[list[int]]:
    """Either 'x<k>' (multiply every coordinate by k) or ';'-separated rows
    of ','-separated entries; alexander_quandle checks the shape."""
    if re.fullmatch(r"x-?\d+", text.lower()):
        k = int(text[1:])
        return [[k if i == j else 0 for j in range(rank)] for i in range(rank)]
    try:
        return [[int(tok) for tok in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise ValueError("PHI must be x<k> or rows like 0,1;-1,0, got %r" % text) from None


def _resolve_omega(family: list[str], group: PermGroup, keyword: str) -> list:
    if keyword == "all":
        return group.sorted_elements()
    if keyword == "nonid":
        return [p for p in group.sorted_elements() if p != group.identity]
    if keyword == "reflections":
        if family[0] != "dihedral":
            raise ValueError("'reflections' needs a dihedral group")
        return dihedral_reflections(len(group) // 2)
    if keyword == "transpositions":
        if family[0] != "symmetric":
            raise ValueError("'transpositions' needs a symmetric group")
        return all_transpositions(group.degree)
    raise ValueError("omega keyword must be all, nonid, reflections or transpositions")


def _quandle_summary(q: Quandle) -> list[str]:
    bad = q.violations
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
        made = trivial_quandle(_integer(spec[1]))
    elif kind == "dihedral" and len(spec) == 2:
        made = dihedral(_integer(spec[1]))
    elif kind == "alexander" and len(spec) == 3:
        factors = _parse_factors(spec[1])
        made = alexander_quandle(factors, _parse_matrix(spec[2], len(factors)))
    elif kind in ("conj", "genpair") and len(spec) >= 3:
        family = spec[1:-1]
        group = group_from_lines([" ".join(family)])
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
    _emit([text], args.out)
    # keep the table stream clean: the summary goes to stderr when the
    # table itself goes to stdout
    print("\n".join(summary), file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    q = quandle_from_text(Path(args.path).read_text())
    lines = _quandle_summary(q)
    _emit(_lines(lines), args.out)
    return 1 if q.violations else 0


def cmd_inn(args: argparse.Namespace) -> int:
    q = _load_quandle(args.path)
    pair = inn(q, cap=args.cap)
    found = find_dihedral_presentation(pair.group)
    lines = [
        "inner group order: %d" % len(pair.group),
        "distinct symmetries: %d" % len(pair.omega),
        "dihedral-recognized: " + ("no" if found is None else "yes, n=%d" % perm_order(found[0])),
    ]
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
        # homs_to_dict's payload, with each mapping tuple in place of its list copy
        payload = {
            "schema": 1,
            "source_n": q1.n,
            "target_n": q2.n,
            "mode": mode,
            "homs": (f.mapping for f in homs),
            "count": len(homs),
        }
        _emit_json(payload, args.out)
    else:
        rows = (" ".join(map(str, f.mapping)) for f in homs)
        _emit(_lines(chain(["count: %d" % len(homs)], rows)), args.out)
    return 0


def _star_to_dict(m: StarMorphism) -> dict:
    """m's --json entry, built when the writer reaches it; m passed
    check_star_morphism, which built pi on the elements of m's domain
    trace."""
    tpos, pi = m.target.group.element_index, m.pi_indices
    subgroup = [tpos(h) for h in m.domain_trace.elements]
    return {
        "subgroup": sorted(subgroup),
        "gamma": sorted(tpos(g) for g in m.domain_omega),
        "pi": sorted(zip(subgroup, pi)),
        "pi_injective": len(set(pi)) == len(pi),
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
            "morphisms": (_star_to_dict(m) for m in morphisms),
        }
        _emit_json(payload, args.out)
    else:
        rows = (
            "H order %d, gamma size %d, pi injective: %s"
            % (len(m.domain_trace.elements), len(m.domain_omega), "yes" if m.proj_is_injective() else "no")
            for m in morphisms
        )
        _emit(_lines(chain(["count: %d" % len(morphisms)], rows)), args.out)
    return 0


# A rank-1 PHI is one entry, and a larger matrix needs commas, which split
# verify's corpus into tokens.
_CORPUS_PHI_RULE = (
    "commas separate corpus tokens, so a corpus PHI is x<k> or a one-factor entry;"
    " list a file from 'make alexander FACTORS PHI --out FILE' for any other matrix"
)


def _corpus_member(t: str) -> Quandle:
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
        if len(factors) > 1 and not phi.lower().startswith("x"):
            raise ValueError("corpus token %r: %s" % (t, _CORPUS_PHI_RULE))
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
    reports = [verify_equivalence(corpus, mode, names=tokens, cap=args.cap) for mode in modes]
    failures = sum(len(r.failures) for r in reports)
    if args.json:
        _emit_json({"schema": 1, "reports": (r.to_dict() for r in reports)}, args.out)
    else:
        lines = [r.summary() for r in reports]
        lines.append("all checks passed" if failures == 0 else "%d failing checks" % failures)
        _emit(_lines(lines), args.out)
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
        help="comma list: rN | dihedral:N | trivial:N | alex:FACTORS:PHI | conj:sN | path; " + _CORPUS_PHI_RULE,
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
        code = args.func(args)
        # what stdout still buffers is written here, so a closed pipe fails
        # inside this handler and not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return 141
    except (ValueError, OSError, CapExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run() -> None:
    code = main()
    if code == 141:
        # stdout keeps the bytes its reader never took; point fd 1 at
        # devnull so the exit-time flush drops them instead of reporting
        # "Exception ignored" and exiting 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()
