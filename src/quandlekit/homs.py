"""Quandle homomorphisms: checking, exhaustive enumeration, and the group
maps a homomorphism induces between inner groups.

A map f is a homomorphism when f(s_x(y)) = s_{f(x)}(f(y)) for all points,
i.e. mapping[table1[x][y]] == table2[mapping[x]][mapping[y]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .grpgen import StarMorphism, SurjMorphism, make_star_morphism, make_surj_morphism
from .perm import require_recursion_depth
from .quandle import GenPair, Quandle, is_faithful

# Every accepted spelling of a hom mode, mapped to its canonical name.
MODE_WORDS = {
    "all": "all",
    "inj": "injective",
    "injective": "injective",
    "surj": "surjective",
    "surjective": "surjective",
}


@dataclass(frozen=True)
class QuandleHom:
    """A point map between quandles; validity is reported by check_hom."""

    source: Quandle
    target: Quandle
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(self.mapping)
        object.__setattr__(self, "mapping", mapping)
        if len(mapping) != self.source.n:
            raise ValueError("mapping length differs from the source size")
        n2 = self.target.n
        for v in mapping:
            if not 0 <= v < n2:
                raise ValueError("mapping value %r out of target range" % (v,))

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.n

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.n


def _trusted_hom(source: Quandle, target: Quandle, mapping: tuple[int, ...]) -> QuandleHom:
    """The QuandleHom with this mapping, built without __post_init__'s
    checks: the caller vouches that mapping is a tuple of source.n values
    in range(target.n)."""
    f = object.__new__(QuandleHom)
    vars(f).update(source=source, target=target, mapping=mapping)
    return f


def identity_hom(q: Quandle) -> QuandleHom:
    return QuandleHom(q, q, tuple(range(q.n)))


def compose_homs(f2: QuandleHom, f1: QuandleHom) -> QuandleHom:
    """f1 then f2.  The values are f2's, so the composite needs no range
    check."""
    if f1.target != f2.source:
        raise ValueError("homs are not composable")
    outer = f2.mapping
    return _trusted_hom(f1.source, f2.target, tuple([outer[v] for v in f1.mapping]))


def check_hom(f: QuandleHom) -> list[tuple[int, int]]:
    """Pairs (x, y) where equivariance fails; empty means f is a homomorphism."""
    t1 = f.source.table
    t2 = f.target.table
    m = f.mapping
    bad = []
    for x in range(f.source.n):
        for y in range(f.source.n):
            if m[t1[x][y]] != t2[m[x]][m[y]]:
                bad.append((x, y))
    return bad


def enumerate_homs(q1: Quandle, q2: Quandle, mode: str = "all") -> list[QuandleHom]:
    """Every homomorphism q1 -> q2, in lexicographic order of the map arrays.

    Backtracking assigns images point by point; an equivariance instance is
    checked as soon as all three of its points have images.  A point k that
    some instance x |> y = k with x, y < k produces is forced: its only
    possible image is img[x] |> img[y], so that one value is tried instead
    of every target point (any other value fails that instance).  The rule
    reads only the tables, so it holds for tables that are not quandles
    too.  The forced value still goes through every check below, and the
    output order is unchanged.  Modes "injective" and "surjective" add the
    obvious pruning.  The search recurses once per source point, so a
    source too large for the interpreter's stack raises CapExceeded.
    """
    if mode not in MODE_WORDS.values():
        raise ValueError("mode must be all, injective or surjective")
    n1, n2 = q1.n, q2.n
    if mode == "injective" and n2 < n1:
        return []
    require_recursion_depth(n1, "hom enumeration from a %d-point quandle" % n1)
    t1, t2 = q1.table, q2.table
    # checks[k] lists the (x, y) whose equivariance instance closes at point k
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n1)]
    # forced[k] is one (x, y) with x, y < k and x |> y = k, if there is one
    forced: list[tuple[int, int] | None] = [None] * n1
    for x in range(n1):
        for y in range(n1):
            z = t1[x][y]
            checks[max(x, y, z)].append((x, y))
            if x < z and y < z and forced[z] is None:
                forced[z] = (x, y)
    injective = mode == "injective"
    surjective = mode == "surjective"
    out: list[QuandleHom] = []
    img: list[int] = [0] * n1
    used = [0] * n2  # multiplicity of each target value among assigned points

    def extend(k: int, distinct: int) -> None:
        if k == n1:
            out.append(QuandleHom(q1, q2, tuple(img)))
            return
        pin = forced[k]
        for v in range(n2) if pin is None else (t2[img[pin[0]]][img[pin[1]]],):
            if injective and used[v]:
                continue
            img[k] = v
            d = distinct + (used[v] == 0)
            if surjective and (n2 - d) > (n1 - k - 1):
                continue
            ok = True
            for x, y in checks[k]:
                if img[t1[x][y]] != t2[img[x]][img[y]]:
                    ok = False
                    break
            if not ok:
                continue
            used[v] += 1
            extend(k + 1, d)
            used[v] -= 1

    extend(0, 0)
    return out


def _require_valid(f: QuandleHom) -> None:
    if check_hom(f):
        raise ValueError("not a quandle homomorphism")


def _require_faithful(f: QuandleHom) -> None:
    if not is_faithful(f.source) or not is_faithful(f.target):
        raise ValueError("induced maps need faithful source and target")


def induced_surjective(f: QuandleHom, p1: GenPair, p2: GenPair) -> SurjMorphism:
    """The group map between inner groups induced by a surjective homomorphism.

    p1 and p2 are inn() of f's source and target.  The map sends the
    symmetry s_x to s_{f(x)}, the defining equation f s_x = s_{f(x)} f read
    on the generators.  f itself is validated (a ValueError for a non-hom,
    a non-surjective or an unfaithful one), and so are the values' places
    in the two omegas (make_surj_morphism); the result is built, not
    checked: check_surj_morphism checks it.
    """
    _require_valid(f)
    _require_faithful(f)
    if not f.is_surjective():
        raise ValueError("f is not surjective")
    t1, t2 = f.source.table, f.target.table
    return make_surj_morphism(p1, p2, {t1[y]: t2[v] for y, v in enumerate(f.mapping)})


def induced_injective(f: QuandleHom, p1: GenPair, p2: GenPair) -> StarMorphism:
    """The backwards-partial morphism induced by an injective homomorphism.

    p1 and p2 are inn() of f's source and target.  The subset gamma is
    the symmetries at image points, and the projection sends s_{f(y)} back
    to s_y, from f s_y = s_{f(y)} f; those values are the whole morphism,
    so no group is closed.  f and the values' places in the two omegas
    are validated as in induced_surjective (make_star_morphism); the
    result is built, not checked: check_star_morphism checks it.
    """
    _require_valid(f)
    _require_faithful(f)
    if not f.is_injective():
        raise ValueError("f is not injective")
    t1, t2 = f.source.table, f.target.table
    return make_star_morphism(p1, p2, {t2[v]: t1[y] for y, v in enumerate(f.mapping)})


def homs_to_dict(q1: Quandle, q2: Quandle, mode: str, homs: Sequence[QuandleHom]) -> dict:
    """JSON-ready listing of an enumerated hom set."""
    return {
        "source_n": q1.n,
        "target_n": q2.n,
        "mode": mode,
        "homs": [list(f.mapping) for f in homs],
        "count": len(homs),
    }
