"""Quandle homomorphisms: checking, exhaustive enumeration, and the group
maps a homomorphism induces between inner groups.

A map f is a homomorphism when f(s_x(y)) = s_{f(x)}(f(y)) for all points,
i.e. mapping[table1[x][y]] == table2[mapping[x]][mapping[y]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .grpgen import StarMorphism, SurjMorphism
from .perm import generator_blocks, perm_order, require_recursion_depth, table_homs
from .quandle import GenPair, Quandle

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
    # one attribute at a time, in field order: a dict filled by update()
    # loses the key sharing that instances built by __init__ have, and
    # takes about 140 bytes more per hom
    object.__setattr__(f, "source", source)
    object.__setattr__(f, "target", target)
    object.__setattr__(f, "mapping", mapping)
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

    perm.table_homs on the two tables, the search grpgen._sigma_search
    runs on conjugation tables, branching on perm.generator_blocks of q1's
    points in index order, whose closure order keeps the target rows the
    search reads low.  When both tables are quandles
    (Quandle.violations, check_axioms' verdict kept with the quandle, is
    empty), only the instances in a generator's row or column are
    checked, which table_homs' lemma shows is enough; otherwise every
    instance is, so tables that are not quandles get every hom and
    nothing else.

    Modes "injective" and "surjective" add the obvious pruning at every
    placement.  When both tables are quandles, which also makes every row
    a permutation, they prune generator values by symmetry order too:
    from f s_x^k = s_{f(x)}^k f, an onto f has ord(s_{f(x)}) dividing
    ord(s_x), and a one-to-one f has ord(s_x) dividing ord(s_{f(x)}).

    Every point smaller than a generator lies in the closure of the
    generators before it, so the map arrays compare as the tuples of
    generator values do; trying each generator's values in ascending order
    therefore emits the homs in lexicographic order without a sort.  The
    search recurses once per generator (2 for any R_n, n for a trivial
    quandle), so a generating set too large for the interpreter's stack
    raises CapExceeded.
    """
    if mode not in MODE_WORDS.values():
        raise ValueError("mode must be all, injective or surjective")
    n1, n2 = q1.n, q2.n
    if mode == "injective" and n2 < n1:
        return []
    t1, t2 = q1.table, q2.table
    blocks = generator_blocks(t1, range(n1))[0]
    require_recursion_depth(len(blocks), "hom enumeration from a %d-point quandle" % n1)
    quandles = not q1.violations and not q2.violations
    injective, surjective = mode == "injective", mode == "surjective"
    values: list[Sequence[int]] = [range(n2)] * len(blocks)
    if quandles and (injective or surjective):
        orders = [perm_order(row) for row in t2]
        values = [
            [v for v in range(n2) if (k % orders[v] if surjective else orders[v] % k) == 0]
            for k in (perm_order(t1[g]) for g, _ in blocks)
        ]
    out: list[QuandleHom] = []
    table_homs(
        t1, blocks, t2, values, lambda m: out.append(_trusted_hom(q1, q2, m)),
        injective=injective, surjective=surjective, every=not quandles,
    )
    return out


def _omega_images(f: QuandleHom, p1: GenPair, p2: GenPair) -> tuple[int, ...]:
    """The omega positions of the group-side morphism f induces, in both
    flavors: images[pos1(s_y)] = pos2(s_{f(y)}), where pos1 and pos2 are
    the omega positions of p1 and p2, inn() of f's source and target.

    f is not checked to be a hom: between faithful quandles, the positions
    of a map that is not one fail check_surj_morphism and
    check_star_morphism.  ValueError only where the positions cannot be
    formed: a pair whose omega is not its quandle's symmetries, or an
    unfaithful source, whose n points have fewer than n symmetries."""
    pos1, pos2 = p1.omega_position, p2.omega_position
    t1, t2 = f.source.table, f.target.table
    try:
        placed = sorted([(pos1[t1[y]], pos2[t2[v]]) for y, v in enumerate(f.mapping)])
    except KeyError:
        placed = []
    if len(placed) != len(pos1):
        raise ValueError("the pairs' omegas are not the symmetries of f's source and target")
    return tuple([a for _, a in placed])


def induced_surjective(f: QuandleHom, p1: GenPair, p2: GenPair) -> SurjMorphism:
    """The group map between inner groups induced by a surjective homomorphism.

    p1 and p2 are inn() of f's source and target.  The map sends the
    symmetry s_y to s_{f(y)}, the defining equation f s_y = s_{f(y)} f read
    on the generators, so its positions are _omega_images.  ValueError for
    a non-surjective f and where _omega_images cannot place the positions;
    f is not checked to be a hom.  The result is built, not checked:
    check_surj_morphism checks it.
    """
    images = _omega_images(f, p1, p2)
    if not f.is_surjective():
        raise ValueError("f is not surjective")
    return SurjMorphism(p1, p2, images)


def induced_injective(f: QuandleHom, p1: GenPair, p2: GenPair) -> StarMorphism:
    """The backwards-partial morphism induced by an injective homomorphism.

    p1 and p2 are inn() of f's source and target.  The subset gamma is
    the symmetries at image points, and the projection sends s_{f(y)} back
    to s_y, from f s_y = s_{f(y)} f.  Its inverse sigma lifts s_y to
    s_{f(y)}: the positions of induced_surjective, _omega_images.
    ValueError for a non-injective f and where _omega_images cannot place
    the positions; f is not checked to be a hom.  No group is closed.  The
    result is built, not checked: check_star_morphism checks it.
    """
    images = _omega_images(f, p1, p2)
    if not f.is_injective():
        raise ValueError("f is not injective")
    return StarMorphism(p1, p2, images)


def homs_to_dict(q1: Quandle, q2: Quandle, mode: str, homs: Sequence[QuandleHom]) -> dict:
    """JSON-ready listing of an enumerated hom set."""
    return {
        "source_n": q1.n,
        "target_n": q2.n,
        "mode": mode,
        "homs": [list(f.mapping) for f in homs],
        "count": len(homs),
    }
