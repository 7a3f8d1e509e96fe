"""Quandle homomorphisms: checking, exhaustive enumeration, and the group
maps a homomorphism induces between inner groups.

A map f is a homomorphism when f(s_x(y)) = s_{f(x)}(f(y)) for all points,
i.e. mapping[table1[x][y]] == table2[mapping[x]][mapping[y]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .grpgen import StarMorphism, SurjMorphism
from .perm import generator_blocks, perm_order, require_recursion_depth
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

    A homomorphism is fixed by its values on a generating set, so the
    search branches only on generators: perm.generator_blocks of q1's
    points in index order, whose closure order keeps the target rows the
    search reads low.  After a generator is given a value, the points of
    its closure block follow in a flat loop: a point z reached as
    x |> y = z can only take the value img[x] |> img[y], since any other
    value fails that instance.  Each equivariance instance (x, y) that is
    checked is checked as soon as the last of x, y and x |> y is placed.

    Which instances are checked depends on one flag: whether both tables
    are quandles (Quandle.violations, check_axioms' verdict kept with the
    quandle, is empty).  Lemma: in a quandle
    s_{x|>y} = s_x s_y s_x^-1 (Q3, with Q2 for the inverse), so a map with
    f s_x = s_{f(x)} f, f s_y = s_{f(y)} f and f(x |> y) = f(x) |> f(y)
    also has f s_{x|>y} = s_{f(x|>y)} f.  Every block point is placed by
    such an equation, so by induction along the block order a map that
    keeps the instances in each generator's row keeps all n1 * n1.  With
    the flag set, only the instances in a generator's row or column are
    checked; the columns reject a wrong generator value before its block
    is placed.  Without it every instance is checked, so tables that are
    not quandles get every hom and nothing else.

    Modes "injective" and "surjective" add the obvious pruning at every
    placement.  With the flag set, which also makes every row a
    permutation, they prune generator values by symmetry order too: from
    f s_x^k = s_{f(x)}^k f, an onto f has ord(s_{f(x)}) dividing ord(s_x),
    and a one-to-one f has ord(s_x) dividing ord(s_{f(x)}).

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
    blocks = generator_blocks(q1, range(n1))[0]
    require_recursion_depth(len(blocks), "hom enumeration from a %d-point quandle" % n1)
    # placement order, and for each placed point the instances (x, y, x |> y)
    # whose last point it is
    order = [p for g, block in blocks for p in (g, *(z for z, _, _ in block))]
    position = [0] * n1
    for k, p in enumerate(order):
        position[p] = k
    quandles = not q1.violations and not q2.violations
    generators = {g for g, _ in blocks}
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n1)]
    for x in range(n1):
        for y in range(n1):
            if quandles and x not in generators and y not in generators:
                continue
            z = t1[x][y]
            checks[max(position[x], position[y], position[z])].append((x, y, z))
    injective = mode == "injective"
    surjective = mode == "surjective"
    orders = [perm_order(row) for row in t2] if quandles and (injective or surjective) else None
    # per generator: the generator, its candidate values, slack and checks,
    # and one step (point, x, y, slack, checks) per point of its block,
    # whose forced value is x |> y; slack is the number of points placed
    # after a point, which the surjective pruning reads
    plan = []
    for g, block in blocks:
        values: Sequence[int] = range(n2)
        if orders is not None:
            k = perm_order(t1[g])
            values = [v for v in values if (k % orders[v] if surjective else orders[v] % k) == 0]
        steps = [(z, x, y, n1 - 1 - position[z], checks[position[z]]) for z, x, y in block]
        plan.append((g, values, n1 - 1 - position[g], checks[position[g]], steps))
    out: list[QuandleHom] = []
    img: list[int] = [0] * n1
    used = [0] * n2  # multiplicity of each target value among placed points

    def extend(level: int, distinct: int) -> None:
        if level == len(plan):
            out.append(_trusted_hom(q1, q2, tuple(img)))
            return
        g, values, slack, gen_checks, steps = plan[level]
        for v in values:
            if injective and used[v]:
                continue
            d = distinct + (used[v] == 0)
            if surjective and n2 - d > slack:
                continue
            img[g] = v
            ok = True
            for x, y, z in gen_checks:
                if img[z] != t2[img[x]][img[y]]:
                    ok = False
                    break
            if not ok:
                continue
            used[v] += 1
            placed = [v]
            for p, x, y, p_slack, p_checks in steps:
                w = t2[img[x]][img[y]]
                if injective and used[w]:
                    ok = False
                    break
                d += used[w] == 0
                if surjective and n2 - d > p_slack:
                    ok = False
                    break
                img[p] = w
                for a, b, c in p_checks:
                    if img[c] != t2[img[a]][img[b]]:
                        ok = False
                        break
                if not ok:
                    break
                used[w] += 1
                placed.append(w)
            if ok:
                extend(level + 1, d)
            for w in placed:
                used[w] -= 1

    extend(0, 0)
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
