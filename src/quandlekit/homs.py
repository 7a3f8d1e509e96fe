"""Quandle homomorphisms: checking, exhaustive enumeration, and the group
maps a homomorphism induces between inner groups.

A map f is a homomorphism when f(s_x(y)) = s_{f(x)}(f(y)) for all points,
i.e. mapping[table1[x][y]] == table2[mapping[x]][mapping[y]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .grpgen import (
    StarMorphism,
    SurjMorphism,
    check_star_morphism,
    check_surj_morphism,
)
from .perm import DEFAULT_CAP, compose, identity, inverse, require_recursion_depth
from .quandle import (
    GenPair,
    Quandle,
    SubquandleWitness,
    inn,
    inn_relative,
    is_faithful,
)

MODES = ("all", "injective", "surjective")


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
        for v in mapping:
            if not 0 <= v < self.target.n:
                raise ValueError("mapping value %r out of target range" % (v,))

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.n

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.n


def identity_hom(q: Quandle) -> QuandleHom:
    return QuandleHom(q, q, tuple(range(q.n)))


def compose_homs(f2: QuandleHom, f1: QuandleHom) -> QuandleHom:
    if f1.target != f2.source:
        raise ValueError("homs are not composable")
    return QuandleHom(f1.source, f2.target, tuple(f2.mapping[v] for v in f1.mapping))


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
    checked as soon as all three of its points have images.  Modes
    "injective" and "surjective" add the obvious pruning.  The search
    recurses once per source point, so a source too large for the
    interpreter's stack raises CapExceeded.
    """
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % (MODES,))
    n1, n2 = q1.n, q2.n
    if mode == "injective" and n2 < n1:
        return []
    require_recursion_depth(n1, "hom enumeration from a %d-point quandle" % n1)
    t1, t2 = q1.table, q2.table
    # checks[k] lists the (x, y) whose equivariance instance closes at point k
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n1)]
    for x in range(n1):
        for y in range(n1):
            checks[max(x, y, t1[x][y])].append((x, y))
    injective = mode == "injective"
    surjective = mode == "surjective"
    out: list[QuandleHom] = []
    img: list[int] = [0] * n1
    used = [0] * n2  # multiplicity of each target value among assigned points

    def extend(k: int, distinct: int) -> None:
        if k == n1:
            out.append(QuandleHom(q1, q2, tuple(img)))
            return
        for v in range(n2):
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


def _rewrite(words_group, letter_images, degree: int):
    """Map each element through its witness word with the letters replaced."""
    out = {}
    for g, word in words_group.witness.items():
        img = identity(degree)
        for idx, sign in word:
            t = letter_images[idx]
            img = compose(img, t if sign == 1 else inverse(t))
        out[g] = img
    return out


def induced_surjective(
    f: QuandleHom,
    source_pair: GenPair | None = None,
    target_pair: GenPair | None = None,
    cap: int = DEFAULT_CAP,
) -> SurjMorphism:
    """The group map between inner groups induced by a surjective homomorphism.

    It sends the symmetry at x to the symmetry at f(x) and is extended to
    whole elements by rewriting witness words.  The result is re-verified
    exhaustively; a failure raises RuntimeError since it would be a bug, not
    a user error.  Optional pairs must be the ones built by inn().
    """
    _require_valid(f)
    _require_faithful(f)
    if not f.is_surjective():
        raise ValueError("f is not surjective")
    p1 = source_pair if source_pair is not None else inn(f.source, cap)
    p2 = target_pair if target_pair is not None else inn(f.target, cap)
    assert len(p1.group.generators) == f.source.n
    letter_images = [f.target.table[f.mapping[i]] for i in range(f.source.n)]
    mapping = _rewrite(p1.group, letter_images, f.target.n)
    m = SurjMorphism(p1, p2, mapping)
    bad = check_surj_morphism(m)
    if bad:
        raise RuntimeError("induced map failed verification: %s" % "; ".join(bad))
    return m


def induced_injective(
    f: QuandleHom,
    source_pair: GenPair | None = None,
    target_pair: GenPair | None = None,
    cap: int = DEFAULT_CAP,
) -> StarMorphism:
    """The backwards-partial morphism induced by an injective homomorphism.

    The domain subgroup is the closure of the symmetries at image points,
    acting on the whole target; the projection sends the symmetry at f(x)
    back to the symmetry at x, extended by rewriting witness words.  The
    result is re-verified; failure raises RuntimeError.
    """
    _require_valid(f)
    _require_faithful(f)
    if not f.is_injective():
        raise ValueError("f is not injective")
    p1 = source_pair if source_pair is not None else inn(f.source, cap)
    p2 = target_pair if target_pair is not None else inn(f.target, cap)
    image_pts = tuple(sorted(set(f.mapping)))
    witness = SubquandleWitness(f.target, image_pts)
    rel = inn_relative(f.target, witness, cap)
    assert len(rel.group.generators) == len(image_pts)
    back = {f.mapping[x]: x for x in range(f.source.n)}
    letter_images = [f.source.table[back[p]] for p in image_pts]
    proj = _rewrite(rel.group, letter_images, f.source.n)
    m = StarMorphism(p1, p2, rel.group, rel.omega, proj)
    bad = check_star_morphism(m)
    if bad:
        raise RuntimeError("induced map failed verification: %s" % "; ".join(bad))
    return m


def homs_to_dict(q1: Quandle, q2: Quandle, mode: str, homs: Sequence[QuandleHom]) -> dict:
    """JSON-ready listing of an enumerated hom set."""
    return {
        "source_n": q1.n,
        "target_n": q2.n,
        "mode": mode,
        "homs": [list(f.mapping) for f in homs],
        "count": len(homs),
    }
