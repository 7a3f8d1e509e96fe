"""Groups with a distinguished generating subset, and their two morphism flavors.

A GenPair is a permutation group together with a subset omega that generates
it.  Two kinds of structure-preserving maps between pairs show up:

* SurjMorphism: a group homomorphism carrying omega onto omega.
* StarMorphism: a backwards-partial map.  It consists of a
  conjugation-stable subset gamma of the target's omega, plus a projection
  homomorphism from the subgroup gamma generates onto the source whose
  restriction to gamma is a bijection onto the source omega.

Both are stored as their values on the generators (omega, or gamma), which
fix them, and every such value is an omega member.  So they are stored as
omega positions: a SurjMorphism as one target position per source omega
member, a StarMorphism as a dict from the target positions of gamma to
source positions.  Composition chains those integers, and the backward
functor reads them off, since point i of the conjugation quandle on omega
is omega member i.  The values as permutations are read-only views
(SurjMorphism.mapping, StarMorphism.proj), derived on first read.
Permutations enter through make_surj_morphism and make_star_morphism,
which refuse values outside omega, and the checks read them: extend_hom
extends the values to a homomorphism of the group.  The checks extend
from the values on a quandle generating set of omega or gamma, which
generates the same group, and compare on the rest.  A star morphism's
gamma is the set of its projection's keys, and the subgroup gamma
generates is closed from it on first use.  Star morphisms compose back to
front: the new subset is the part of the outer morphism's subset that
projects into the inner one's, and the new projection is the chain of the
two on it.

The projection's inverse on gamma is an isomorphism of conjugation
quandles from the source omega onto gamma, so enumerate_star_morphisms
searches those isomorphisms from their values on a quandle generating set
of the source omega; no subset of the target omega is searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping

from .perm import (
    DEFAULT_CAP,
    CapExceeded,
    Perm,
    PermGroup,
    close_group,
    compose,
    centralizer_of_subset_is_trivial,
    conjugate,
    conjugation_basis,
    group_from_lines,
    group_to_lines,
    identity,
    is_conjugation_stable,
    perm_order,
    require_recursion_depth,
)

# Assignments enumerate_star_morphisms may try before it gives up.
SUBSET_CAP = 1_000_000


@dataclass(eq=False)
class GenPair:
    """A permutation group with a distinguished generating subset omega.

    omega is kept in canonical (lexicographic) order.  The constructor
    trusts its arguments; make_genpair validates outside input.
    conj_stable records whether omega is closed under conjugation by the
    whole group; faithful records whether only the identity centralizes all
    of omega; omega_position maps each omega member to its index;
    omega_basis is a quandle generating set of omega (conjugation_basis),
    which generates the group too, so a homomorphism is tested from its
    values there.  All are computed on first use.  Whoever builds the pair
    (inn, genpair_from_text, close_group) bounds its group by a cap; a
    subgroup closed inside it takes no cap of its own.
    """

    group: PermGroup
    omega: tuple[Perm, ...]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GenPair):
            return NotImplemented
        return self.group == other.group and set(self.omega) == set(other.omega)

    @property
    def degree(self) -> int:
        return self.group.degree

    @cached_property
    def conj_stable(self) -> bool:
        return is_conjugation_stable(self.group, self.omega)

    @cached_property
    def faithful(self) -> bool:
        return centralizer_of_subset_is_trivial(self.group, self.omega)

    @cached_property
    def omega_position(self) -> dict[Perm, int]:
        return {w: i for i, w in enumerate(self.omega)}

    @cached_property
    def omega_basis(self) -> tuple[Perm, ...]:
        return tuple(conjugation_basis(self.omega)[0])


def make_genpair(group: PermGroup, omega: Iterable[Perm]) -> GenPair:
    """Validate and build a GenPair; omega must generate the whole group.

    The group is the closure of its generators, so an omega that contains
    them all generates it and nothing is closed; any other omega is closed
    and compared with the group.
    """
    om = sorted(set(tuple(w) for w in omega))
    if not om:
        raise ValueError("omega must be nonempty")
    for w in om:
        if w not in group.elements:
            raise ValueError("omega element %s is not in the group" % (w,))
    if not set(om).issuperset(group.generators):
        if close_group(om, cap=len(group) + 1).elements != group.elements:
            raise ValueError("omega does not generate the group")
    return GenPair(group, tuple(om))


@dataclass(eq=False)
class SurjMorphism:
    """A group homomorphism between pairs whose restriction maps omega onto
    omega, stored as images: its values on the source omega, which fix it,
    as target omega positions.  images[i] is the position in target.omega
    of the value at source.omega[i].  mapping is the same values as
    permutations, source omega member to target omega member, derived on
    first read.  make_surj_morphism builds one from permutations."""

    source: GenPair
    target: GenPair
    images: tuple[int, ...]

    @cached_property
    def mapping(self) -> Mapping[Perm, Perm]:
        lam = self.target.omega
        return MappingProxyType({w: lam[a] for w, a in zip(self.source.omega, self.images)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurjMorphism):
            return NotImplemented
        return (
            self.images == other.images
            and self.source == other.source
            and self.target == other.target
        )

    def key(self) -> tuple[int, ...]:
        """Hashable canonical form of the values on omega."""
        return self.images

    def is_injective(self) -> bool:
        """For a valid morphism: it maps onto the group the target omega
        generates, so it is injective exactly when the orders agree."""
        return len(self.source.group) == len(self.target.group)


def make_surj_morphism(
    source: GenPair, target: GenPair, mapping: Mapping[Perm, Perm]
) -> SurjMorphism:
    """The SurjMorphism with the given values on the source omega.

    Values the stored positions cannot hold are refused with a ValueError
    carrying the clause for that defect: "totality:" for a domain other
    than the source omega, "containment:" for a value outside the target
    group and "omega containment:" for one outside the target omega.
    Whether the values extend to a homomorphism covering the target omega
    is left to check_surj_morphism.
    """
    if set(mapping) != set(source.omega):
        raise ValueError("totality: mapping domain differs from the source omega")
    values = [mapping[w] for w in source.omega]
    pos = target.omega_position
    if not all(v in pos for v in values):
        if not set(values) <= target.group.elements:
            raise ValueError("containment: some image lies outside the target group")
        raise ValueError("omega containment: image of omega leaves the target omega")
    return SurjMorphism(source, target, tuple([pos[v] for v in values]))


def identity_surj(pair: GenPair) -> SurjMorphism:
    return SurjMorphism(pair, pair, tuple(range(len(pair.omega))))


def compose_surj(m2: SurjMorphism, m1: SurjMorphism) -> SurjMorphism:
    """Composite of m1 then m2: each of m1's target positions read through
    m2.  A position that m2 has no value at raises RuntimeError: the inputs
    were not valid morphisms."""
    if m1.target != m2.source:
        raise ValueError("morphisms are not composable")
    outer = m2.images
    try:
        images = tuple([outer[i] for i in m1.images])
    except IndexError:
        raise RuntimeError("a value of the inner morphism leaves the outer one's omega") from None
    return SurjMorphism(m1.source, m2.target, images)


def check_surj_morphism(m: SurjMorphism) -> list[str]:
    """Report of violated clauses; empty means the morphism is valid: there
    is a position for each source omega member, each names a target omega
    member, and those values extend to a homomorphism and cover the target
    omega.

    The homomorphism is extended from the values on the source's
    omega_basis, which generates the group, and compared with the values
    on the rest of omega: they extend exactly when the two agree.
    """
    report: list[str] = []
    src, tgt = m.source, m.target
    if len(m.images) != len(src.omega):
        report.append("totality: mapping domain differs from the source omega")
        return report
    lam = tgt.omega
    if not all(0 <= a < len(lam) for a in m.images):
        report.append("omega containment: image of omega leaves the target omega")
        return report
    values = [lam[a] for a in m.images]
    pos = src.omega_position
    hom = extend_hom([(q, values[pos[q]]) for q in src.omega_basis], src.degree, tgt.degree)
    if hom is None or any(hom[w] != v for w, v in zip(src.omega, values)):
        report.append("homomorphism: the values on omega do not extend to a homomorphism")
        return report
    if len(set(m.images)) != len(lam):
        report.append("omega surjectivity: restriction does not cover target omega")
    return report


@dataclass(eq=False)
class StarMorphism:
    """A backwards-partial morphism between pairs.

    Its projection is a homomorphism from the subgroup that gamma, a
    conjugation-stable subset of the target omega, generates onto the
    source group, whose values on gamma are a bijection gamma -> source
    omega.  Those values fix it and are stored as images: the target omega
    position of each member of gamma, mapped to the source omega position
    of its value.  gamma is the keys, so it is not stored.  proj is the
    same values as permutations, domain_omega lists gamma in canonical
    order, and domain_group is the subgroup it generates; all three are
    derived on first read.  domain_group lies inside the target group, so
    a closure bounded by that group's order never raises.
    make_star_morphism builds one from permutations.
    """

    source: GenPair
    target: GenPair
    images: dict[int, int]

    @cached_property
    def proj(self) -> Mapping[Perm, Perm]:
        lam, omega = self.target.omega, self.source.omega
        return MappingProxyType({lam[a]: omega[i] for a, i in self.images.items()})

    @cached_property
    def domain_omega(self) -> tuple[Perm, ...]:
        lam = self.target.omega
        return tuple(lam[a] for a in sorted(self.images))

    @cached_property
    def domain_group(self) -> PermGroup:
        return close_group(self.domain_omega, cap=len(self.target.group))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarMorphism):
            return NotImplemented
        return (
            self.images == other.images
            and self.source == other.source
            and self.target == other.target
        )

    def key(self) -> frozenset:
        """Hashable canonical form of the values on gamma."""
        return frozenset(self.images.items())

    def proj_is_injective(self) -> bool:
        """For a valid morphism: proj maps onto the group the source omega
        generates, so it is injective exactly when the orders agree."""
        return len(self.domain_group) == len(self.source.group)


def make_star_morphism(
    source: GenPair, target: GenPair, proj: Mapping[Perm, Perm]
) -> StarMorphism:
    """The StarMorphism whose projection has the given values on gamma,
    the set of proj's keys.

    Values the stored positions cannot hold are refused with a ValueError
    carrying the clause for that defect: "gamma:" for a key outside the
    target omega, "homomorphism:" for a value outside the source group and
    "bijectivity:" for one outside the source omega.  Everything else (an
    empty or unstable gamma, values that do not extend to a homomorphism
    or are no bijection onto the source omega) is left to
    check_star_morphism.
    """
    lam_pos, pos = target.omega_position, source.omega_position
    if not all(g in lam_pos for g in proj):
        raise ValueError("gamma: subset is not contained in the target omega")
    if not all(v in pos for v in proj.values()):
        if not set(proj.values()) <= source.group.elements:
            raise ValueError("homomorphism: proj image leaves the source group")
        raise ValueError("bijectivity: proj carries the subset outside the source omega")
    return StarMorphism(source, target, {lam_pos[g]: pos[v] for g, v in proj.items()})


def identity_star(pair: GenPair) -> StarMorphism:
    return StarMorphism(pair, pair, {i: i for i in range(len(pair.omega))})


def check_star_morphism(m: StarMorphism) -> list[str]:
    """Report of violated clauses, tagged by which requirement failed; empty
    means the morphism is valid: gamma, the keys of proj, is a
    conjugation-stable subset of the target omega, and proj on it is a
    bijection onto the source omega that extends to a homomorphism.  A key
    or value that is no omega position is outside the target or source
    omega.

    No group is closed.  One conjugation_basis pass over gamma gives both
    its stability (under the subgroup gamma generates, which is stability
    under a basis of gamma) and a quandle generating set; the homomorphism
    is extended from the values there and compared with proj on the rest
    of gamma.  That is exact for any gamma, stable or not, and any proj.
    """
    report: list[str] = []
    tgt = m.target
    src = m.source
    lam, omega = tgt.omega, src.omega
    if not m.images:
        report.append("gamma: empty subset")
        return report
    if not all(0 <= a < len(lam) for a in m.images):
        report.append("gamma: subset is not contained in the target omega")
        return report
    basis, stable = conjugation_basis([lam[a] for a in sorted(m.images)])
    if not stable:
        report.append("stability: subset is not conjugation-stable in the domain group")
    if not all(0 <= i < len(omega) for i in m.images.values()):
        report.append("bijectivity: proj carries the subset outside the source omega")
        return report
    proj = {lam[a]: omega[i] for a, i in m.images.items()}
    hom = extend_hom([(g, proj[g]) for g in basis], tgt.degree, src.degree)
    if hom is None or any(hom[g] != v for g, v in proj.items()):
        report.append("homomorphism: the values on the subset do not extend to a homomorphism")
        return report
    if len(m.images) != len(omega) or len(set(m.images.values())) != len(omega):
        report.append("bijectivity: proj is not a bijection subset -> source omega")
    return report


def compose_star(m2: StarMorphism, m1: StarMorphism) -> StarMorphism:
    """Composite of m1 then m2 (written back to front, like functions).

    The composite subset is the part of m2's subset projecting into m1's,
    and the composite projection chains the two on it, position by
    position; no group is closed.  The result is built, not checked:
    check_star_morphism checks it.  An empty composite subset raises
    RuntimeError, since it means the inputs were not valid morphisms.
    """
    if m1.target != m2.source:
        raise ValueError("morphisms are not composable")
    inner = m1.images
    images = {g: inner[v] for g, v in m2.images.items() if v in inner}
    if not images:
        raise RuntimeError("composite subset is empty; inputs were not valid")
    return StarMorphism(m1.source, m2.target, images)


def is_star_isomorphism(m: StarMorphism) -> bool:
    """True when a valid m is invertible: its subset is the whole target
    omega, so its domain is the whole target group, and proj is injective,
    so the two groups have the same order.  No group is closed."""
    return len(m.images) == len(m.target.omega) and len(m.source.group) == len(m.target.group)


def extend_hom(
    pairs: Collection[tuple[Perm, Perm]], domain_degree: int, image_degree: int
) -> dict[Perm, Perm] | None:
    """The homomorphism of the group the first entries generate that sends
    each to its second entry, as a dict over that group; None when there is
    none.

    Every product (element, generator) is checked once, which pins the map
    down on the whole generated subgroup: any clash between two derivations
    of the same element surfaces here.  Without a clash the map sends e to
    e and each x g to f(x) f(g), and every element is a positive word in
    the generators, so it is a homomorphism.
    """
    hom = {identity(domain_degree): identity(image_degree)}
    frontier = [identity(domain_degree)]
    while frontier:
        nxt = []
        for x in frontier:
            fx = hom[x]
            for g, u in pairs:
                y = compose(x, g)
                fy = compose(fx, u)
                cur = hom.get(y)
                if cur is None:
                    hom[y] = fy
                    nxt.append(y)
                elif cur != fy:
                    return None
        frontier = nxt
    return hom


def _extension_search(
    gens: list[Perm],
    candidates: list[Perm],
    domain_degree: int,
    image_degree: int,
) -> Iterator[dict[Perm, Perm]]:
    """Yield every homomorphism of <gens> sending each generator into candidates.

    Generators already forced by earlier assignments (they lie in the closure
    of the prefix) are not branched over; their forced image must still land
    in the candidate set.  A candidate u is tried for a generator g only when
    the order of u divides that of g: a homomorphism sends g^ord(g) = e to
    u^ord(g) = e, so extend_hom would reject every other u.  Enumeration
    order follows the candidate list, so the output is deterministic.  The
    search recurses once per generator; too many generators for the
    interpreter's stack raise CapExceeded.
    """
    require_recursion_depth(len(gens), "extension search over %d generators" % len(gens))
    candidate_set = set(candidates)
    order = {p: perm_order(p) for p in (*gens, *candidates)}

    def rec(
        i: int, pairs: list[tuple[Perm, Perm]], hom: dict[Perm, Perm]
    ) -> Iterator[dict[Perm, Perm]]:
        if i == len(gens):
            yield hom
            return
        g = gens[i]
        forced = hom.get(g)
        if forced is not None:
            if forced in candidate_set:
                yield from rec(i + 1, pairs, hom)
            return
        for u in candidates:
            if order[g] % order[u]:
                continue
            pairs2 = pairs + [(g, u)]
            hom2 = extend_hom(pairs2, domain_degree, image_degree)
            if hom2 is not None:
                yield from rec(i + 1, pairs2, hom2)

    start = extend_hom([], domain_degree, image_degree)
    assert start is not None
    yield from rec(0, [], start)


def enumerate_group_homs(src: PermGroup, tgt: PermGroup) -> list[dict[Perm, Perm]]:
    """All group homomorphisms src -> tgt, as explicit mapping dicts, by
    assigning images of the generators in the target's canonical order;
    images whose order does not divide the generator's are not tried."""
    gens = list(dict.fromkeys(src.generators))
    out = []
    for hom in _extension_search(gens, tgt.sorted_elements(), src.degree, tgt.degree):
        assert set(hom) == src.elements
        out.append(hom)
    return out


def enumerate_surj_morphisms(src: GenPair, tgt: GenPair) -> list[SurjMorphism]:
    """All SurjMorphisms src -> tgt, by assigning images of omega and extending.

    A homomorphism is pinned down by its values on omega since omega
    generates; each consistent assignment inside the target omega is kept
    when the restriction covers all of it.  Only images whose order divides
    the generator's are tried, which leaves the output and its order as
    they would be without that cut.
    """
    pos = tgt.omega_position
    out = []
    for hom in _extension_search(list(src.omega), list(tgt.omega), src.degree, tgt.degree):
        images = tuple([pos[hom[w]] for w in src.omega])
        if len(set(images)) != len(pos):
            continue
        assert set(hom) == src.group.elements
        out.append(SurjMorphism(src, tgt, images))
    return out


def enumerate_star_morphisms(src: GenPair, tgt: GenPair) -> list[StarMorphism]:
    """All StarMorphisms src -> tgt, in canonical order, duplicate free.

    sigma = (proj on gamma)^-1 is an isomorphism of conjugation quandles
    from the source omega onto gamma, so its values on a quandle generating
    set Q fix it.  Q grows with the search: its next member is the first
    point sigma does not reach yet, most moved points first, since those
    pin the most.  Each branch sends it to an unused target omega member and
    extends sigma by sigma(x |> y) = sigma(x) |> sigma(y); it dies when such
    a conjugate leaves the target omega, clashes with sigma or repeats one
    of its values.  A complete sigma is kept when its values on Q extend to
    a homomorphism, which then agrees with sigma^-1 on all of gamma.  The
    output is sorted by gamma's positions in the target omega, then by the
    source positions of proj's values in gamma order.  A source omega not
    closed under its own conjugation has no morphisms.  Trying more than
    SUBSET_CAP assignments, or a Q deeper than the interpreter's stack
    allows, raises CapExceeded.
    """
    omega, lam = src.omega, tgt.omega
    k, m = len(omega), len(lam)
    if k > m:
        return []
    pos, lam_pos = src.omega_position, tgt.omega_position
    table = [[pos.get(conjugate(x, y)) for y in omega] for x in omega]
    if any(None in row for row in table):
        return []
    order = sorted(range(k), key=lambda i: sum(a == b for a, b in enumerate(omega[i])))
    target_table: dict[tuple[int, int], int] = {}  # -1: the conjugate leaves omega
    sigma, preimage = [-1] * k, [-1] * m
    assigned: list[int] = []
    found: list[tuple[tuple[list[int], list[int]], StarMorphism]] = []
    tried = 0

    def assign(q: int, a: int) -> bool:
        # sigma(q) = a, then each ordered pair of assigned points is checked
        # once, when the later of the two is reached; x |> x = x needs none
        sigma[q], preimage[a] = a, q
        assigned.append(q)
        i = len(assigned) - 1
        while i < len(assigned):
            x = assigned[i]
            for y in assigned[:i]:
                for u, v in ((x, y), (y, x)):
                    su, sv = sigma[u], sigma[v]
                    c = target_table.get((su, sv))
                    if c is None:
                        c = target_table[su, sv] = lam_pos.get(conjugate(lam[su], lam[sv]), -1)
                    z = table[u][v]
                    if c >= 0 and sigma[z] == -1 and preimage[c] == -1:
                        sigma[z], preimage[c] = c, z
                        assigned.append(z)
                    elif c < 0 or sigma[z] != c:
                        return False
            i += 1
        return True

    def search(gens: list[int]) -> None:
        nonlocal tried
        if len(assigned) == k:
            pairs = [(lam[sigma[q]], omega[q]) for q in gens]
            hom = extend_hom(pairs, tgt.degree, src.degree)
            if hom is not None:
                assert all(hom[lam[sigma[x]]] == omega[x] for x in range(k))
                gamma = sorted(sigma)
                key = (gamma, [preimage[a] for a in gamma])
                found.append((key, StarMorphism(src, tgt, {sigma[x]: x for x in range(k)})))
            return
        depth = len(gens) + 1
        require_recursion_depth(depth, "star morphism search over %d generators" % depth)
        q = next(x for x in order if sigma[x] == -1)
        mark = len(assigned)
        for a in range(m):
            if preimage[a] != -1:
                continue
            tried += 1
            if tried > SUBSET_CAP:
                raise CapExceeded(
                    "star morphism search tried more than subset_cap=%d"
                    " assignments" % SUBSET_CAP
                )
            if assign(q, a):
                search(gens + [q])
            for x in assigned[mark:]:
                preimage[sigma[x]] = sigma[x] = -1
            del assigned[mark:]

    search([])
    found.sort(key=lambda item: item[0])
    return [mor for _, mor in found]


def genpair_to_text(pair: GenPair) -> str:
    """Canonical file form: a group block, then omega as element indices.

    Indices refer to the group's sorted element order, so the line is stable
    no matter how the group block itself is written.
    """
    lines = group_to_lines(pair.group)
    lines.append("omega " + " ".join(str(pair.group.element_index(w)) for w in pair.omega))
    return "\n".join(lines) + "\n"


def genpair_from_text(text: str, cap: int = DEFAULT_CAP) -> GenPair:
    lines = []
    for raw in text.splitlines():
        body = raw.partition("#")[0].strip()
        if body:
            lines.append(body)
    if not lines or not lines[-1].startswith("omega"):
        raise ValueError("genpair text must end with an 'omega <indices>' line")
    group = group_from_lines(lines[:-1], cap=cap)
    order = group.sorted_elements()
    toks = lines[-1].split()[1:]
    if not toks:
        raise ValueError("omega line lists no indices")
    idxs = [int(tok) for tok in toks]
    for i in idxs:
        if not 0 <= i < len(order):
            raise ValueError("omega index %d out of range for group of order %d" % (i, len(order)))
    return make_genpair(group, [order[i] for i in idxs])
