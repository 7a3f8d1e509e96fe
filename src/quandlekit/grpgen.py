"""Groups with a distinguished generating subset, and their two morphism flavors.

A GenPair is a permutation group together with a subset omega that generates
it.  Two kinds of structure-preserving maps between pairs show up:

* SurjMorphism: a group homomorphism carrying omega onto omega.
* StarMorphism: a backwards-partial map.  It consists of a
  conjugation-stable subset gamma of the target's omega, plus a projection
  homomorphism from the subgroup gamma generates onto the source whose
  restriction to gamma is a bijection onto the source omega.

Both are stored as their values on the generators (omega, or gamma), which
fix them; extend_hom extends such values to the group.  A star morphism's
gamma is the set of its projection's keys, and the subgroup gamma
generates is derived from it on first use.  Star morphisms compose back to
front: the new subset is the part of the outer morphism's subset that
projects into the inner one's, and the new projection is the chain of the
two on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Iterator

from .perm import (
    DEFAULT_CAP,
    CapExceeded,
    Perm,
    PermGroup,
    close_group,
    compose,
    centralizer_of_subset_is_trivial,
    conjugation_stable_under,
    group_from_lines,
    group_to_lines,
    identity,
    inverse,
    is_conjugation_stable,
    require_recursion_depth,
)


@dataclass(eq=False)
class GenPair:
    """A permutation group with a distinguished generating subset omega.

    omega is kept in canonical (lexicographic) order.  The constructor
    trusts its arguments; make_genpair validates outside input.
    conj_stable records whether omega is closed under conjugation by the
    whole group; faithful records whether only the identity centralizes all
    of omega; omega_position maps each omega member to its index.  All are
    computed on first use.

    _subgroups, keyed by content only, maps a sorted tuple of group
    elements to the subgroup it generates; it starts with omega, which
    generates the group itself, and subgroup() reads and fills it.
    Whoever builds the pair (inn, genpair_from_text, close_group) bounds
    its group by a cap; those subgroups lie inside it and take no cap of
    their own.
    """

    group: PermGroup
    omega: tuple[Perm, ...]
    _subgroups: dict[tuple[Perm, ...], PermGroup] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self._subgroups[self.omega] = self.group

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

    def subgroup(self, gamma: tuple[Perm, ...]) -> PermGroup:
        """The subgroup generated by gamma, a sorted tuple of group elements.

        It is closed on the first request for gamma and remembered.  It lies
        inside the pair's group, so a closure bounded by len(self.group)
        never raises.
        """
        group = self._subgroups.get(gamma)
        if group is None:
            group = self._subgroups[gamma] = close_group(gamma, cap=len(self.group))
        return group


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
    omega, stored as mapping: its values on the source omega, which fix it."""

    source: GenPair
    target: GenPair
    mapping: dict[Perm, Perm]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurjMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def key(self) -> frozenset:
        """Hashable canonical form of the values on omega."""
        return frozenset(self.mapping.items())

    def is_injective(self) -> bool:
        """For a valid morphism: it maps onto the group the target omega
        generates, so it is injective exactly when the orders agree."""
        return len(self.source.group) == len(self.target.group)


def identity_surj(pair: GenPair) -> SurjMorphism:
    return SurjMorphism(pair, pair, {w: w for w in pair.omega})


def compose_surj(m2: SurjMorphism, m1: SurjMorphism) -> SurjMorphism:
    """Composite of m1 then m2.  A value of m1 that is not one of m2's
    generators raises RuntimeError: the inputs were not valid morphisms."""
    if m1.target != m2.source:
        raise ValueError("morphisms are not composable")
    try:
        mapping = {w: m2.mapping[v] for w, v in m1.mapping.items()}
    except KeyError:
        raise RuntimeError("a value of the inner morphism leaves the outer one's omega") from None
    return SurjMorphism(m1.source, m2.target, mapping)


def check_surj_morphism(m: SurjMorphism) -> list[str]:
    """Report of violated clauses; empty means the morphism is valid: its
    values on omega extend to a homomorphism and cover the target omega."""
    report: list[str] = []
    if set(m.mapping) != set(m.source.omega):
        report.append("totality: mapping domain differs from the source omega")
        return report
    if not set(m.mapping.values()) <= m.target.group.elements:
        report.append("containment: some image lies outside the target group")
        return report
    if extend_hom(m.mapping.items(), m.source.degree, m.target.degree) is None:
        report.append("homomorphism: the values on omega do not extend to a homomorphism")
        return report
    omega_images = set(m.mapping.values())
    if not omega_images <= set(m.target.omega):
        report.append("omega containment: image of omega leaves the target omega")
    elif omega_images != set(m.target.omega):
        report.append("omega surjectivity: restriction does not cover target omega")
    return report


@dataclass(eq=False)
class StarMorphism:
    """A backwards-partial morphism between pairs.

    proj holds the values on gamma, a conjugation-stable subset of the
    target omega, of a homomorphism from the subgroup gamma generates onto
    the source group: a bijection gamma -> source omega.  gamma is proj's
    keys, so it is not stored; domain_omega lists it in canonical order,
    and domain_group is the subgroup it generates, read from the target
    pair's subgroup() memo on first use.
    """

    source: GenPair
    target: GenPair
    proj: dict[Perm, Perm]

    @cached_property
    def domain_omega(self) -> tuple[Perm, ...]:
        return tuple(sorted(self.proj))

    @cached_property
    def domain_group(self) -> PermGroup:
        return self.target.subgroup(self.domain_omega)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.proj == other.proj
        )

    def key(self) -> frozenset:
        """Hashable canonical form of the values on gamma."""
        return frozenset(self.proj.items())

    def proj_is_injective(self) -> bool:
        """For a valid morphism: proj maps onto the group the source omega
        generates, so it is injective exactly when the orders agree."""
        return len(self.domain_group) == len(self.source.group)


def identity_star(pair: GenPair) -> StarMorphism:
    return StarMorphism(pair, pair, {w: w for w in pair.omega})


def check_star_morphism(m: StarMorphism) -> list[str]:
    """Report of violated clauses, tagged by which requirement failed; empty
    means the morphism is valid: gamma, the keys of proj, is a
    conjugation-stable subset of the target omega, and proj on it is a
    bijection onto the source omega that extends to a homomorphism.

    No group is closed: stability under the subgroup gamma generates is
    stability under gamma's own members.
    """
    report: list[str] = []
    tgt = m.target
    src = m.source
    gamma = set(m.proj)
    if not gamma:
        report.append("gamma: empty subset")
        return report
    if not gamma <= set(tgt.omega):
        report.append("gamma: subset is not contained in the target omega")
        return report
    if not conjugation_stable_under(gamma, gamma):
        report.append("stability: subset is not conjugation-stable in the domain group")
    if not set(m.proj.values()) <= src.group.elements:
        report.append("homomorphism: proj image leaves the source group")
        return report
    if extend_hom(m.proj.items(), tgt.degree, src.degree) is None:
        report.append("homomorphism: the values on the subset do not extend to a homomorphism")
        return report
    gamma_images = set(m.proj.values())
    if not gamma_images <= set(src.omega):
        report.append("bijectivity: proj carries the subset outside the source omega")
    elif len(gamma_images) != len(gamma) or gamma_images != set(src.omega):
        report.append("bijectivity: proj is not a bijection subset -> source omega")
    return report


def compose_star(m2: StarMorphism, m1: StarMorphism) -> StarMorphism:
    """Composite of m1 then m2 (written back to front, like functions).

    The composite subset is the part of m2's subset projecting into m1's,
    and the composite projection chains the two on it; no group is closed.
    The result is built, not checked: check_star_morphism checks it.  An
    empty composite subset raises RuntimeError, since it means the inputs
    were not valid morphisms.
    """
    if m1.target != m2.source:
        raise ValueError("morphisms are not composable")
    proj = {g: m1.proj[v] for g, v in m2.proj.items() if v in m1.proj}
    if not proj:
        raise RuntimeError("composite subset is empty; inputs were not valid")
    return StarMorphism(m1.source, m2.target, proj)


def is_star_isomorphism(m: StarMorphism) -> bool:
    """True when a valid m is invertible: its subset is the whole target
    omega, so its domain is the whole target group, and proj is injective."""
    return set(m.proj) == set(m.target.omega) and m.proj_is_injective()


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
    injective: bool,
) -> Iterator[dict[Perm, Perm]]:
    """Yield every homomorphism of <gens> sending each generator into candidates.

    Generators already forced by earlier assignments (they lie in the closure
    of the prefix) are not branched over; their forced image must still land
    in the candidate set.  With injective=True distinct generators must get
    distinct images.  Enumeration order follows the candidate list, so the
    output is deterministic.  The search recurses once per generator; too
    many generators for the interpreter's stack raise CapExceeded.
    """
    require_recursion_depth(len(gens), "extension search over %d generators" % len(gens))
    candidate_set = set(candidates)

    def rec(
        i: int,
        pairs: list[tuple[Perm, Perm]],
        hom: dict[Perm, Perm],
        used: frozenset[Perm],
    ) -> Iterator[dict[Perm, Perm]]:
        if i == len(gens):
            yield hom
            return
        g = gens[i]
        forced = hom.get(g)
        if forced is not None:
            if forced not in candidate_set:
                return
            if injective and forced in used:
                return
            yield from rec(i + 1, pairs, hom, used | {forced})
            return
        for u in candidates:
            if injective and u in used:
                continue
            pairs2 = pairs + [(g, u)]
            hom2 = extend_hom(pairs2, domain_degree, image_degree)
            if hom2 is None:
                continue
            yield from rec(i + 1, pairs2, hom2, used | {u})

    start = extend_hom([], domain_degree, image_degree)
    assert start is not None
    yield from rec(0, [], start, frozenset())


def enumerate_group_homs(src: PermGroup, tgt: PermGroup) -> list[dict[Perm, Perm]]:
    """All group homomorphisms src -> tgt, as explicit mapping dicts."""
    gens = list(dict.fromkeys(src.generators))
    out = []
    for hom in _extension_search(
        gens, tgt.sorted_elements(), src.degree, tgt.degree, injective=False
    ):
        assert set(hom) == src.elements
        out.append(hom)
    return out


def enumerate_surj_morphisms(src: GenPair, tgt: GenPair) -> list[SurjMorphism]:
    """All SurjMorphisms src -> tgt, by assigning images of omega and extending.

    A homomorphism is pinned down by its values on omega since omega
    generates; each consistent assignment inside the target omega is kept
    when the restriction covers all of it.
    """
    target_omega = set(tgt.omega)
    out = []
    for hom in _extension_search(
        list(src.omega), list(tgt.omega), src.degree, tgt.degree, injective=False
    ):
        mapping = {w: hom[w] for w in src.omega}
        if set(mapping.values()) != target_omega:
            continue
        assert set(hom) == src.group.elements
        out.append(SurjMorphism(src, tgt, mapping))
    return out


def enumerate_star_morphisms(
    src: GenPair, tgt: GenPair, subset_cap: int = 1_000_000
) -> list[StarMorphism]:
    """All StarMorphisms src -> tgt, in canonical order, duplicate free.

    Candidate subsets of the target omega (of size |source omega|) are grown
    in index order with an incremental conjugation-closure prune, then
    re-verified whole.  Both tests read the position in omega of each
    conjugate w_i w_j w_i^-1 (None when it leaves omega) from a memo keyed
    by the index pair (i, j), filled one entry at a time on first use, so
    no conjugate is computed twice and none is computed unasked.  For each
    surviving subset, every bijection onto the source omega is extended to
    a homomorphism of the generated subgroup by propagation, rejecting on
    any conflict.  Only the values on the subset are kept; the subgroup it
    generates is not closed here.

    subset_cap bounds the candidate subsets the pruned search tries (one
    per prune test); trying more raises CapExceeded.
    """
    k = len(src.omega)
    omega2 = tgt.omega
    m = len(omega2)
    if k > m:
        return []
    # the subset search and the extension search below it each recurse k deep
    require_recursion_depth(2 * k, "star morphism search from an omega of size %d" % k)
    omega2_pos = tgt.omega_position
    inverses: dict[int, Perm] = {}
    conjugates: dict[tuple[int, int], int | None] = {}
    results: list[StarMorphism] = []
    tried = 0

    def conjugate_pos(i: int, j: int) -> int | None:
        """Position of omega2[i] omega2[j] omega2[i]^-1 in omega2, or None."""
        try:
            return conjugates[i, j]
        except KeyError:
            pass
        xi = inverses.get(i)
        if xi is None:
            xi = inverses[i] = inverse(omega2[i])
        pos = conjugates[i, j] = omega2_pos.get(
            compose(compose(omega2[i], omega2[j]), xi)
        )
        return pos

    def viable(chosen: list[int], newest: int) -> bool:
        # A conjugate that is outside omega, or that would have needed an
        # index we already passed, can never be added later.
        for old in chosen:
            for i, j in ((newest, old), (old, newest), (newest, newest)):
                pos = conjugate_pos(i, j)
                if pos is None or (pos < newest and pos not in chosen):
                    return False
        return True

    def grow(chosen: list[int], start: int) -> None:
        nonlocal tried
        if len(chosen) == k:
            for i in chosen:
                for j in chosen:
                    if conjugate_pos(i, j) not in chosen:
                        return
            gamma = [omega2[i] for i in chosen]
            for hom in _extension_search(
                gamma, list(src.omega), tgt.degree, src.degree, injective=True
            ):
                results.append(StarMorphism(src, tgt, {g: hom[g] for g in gamma}))
            return
        for idx in range(start, m - (k - len(chosen)) + 1):
            tried += 1
            if tried > subset_cap:
                raise CapExceeded(
                    "subset search tried more than subset_cap=%d candidate"
                    " subsets" % subset_cap
                )
            if viable(chosen, idx):
                grow(chosen + [idx], idx + 1)

    grow([], 0)
    return results


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
