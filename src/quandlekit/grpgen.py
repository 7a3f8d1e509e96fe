"""Groups with a distinguished generating subset, and their two morphism flavors.

A GenPair is a permutation group together with a subset omega that generates
it.  Two kinds of structure-preserving maps between pairs show up:

* SurjMorphism: a group homomorphism carrying omega onto omega.
* StarMorphism: a backwards-partial map.  It consists of a
  conjugation-stable subset gamma of the target's omega, plus a projection
  homomorphism from the subgroup gamma generates onto the source whose
  restriction to gamma is a bijection onto the source omega.

Both are fixed by omega positions, one per source omega member.  A
SurjMorphism is fixed by its values on the source omega and stores each as
its target omega position.  A StarMorphism's projection restricts to a
bijection gamma -> source omega, whose inverse sigma fixes it just as well;
it stores sigma as the target omega position of each source omega member's
lift, and gamma is the set of those positions.  So both flavors are the
same tuple: composition chains it the same way, the identity is
range(len(omega)), key() is the tuple, and the backward functor reads it
off, since point i of the conjugation quandle on omega is omega member i.
The values as permutations are read-only views (SurjMorphism.mapping,
StarMorphism.proj), derived on first read.  Permutations enter through
make_surj_morphism and make_star_morphism, which refuse what the positions
cannot hold, and the checks read them: each extends every value to a
homomorphism of the group when they extend at all.  The extension is
split in two, as extend_hom runs it: trace_closure closes the domain
side once, multiplying only by the members that earlier ones do not
generate and recording every step, and replay_closure runs those steps
on the values alone, comparing the values on the rest.  The pair keeps
the trace (GenPair.closure_trace): the source pair one per omega, the
target pair one per sorted gamma.  A star morphism keeps the projection
its check extended, as source element indices aligned with its trace
(pi_indices), for star-homs to read; the trace also gives the order of
the subgroup gamma generates, which domain_group closes on first use.
Star morphisms compose back to front: the new subset is the part of the
outer morphism's subset that projects into the inner one's, and the new
projection is the chain of the two on it; in sigma that is the same
chain as for surjective morphisms.

Both enumerators are one search over sigma, _sigma_search.  A surjective
morphism's values on omega are a homomorphism of conjugation quandles from
the source omega onto the target omega, and a star morphism's sigma is an
isomorphism of conjugation quandles from the source omega onto gamma.
So the search is the quandle hom search, perm.table_homs as
homs.enumerate_homs runs it, on the pairs' conjugation tables: it
branches on a quandle generating set of the source omega and propagates
the rest; the two flavors differ only in whether values may repeat and
which way element orders divide.  Each complete sigma is kept when the flavor's own check,
check_surj_morphism or check_star_morphism, accepts it, so that check is
the one place a group-side morphism is validated.  No subset of the
target omega is searched.  The search and the checks read
conjugates of omega members from GenPair.conj_table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .perm import (
    DEFAULT_CAP,
    Perm,
    PermGroup,
    close_group,
    compose,
    centralizer_of_subset_is_trivial,
    ConjugationTable,
    conjugation_stable_under,
    generator_blocks,
    group_from_lines,
    group_to_lines,
    identity,
    integers,
    perm_order,
    require_recursion_depth,
    table_homs,
)

# Assignments one _sigma_search may try before it gives up.
SUBSET_CAP = 1_000_000


@dataclass(eq=False)
class GenPair:
    """A permutation group with a distinguished generating subset omega.

    omega is kept in canonical (lexicographic) order.  The constructor
    trusts its arguments; make_genpair validates outside input.
    conj_table is omega's ConjugationTable, the one place omega members are
    conjugated by one another; conj_stable records whether omega is closed
    under conjugation by the whole group; faithful records whether only the
    identity centralizes all of omega; omega_position maps each omega
    member to its index.  All are computed on first use.  closure_trace
    keeps the trace of each sequence of omega positions it is asked for,
    so every check that extends from the same members shares one.
    Whoever builds the pair (inn, genpair_from_text, close_group) bounds
    its group by a cap; a subgroup closed inside it takes no cap of its
    own.
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
    def conj_table(self) -> ConjugationTable:
        return ConjugationTable(self.omega)

    @cached_property
    def conj_stable(self) -> bool:
        return conjugation_stable_under(self.group.generators, self.omega)

    @cached_property
    def faithful(self) -> bool:
        return centralizer_of_subset_is_trivial(self.group, self.omega)

    @cached_property
    def omega_position(self) -> dict[Perm, int]:
        return {w: i for i, w in enumerate(self.omega)}

    @cached_property
    def _traces(self) -> dict[tuple[int, ...], ClosureTrace]:
        return {}

    def closure_trace(self, positions: tuple[int, ...]) -> ClosureTrace:
        """trace_closure of the omega members at positions, in that order,
        traced on the first request and kept on the pair."""
        trace = self._traces.get(positions)
        if trace is None:
            omega = self.omega
            trace = self._traces[positions] = trace_closure([omega[i] for i in positions], self.degree)
        return trace


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


@dataclass
class _PositionMorphism:
    """A morphism between pairs stored as images: one target omega position
    per source omega member.  Two are equal when they are of one flavor
    (the dataclass __eq__ compares only instances of one class) and their
    pairs and positions agree; key() is the positions."""

    source: GenPair
    target: GenPair
    images: tuple[int, ...]

    def key(self) -> tuple[int, ...]:
        """Hashable canonical form: the positions themselves."""
        return self.images

    @classmethod
    def identity(cls, pair: GenPair):
        """The identity morphism of pair, in the flavor cls: every position
        to itself."""
        return cls(pair, pair, tuple(range(len(pair.omega))))


class SurjMorphism(_PositionMorphism):
    """A group homomorphism between pairs whose restriction maps omega onto
    omega, stored as images: its values on the source omega, which fix it,
    as target omega positions.  images[i] is the position in target.omega
    of the value at source.omega[i].  mapping is the same values as
    permutations, source omega member to target omega member, derived on
    first read.  make_surj_morphism builds one from permutations."""

    @cached_property
    def mapping(self) -> Mapping[Perm, Perm]:
        lam = self.target.omega
        return MappingProxyType({w: lam[a] for w, a in zip(self.source.omega, self.images)})

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


identity_surj = SurjMorphism.identity


def _chain(m2: _PositionMorphism, m1: _PositionMorphism) -> tuple[int, ...]:
    """The positions of m1 then m2, in either flavor: each of m1's target
    positions read through m2.  A position that m2 has no value at raises
    RuntimeError: the inputs were not valid morphisms."""
    if m1.target != m2.source:
        raise ValueError("morphisms are not composable")
    outer = m2.images
    try:
        return tuple([outer[i] for i in m1.images])
    except IndexError:
        raise RuntimeError("a value of the inner morphism leaves the outer one's omega") from None


def compose_surj(m2: SurjMorphism, m1: SurjMorphism) -> SurjMorphism:
    """Composite of m1 then m2 (written back to front, like functions): the
    positions chained by _chain, which raises RuntimeError on a position
    m2 has no value at."""
    return SurjMorphism(m1.source, m2.target, _chain(m2, m1))


def check_surj_morphism(m: SurjMorphism) -> list[str]:
    """Report of violated clauses; empty means the morphism is valid: there
    is a position for each source omega member, each names a target omega
    member, and those values extend to a homomorphism and cover the target
    omega.  Every value on omega is replayed (replay_closure) on the
    source pair's trace of its omega in order, so the source group is
    traced once per pair and each check composes only on the target side.
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
    trace = src.closure_trace(tuple(range(len(src.omega))))
    if replay_closure(trace, [lam[a] for a in m.images], tgt.degree) is None:
        report.append("homomorphism: the values on omega do not extend to a homomorphism")
        return report
    if len(set(m.images)) != len(lam):
        report.append("omega surjectivity: restriction does not cover target omega")
    return report


class StarMorphism(_PositionMorphism):
    """A backwards-partial morphism between pairs.

    Its projection is a homomorphism from the subgroup that gamma, a
    conjugation-stable subset of the target omega, generates onto the
    source group, whose values on gamma are a bijection gamma -> source
    omega.  Those values fix it, and so does their inverse sigma, which is
    stored as images: images[i] is the target omega position of the member
    of gamma that the projection sends to source.omega[i].  gamma is
    set(images), so it is not stored.  proj is the projection's values as
    permutations, domain_omega lists gamma in canonical order, and
    domain_group is the subgroup it generates, and pi_indices the
    projection on it as element indices; all four are derived on first
    read.  domain_trace numbers that subgroup without closing it: the
    target pair keeps one trace per sorted gamma, shared by every morphism
    with that gamma.  domain_group lies inside the target group, so a
    closure bounded by that group's order never raises.
    make_star_morphism builds one from the projection's values.
    """

    @cached_property
    def proj(self) -> Mapping[Perm, Perm]:
        lam = self.target.omega
        return MappingProxyType({lam[a]: w for w, a in zip(self.source.omega, self.images)})

    @cached_property
    def domain_omega(self) -> tuple[Perm, ...]:
        lam = self.target.omega
        return tuple([lam[a] for a in sorted(set(self.images))])

    @cached_property
    def domain_group(self) -> PermGroup:
        return close_group(self.domain_omega, cap=len(self.target.group))

    @property
    def domain_trace(self) -> ClosureTrace:
        """The target pair's closure trace of sigma's positions in sorted
        order: its elements are the subgroup gamma generates."""
        return self.target.closure_trace(tuple(sorted(self.images)))

    @cached_property
    def pi_indices(self) -> tuple[int, ...] | None:
        """The projection on the whole subgroup gamma generates, as source
        group indices (PermGroup.element_index) aligned with
        domain_trace.elements; None when its values extend to no
        homomorphism.  Each entry of sigma is replayed (replay_closure) on
        domain_trace, with its source omega member as the value, so a
        repeated position, which the projection would send to two values,
        extends to nothing.  Defined once every position names a target
        omega member and sigma is no longer than the source omega:
        check_star_morphism tests both before it reads this, and star-homs
        --json reads the map the check built.  Indices, not permutations,
        are kept, so a morphism holds one integer per subgroup element once
        checked.
        """
        images, omega = self.images, self.source.omega
        order = sorted(range(len(images)), key=images.__getitem__)
        values = replay_closure(self.domain_trace, [omega[i] for i in order], self.source.degree)
        if values is None:
            return None
        spos = self.source.group.element_index
        return tuple([spos(v) for v in values])

    def proj_is_injective(self) -> bool:
        """For a valid morphism: proj maps onto the group the source omega
        generates, so it is injective exactly when the orders agree.  No
        group is closed."""
        return len(self.domain_trace.elements) == len(self.source.group)


def make_star_morphism(
    source: GenPair, target: GenPair, proj: Mapping[Perm, Perm]
) -> StarMorphism:
    """The StarMorphism whose projection has the given values on gamma,
    the set of proj's keys.

    Values sigma cannot hold are refused with a ValueError carrying the
    clause for that defect: "gamma: empty subset" for no values, "gamma:"
    for a key outside the target omega, "homomorphism:" for a value
    outside the source group, "bijectivity:" for one outside the source
    omega and for values that are no bijection onto the source omega.  An
    unstable gamma and values that do not extend to a homomorphism are
    left to check_star_morphism.
    """
    lam_pos, pos = target.omega_position, source.omega_position
    if not proj:
        raise ValueError("gamma: empty subset")
    if not all(g in lam_pos for g in proj):
        raise ValueError("gamma: subset is not contained in the target omega")
    if not all(v in pos for v in proj.values()):
        if not set(proj.values()) <= source.group.elements:
            raise ValueError("homomorphism: proj image leaves the source group")
        raise ValueError("bijectivity: proj carries the subset outside the source omega")
    sigma = {pos[v]: lam_pos[g] for g, v in proj.items()}
    if len(sigma) != len(proj) or len(sigma) != len(pos):
        raise ValueError("bijectivity: proj is not a bijection subset -> source omega")
    return StarMorphism(source, target, tuple([sigma[i] for i in range(len(pos))]))


identity_star = StarMorphism.identity


def check_star_morphism(m: StarMorphism) -> list[str]:
    """Report of violated clauses, tagged by which requirement failed; empty
    means the morphism is valid: gamma, the set of sigma's positions, is a
    conjugation-stable subset of the target omega, and the projection,
    sigma's inverse, is a bijection gamma -> source omega that extends to a
    homomorphism.  A position that names no target omega member is outside
    the target omega; an entry past the end of the source omega (a longer
    sigma) is a value outside the source omega, and a shorter sigma misses
    part of it.

    No group is closed.  One perm.generator_blocks pass over gamma's
    entries of the target's conj_table, at most 2 * |generators| * |gamma|
    of them, gives its stability (under the subgroup gamma generates,
    which is stability under generators of gamma).  Whether the values
    extend is read from StarMorphism.pi_indices, which replays every entry
    of sigma on the target pair's trace of gamma, so a repeated position
    extends to nothing and the target group is traced once per gamma; the
    map it builds stays on the morphism for star-homs --json.
    """
    report: list[str] = []
    tgt, src = m.target, m.source
    lam, omega = tgt.omega, src.omega
    sigma = m.images
    if not sigma:
        report.append("gamma: empty subset")
        return report
    if not all(0 <= a < len(lam) for a in sigma):
        report.append("gamma: subset is not contained in the target omega")
        return report
    if not generator_blocks(tgt.conj_table, sorted(sigma))[1]:
        report.append("stability: subset is not conjugation-stable in the domain group")
    if len(sigma) > len(omega):
        report.append("bijectivity: proj carries the subset outside the source omega")
        return report
    if m.pi_indices is None:
        report.append("homomorphism: the values on the subset do not extend to a homomorphism")
        return report
    if len(sigma) != len(omega):
        report.append("bijectivity: proj is not a bijection subset -> source omega")
    return report


def compose_star(m2: StarMorphism, m1: StarMorphism) -> StarMorphism:
    """Composite of m1 then m2 (written back to front, like functions).

    sigma chains forwards as a surjective morphism's positions do: each
    source omega member's lift into m1's gamma, lifted again through m2.
    So the composite subset is the part of m2's subset projecting into
    m1's, and its projection is the chain of the two; no group is closed.
    A position m2 has no value at raises RuntimeError, as in compose_surj.
    The result is built, not checked: check_star_morphism checks it.
    """
    return StarMorphism(m1.source, m2.target, _chain(m2, m1))


def is_star_isomorphism(m: StarMorphism) -> bool:
    """True when a valid m is invertible: its subset is the whole target
    omega, so its domain is the whole target group, and proj is injective,
    so the two groups have the same order.  No group is closed."""
    return len(m.images) == len(m.target.omega) and len(m.source.group) == len(m.target.group)


class ClosureTrace(NamedTuple):
    """The closure of a sequence of generators, as trace_closure runs it.

    elements lists the group in the order it is reached, the identity
    first.  steps lists, in loop order, one (x, j, y) per product
    elements[x] * generators[j] (x >= 0) and one (-1, j, y) per generator
    j the closure already held, y being the index of the element reached;
    y is a new element exactly when it equals the number reached before.
    """

    elements: tuple[Perm, ...]
    steps: tuple[tuple[int, int, int], ...]


def trace_closure(generators: Iterable[Perm], degree: int) -> ClosureTrace:
    """The group the generators generate, closed one generator at a time,
    with every step recorded for replay_closure.

    A generator the closure already holds is recorded and not multiplied.
    Any other becomes a letter: it multiplies, on the right, the elements
    found so far, and each element found after it is multiplied by every
    letter, so every product (element, letter) is formed once.  The set
    then holds the identity and is closed under right multiplication by
    each letter, so it is the group.  The loop is perm.close_group's,
    which records nothing: a trace holds |group| * letters steps, worth
    keeping only for a group whose generators get many sets of values.
    """
    e = identity(degree)
    index = {e: 0}
    found = [e]
    letters: list[tuple[Perm, int]] = []
    steps: list[tuple[int, int, int]] = []
    for j, g in enumerate(generators):
        y = index.get(g)
        if y is not None:
            steps.append((-1, j, y))
            continue
        letters.append((g, j))
        start = len(found)
        for x, cur in enumerate(found):  # found grows while it is read
            for h, l in letters if x >= start else ((g, j),):
                nxt = compose(cur, h)
                y = index.get(nxt)
                if y is None:
                    y = index[nxt] = len(found)
                    found.append(nxt)
                steps.append((x, l, y))
    return ClosureTrace(tuple(found), tuple(steps))


def replay_closure(trace: ClosureTrace, values: list[Perm], image_degree: int) -> list[Perm] | None:
    """The values at trace.elements of the homomorphism that sends
    generator j of the trace to values[j]; None when there is none.

    Each step is replayed on the values alone: a product's value is the
    value of its element times its letter's value, a new element takes
    it, and any other element, or a generator the closure already held,
    is compared with the value it has.  So every product is checked once
    and every other generator's value compared once: any clash between
    two derivations of one element surfaces.  Without a clash the map
    sends e to e and each x g to f(x) f(g) for every letter g, and every
    element is a positive word in the letters, so it is a homomorphism;
    every generator lies in the group its earlier letters generate, so it
    is the one asked for.  A homomorphism sending each generator to its
    value derives every value the same way, so a clash means there is
    none.  Nothing on the domain side is composed or hashed.
    """
    images = [identity(image_degree)]
    for x, j, y in trace.steps:
        fy = values[j] if x < 0 else compose(images[x], values[j])
        if y == len(images):
            images.append(fy)
        elif images[y] != fy:
            return None
    return images


def extend_hom(
    pairs: Iterable[tuple[Perm, Perm]], domain_degree: int, image_degree: int
) -> dict[Perm, Perm] | None:
    """The homomorphism of the group the first entries generate that sends
    each to its second entry, as a dict over that group; None when there is
    none: trace_closure of the first entries, then replay_closure of the
    second.  The checks keep the trace on the pair and replay it alone.
    """
    pairs = list(pairs)
    trace = trace_closure([g for g, _ in pairs], domain_degree)
    images = replay_closure(trace, [u for _, u in pairs], image_degree)
    return None if images is None else dict(zip(trace.elements, images))


def enumerate_group_homs(src: PermGroup, tgt: PermGroup) -> list[dict[Perm, Perm]]:
    """All group homomorphisms src -> tgt, as explicit mapping dicts, by
    assigning images of the generators in the target's canonical order.

    A generator already forced by earlier assignments (it lies in the
    subgroup they generate) is not branched over.  An image u is tried for
    a generator g only when the order of u divides that of g: a
    homomorphism sends g^ord(g) = e to u^ord(g) = e, so the extension
    would reject every other u.  Each candidate is extended as extend_hom
    does, but the trace depends only on the generators branched over so
    far, which the domain alone decides, so each level is traced once and
    replayed per candidate.  The search recurses once per generator; too
    many generators for the interpreter's stack raise CapExceeded.
    """
    gens = list(dict.fromkeys(src.generators))
    require_recursion_depth(len(gens), "extension search over %d generators" % len(gens))
    candidates = tgt.sorted_elements()
    order = {p: perm_order(p) for p in (*gens, *candidates)}
    traces: dict[int, ClosureTrace] = {}
    out: list[dict[Perm, Perm]] = []

    def rec(i: int, branched: list[Perm], values: list[Perm], hom: dict[Perm, Perm]) -> None:
        if i == len(gens):
            assert set(hom) == src.elements
            out.append(hom)
            return
        g = gens[i]
        if g in hom:
            rec(i + 1, branched, values, hom)
            return
        if i not in traces:
            traces[i] = trace_closure(branched + [g], src.degree)
        trace = traces[i]
        for u in candidates:
            if order[g] % order[u]:
                continue
            images = replay_closure(trace, values + [u], tgt.degree)
            if images is not None:
                rec(i + 1, branched + [g], values + [u], dict(zip(trace.elements, images)))

    rec(0, [], [], {identity(src.degree): identity(tgt.degree)})
    return out


def _sigma_search(src: GenPair, tgt: GenPair, injective: bool) -> list[_PositionMorphism]:
    """Every morphism src -> tgt, surjective (injective False) or star
    (True), found as its sigma: one target omega position per source omega
    member.

    sigma is a homomorphism of conjugation quandles from the source omega
    onto the target omega (surjective), or an isomorphism onto its image
    gamma (star), so perm.table_homs finds it on the pairs' conj_tables,
    branching on perm.generator_blocks of the source omega taken most
    moved points first, since those pin the most.  A generator q is sent
    only to a target omega member a whose order ord(a) divides ord(q)
    (surjective: g^n = e carries to sigma(g)^n = e) or is divided by it
    (star: the projection sends a to q).  A source conjugate outside the
    source omega constrains nothing, and a branch dies where the
    conjugate of its values leaves the target omega.  Only the instances
    in a generator's row or column are checked when the source table has
    no -1 entry (the stable flag of generator_blocks), which table_homs'
    lemma shows is enough; otherwise every instance is.

    A complete sigma is kept exactly when the flavor's own check,
    check_surj_morphism or check_star_morphism, accepts it, so every
    morphism returned has passed that check once.  The check extends from
    all of sigma's values (star: its inverse's), which is the definition of
    a valid morphism.  Every valid morphism's sigma reaches a leaf: it
    preserves |>, divides orders as above and repeats no more values than
    the flavor allows (surjective: k - m of k to cover m, star: none), so
    no branch it lies on dies.

    Surjective output is sorted by sigma; star output by gamma's
    positions, then by the source positions of the projection's values in
    gamma order.  A smaller source omega has no surjective morphism, and a
    larger one, or one not closed under its own conjugation, no star
    morphism.  Trying more than SUBSET_CAP assignments (generator values
    that pass the repeat prunes), or more generators than the interpreter's
    stack allows, raises CapExceeded.
    """
    omega, lam = src.omega, tgt.omega
    k, m = len(omega), len(lam)
    if k > m if injective else k < m:
        return []
    table = src.conj_table
    moved = sorted(range(k), key=lambda i: sum(a == b for a, b in enumerate(omega[i])))
    blocks, closed = generator_blocks(table, moved)
    if injective and not closed:
        return []
    word = "star" if injective else "surjective"
    require_recursion_depth(len(blocks), "%s morphism search over %d generators" % (word, len(blocks)))
    flavor = StarMorphism if injective else SurjMorphism
    check = check_star_morphism if injective else check_surj_morphism
    tgt_order = [perm_order(w) for w in lam]
    values = [
        [a for a in range(m) if not (tgt_order[a] % oq if injective else oq % tgt_order[a])]
        for oq in (perm_order(omega[g]) for g, _ in blocks)
    ]
    found: list[_PositionMorphism] = []

    def leaf(sigma: tuple[int, ...]) -> None:
        mor = flavor(src, tgt, sigma)
        if not check(mor):
            found.append(mor)

    refusal = "%s morphism search tried more than subset_cap=%d assignments" % (word, SUBSET_CAP)
    table_homs(
        table, blocks, tgt.conj_table, values, leaf,
        injective=injective, surjective=not injective, every=not closed, cap=(SUBSET_CAP, refusal),
    )
    rank = (lambda s: (sorted(s), sorted(range(k), key=s.__getitem__))) if injective else tuple
    return sorted(found, key=lambda f: rank(f.images))


def enumerate_surj_morphisms(src: GenPair, tgt: GenPair) -> list[SurjMorphism]:
    """All SurjMorphisms src -> tgt, sorted by their images: _sigma_search
    with repeated values allowed."""
    return _sigma_search(src, tgt, False)


def enumerate_star_morphisms(src: GenPair, tgt: GenPair) -> list[StarMorphism]:
    """All StarMorphisms src -> tgt, in canonical order, duplicate free:
    _sigma_search with every value used once."""
    return _sigma_search(src, tgt, True)


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
    idxs = integers(toks, lines[-1], "'omega <indices>'")
    for i in idxs:
        if not 0 <= i < len(order):
            raise ValueError("omega index %d out of range for group of order %d" % (i, len(order)))
    return make_genpair(group, [order[i] for i in idxs])
