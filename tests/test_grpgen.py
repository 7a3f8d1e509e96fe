import itertools
import sys

import pytest

from quandlekit import (
    CapExceeded,
    StarMorphism,
    check_star_morphism,
    check_surj_morphism,
    close_group,
    compose,
    compose_star,
    compose_surj,
    cyclic_group,
    dihedral,
    dihedral_group,
    dihedral_reflections,
    enumerate_group_homs,
    enumerate_star_morphisms,
    enumerate_surj_morphisms,
    extend_hom,
    genpair_from_text,
    genpair_to_text,
    identity_star,
    identity_surj,
    inn,
    inverse,
    is_star_isomorphism,
    make_genpair,
    make_star_morphism,
    make_surj_morphism,
    symmetric_group,
)
from quandlekit import SurjMorphism, conjugation_quandle, grpgen, is_faithful
from quandlekit.perm import RECURSION_MARGIN, all_transpositions

from helpers import (
    brute_force_star_morphisms,
    brute_force_surj_morphisms,
    conjugation_stable,
    extends_to_hom,
    iso_class_representatives,
)


def refl_pair(n):
    return make_genpair(dihedral_group(n), dihedral_reflections(n))


def proj_on_domain(m):
    """The projection of a star morphism on its whole domain group."""
    return extend_hom(m.proj.items(), m.target.degree, m.source.degree)


def star_graph(m):
    """A star morphism as (domain elements, subset, projection on the
    domain), the form brute_force_star_morphisms lists."""
    return m.domain_group.elements, frozenset(m.domain_omega), frozenset(proj_on_domain(m).items())


def test_make_genpair_validation():
    g = symmetric_group(3)
    with pytest.raises(ValueError):
        make_genpair(g, [])
    with pytest.raises(ValueError):
        make_genpair(g, [(0, 1, 2, 3)])
    with pytest.raises(ValueError):
        make_genpair(g, [(1, 2, 0)])  # generates only the rotations
    p = make_genpair(g, g.sorted_elements())
    assert p.conj_stable and p.faithful
    assert p.omega == tuple(g.sorted_elements())


def test_genpair_flags():
    p = refl_pair(9)
    assert p.conj_stable and p.faithful
    # adding the rotation keeps generation but conjugation-stability fails
    r = (1, 2, 3, 4, 5, 6, 7, 8, 0)
    q = make_genpair(dihedral_group(9), list(dihedral_reflections(9)) + [r])
    assert not q.conj_stable
    # abelian: conjugation fixes everything, so stability is free and the
    # conjugation action cannot separate group elements
    c = make_genpair(cyclic_group(3), [(1, 2, 0)])
    assert c.conj_stable and not c.faithful
    t = make_genpair(symmetric_group(3), all_transpositions(3))
    assert t.conj_stable and t.faithful


def test_genpair_equality():
    a = refl_pair(3)
    b = make_genpair(dihedral_group(3), list(reversed(dihedral_reflections(3))))
    assert a == b
    assert a != refl_pair(5)


def test_inn_matches_dihedral_realization():
    # the inner pair of the odd dihedral quandle is the dihedral group with
    # its reflections
    for n in (3, 5, 9):
        assert inn(dihedral(n)) == refl_pair(n)


def test_surj_morphism_check_and_identity():
    p = refl_pair(3)
    ident = identity_surj(p)
    assert check_surj_morphism(ident) == [] and ident.is_injective()


def test_surj_morphism_rejects_broken_maps():
    # values off the target omega: the constructor from values refuses the
    # identity, and the check reports a position past the target omega
    p9, p3 = refl_pair(9), refl_pair(3)
    mapping = {w: p3.group.identity for w in p9.omega}
    with pytest.raises(ValueError, match="omega containment: image of omega leaves the target omega"):
        make_surj_morphism(p9, p3, mapping)
    clauses = check_surj_morphism(SurjMorphism(p9, p3, (len(p3.omega),) * len(p9.omega)))
    assert clauses == ["omega containment: image of omega leaves the target omega"]


def test_constructors_from_values_refuse_what_positions_cannot_hold():
    # each value the omega positions cannot hold is refused with the clause
    # the check names it by; every other value is stored as positions
    p3, p9 = refl_pair(3), refl_pair(9)
    e3, r9 = p3.group.identity, p9.omega[0]
    for mapping, clause in (
        ({p3.omega[0]: p3.omega[0]}, "totality: mapping domain differs from the source omega"),
        ({**identity_surj(p3).mapping, (0, 1, 2, 3): e3}, "totality: mapping domain differs"),
        ({w: r9 for w in p3.omega}, "containment: some image lies outside the target group"),
        ({w: e3 for w in p3.omega}, "omega containment: image of omega leaves the target omega"),
    ):
        with pytest.raises(ValueError, match="^" + clause):
            make_surj_morphism(p3, p3, mapping)
    for proj, clause in (
        ({p9.group.identity: p3.omega[0]}, "gamma: subset is not contained in the target omega"),
        ({r9: r9}, "homomorphism: proj image leaves the source group"),
        ({r9: e3}, "bijectivity: proj carries the subset outside the source omega"),
    ):
        with pytest.raises(ValueError, match="^" + clause + "$"):
            make_star_morphism(p3, p9, proj)
    # an empty projection is held, and the check reports it
    assert check_star_morphism(make_star_morphism(p3, p9, {})) == ["gamma: empty subset"]
    for m in enumerate_surj_morphisms(p9, p3) + enumerate_surj_morphisms(p3, p3):
        assert make_surj_morphism(m.source, m.target, m.mapping) == m
    for m in enumerate_star_morphisms(p3, p9) + enumerate_star_morphisms(p3, p3):
        assert make_star_morphism(m.source, m.target, m.proj) == m


def test_checks_report_positions_outside_omega():
    # the clauses the positions can still break: a missing or surplus
    # position and one that names no omega member, checked before values
    # that extend to no homomorphism or miss part of the target omega
    p3, p9 = refl_pair(3), refl_pair(9)
    for images, clause in (
        ((0, 1), "totality: mapping domain differs from the source omega"),
        ((0, 1, 2, 0), "totality: mapping domain differs from the source omega"),
        ((0, 1, 3), "omega containment: image of omega leaves the target omega"),
        ((0, 1, -1), "omega containment: image of omega leaves the target omega"),
        ((0, 0, 1), "homomorphism: the values on omega do not extend to a homomorphism"),
        ((0, 0, 0), "omega surjectivity: restriction does not cover target omega"),
    ):
        assert check_surj_morphism(SurjMorphism(p3, p3, images)) == [clause]
    m = enumerate_star_morphisms(p3, p9)[0]
    a = min(m.images)
    for images, clause in (
        ({**m.images, 9: 0}, "gamma: subset is not contained in the target omega"),
        ({**m.images, -1: 0}, "gamma: subset is not contained in the target omega"),
        ({**m.images, a: 3}, "bijectivity: proj carries the subset outside the source omega"),
        ({**m.images, a: -1}, "bijectivity: proj carries the subset outside the source omega"),
    ):
        assert check_star_morphism(StarMorphism(p3, p9, images)) == [clause]


def test_permutation_views_are_derived_read_only_and_keys_are_positions():
    p3, p9 = refl_pair(3), refl_pair(9)
    surj = enumerate_surj_morphisms(p9, p3)[0]
    assert surj.mapping == {w: p3.omega[a] for w, a in zip(p9.omega, surj.images)}
    assert surj.mapping is surj.mapping and surj.key() == surj.images
    star = enumerate_star_morphisms(p3, p9)[0]
    assert star.proj == {p9.omega[a]: p3.omega[i] for a, i in star.images.items()}
    assert star.proj is star.proj and star.key() == frozenset(star.images.items())
    assert star.domain_omega == tuple(p9.omega[a] for a in sorted(star.images))
    for view in (surj.mapping, star.proj):
        with pytest.raises(TypeError):
            view[next(iter(view))] = p3.group.identity
    assert identity_surj(p3).images == (0, 1, 2)
    assert identity_star(p3).images == {0: 0, 1: 1, 2: 2}


def test_morphism_checks_accept_exactly_the_bijections_that_extend():
    # every bijection of R5's five reflections, as the values of a surj
    # morphism and of a star morphism on them; the 20 affine ones extend to
    # automorphisms of D5 and the other 100 extend to no homomorphism
    p = refl_pair(5)
    accepted = 0
    for images in itertools.permutations(p.omega):
        extends = extends_to_hom(p.omega, images) is not None
        values = dict(zip(p.omega, images))
        surj = check_surj_morphism(make_surj_morphism(p, p, values))
        star = check_star_morphism(make_star_morphism(p, p, values))
        assert (surj == []) == extends and (star == []) == extends, (surj, star)
        if not extends:
            assert [line.split(":")[0] for line in surj + star] == ["homomorphism"] * 2
        accepted += extends
    assert accepted == 20


def census_pairs():
    """Inner pairs of the faithful quandles of order <= 4, then R5's."""
    quandles = [q for n in range(1, 5) for q in iso_class_representatives(n) if is_faithful(q)]
    return [inn(q) for q in quandles] + [inn(dihedral(5))]


def clause_tags(report):
    return [line.split(":")[0] for line in report]


def test_surj_check_extends_exactly_when_the_oracle_does():
    # every map of one omega into another, bijective or not: the check
    # extends from a quandle generating set of the source omega and compares
    # on the rest, which must agree with extending from all of omega
    pairs = census_pairs()
    assert any(len(p.omega_basis) < len(p.omega) for p in pairs)
    seen = rejected = 0
    for src, tgt in itertools.product(pairs, repeat=2):
        for images in itertools.product(tgt.omega, repeat=len(src.omega)):
            report = check_surj_morphism(make_surj_morphism(src, tgt, dict(zip(src.omega, images))))
            extends = extends_to_hom(src.omega, images) is not None
            assert ("homomorphism" in clause_tags(report)) != extends, (src.omega, images, report)
            seen += 1
            rejected += not extends
    assert seen > rejected > 0


def test_star_check_extends_exactly_when_the_oracle_does():
    # every map of a subset gamma of the target omega, stable or not, into
    # the source omega, bijective or not; the stability clause agrees with
    # conjugation by the whole group gamma generates
    s3 = symmetric_group(3)
    targets = [inn(dihedral(5)), inn(dihedral(9)), inn(conjugation_quandle(s3, s3.sorted_elements()))]
    src = inn(dihedral(3))
    stable_seen = unstable_seen = rejected = 0
    for tgt in targets:
        for size in range(1, len(src.omega) + 1):
            for gamma in itertools.combinations(tgt.omega, size):
                stable = conjugation_stable(gamma)
                for images in itertools.product(src.omega, repeat=size):
                    report = check_star_morphism(make_star_morphism(src, tgt, dict(zip(gamma, images))))
                    tags = clause_tags(report)
                    extends = extends_to_hom(gamma, images) is not None
                    assert ("homomorphism" in tags) != extends, (gamma, images, report)
                    assert ("stability" in tags) != stable, (gamma, report)
                    rejected += not extends
                stable_seen += stable
                unstable_seen += not stable
    assert stable_seen and unstable_seen and rejected


def test_surj_enumeration_matches_the_ordered_brute_force():
    # the order prune cuts only branches extend_hom would reject, so the
    # list and its order are those of filtering every map in lexicographic
    # order; R3 <-> the tetrahedral quandle (order 2 against order 3) is
    # pruned whole
    seen = 0
    for src, tgt in itertools.product(census_pairs(), repeat=2):
        fast = [tuple(m.mapping[w] for w in src.omega) for m in enumerate_surj_morphisms(src, tgt)]
        assert fast == brute_force_surj_morphisms(src, tgt), (src.omega, tgt.omega)
        seen += len(fast)
    assert seen > 0


def test_enumerate_surj_morphisms_r9_to_r3():
    p9, p3 = refl_pair(9), refl_pair(3)
    ms = enumerate_surj_morphisms(p9, p3)
    assert len(ms) > 0
    for m in ms:
        assert check_surj_morphism(m) == []
        assert not m.is_injective()
    # no surjection the other way: the image would be too small
    assert enumerate_surj_morphisms(p3, p9) == []


def test_surj_enumeration_counts_before_it_searches(monkeypatch):
    # images must cover the target omega, so a smaller source omega has no
    # surjective morphism and the extension search is not entered
    s4, s5, s3 = symmetric_group(4), symmetric_group(5), symmetric_group(3)
    searches = []
    real = grpgen._extension_search
    monkeypatch.setattr(grpgen, "_extension_search", lambda *a: searches.append(a) or real(*a))
    c4 = inn(conjugation_quandle(s4, s4.sorted_elements()))
    c5 = inn(conjugation_quandle(s5, s5.sorted_elements()))
    assert enumerate_surj_morphisms(c4, c5) == []
    assert searches == []
    small = [refl_pair(3), refl_pair(5), inn(conjugation_quandle(s3, s3.sorted_elements()))]
    for src, tgt in itertools.combinations(small, 2):
        assert len(src.omega) < len(tgt.omega)
        assert enumerate_surj_morphisms(src, tgt) == brute_force_surj_morphisms(src, tgt) == []
    assert searches == []
    assert enumerate_surj_morphisms(small[0], small[0])
    assert len(searches) == 1


def test_compose_surj():
    p9, p3 = refl_pair(9), refl_pair(3)
    ms = enumerate_surj_morphisms(p9, p3)
    ident9, ident3 = identity_surj(p9), identity_surj(p3)
    for m in ms[:3]:
        assert compose_surj(m, ident9) == m
        assert compose_surj(ident3, m) == m


def test_compositions_raise_runtime_error_on_invalid_inputs():
    # a value that is not one of the outer morphism's generators (here a
    # position past its omega) means an input was not valid: RuntimeError,
    # which verify_equivalence records
    p = refl_pair(3)
    ident = identity_surj(p)
    off = SurjMorphism(p, p, (len(p.omega),) + ident.images[1:])
    with pytest.raises(RuntimeError, match="leaves the outer"):
        compose_surj(ident, off)


def test_star_identity_and_check():
    p = refl_pair(3)
    ident = identity_star(p)
    assert check_star_morphism(ident) == []
    assert is_star_isomorphism(ident)


def test_star_check_rejects_unstable_gamma():
    p3, p9 = refl_pair(3), refl_pair(9)
    refl = dihedral_reflections(9)
    gamma = (refl[0], refl[1], refl[2])  # conjugation closure fails: 2*1-2 = 0 but 2*2-1 = 3
    m = StarMorphism(p3, p9, {p9.omega_position[g]: 0 for g in gamma})
    clauses = check_star_morphism(m)
    assert any("stab" in c or "conj" in c for c in clauses)


def test_enumerate_star_morphisms_headline():
    p3, p9 = refl_pair(3), refl_pair(9)
    ms = enumerate_star_morphisms(p3, p9)
    assert len(ms) == 18
    subgroups = {frozenset(m.domain_group.elements) for m in ms}
    assert len(subgroups) == 3
    assert all(len(s) == 6 for s in subgroups)
    assert all(len(m.domain_omega) == 3 for m in ms)
    for m in ms:
        assert check_star_morphism(m) == []
    # gamma classes collect the three exponent residues mod 3
    expos = sorted({tuple(sorted(p[0] % 3 for p in m.domain_omega)) for m in ms})
    assert expos == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]


def test_enumerate_star_morphisms_endo():
    p3 = refl_pair(3)
    ms = enumerate_star_morphisms(p3, p3)
    assert len(ms) == 6
    assert all(is_star_isomorphism(m) for m in ms)


def test_enumerate_star_no_morphisms_on_size_mismatch():
    p9, p3 = refl_pair(9), refl_pair(3)
    assert enumerate_star_morphisms(p9, p3) == []


def test_star_composition_and_units():
    p3, p9 = refl_pair(3), refl_pair(9)
    ms = enumerate_star_morphisms(p3, p9)
    ident3, ident9 = identity_star(p3), identity_star(p9)
    for m in ms[:6]:
        assert compose_star(m, ident3) == m
        assert compose_star(ident9, m) == m


def test_star_composition_associative():
    p3, p9 = refl_pair(3), refl_pair(9)
    endos = enumerate_star_morphisms(p3, p3)
    outers = enumerate_star_morphisms(p3, p9)
    seen = 0
    for m1, m2, m3 in itertools.islice(
        itertools.product(endos, endos, outers), 30
    ):
        left = compose_star(compose_star(m3, m2), m1)
        right = compose_star(m3, compose_star(m2, m1))
        assert left == right
        seen += 1
    assert seen == 30


def test_star_composition_chains_projections():
    p3, p9 = refl_pair(3), refl_pair(9)
    m = enumerate_star_morphisms(p3, p9)[0]
    comp = compose_star(m, identity_star(p3))
    assert comp.proj == m.proj
    full, m_full = proj_on_domain(comp), proj_on_domain(m)
    for g in comp.domain_group.elements:
        assert full[g] == m_full[g]


def test_star_composition_with_isomorphism_transports_structure():
    # postcomposing with an isomorphism pulls (H, gamma) back through the
    # underlying group map and chains the projections
    p3, p9 = refl_pair(3), refl_pair(9)
    phi0 = enumerate_star_morphisms(p3, p9)[0]
    r = tuple((i + 1) % 9 for i in range(9))
    rinv = inverse(r)
    iso = make_star_morphism(p9, p9, {w: compose(compose(rinv, w), r) for w in p9.omega})
    assert check_star_morphism(iso) == []
    assert is_star_isomorphism(iso)
    comp = compose_star(iso, phi0)
    assert check_star_morphism(comp) == []
    proj = proj_on_domain(iso)
    assert proj == {h: compose(compose(rinv, h), r) for h in p9.group.elements}
    h1 = set(phi0.domain_group.elements)
    gamma1 = set(phi0.domain_omega)
    assert set(comp.domain_group.elements) == {g for g in proj if proj[g] in h1}
    assert set(comp.domain_omega) == {g for g in proj if proj[g] in gamma1}
    comp_full, phi0_full = proj_on_domain(comp), proj_on_domain(phi0)
    for g in comp.domain_group.elements:
        assert comp_full[g] == phi0_full[proj[g]]


def test_bijective_surj_morphisms_have_explicit_inverses():
    p3 = refl_pair(3)
    endos = enumerate_surj_morphisms(p3, p3)
    # omega generates, so an endomorphism covering omega is an automorphism
    assert endos and all(m.is_injective() for m in endos)
    for m in endos:
        inv = make_surj_morphism(p3, p3, {v: k for k, v in m.mapping.items()})
        assert check_surj_morphism(inv) == [] and inv.is_injective()
        assert compose_surj(inv, m) == identity_surj(p3)
        assert compose_surj(m, inv) == identity_surj(p3)
    # a strictly smaller target leaves no room for an inverse
    down = enumerate_surj_morphisms(refl_pair(9), p3)
    assert down and all(not m.is_injective() for m in down)


def test_non_injective_projection_star_morphism():
    # a subgroup of the 6-point symmetric group built from transpositions on
    # one block times a 3-cycle on the other; projecting away the second
    # block is a valid backwards-partial morphism with non-injective pi
    s6 = symmetric_group(6)
    t3 = all_transpositions(3)
    cycle = (0, 1, 2, 4, 5, 3)
    gamma = tuple(sorted(compose(tuple(p) + (3, 4, 5), cycle) for p in t3))
    src = make_genpair(symmetric_group(3), t3)
    proj = {g: g[:3] for g in gamma}
    for omega in (s6.sorted_elements(),
                  [p for p in s6.sorted_elements() if p != s6.identity]):
        tgt = make_genpair(s6, omega)
        m = make_star_morphism(src, tgt, proj)
        assert check_star_morphism(m) == []
        assert len(m.domain_group) == 18
        assert not m.proj_is_injective()
        assert not is_star_isomorphism(m)


def lists_brute_force(src, tgt):
    """Assert that the enumerator lists brute_force_star_morphisms in
    canonical order: by gamma's positions in the target omega, then by the
    source positions of the projection's values in gamma order.  Returns
    the number of morphisms."""

    def canonical(graph):
        proj = dict(graph[2])
        gamma = sorted(tgt.omega_position[g] for g in graph[1])
        return gamma, [src.omega_position[proj[tgt.omega[a]]] for a in gamma]

    fast = [star_graph(m) for m in enumerate_star_morphisms(src, tgt)]
    assert fast == sorted(brute_force_star_morphisms(src, tgt), key=canonical)
    return len(fast)


def test_star_enumeration_matches_brute_force():
    # every ordered pair of inner pairs of the faithful quandles of order
    # <= 4 and of conj:s3; and R3 -> R9, whose unstable 3-subsets of
    # reflections (such as the first three) admit projections onto R3's
    s3 = symmetric_group(3)
    quandles = [q for n in range(1, 5) for q in iso_class_representatives(n) if is_faithful(q)]
    quandles.append(conjugation_quandle(s3, s3.sorted_elements()))
    pairs = [inn(q) for q in quandles]
    seen = 0
    for src, tgt in [*itertools.product(pairs, repeat=2), (inn(dihedral(3)), inn(dihedral(9)))]:
        seen += lists_brute_force(src, tgt)
    assert seen > 0


def test_star_enumeration_conj_s4_into_conj_s5():
    # 5 copies of S4 in S5, each with 24 automorphisms of its conjugation
    # quandle, among C(120, 24) subsets of the target omega
    s4, s5 = symmetric_group(4), symmetric_group(5)
    src = inn(conjugation_quandle(s4, s4.sorted_elements()))
    tgt = inn(conjugation_quandle(s5, s5.sorted_elements()))
    ms = enumerate_star_morphisms(src, tgt)
    assert len(ms) == 120 and len({m.key() for m in ms}) == 120
    assert len({frozenset(m.proj) for m in ms}) == 5
    assert all(check_star_morphism(m) == [] for m in ms)


def test_star_enumeration_matches_brute_force_on_unstable_omegas():
    # omegas that are not conjugation-stable, so conjugates leave omega:
    # an unstable source has no morphisms, and on an unstable target a
    # branch dies where a conjugate of assigned points leaves it
    s3, s4 = symmetric_group(3), symmetric_group(4)
    t3 = all_transpositions(3)
    swap = (1, 0)
    rot4 = tuple((i + 1) % 4 for i in range(4))
    pairs = [
        make_genpair(cyclic_group(2), [swap]),
        make_genpair(s3, t3[:2]),
        make_genpair(s3, t3),
        make_genpair(s3, [t3[0], (1, 2, 0)]),
        make_genpair(s4, [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]),
        make_genpair(dihedral_group(4), [rot4, dihedral_reflections(4)[0]]),
    ]
    assert not all(p.conj_stable for p in pairs)
    seen = 0
    for src, tgt in itertools.product(pairs, repeat=2):
        seen += lists_brute_force(src, tgt)
    assert seen > 0


def test_star_enumeration_subset_cap_counts_assignments_tried(monkeypatch):
    # C(27, 9) = 4 686 825 subsets of the target omega exceed SUBSET_CAP,
    # but the search assigns only the 2 members of a quandle generating
    # set of R9: at most 27 * 26 assignments for 27 * phi(9) = 162 morphisms
    assert len(enumerate_star_morphisms(inn(dihedral(9)), inn(dihedral(27)))) == 162
    monkeypatch.setattr(grpgen, "SUBSET_CAP", 5)
    with pytest.raises(CapExceeded, match="subset_cap=5"):
        enumerate_star_morphisms(refl_pair(3), refl_pair(9))


def counted_closures(monkeypatch):
    """Arguments of every close_group call grpgen makes from now on."""
    import quandlekit.grpgen as grpgen

    calls = []
    real = grpgen.close_group
    monkeypatch.setattr(grpgen, "close_group", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_make_genpair_closes_only_when_omega_misses_a_generator(monkeypatch):
    closures = counted_closures(monkeypatch)
    s3 = symmetric_group(3)
    make_genpair(s3, s3.generators)
    make_genpair(s3, [*s3.generators, all_transpositions(3)[1]])
    make_genpair(s3, s3.sorted_elements())
    assert closures == []
    make_genpair(dihedral_group(9), dihedral_reflections(9))
    assert len(closures) == 1
    with pytest.raises(ValueError, match="does not generate"):
        make_genpair(s3, [s3.generators[0]])
    with pytest.raises(ValueError, match="does not generate"):
        make_genpair(s3, [s3.generators[1]])
    assert len(closures) == 3


def test_star_isomorphism_test_closes_no_group(monkeypatch):
    # the isomorphism test compares omegas and group orders, so on
    # identities and etas of every way of building a pair it closes nothing
    from quandlekit import eta_star, to_pair, to_quandle

    s3 = symmetric_group(3)
    pairs = [
        inn(dihedral(9)),
        inn(conjugation_quandle(s3, all_transpositions(3))),
        make_genpair(s3, s3.sorted_elements()),
        refl_pair(9),
        genpair_from_text("dihedral 9\nomega 1 2 4 6 8 10 12 14 17\n"),
    ]
    round_trips = [to_pair(to_quandle(p)) for p in pairs]
    calls = counted_closures(monkeypatch)
    for p, rt in zip(pairs, round_trips):
        assert is_star_isomorphism(identity_star(p))
        assert is_star_isomorphism(eta_star(p, rt))
    assert calls == []
    # the domain group is closed on first read, once
    ident = identity_star(pairs[0])
    assert ident.domain_group == pairs[0].group and ident.domain_group is ident.domain_group
    assert len(calls) == 1


def test_star_check_and_composition_close_no_group(monkeypatch):
    p3, p9 = refl_pair(3), refl_pair(9)
    ms = enumerate_star_morphisms(p3, p9)
    endos = enumerate_star_morphisms(p3, p3)
    bad = StarMorphism(p3, p9, {p9.omega_position[g]: 0 for g in dihedral_reflections(9)[:3]})
    calls = counted_closures(monkeypatch)
    comps = [compose_star(m, e) for m in ms for e in endos]
    comps += [compose_star(identity_star(p9), m) for m in ms]
    assert all(check_star_morphism(m) == [] for m in ms + endos + comps)
    assert check_star_morphism(bad)
    assert calls == []


def test_enumerate_group_homs_counts():
    c3 = cyclic_group(3)
    c2 = cyclic_group(2)
    assert len(enumerate_group_homs(c3, c3)) == 3
    assert len(enumerate_group_homs(c2, c3)) == 1
    s3 = symmetric_group(3)
    # endomorphisms of S3: 1 trivial + 3 sign-like + 6 inner = 10
    assert len(enumerate_group_homs(s3, s3)) == 10


def test_genpair_text_round_trip():
    p = refl_pair(9)
    text = genpair_to_text(p)
    back = genpair_from_text(text)
    assert back == p
    assert back.omega == p.omega
    named = genpair_from_text("dihedral 9\nomega 1 2 4 6 8 10 12 14 17\n")
    assert named == p
    with pytest.raises(ValueError):
        genpair_from_text("dihedral 9\n")
    with pytest.raises(ValueError):
        genpair_from_text("dihedral 9\nomega 99\n")


def test_star_check_reports_each_one_field_variant():
    # copies of a valid morphism that differ from it in one field each get
    # a report naming the clause they break
    p3, p9 = refl_pair(3), refl_pair(9)
    m = enumerate_star_morphisms(p3, p9)[0]
    assert check_star_morphism(m) == []

    # the value at the first member of gamma moved to another source omega
    # position; the identity instead is refused by the constructor from
    # values, since it is no omega member
    h = min(m.images)
    bad_proj = StarMorphism(p3, p9, {**m.images, h: (m.images[h] + 1) % len(p3.omega)})
    with pytest.raises(ValueError, match="bijectivity: proj carries the subset outside the source omega"):
        make_star_morphism(p3, p9, {**m.proj, p9.omega[h]: p3.group.identity})
    s3 = dihedral_group(3)
    bad_source = make_star_morphism(
        make_genpair(s3, [x for x in s3.sorted_elements() if x != s3.identity]), p9, m.proj
    )
    # a target with another omega, which leaves out the subset: its two
    # positions cannot hold three distinct members of gamma, and the
    # constructor from values refuses the subset
    rotation = tuple((i + 1) % 9 for i in range(9))
    outside = next(x for x in dihedral_reflections(9) if x not in m.domain_omega)
    tgt = make_genpair(dihedral_group(9), [rotation, outside])
    bad_target = StarMorphism(p3, tgt, m.images)
    with pytest.raises(ValueError, match="gamma: subset is not contained in the target omega"):
        make_star_morphism(p3, tgt, m.proj)

    for bad, clause in (
        (bad_proj, "homomorphism:"),
        (bad_source, "bijectivity:"),
        (bad_target, "gamma: subset is not contained in the target omega"),
    ):
        report = check_star_morphism(bad)
        assert any(line.startswith(clause) for line in report), report
    assert check_star_morphism(m) == []


def test_star_check_failing_report_is_stable():
    p3, p9 = refl_pair(3), refl_pair(9)
    refl = dihedral_reflections(9)
    gamma = (refl[0], refl[1], refl[2])
    m = StarMorphism(p3, p9, {p9.omega_position[g]: 0 for g in gamma})
    first = check_star_morphism(m)
    assert first
    assert check_star_morphism(m) == first


def test_extension_searches_refuse_to_overflow_the_stack(monkeypatch):
    p3, p9 = refl_pair(3), refl_pair(9)
    # six commuting involutions, the swaps of 2i and 2i + 1: a trivial
    # quandle, whose only quandle generating set is all six
    swaps = [tuple(j ^ 1 if j // 2 == i else j for j in range(12)) for i in range(6)]
    p64 = make_genpair(close_group(swaps), swaps)
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: RECURSION_MARGIN + 5)
    with pytest.raises(CapExceeded, match="recursion limit"):
        enumerate_surj_morphisms(p9, p3)  # 9 generators
    with pytest.raises(CapExceeded, match="recursion limit"):
        enumerate_star_morphisms(p64, p64)  # 6 generators
    assert len(enumerate_surj_morphisms(p3, p3)) == 6
    assert len(enumerate_star_morphisms(p3, p9)) == 18  # 2 generators
