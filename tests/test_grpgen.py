import itertools
import sys

import pytest

from quandlekit import (
    CapExceeded,
    PermGroup,
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
    symmetric_group,
)
from quandlekit import SurjMorphism, conjugation_quandle, is_faithful
from quandlekit.perm import RECURSION_MARGIN, all_transpositions

from helpers import brute_force_star_morphisms, extends_to_hom, iso_class_representatives


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
    from quandlekit import SurjMorphism

    p9, p3 = refl_pair(9), refl_pair(3)
    mapping = {w: p3.group.identity for w in p9.omega}
    clauses = check_surj_morphism(SurjMorphism(p9, p3, mapping))
    assert any("omega" in c for c in clauses)


def test_morphism_checks_accept_exactly_the_bijections_that_extend():
    # every bijection of R5's five reflections, as the values of a surj
    # morphism and of a star morphism on them; the 20 affine ones extend to
    # automorphisms of D5 and the other 100 extend to no homomorphism
    p = refl_pair(5)
    accepted = 0
    for images in itertools.permutations(p.omega):
        extends = extends_to_hom(p.omega, images) is not None
        values = dict(zip(p.omega, images))
        surj = check_surj_morphism(SurjMorphism(p, p, values))
        star = check_star_morphism(StarMorphism(p, p, p.group, p.omega, values))
        assert (surj == []) == extends and (star == []) == extends, (surj, star)
        if not extends:
            assert [line.split(":")[0] for line in surj + star] == ["homomorphism"] * 2
        accepted += extends
    assert accepted == 20


def test_enumerate_surj_morphisms_r9_to_r3():
    p9, p3 = refl_pair(9), refl_pair(3)
    ms = enumerate_surj_morphisms(p9, p3)
    assert len(ms) > 0
    for m in ms:
        assert check_surj_morphism(m) == []
        assert not m.is_injective()
    # no surjection the other way: the image would be too small
    assert enumerate_surj_morphisms(p3, p9) == []


def test_compose_surj():
    p9, p3 = refl_pair(9), refl_pair(3)
    ms = enumerate_surj_morphisms(p9, p3)
    ident9, ident3 = identity_surj(p9), identity_surj(p3)
    for m in ms[:3]:
        assert compose_surj(m, ident9) == m
        assert compose_surj(ident3, m) == m


def test_compositions_raise_runtime_error_on_invalid_inputs():
    # a value that is not one of the outer morphism's generators, or a
    # projection with no value at a member of its subset, means an input
    # was not valid: RuntimeError, which verify_equivalence records
    p = refl_pair(3)
    ident = identity_surj(p)
    off = SurjMorphism(p, p, {**ident.mapping, p.omega[0]: p.group.identity})
    with pytest.raises(RuntimeError, match="leaves the outer"):
        compose_surj(ident, off)
    star = identity_star(p)
    missing = StarMorphism(p, p, p.group, p.omega, {w: w for w in p.omega[1:]})
    for m2, m1 in ((star, missing), (missing, star)):
        with pytest.raises(RuntimeError, match="no value"):
            compose_star(m2, m1)


def test_star_identity_and_check():
    p = refl_pair(3)
    ident = identity_star(p)
    assert check_star_morphism(ident) == []
    assert is_star_isomorphism(ident)


def test_star_check_rejects_unstable_gamma():
    p3, p9 = refl_pair(3), refl_pair(9)
    refl = dihedral_reflections(9)
    gamma = (refl[0], refl[1], refl[2])  # conjugation closure fails: 2*1-2 = 0 but 2*2-1 = 3
    h = close_group(list(gamma))
    m = StarMorphism(p3, p9, h, gamma, {g: p3.group.identity for g in gamma})
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
    iso = StarMorphism(
        p9, p9, p9.group, p9.omega, {w: compose(compose(rinv, w), r) for w in p9.omega}
    )
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
        inv = SurjMorphism(p3, p3, {v: k for k, v in m.mapping.items()})
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
    h = close_group(list(gamma))
    proj = {g: g[:3] for g in gamma}
    for omega in (s6.sorted_elements(),
                  [p for p in s6.sorted_elements() if p != s6.identity]):
        tgt = make_genpair(s6, omega)
        m = StarMorphism(src, tgt, h, gamma, proj)
        assert check_star_morphism(m) == []
        assert len(m.domain_group) == 18
        assert not m.proj_is_injective()
        assert not is_star_isomorphism(m)


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
        fast = enumerate_star_morphisms(src, tgt)
        assert len({m.key() for m in fast}) == len(fast)
        assert {star_graph(m) for m in fast} == brute_force_star_morphisms(src, tgt)
        seen += len(fast)
    assert seen > 0


def test_star_enumeration_matches_brute_force_on_unstable_omegas():
    # omegas that are not conjugation-stable, so conjugates leave omega and
    # the enumerator's conjugate memo holds None entries
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
        fast = enumerate_star_morphisms(src, tgt)
        assert len({m.key() for m in fast}) == len(fast)
        assert {star_graph(m) for m in fast} == brute_force_star_morphisms(src, tgt)
        seen += len(fast)
    assert seen > 0


def test_star_enumeration_subset_cap_counts_subsets_tried():
    # C(27, 9) = 4 686 825 subsets exceed the default cap of 1 000 000, but
    # the pruned search tries far fewer: 27 * phi(9) = 162 morphisms
    assert len(enumerate_star_morphisms(inn(dihedral(9)), inn(dihedral(27)))) == 162
    with pytest.raises(CapExceeded, match="subset_cap=5"):
        enumerate_star_morphisms(refl_pair(3), refl_pair(9), subset_cap=5)


def test_make_genpair_closes_only_when_omega_misses_a_generator(monkeypatch):
    import quandlekit.grpgen as grpgen

    closures = []

    def counting_close_group(gens, cap):
        closures.append(len(gens))
        return close_group(gens, cap=cap)

    monkeypatch.setattr(grpgen, "close_group", counting_close_group)
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

    h = m.domain_omega[0]
    other = next(x for x in p3.group.sorted_elements() if x != m.proj[h])
    bad_proj = StarMorphism(p3, p9, m.domain_group, m.domain_omega, {**m.proj, h: other})
    s3 = dihedral_group(3)
    bad_source = StarMorphism(
        make_genpair(s3, [x for x in s3.sorted_elements() if x != s3.identity]),
        p9,
        m.domain_group,
        m.domain_omega,
        m.proj,
    )
    # a target with another omega, which leaves out the subset
    rotation = tuple((i + 1) % 9 for i in range(9))
    outside = next(x for x in dihedral_reflections(9) if x not in m.domain_omega)
    tgt = make_genpair(dihedral_group(9), [rotation, outside])
    bad_target = StarMorphism(p3, tgt, m.domain_group, m.domain_omega, m.proj)

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
    h = close_group(list(gamma))
    m = StarMorphism(p3, p9, h, gamma, {g: p3.group.identity for g in gamma})
    first = check_star_morphism(m)
    assert first
    assert check_star_morphism(m) == first


def test_star_check_reports_a_domain_group_that_gamma_does_not_generate():
    # the domain group lists {e} and gamma only, which is not closed, so the
    # closure of gamma outgrows it; the check reports that, it does not raise
    p3, p9 = inn(dihedral(3)), inn(dihedral(9))
    m = enumerate_star_morphisms(p3, p9)[0]
    elements = frozenset(m.domain_omega) | {p9.group.identity}
    domain = PermGroup(p9.degree, m.domain_omega, elements)
    bad = StarMorphism(p3, p9, domain, m.domain_omega, m.proj)
    report = check_star_morphism(bad)
    assert any(line.startswith("generation:") for line in report), report


def test_extension_searches_refuse_to_overflow_the_stack(monkeypatch):
    p3, p9 = refl_pair(3), refl_pair(9)
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: RECURSION_MARGIN + 5)
    with pytest.raises(CapExceeded, match="recursion limit"):
        enumerate_surj_morphisms(p9, p3)  # 9 generators
    with pytest.raises(CapExceeded, match="recursion limit"):
        enumerate_star_morphisms(p3, p9)  # 3-subsets, then 3 generators
    assert len(enumerate_surj_morphisms(p3, p3)) == 6
