import itertools
import sys

import pytest

from quandlekit import (
    CapExceeded,
    GenPair,
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

from helpers import brute_force_star_morphisms, iso_class_representatives


def refl_pair(n):
    return make_genpair(dihedral_group(n), dihedral_reflections(n))


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
    mapping = {g: p3.group.identity for g in p9.group.elements}
    clauses = check_surj_morphism(SurjMorphism(p9, p3, mapping))
    assert any("omega" in c for c in clauses)


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
    m = StarMorphism(p3, p9, h, gamma, {g: p3.group.identity for g in h.elements})
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
    for g in comp.domain_group.elements:
        assert comp.proj[g] == m.proj[g]


def test_star_composition_with_isomorphism_transports_structure():
    # postcomposing with an isomorphism pulls (H, gamma) back through the
    # underlying group map and chains the projections
    p3, p9 = refl_pair(3), refl_pair(9)
    phi0 = enumerate_star_morphisms(p3, p9)[0]
    r = tuple((i + 1) % 9 for i in range(9))
    rinv = inverse(r)
    proj = {h: compose(compose(rinv, h), r) for h in p9.group.elements}
    iso = StarMorphism(p9, p9, p9.group, p9.omega, proj)
    assert check_star_morphism(iso) == []
    assert is_star_isomorphism(iso)
    comp = compose_star(iso, phi0)
    assert check_star_morphism(comp) == []
    h1 = set(phi0.domain_group.elements)
    gamma1 = set(phi0.domain_omega)
    assert set(comp.domain_group.elements) == {g for g in proj if proj[g] in h1}
    assert set(comp.domain_omega) == {g for g in proj if proj[g] in gamma1}
    for g in comp.domain_group.elements:
        assert comp.proj[g] == phi0.proj[proj[g]]


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
    proj = {g: g[:3] for g in h.elements}
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
        keys = {m.key() for m in fast}
        assert len(keys) == len(fast)
        assert keys == brute_force_star_morphisms(src, tgt)
        seen += len(fast)
    assert seen > 0


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

    h = next(g for g in m.domain_group.elements if g != p9.group.identity)
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
    m = StarMorphism(p3, p9, h, gamma, {g: p3.group.identity for g in h.elements})
    first = check_star_morphism(m)
    assert first
    assert check_star_morphism(m) == first


def test_compose_star_memoised_subgroup_still_honours_cap():
    p3, p9 = refl_pair(3), refl_pair(9)
    m = enumerate_star_morphisms(p3, p9)[0]
    ident3 = identity_star(p3)
    assert compose_star(m, ident3) == m
    assert m.domain_omega in p9._subgroups
    with pytest.raises(CapExceeded) as memo_exc:
        compose_star(m, ident3, cap=5)
    with pytest.raises(CapExceeded) as closure_exc:
        close_group(list(m.domain_omega), cap=5)
    assert str(memo_exc.value) == str(closure_exc.value)
    assert compose_star(m, ident3, cap=6) == m


def test_extension_searches_refuse_to_overflow_the_stack(monkeypatch):
    p3, p9 = refl_pair(3), refl_pair(9)
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: RECURSION_MARGIN + 5)
    with pytest.raises(CapExceeded, match="recursion limit"):
        enumerate_surj_morphisms(p9, p3)  # 9 generators
    with pytest.raises(CapExceeded, match="recursion limit"):
        enumerate_star_morphisms(p3, p9)  # 3-subsets, then 3 generators
    assert len(enumerate_surj_morphisms(p3, p3)) == 6
