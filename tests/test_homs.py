import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    QuandleHom,
    check_hom,
    check_star_morphism,
    check_surj_morphism,
    compose_homs,
    conjugation_quandle,
    dihedral,
    enumerate_group_homs,
    enumerate_homs,
    homs_to_dict,
    identity_hom,
    induced_injective,
    induced_surjective,
    inn,
    subquandle_closure,
    symmetric_group,
    trivial_quandle,
)
from quandlekit.quandle import is_faithful

from helpers import brute_force_homs, hom_mappings, iso_class_representatives


def test_hom_validation():
    r3 = dihedral(3)
    with pytest.raises(ValueError):
        QuandleHom(r3, r3, (0, 1))
    with pytest.raises(ValueError):
        QuandleHom(r3, r3, (0, 1, 3))


def test_check_hom_reports_failing_pairs():
    r3 = dihedral(3)
    f = QuandleHom(r3, r3, (0, 0, 1))
    bad = check_hom(f)
    assert bad
    x, y = bad[0]
    assert r3.table[f.mapping[x]][f.mapping[y]] != f.mapping[r3.table[x][y]]


def test_identity_and_composition():
    r3 = dihedral(3)
    r9 = dihedral(9)
    ident = identity_hom(r3)
    assert check_hom(ident) == []
    f = enumerate_homs(r3, r9, "injective")[0]
    assert compose_homs(f, ident).mapping == f.mapping
    g = enumerate_homs(r9, r9, "all")[0]
    comp = compose_homs(g, f)
    assert check_hom(comp) == []
    with pytest.raises(ValueError):
        compose_homs(f, g)


def test_constant_maps_are_homs():
    r3 = dihedral(3)
    for c in range(3):
        assert check_hom(QuandleHom(r3, r3, (c, c, c))) == []


def test_enumerate_r3_to_r3():
    r3 = dihedral(3)
    all_maps = enumerate_homs(r3, r3, "all")
    assert len(all_maps) == 9  # 3 constants + 6 bijections
    assert len(enumerate_homs(r3, r3, "injective")) == 6
    assert len(enumerate_homs(r3, r3, "surjective")) == 6


def test_enumerate_modes_nest():
    r3, r9 = dihedral(3), dihedral(9)
    inj = hom_mappings(enumerate_homs(r3, r9, "injective"))
    allm = hom_mappings(enumerate_homs(r3, r9, "all"))
    assert set(inj) <= set(allm)
    assert enumerate_homs(r9, r3, "injective") == []
    with pytest.raises(ValueError):
        enumerate_homs(r3, r9, "bijective")


def test_enumeration_matches_brute_force_on_census():
    reps = []
    for n in range(1, 4):
        reps.extend(iso_class_representatives(n))
    for q1 in reps:
        for q2 in reps:
            for mode in ("all", "injective", "surjective"):
                fast = hom_mappings(enumerate_homs(q1, q2, mode))
                slow = sorted(brute_force_homs(q1, q2, mode))
                assert fast == slow


def test_trivial_quandle_hom_count():
    # between trivial quandles every map is a homomorphism
    t2, t3 = trivial_quandle(2), trivial_quandle(3)
    assert len(enumerate_homs(t2, t3, "all")) == 9
    assert len(enumerate_homs(t3, t2, "all")) == 8
    assert len(enumerate_homs(t3, t2, "surjective")) == 6


def test_homs_to_dict():
    r3, r9 = dihedral(3), dihedral(9)
    homs = enumerate_homs(r3, r9, "injective")
    d = homs_to_dict(r3, r9, "injective", homs)
    assert d["source_n"] == 3 and d["target_n"] == 9
    assert d["mode"] == "injective"
    assert d["count"] == 18 and len(d["homs"]) == 18
    assert d["homs"][0] == [0, 3, 6]


def test_induced_surjective_r9_to_r3():
    r9, r3 = dihedral(9), dihedral(3)
    # reduction mod 3 is a surjective quandle map
    f = QuandleHom(r9, r3, tuple(k % 3 for k in range(9)))
    assert check_hom(f) == []
    m = induced_surjective(f)
    assert check_surj_morphism(m) == []
    assert len(m.source.group) == 18 and len(m.target.group) == 6
    assert not m.is_injective()


def test_induced_surjective_identity_and_automorphism():
    r3 = dihedral(3)
    m = induced_surjective(identity_hom(r3))
    assert len(m.source.group) == 6
    assert all(m.mapping[g] == g for g in m.source.group.elements)
    # negation is a quandle automorphism of R9 and lifts to the symmetry
    # relabeling s_x -> s_{-x} on the inner group
    r9 = dihedral(9)
    f = QuandleHom(r9, r9, tuple(-x % 9 for x in range(9)))
    assert check_hom(f) == []
    m = induced_surjective(f)
    assert check_surj_morphism(m) == [] and m.is_injective()
    for x in range(9):
        assert m.mapping[r9.table[x]] == r9.table[-x % 9]


def test_induced_surjective_rejects_non_surjective():
    r3, r9 = dihedral(3), dihedral(9)
    f = enumerate_homs(r3, r9, "injective")[0]
    with pytest.raises(ValueError):
        induced_surjective(f)


def test_induced_injective_r3_to_r9():
    r3, r9 = dihedral(3), dihedral(9)
    for f in enumerate_homs(r3, r9, "injective"):
        m = induced_injective(f)
        assert check_star_morphism(m) == []
        assert len(m.domain_group) == 6
        assert len(m.domain_omega) == 3
        assert m.proj_is_injective()


def test_induced_injective_rejects_non_injective():
    r9, r3 = dihedral(9), dihedral(3)
    f = QuandleHom(r9, r3, tuple(k % 3 for k in range(9)))
    with pytest.raises(ValueError):
        induced_injective(f)


def test_induced_maps_reject_unfaithful_ends():
    t2 = trivial_quandle(2)
    ident = identity_hom(t2)
    with pytest.raises(ValueError):
        induced_surjective(ident)
    with pytest.raises(ValueError):
        induced_injective(ident)


def test_inner_order_divides_along_injections():
    r3, r9 = dihedral(3), dihedral(9)
    a, b = len(inn(r3).group), len(inn(r9).group)
    assert enumerate_homs(r3, r9, "injective")
    assert b % a == 0


def test_parity_map_image_is_not_faithful():
    # the composite through the sign map lands on a two-point trivial
    # subquandle, so faithfulness is not inherited by images
    g = symmetric_group(3)
    cq = conjugation_quandle(g, g.sorted_elements())
    pts = g.sorted_elements()

    def parity(p):
        return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2

    even = pts.index((0, 1, 2))
    odd = pts.index((1, 0, 2))
    f = QuandleHom(cq, cq, tuple(even if parity(p) == 0 else odd for p in pts))
    assert check_hom(f) == []
    assert is_faithful(cq)
    image = subquandle_closure(cq, set(f.mapping)).as_quandle()
    assert image.n == 2
    assert image.table == trivial_quandle(2).table
    assert not is_faithful(image)


def test_no_group_hom_covers_the_point_inclusion():
    # the inclusion of the one-point quandle into R3 is an injective quandle
    # map, but no group homomorphism of inner groups commutes with it: the
    # trivial symmetry would have to land on a nontrivial flip
    t1, r3 = trivial_quandle(1), dihedral(3)
    f = QuandleHom(t1, r3, (0,))
    assert check_hom(f) == []
    p1, p3 = inn(t1), inn(r3)
    homs = enumerate_group_homs(p1.group, p3.group)
    assert len(homs) == 1  # only the trivial one exists
    required_image = r3.table[0]  # s at the image point
    assert all(h[p1.group.identity] != required_image for h in homs)


@given(st.integers(min_value=3, max_value=9).filter(lambda n: n % 2 == 1))
@settings(max_examples=10, deadline=None)
def test_dihedral_automorphisms_count(n):
    # odd dihedral quandles have n rotations times the units of Z/n
    from math import gcd

    units = sum(1 for k in range(1, n) if gcd(k, n) == 1)
    auts = [
        f
        for f in enumerate_homs(dihedral(n), dihedral(n), "injective")
        if f.is_surjective()
    ]
    assert len(auts) == n * units
