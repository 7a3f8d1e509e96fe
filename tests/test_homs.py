import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    Quandle,
    QuandleHom,
    check_hom,
    check_star_morphism,
    check_surj_morphism,
    compose_homs,
    compose_star,
    conjugation_quandle,
    dihedral,
    enumerate_group_homs,
    enumerate_homs,
    enumerate_star_morphisms,
    extend_hom,
    homs_to_dict,
    identity_hom,
    identity_star,
    induced_injective,
    induced_surjective,
    inn,
    subquandle_closure,
    symmetric_group,
    trivial_quandle,
)
from quandlekit import grpgen
from quandlekit.quandle import is_faithful

from helpers import brute_force_homs, hom_mappings, induced_by_words, iso_class_representatives


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
    # as ordered lists: the enumerator promises lexicographic order, and the
    # oracle filters itertools.product, which is in that order
    reps = []
    for n in range(1, 5):
        reps.extend(iso_class_representatives(n))
    for q1 in reps:
        for q2 in reps:
            for mode in ("all", "injective", "surjective"):
                fast = [f.mapping for f in enumerate_homs(q1, q2, mode)]
                assert fast == brute_force_homs(q1, q2, mode)


@st.composite
def arbitrary_tables(draw, max_order=4):
    n = draw(st.integers(min_value=1, max_value=max_order))
    entry = st.integers(min_value=0, max_value=n - 1)
    return Quandle([[draw(entry) for _ in range(n)] for _ in range(n)])


@given(arbitrary_tables(), arbitrary_tables(), st.sampled_from(["all", "injective", "surjective"]))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_brute_force_on_arbitrary_tables(q1, q2, mode):
    # tables that need not satisfy any quandle axiom: forcing a point from
    # an instance x |> y = k must not rely on the axioms
    fast = [f.mapping for f in enumerate_homs(q1, q2, mode)]
    assert fast == brute_force_homs(q1, q2, mode)


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
    m = induced_surjective(f, inn(r9), inn(r3))
    assert check_surj_morphism(m) == []
    assert len(m.source.group) == 18 and len(m.target.group) == 6
    assert not m.is_injective()


def test_induced_surjective_identity_and_automorphism():
    r3 = dihedral(3)
    p3 = inn(r3)
    m = induced_surjective(identity_hom(r3), p3, p3)
    assert len(m.source.group) == 6
    assert m.mapping == {w: w for w in p3.omega}
    full = extend_hom(m.mapping.items(), p3.degree, p3.degree)
    assert all(full[g] == g for g in m.source.group.elements)
    # negation is a quandle automorphism of R9 and lifts to the symmetry
    # relabeling s_x -> s_{-x} on the inner group
    r9 = dihedral(9)
    f = QuandleHom(r9, r9, tuple(-x % 9 for x in range(9)))
    assert check_hom(f) == []
    p9 = inn(r9)
    m = induced_surjective(f, p9, p9)
    assert check_surj_morphism(m) == [] and m.is_injective()
    for x in range(9):
        assert m.mapping[r9.table[x]] == r9.table[-x % 9]


def test_induced_surjective_rejects_non_surjective():
    r3, r9 = dihedral(3), dihedral(9)
    f = enumerate_homs(r3, r9, "injective")[0]
    with pytest.raises(ValueError):
        induced_surjective(f, inn(r3), inn(r9))


def test_induced_injective_r3_to_r9():
    r3, r9 = dihedral(3), dihedral(9)
    p3, p9 = inn(r3), inn(r9)
    for f in enumerate_homs(r3, r9, "injective"):
        m = induced_injective(f, p3, p9)
        assert check_star_morphism(m) == []
        assert len(m.domain_group) == 6
        assert len(m.domain_omega) == 3
        assert m.proj_is_injective()


def test_induced_injective_closes_each_image_subgroup_once(monkeypatch):
    r3, r9 = dihedral(3), dihedral(9)
    p3, p9 = inn(r3), inn(r9)
    calls = []
    real = grpgen.close_group
    monkeypatch.setattr(grpgen, "close_group", lambda *a, **k: calls.append(a) or real(*a, **k))
    fs = enumerate_homs(r3, r9, "injective")
    ms = [induced_injective(f, p3, p9) for f in fs]
    # building closes nothing; reading a domain group closes its subset once
    assert len(fs) == 18 and calls == []
    assert all(len(m.domain_group) == 6 for m in ms)
    assert len(calls) == len({frozenset(f.mapping) for f in fs}) == 3
    # the closures live in the target pair, next to its own omega's group
    assert all(p9._subgroups[m.domain_omega] is m.domain_group for m in ms)
    assert compose_star(ms[0], identity_star(p3)) == ms[0] and len(calls) == 3
    # the star enumerator's morphisms read the same memo entries
    stars = enumerate_star_morphisms(p3, p9)
    assert all(p9._subgroups[m.domain_omega] is m.domain_group for m in stars)
    assert len(stars) == 18 and len(p9._subgroups) == 4 and len(calls) == 3


def test_induced_injective_rejects_non_injective():
    r9, r3 = dihedral(9), dihedral(3)
    f = QuandleHom(r9, r3, tuple(k % 3 for k in range(9)))
    with pytest.raises(ValueError):
        induced_injective(f, inn(r9), inn(r3))


def test_induced_maps_reject_unfaithful_ends():
    t2 = trivial_quandle(2)
    ident = identity_hom(t2)
    p2 = inn(t2)
    with pytest.raises(ValueError):
        induced_surjective(ident, p2, p2)
    with pytest.raises(ValueError):
        induced_injective(ident, p2, p2)


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


def test_induced_maps_match_word_evaluation():
    # every surjective and injective hom among the faithful census classes
    # of order <= 4, R3, R5, R9 and conj:s3
    corpus = [q for n in range(1, 5) for q in iso_class_representatives(n) if is_faithful(q)]
    s3 = symmetric_group(3)
    corpus += [dihedral(3), dihedral(5), dihedral(9), conjugation_quandle(s3, s3.sorted_elements())]
    pairs = [inn(q) for q in corpus]
    seen = {"surjective": 0, "injective": 0}
    for (q1, p1), (q2, p2) in itertools.product(zip(corpus, pairs), repeat=2):
        for f in enumerate_homs(q1, q2, "surjective"):
            m = induced_surjective(f, p1, p2)
            full = extend_hom(m.mapping.items(), p1.degree, p2.degree)
            assert (m.source.group.elements, full) == induced_by_words(f, "surjective")
            seen["surjective"] += 1
        for f in enumerate_homs(q1, q2, "injective"):
            m = induced_injective(f, p1, p2)
            domain, proj = induced_by_words(f, "injective")
            full = extend_hom(m.proj.items(), p2.degree, p1.degree)
            assert m.domain_group.elements == domain and full == proj
            assert set(m.domain_omega) == {q2.table[v] for v in f.mapping}
            seen["injective"] += 1
    assert seen["surjective"] > 0 and seen["injective"] > 0
