import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    CapExceeded,
    PermGroup,
    all_transpositions,
    close_group,
    compose,
    conjugate,
    cyclic_group,
    dihedral_group,
    dihedral_reflections,
    evaluate_word,
    find_dihedral_presentation,
    group_from_lines,
    group_to_lines,
    identity,
    inverse,
    perm_from_text,
    perm_order,
    perm_to_text,
    symmetric_group,
)
from quandlekit.perm import centralizer_of_subset_is_trivial, is_conjugation_stable

from helpers import conjugacy_classes, naive_closure


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # (p q)(i) = p(q(i))
    assert compose(p, q) == (1, 0, 2)
    assert compose(q, p) == (2, 1, 0)


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        compose((1, 0), (0, 1, 2))


def test_inverse_and_conjugate():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == identity(4)
    assert compose(inverse(p), p) == identity(4)
    g = (1, 0, 2)
    s = (0, 2, 1)
    assert conjugate(g, s) == compose(compose(g, s), inverse(g))


def test_perm_order():
    assert perm_order(identity(5)) == 1
    assert perm_order((1, 0, 2)) == 2
    assert perm_order((1, 2, 0)) == 3
    assert perm_order((1, 0, 3, 4, 2)) == 6


def test_perm_text_round_trip():
    p = (3, 1, 0, 2)
    assert perm_from_text(perm_to_text(p)) == p
    assert perm_to_text(p) == "[3 1 0 2]"
    with pytest.raises(ValueError):
        perm_from_text("[0 0 1]")


def test_close_group_symmetric():
    g = close_group([(1, 0, 2), (0, 2, 1)])
    assert len(g) == 6
    assert g == symmetric_group(3)


def test_close_group_single_cycle():
    g = close_group([(1, 2, 3, 0)])
    assert len(g) == 4
    assert g == cyclic_group(4)


def test_witness_words_evaluate_back():
    g = close_group([(1, 2, 0, 3), (0, 1, 3, 2)])
    for p in g.sorted_elements():
        assert evaluate_word(g, g.witness[p]) == p


def test_witness_words_deterministic():
    gens = [(1, 2, 0, 3), (0, 1, 3, 2)]
    a = close_group(gens)
    b = close_group(gens)
    assert a.witness == b.witness


def test_evaluate_word_signs():
    g = close_group([(1, 2, 0)])
    r = (1, 2, 0)
    assert evaluate_word(g, [(0, 1), (0, 1)]) == compose(r, r)
    assert evaluate_word(g, [(0, -1)]) == inverse(r)
    assert evaluate_word(g, []) == identity(3)
    with pytest.raises(IndexError):
        evaluate_word(g, [(5, 1)])
    with pytest.raises(ValueError):
        evaluate_word(g, [(0, 2)])


def test_close_group_cap():
    with pytest.raises(CapExceeded):
        close_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], cap=10)


@st.composite
def generator_sets(draw, max_degree=5):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    count = draw(st.integers(min_value=1, max_value=3))
    gens = [tuple(draw(st.permutations(range(degree)))) for _ in range(count)]
    return gens


@given(generator_sets())
@settings(max_examples=60, deadline=None)
def test_closure_is_a_group_and_matches_naive_order(gens):
    g = close_group(gens)
    assert naive_closure(gens) == g.elements
    for p in g.elements:
        assert inverse(p) in g.elements
    # spot check products on the sorted order to keep the quadratic cost down
    elems = g.sorted_elements()
    for p in elems[:8]:
        for q in elems[:8]:
            assert compose(p, q) in g.elements


def test_symmetric_group_order():
    assert len(symmetric_group(1)) == 1
    assert len(symmetric_group(4)) == 24
    assert len(symmetric_group(5)) == 120


def test_dihedral_group_order_and_reflections():
    for n in (1, 2, 3, 6, 9):
        g = dihedral_group(n)
        assert len(g) == 2 * n
    refl = dihedral_reflections(9)
    assert len(refl) == 9
    g = dihedral_group(9)
    for k, p in enumerate(refl):
        assert p in g.elements
        assert perm_order(p) == 2
        assert p[0] == k  # reflection k sends i to (k - i) mod n


def test_reflections_conjugate_dihedrally():
    # s_j conjugated by s_i lands at index 2i - j mod n
    n = 9
    refl = dihedral_reflections(n)
    for i in range(n):
        for j in range(n):
            assert conjugate(refl[i], refl[j]) == refl[(2 * i - j) % n]


def test_all_transpositions():
    t = all_transpositions(4)
    assert len(t) == 6
    assert all(perm_order(p) == 2 for p in t)
    assert close_group(t) == symmetric_group(4)


def test_find_dihedral_presentation():
    # order 2 (dihedral_group(1) and cyclic_group(2)) is dihedral with n = 1,
    # the Klein group with n = 2
    for n, g in [(n, dihedral_group(n)) for n in (1, 2, 3, 5, 9)] + [(1, cyclic_group(2))]:
        found = find_dihedral_presentation(g)
        assert found is not None
        a, x = found
        assert perm_order(a) == n
        assert perm_order(x) == 2
        assert compose(compose(x, a), x) == inverse(a)
        assert close_group([a, x]) == g
    # in cyclic_group(4) the only involution lies in the rotation subgroup
    for g in (cyclic_group(4), cyclic_group(6), cyclic_group(8), symmetric_group(4)):
        assert find_dihedral_presentation(g) is None


def test_centralizer_and_stability():
    s3 = symmetric_group(3)
    assert centralizer_of_subset_is_trivial(s3, s3.elements)
    assert is_conjugation_stable(s3, s3.elements)
    transpositions = all_transpositions(3)
    assert is_conjugation_stable(s3, transpositions)
    assert centralizer_of_subset_is_trivial(s3, transpositions)
    rot = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert not is_conjugation_stable(s3, [(1, 2, 0)])
    assert not centralizer_of_subset_is_trivial(s3, rot)
    with pytest.raises(ValueError):
        is_conjugation_stable(s3, [(1, 0, 2, 3)])


def test_class_unions_are_stable():
    for group in (symmetric_group(3), symmetric_group(4), dihedral_group(6)):
        classes = conjugacy_classes(group)
        assert sum(len(c) for c in classes) == len(group)
        for c in classes:
            assert is_conjugation_stable(group, c)


def test_group_text_round_trip():
    g = dihedral_group(5)
    assert group_from_lines(group_to_lines(g)) == g
    assert group_from_lines(["dihedral 5"]) == g
    assert group_from_lines(["symmetric 4"]) == symmetric_group(4)
    assert group_from_lines(["cyclic 6"]) == cyclic_group(6)
    with pytest.raises(ValueError):
        group_from_lines(["perms 3"])
    with pytest.raises(ValueError):
        group_from_lines(["frobnicate 3"])


def test_group_equality_is_by_elements():
    a = close_group([(1, 0, 2), (0, 2, 1)])
    b = close_group([(2, 1, 0), (1, 0, 2)])
    assert a == b
    assert a != close_group([(0, 2, 1)])
    assert a != symmetric_group(4)  # same family, different degree


def test_sorted_elements_and_index():
    g = symmetric_group(3)
    elems = g.sorted_elements()
    assert elems == sorted(elems)
    for i, p in enumerate(elems):
        assert g.element_index(p) == i
