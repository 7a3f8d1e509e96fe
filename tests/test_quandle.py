import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    Quandle,
    alexander_quandle,
    check_axioms,
    close_group,
    compose,
    conjugation_quandle,
    dihedral,
    dihedral_group,
    dihedral_reflections,
    inn,
    inn_relative,
    is_faithful,
    is_fixed_point_free,
    quandle_from_text,
    quandle_to_text,
    subquandle_closure,
    symmetric_group,
    trivial_quandle,
)
from quandlekit.quandle import validate_abelian_automorphism
from quandlekit.perm import centralizer_of_subset_is_trivial

from helpers import abelian_automorphisms, all_quandles, axiom_violations, conjugacy_classes


def test_table_validation():
    with pytest.raises(ValueError):
        Quandle(())
    with pytest.raises(ValueError):
        Quandle(((0, 1), (0,)))
    with pytest.raises(ValueError):
        Quandle(((0, 2), (0, 1)))


def test_axiom_violations_are_reported():
    # swapping one entry of R3 breaks self-distributivity and idempotence
    table = [list(row) for row in dihedral(3).table]
    table[0][0], table[0][1] = table[0][1], table[0][0]
    bad = check_axioms(Quandle(tuple(tuple(r) for r in table)))
    assert ("Q1", (0,)) in bad
    assert any(name == "Q3" for name, _ in bad)


@st.composite
def arbitrary_tables(draw, max_n=5):
    """Tables whose rows are permutations or arbitrary maps, mixed."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    row = st.one_of(
        st.permutations(range(n)).map(tuple),
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n).map(tuple),
        st.integers(min_value=0, max_value=n - 1).map(lambda c: (c,) * n),
    )
    return Quandle(tuple(draw(row) for _ in range(n)))


@given(arbitrary_tables())
@settings(max_examples=300, deadline=None)
def test_check_axioms_lists_what_the_triple_scan_lists(q):
    assert check_axioms(q) == axiom_violations(q)


def _valid_quandles():
    s4 = symmetric_group(4)
    small = [q for n in range(1, 5) for q in all_quandles(n)]
    return small + [
        dihedral(9),
        conjugation_quandle(s4, s4.sorted_elements()),
        alexander_quandle([7], [[3]]),
    ]


def _perturbed(q, rng):
    """One entry changed, one row replaced by a permutation, two rows
    swapped: rows that stay automorphisms, and so are skipped, sit beside
    rows that fail."""
    n = q.n
    t = [list(row) for row in q.table]
    x, y = rng.randrange(n), rng.randrange(n)
    changed = [list(row) for row in t]
    changed[x][y] = rng.randrange(n)
    replaced = [list(row) for row in t]
    replaced[x] = rng.sample(range(n), n)
    swapped = [list(row) for row in t]
    swapped[x], swapped[y] = swapped[y], swapped[x]
    return [Quandle(tuple(map(tuple, rows))) for rows in (changed, replaced, swapped)]


def test_check_axioms_lists_what_the_triple_scan_lists_on_quandles_and_perturbations():
    rng = random.Random(16)
    valid = _valid_quandles()
    broken = 0
    for q in valid:
        assert check_axioms(q) == axiom_violations(q) == []
    for q in valid[-3:] + rng.sample(valid, 40):
        for _ in range(4 if q.n > 4 else 1):
            for p in _perturbed(q, rng):
                expected = axiom_violations(p)
                assert check_axioms(p) == expected, p.table
                broken += bool(expected)
    assert broken > 100
    # a constant row keeps Q3 at every (y, z) without being a permutation,
    # so nothing may be derived from it: row 2 still fails
    q = Quandle(((2, 2, 2), (0, 1, 2), (1, 0, 2)))
    assert check_axioms(q) == axiom_violations(q)
    assert ("Q3", (2, 0, 0)) in check_axioms(q)


def test_dihedral_axioms_and_faithfulness():
    for n in (1, 2, 3, 4, 5, 8, 9):
        q = dihedral(n)
        assert check_axioms(q) == []
        assert is_faithful(q) == (n % 2 == 1 or n == 1)


def test_trivial_quandle():
    q = trivial_quandle(4)
    assert check_axioms(q) == []
    assert not is_faithful(q)
    assert is_faithful(trivial_quandle(1))
    assert len(inn(q).group) == 1


def test_dihedral_table_formula():
    q = dihedral(5)
    for x in range(5):
        for y in range(5):
            assert q.table[x][y] == (2 * x - y) % 5


def test_alexander_reduces_to_dihedral():
    assert alexander_quandle([3], [[-1]]).table == dihedral(3).table
    assert alexander_quandle([7], [[-1]]).table == dihedral(7).table


def test_alexander_validation():
    with pytest.raises(ValueError):
        alexander_quandle([4], [[2]])  # not bijective mod 4
    with pytest.raises(ValueError):
        validate_abelian_automorphism([3, 3], [[1, 0]])


def test_fixed_point_free():
    assert is_fixed_point_free([5], [[2]])
    assert not is_fixed_point_free([5], [[1]])
    assert is_fixed_point_free([3, 3], [[0, 1], [-1, 0]])
    # negation-swap fixes every (a, -a)
    assert not is_fixed_point_free([3, 3], [[0, -1], [-1, 0]])


@given(st.integers(min_value=1, max_value=11), st.integers(min_value=0, max_value=10))
@settings(max_examples=40, deadline=None)
def test_alexander_scalar_instances(n, k):
    # x -> kx is an automorphism of Z/n iff gcd(k, n) = 1
    from math import gcd

    if gcd(k, n) != 1:
        with pytest.raises(ValueError):
            alexander_quandle([n], [[k]])
        return
    q = alexander_quandle([n], [[k]])
    assert check_axioms(q) == []
    assert is_faithful(q) == is_fixed_point_free([n], [[k]])


ABELIAN_FACTORS = [
    [2], [3], [4], [5], [6], [7], [8], [9], [10], [11], [12],
    [2, 2], [2, 4], [3, 3], [2, 6], [2, 2, 2],
]


def test_alexander_faithful_iff_fixed_point_free():
    # every automorphism of every abelian group of order <= 12
    for factors in ABELIAN_FACTORS:
        for matrix in abelian_automorphisms(factors):
            q = alexander_quandle(factors, matrix)
            assert check_axioms(q) == []
            assert is_faithful(q) == is_fixed_point_free(factors, matrix)


def test_conjugation_quandle_s3():
    g = symmetric_group(3)
    q = conjugation_quandle(g, g.sorted_elements())
    assert q.n == 6
    assert check_axioms(q) == []
    assert is_faithful(q)
    assert q.labels is not None and q.labels[0] == "[0 1 2]"


def test_conjugation_quandle_needs_self_stability():
    g = symmetric_group(3)
    with pytest.raises(ValueError):
        conjugation_quandle(g, [(1, 2, 0), (0, 2, 1)])


def test_conjugation_quandle_on_subgroup_closed_subset():
    # stable under the subset's own closure but not a union of classes of g
    g = symmetric_group(4)
    rot = (1, 2, 0, 3)
    q = conjugation_quandle(g, [rot, (2, 0, 1, 3)])
    assert check_axioms(q) == []
    assert q.n == 2


def test_trivial_centralizer_implies_faithful_conjugation_quandle():
    # one direction only: the converse is false, see the regression below
    groups = [
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(4),
        dihedral_group(6),
        close_group([(1, 2, 3, 0)]),
    ]
    import itertools

    checked = 0
    trivial_seen = 0
    for g in groups:
        classes = [sorted(c) for c in conjugacy_classes(g)]
        for take in range(1, len(classes) + 1):
            for chosen in itertools.combinations(classes, take):
                # class unions are exactly the conjugation-stable subsets
                omega = [p for c in chosen for p in c]
                q = conjugation_quandle(g, omega)
                if centralizer_of_subset_is_trivial(g, omega):
                    assert is_faithful(q)
                    trivial_seen += 1
                checked += 1
    assert checked > 100
    assert trivial_seen > 10


def test_faithful_conjugation_quandle_with_nontrivial_centralizer():
    # the 12-element dihedral group has central rotation r^3; the generating
    # union of the rotation class of r with one reflection class still yields
    # a faithful quandle because no two of its members differ by r^3
    g = dihedral_group(6)
    omega = [(1, 2, 3, 4, 5, 0), (5, 0, 1, 2, 3, 4),
             (0, 5, 4, 3, 2, 1), (2, 1, 0, 5, 4, 3), (4, 3, 2, 1, 0, 5)]
    assert close_group(omega, cap=13).elements == g.elements
    assert not centralizer_of_subset_is_trivial(g, omega)
    assert is_faithful(conjugation_quandle(g, omega))


def test_dihedral_reflections_realize_odd_dihedral_quandle():
    # conjugation on the reflections of the 2n-element dihedral group is
    # exactly the dihedral quandle on n points, matched by rotation exponent
    for n in (3, 5, 9):
        refl = dihedral_reflections(n)
        q = conjugation_quandle(dihedral_group(n), refl)
        expo = [p[0] for p in sorted(refl)]
        rn = dihedral(n)
        for i in range(n):
            for j in range(n):
                assert expo[q.table[i][j]] == rn.table[expo[i]][expo[j]]


def test_subquandle_closure():
    q = dihedral(9)
    w = subquandle_closure(q, [0, 3])
    assert w.points == (0, 3, 6)
    sub = w.as_quandle()
    assert sub.table == dihedral(3).table
    assert sub.labels == ("0", "3", "6")
    full = subquandle_closure(q, [0, 1])
    assert full.points == tuple(range(9))
    # a single point always closes onto itself
    g = symmetric_group(3)
    c = conjugation_quandle(g, g.sorted_elements())
    pt = c.labels.index("[1 0 2]")
    assert subquandle_closure(c, [pt]).points == (pt,)


def test_subquandle_witness_rejects_open_sets():
    from quandlekit import SubquandleWitness

    with pytest.raises(ValueError):
        SubquandleWitness(dihedral(9), (0, 1))


def test_inn_orders():
    assert len(inn(dihedral(3)).group) == 6
    assert len(inn(dihedral(9)).group) == 18
    assert len(inn(trivial_quandle(5)).group) == 1
    g = symmetric_group(3)
    q = conjugation_quandle(g, g.sorted_elements())
    assert len(inn(q).group) == 6


def test_inn_pair_flags():
    g = symmetric_group(3)
    faithful_corpus = [
        dihedral(3),
        dihedral(5),
        dihedral(9),
        conjugation_quandle(g, g.sorted_elements()),
        alexander_quandle([5], [[2]]),
    ]
    for q in faithful_corpus:
        p = inn(q)
        assert p.conj_stable  # the symmetries form a stable generator
        assert p.faithful
        assert len(p.omega) == q.n
    p = inn(trivial_quandle(3))
    assert len(p.omega) == 1  # every symmetry is the identity
    p = inn(dihedral(4))  # not faithful: rows collapse pairwise
    assert len(p.omega) == 2
    assert p.conj_stable


def test_inn_word_evaluation():
    # s0 s1 s0 = s at the point s0 sends 1 to, which is 2 in the 3-point
    # dihedral quandle
    q = dihedral(3)
    p = inn(q)
    s0, s1 = p.group.generators[:2]
    assert compose(compose(s0, s1), s0) == q.table[2]


def test_inn_relative():
    q = dihedral(9)
    w = subquandle_closure(q, [0, 3])
    p = inn_relative(q, w)
    assert len(p.group) == 6
    assert p.group.degree == 9
    assert len(p.omega) == 3


def test_quandle_text_round_trip():
    q = dihedral(5)
    assert quandle_from_text(quandle_to_text(q)).table == q.table
    g = symmetric_group(3)
    q = conjugation_quandle(g, g.sorted_elements())
    back = quandle_from_text(quandle_to_text(q))
    assert back.table == q.table
    assert back.labels == q.labels
    with pytest.raises(ValueError):
        quandle_from_text("quandle 2\n0 1\n")
    with pytest.raises(ValueError):
        quandle_from_text("table 2\n0 1\n0 1\n")
