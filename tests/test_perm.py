import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    CapExceeded,
    all_transpositions,
    close_group,
    compose,
    conjugate,
    cyclic_group,
    dihedral_group,
    dihedral_reflections,
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
from quandlekit import conjugation_quandle, dihedral, inn, perm
from quandlekit.perm import (
    ConjugationTable,
    centralizer_of_subset_is_trivial,
    conjugation_basis,
    conjugation_stable_under,
)

from helpers import conjugacy_classes, conjugation_stable, naive_closure


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # (p q)(i) = p(q(i))
    assert compose(p, q) == (1, 0, 2)
    assert compose(q, p) == (2, 1, 0)


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        compose((1, 0), (0, 1, 2))
    with pytest.raises(ValueError):
        conjugate((1, 0), (0, 1, 2))


def test_inverse_and_conjugate():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == identity(4)
    assert compose(inverse(p), p) == identity(4)
    g = (1, 0, 2)
    s = (0, 2, 1)
    assert conjugate(g, s) == compose(compose(g, s), inverse(g))


@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
))
@settings(max_examples=60, deadline=None)
def test_conjugate_is_g_s_g_inverse(gs):
    g, s = (tuple(p) for p in gs)
    assert conjugate(g, s) == compose(compose(g, s), inverse(g))


def test_perm_order():
    assert perm_order(identity(5)) == 1
    assert perm_order((1, 0, 2)) == 2
    assert perm_order((1, 2, 0)) == 3
    assert perm_order((1, 0, 3, 4, 2)) == 6


def _order_by_composition(p):
    n, q = 1, p
    while q != identity(len(p)):
        q = compose(q, p)
        n += 1
    return n


def test_perm_order_is_the_number_of_compositions_back_to_the_identity():
    for group in (symmetric_group(5), dihedral_group(81)):
        for p in group.elements:
            assert perm_order(p) == _order_by_composition(p)


@pytest.mark.parametrize("images", [(0, 0), (1, 1, 0), (2, 0)])
def test_perm_order_rejects_a_non_permutation(images):
    with pytest.raises(ValueError, match="not a permutation"):
        perm_order(images)


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


def test_close_group_cap():
    with pytest.raises(CapExceeded):
        close_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], cap=10)


@pytest.mark.parametrize(
    "gens",
    [
        [identity(5), (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
        [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0), (2, 3, 4, 0, 1)],
        [(1, 2, 3, 4, 0), (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
        [identity(5), (1, 2, 3, 4, 0), (4, 3, 2, 1, 0), (2, 3, 4, 0, 1), (4, 3, 2, 1, 0)],
    ],
    ids=["identity-first", "redundant", "repeat", "dihedral-all-three"],
)
def test_close_group_cap_is_exact(gens):
    # the cap fires exactly when the group has more elements than it allows
    elements = naive_closure(gens)
    assert close_group(gens, cap=len(elements)).elements == elements
    message = "^group closure exceeded the cap of %d elements$" % (len(elements) - 1)
    with pytest.raises(CapExceeded, match=message):
        close_group(gens, cap=len(elements) - 1)


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


def test_close_group_witness_matches_full_alphabet_bfs():
    # involutions, a repeated generator, the identity as a generator, and a
    # 3-cycle whose inverse is distinct: the positive-letter closure still
    # reaches every element, and the generators are kept as given
    swap = (1, 0, 2, 3)
    rot = (1, 2, 3, 0)
    cyc = (1, 2, 0, 3)
    e = identity(4)
    for gens in (
        [swap],
        [e],
        [swap, swap],
        [e, swap, rot],
        [rot, swap, rot, e],
        [cyc, swap, cyc],
        all_transpositions(4),
        dihedral_reflections(5),
        [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
    ):
        g = close_group(gens)
        assert g.elements == naive_closure(gens)
        assert g.generators == tuple(gens)


@given(generator_sets(), st.data())
@settings(max_examples=60, deadline=None)
def test_close_group_witness_matches_bfs_with_repeats(gens, data):
    # repeat some generators and mix in the identity
    extra = data.draw(st.lists(st.sampled_from(gens + [identity(len(gens[0]))]), max_size=3))
    order = data.draw(st.permutations(gens + extra))
    g = close_group(order)
    assert g.elements == naive_closure(order)
    assert g.generators == tuple(order)


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
    assert conjugation_stable_under(s3.generators, s3.elements)
    transpositions = all_transpositions(3)
    assert conjugation_stable_under(s3.generators, transpositions)
    assert centralizer_of_subset_is_trivial(s3, transpositions)
    rot = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert not conjugation_stable_under(s3.generators, [(1, 2, 0)])
    assert not centralizer_of_subset_is_trivial(s3, rot)
    with pytest.raises(ValueError):
        centralizer_of_subset_is_trivial(s3, [(1, 0, 2, 3)])


def test_class_unions_are_stable():
    for group in (symmetric_group(3), symmetric_group(4), dihedral_group(6)):
        classes = conjugacy_classes(group)
        assert sum(len(c) for c in classes) == len(group)
        for c in classes:
            assert conjugation_stable_under(group.generators, c)


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


class CountedTable:
    """A ConjugationTable whose entry reads are counted in reads."""

    def __init__(self, table):
        self.table, self.reads = table, []

    def __getitem__(self, key):
        self.reads.append(None)
        return self.table[key]


def assert_conjugation_basis(members, universe=None):
    """conjugation_basis, on the positions of the members in the
    ConjugationTable of universe (the members themselves by default),
    against the oracles: a subsequence of the members in their order,
    generating the same group, with the stability flag of conjugation by
    every member (and by every element of the group they generate), after
    at most |basis| * |members| table reads and no conjugate of its own.
    On a fresh table it conjugates at most those entries.  Returns the
    basis as permutations and the flag."""
    universe = list(members) if universe is None else universe
    positions_of_members = [universe.index(w) for w in members]
    filled = ConjugationTable(universe)
    assert len(filled.rows) == len(universe)
    table = CountedTable(filled)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(perm, "conjugate", None)
        positions, stable = conjugation_basis(table, positions_of_members)
    fresh = ConjugationTable(universe)
    assert conjugation_basis(fresh, positions_of_members) == (positions, stable)
    assert len(fresh) <= len(table.reads)
    basis = [universe[i] for i in positions]
    it = iter(members)
    assert all(b in it for b in basis)
    assert naive_closure(basis) == naive_closure(members)
    assert stable == conjugation_stable_under(members, members) == conjugation_stable(members)
    assert len(table.reads) <= len(basis) * len(members)
    return basis, stable


def stable_and_unstable_member_lists(draw):
    """Distinct permutations of one degree in a random order: either any
    few of them, usually not conjugation-stable, or a shuffled union of
    conjugacy classes of a small group, which is."""
    if draw(st.booleans()):
        degree = draw(st.integers(min_value=1, max_value=4))
        perms = st.permutations(range(degree)).map(tuple)
        return draw(st.lists(perms, min_size=1, max_size=8, unique=True))
    group = draw(st.sampled_from([symmetric_group(3), dihedral_group(4), symmetric_group(4)]))
    classes = draw(st.lists(st.sampled_from(conjugacy_classes(group)), min_size=1, unique_by=min))
    return draw(st.permutations(sorted(set().union(*classes))))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_conjugation_basis_matches_oracles(data):
    members = data.draw(st.composite(stable_and_unstable_member_lists)())
    # the table may also hold non-members, in any order: a conjugate that
    # is a non-member breaks stability like one outside the table
    if data.draw(st.booleans()):
        degree = len(members[0])
        universe = data.draw(st.permutations(sorted(itertools.permutations(range(degree)))))
    else:
        universe = data.draw(st.permutations(members))
    assert_conjugation_basis(members, list(universe))


def test_conjugation_basis_fixed_cases():
    t3 = all_transpositions(3)
    rot = (1, 2, 0)
    # two transpositions of S3 reach the third; without it they are unstable
    assert assert_conjugation_basis(t3) == (t3[:2], True)
    assert assert_conjugation_basis(t3[:2]) == (t3[:2], False)
    # ... also when the third is in the table but not a member
    assert assert_conjugation_basis(t3[:2], t3) == (t3[:2], False)
    assert assert_conjugation_basis([rot]) == ([rot], True)
    # a transposition does not reach the 3-cycle, which joins the basis; it
    # conjugates the 3-cycle to its inverse, outside the set
    assert assert_conjugation_basis([t3[0], rot]) == ([t3[0], rot], False)
    # the first two reflections of R9 reach the third, but the three are
    # not closed under conjugation
    refl9 = dihedral_reflections(9)
    basis, stable = assert_conjugation_basis(refl9[:3])
    assert not stable and basis == refl9[:2]


@pytest.mark.parametrize("token, size", [("r3", 2), ("r9", 2), ("r81", 2), ("conj:s4", 7), ("conj:s5", 10)])
def test_conjugation_basis_of_inner_omegas(token, size):
    if token.startswith("conj:s"):
        g = symmetric_group(int(token[len("conj:s"):]))
        q = conjugation_quandle(g, g.sorted_elements())
    else:
        q = dihedral(int(token[1:]))
    omega = inn(q).omega
    basis, stable = conjugation_basis(ConjugationTable(omega), range(len(omega)))
    assert stable and len(basis) == size
    if len(omega) <= 24:
        assert_conjugation_basis(list(omega))
