import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    Quandle,
    QuandleHom,
    alexander_quandle,
    check_axioms,
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
from quandlekit import grpgen, homs
from quandlekit.perm import generator_blocks
from quandlekit.quandle import is_faithful

from helpers import (
    arbitrary_tables,
    brute_force_homs,
    hom_mappings,
    induced_by_words,
    iso_class_representatives,
)


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


@given(arbitrary_tables(), arbitrary_tables(), st.sampled_from(["all", "injective", "surjective"]))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_brute_force_on_arbitrary_tables(q1, q2, mode):
    # tables that need not satisfy any quandle axiom: forcing a point from
    # an instance x |> y = k must not rely on the axioms
    fast = [f.mapping for f in enumerate_homs(q1, q2, mode)]
    assert fast == brute_force_homs(q1, q2, mode)


def _swapped(q, x, a, b):
    """q with the entries a and b of row x exchanged."""
    table = [list(row) for row in q.table]
    table[x][a], table[x][b] = table[x][b], table[x][a]
    return Quandle(table)


# R5 with two entries of one row exchanged off the diagonal: every row is
# still a permutation fixing its own point, but Q3 fails, so a hom has to
# be checked on every instance (the generating-set lemma needs Q3)
NOT_Q3 = {"source": _swapped(dihedral(5), 2, 3, 4), "target": _swapped(dihedral(5), 0, 1, 4)}


@pytest.mark.parametrize("side", sorted(NOT_Q3))
def test_tables_that_break_only_q3_get_every_instance_checked(side, monkeypatch):
    bad = NOT_Q3[side]
    q1, q2 = (bad, dihedral(5)) if side == "source" else (dihedral(5), bad)
    violations = check_axioms(bad)
    assert violations and {kind for kind, _ in violations} == {"Q3"}
    # some map keeps every instance in a generator's row and column, and
    # every instance its generators' blocks place by, yet is not a hom
    blocks = generator_blocks(q1.table, range(q1.n))[0]
    generators = {g for g, _ in blocks}
    kept = {(x, y) for _, block in blocks for _, x, y in block}
    kept |= {(x, y) for x in range(q1.n) for y in range(q1.n) if x in generators or y in generators}
    hom_set = set(brute_force_homs(q1, q2))
    assert any(
        all(m[q1.table[x][y]] == q2.table[m[x]][m[y]] for x, y in kept) and m not in hom_set
        for m in itertools.product(range(q2.n), repeat=q1.n)
    )
    # the order prune needs both tables to be quandles too
    monkeypatch.setattr(homs, "perm_order", lambda p: pytest.fail("order prune on a non-quandle"))
    for mode in ("all", "injective", "surjective"):
        fast = [f.mapping for f in enumerate_homs(q1, q2, mode)]
        assert fast == brute_force_homs(q1, q2, mode), mode


def _counting_target(q):
    """q with a table that counts the rows read from it, and the count."""
    reads = [0]

    class Rows(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

    object.__setattr__(q, "table", Rows(q.table))
    return q, reads


def test_symmetry_order_prune_cuts_without_changing_the_homs(monkeypatch):
    # an onto hom sends s_x to a symmetry whose order divides ord(s_x): no
    # 5-cycle of S5 has a value in S4 but the identity, and the search
    # proves the empty answer quickly
    s4, s5 = symmetric_group(4), symmetric_group(5)
    cs4 = conjugation_quandle(s4, s4.sorted_elements())
    cs5 = conjugation_quandle(s5, s5.sorted_elements())
    assert enumerate_homs(cs5, cs4, "surjective") == []
    # on smaller pairs, with every order read as 1 the prune lets every
    # value through: the homs are the same, and the search reads the
    # target table more often
    s3 = symmetric_group(3)
    cs3 = conjugation_quandle(s3, s3.sorted_elements())
    for q1, q2, mode in ((cs4, cs3, "surjective"), (cs3, cs4, "injective")):
        q2, reads = _counting_target(q2)
        pruned = [f.mapping for f in enumerate_homs(q1, q2, mode)]
        pruned_reads, reads[0] = reads[0], 0
        with monkeypatch.context() as m:
            m.setattr(homs, "perm_order", lambda p: 1)
            unpruned = [f.mapping for f in enumerate_homs(q1, q2, mode)]
        assert pruned and pruned == unpruned
        assert pruned_reads < reads[0] / 1.5, (mode, pruned_reads, reads[0])


def test_hom_search_reads_at_most_its_bounded_target_rows():
    # the search's work hangs on the order its closure places block points
    # in: a closure that only conjugates each member by the generators,
    # never the other way, reads about 130 000 rows on the first query
    s4 = symmetric_group(4)
    cs4 = conjugation_quandle(s4, s4.sorted_elements())
    for q1, q2, mode, bound, count in (
        (dihedral(9), dihedral(81), "injective", 77_679, 486),
        (cs4, conjugation_quandle(s4, s4.sorted_elements()), "all", 1_221_576, 7992),
    ):
        assert not q2.violations  # checked before counting: only the search's reads count
        q2, reads = _counting_target(q2)
        assert len(enumerate_homs(q1, q2, mode)) == count
        assert reads[0] <= bound, (mode, reads[0])


def _relabelled(q, seed):
    """q with point x renamed perm[x], for a seeded permutation perm."""
    perm = list(range(q.n))
    random.Random(seed).shuffle(perm)
    table = [[0] * q.n for _ in range(q.n)]
    for x in range(q.n):
        for y in range(q.n):
            table[perm[x]][perm[y]] = perm[q.table[x][y]]
    return Quandle(table)


def test_enumeration_order_matches_brute_force_when_closure_order_departs_from_index_order():
    # the search places points in the order the generators' closures reach
    # them; the output must still come in lexicographic order of the arrays
    s3 = symmetric_group(3)
    bases = [dihedral(5), conjugation_quandle(s3, s3.sorted_elements()), alexander_quandle([5], [[2]])]
    quandles = [_relabelled(q, seed) for seed, q in enumerate(bases, start=1)]
    for q in quandles:
        order = [p for g, block in generator_blocks(q.table, range(q.n))[0] for p in (g, *(z for z, _, _ in block))]
        assert sorted(order) == list(range(q.n)) and order != sorted(order)
    for q1, q2 in itertools.product(quandles, repeat=2):
        for mode in ("all", "injective", "surjective"):
            fast = [f.mapping for f in enumerate_homs(q1, q2, mode)]
            assert fast == brute_force_homs(q1, q2, mode), (q1.table, q2.table, mode)


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
    # building closes nothing; each morphism closes its domain group on the
    # first read only
    assert len(fs) == 18 and calls == []
    assert all(len(m.domain_group) == 6 for m in ms) and len(calls) == 18
    assert all(len(m.domain_group) == 6 for m in ms) and len(calls) == 18
    # nor do composition and the star enumerator close anything
    assert compose_star(ms[0], identity_star(p3)) == ms[0] and len(calls) == 18
    stars = enumerate_star_morphisms(p3, p9)
    assert len(stars) == 18 and len(calls) == 18


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


def test_induced_maps_build_without_reproving_f():
    # the points 0 and 1 of R5 swapped: a bijection but no hom.  Both maps
    # build from it, and the group-side checks report the failure
    r3, r5, r9 = dihedral(3), dihedral(5), dihedral(9)
    p3, p5, p9 = inn(r3), inn(r5), inn(r9)
    swapped = QuandleHom(r5, r5, (1, 0, 2, 3, 4))
    assert check_hom(swapped)
    surj = induced_surjective(swapped, p5, p5)
    star = induced_injective(swapped, p5, p5)
    assert any(c.startswith("homomorphism:") for c in check_surj_morphism(surj))
    assert any(c.startswith("homomorphism:") for c in check_star_morphism(star))
    # what the positions cannot hold is still refused: the wrong mode, an
    # unfaithful source, and pairs that are not inn() of f's ends
    inj = enumerate_homs(r3, r9, "injective")[0]
    onto = QuandleHom(r9, r3, tuple(k % 3 for k in range(9)))
    with pytest.raises(ValueError, match="not surjective"):
        induced_surjective(inj, p3, p9)
    with pytest.raises(ValueError, match="not injective"):
        induced_injective(onto, p9, p3)
    t2 = trivial_quandle(2)
    for induced in (induced_surjective, induced_injective):
        with pytest.raises(ValueError, match="omegas are not the symmetries"):
            induced(identity_hom(t2), inn(t2), inn(t2))
        with pytest.raises(ValueError, match="omegas are not the symmetries"):
            induced(inj, p9, p3)


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


def test_each_quandle_is_checked_for_axioms_once(monkeypatch, tmp_path, capsys):
    # the verdict is kept with the quandle: two searches on the same
    # quandles check each table once, and the CLI's homs checks each file
    # once, where it loads it
    from quandlekit import quandle, quandle_to_text
    from quandlekit.cli import main

    checked = []
    real = quandle.check_axioms
    monkeypatch.setattr(quandle, "check_axioms", lambda q: checked.append(q) or real(q))
    r3, r9 = dihedral(3), dihedral(9)
    for _ in range(2):
        assert len(enumerate_homs(r3, r9, "injective")) == 18
    assert len(enumerate_homs(r9, r3)) > 0
    assert len(checked) == 2 and checked[0] is r3 and checked[1] is r9
    del checked[:]
    for name, q in (("r3", r3), ("r9", r9)):
        (tmp_path / name).write_text(quandle_to_text(q))
    assert main(["homs", str(tmp_path / "r3"), str(tmp_path / "r9"), "--mode", "inj"]) == 0
    assert capsys.readouterr().out.startswith("count: 18")
    assert len(checked) == 2
