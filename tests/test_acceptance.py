"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with -s to see the verdict lines for passing criteria too; pytest shows
them on failure either way.
"""

import time

from quandlekit import (
    alexander_quandle,
    check_hom,
    check_star_morphism,
    compose,
    conjugation_quandle,
    dihedral,
    dihedral_group,
    dihedral_reflections,
    enumerate_group_homs,
    enumerate_homs,
    enumerate_star_morphisms,
    find_dihedral_presentation,
    inn,
    is_faithful,
    is_fixed_point_free,
    make_genpair,
    perm_order,
    subquandle_closure,
    symmetric_group,
    trivial_quandle,
    verify_equivalence,
    QuandleHom,
)
from quandlekit.perm import all_transpositions

from helpers import all_quandles, brute_force_homs, hom_mappings


def conclude(num, ok, detail):
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_injective_hom_set_r3_r9():
    t0 = time.perf_counter()
    homs = enumerate_homs(dihedral(3), dihedral(9), "injective")
    elapsed = time.perf_counter() - t0
    got = {f.mapping for f in homs}
    expected = {
        tuple((c + e * 3 * k) % 9 for k in range(3))
        for c in range(9)
        for e in (1, -1)
    }
    ok = len(homs) == 18 and got == expected and elapsed < 1.0
    conclude(
        1,
        ok,
        "#Hom_inj(R3,R9) = %d, set %s, %.3fs"
        % (len(homs), "matches c + 3ek mod 9" if got == expected else "DIFFERS", elapsed),
    )


def test_criterion_2_star_morphisms_match_group_side():
    t0 = time.perf_counter()
    src = make_genpair(dihedral_group(3), dihedral_reflections(3))
    tgt = make_genpair(dihedral_group(9), dihedral_reflections(9))
    morphisms = enumerate_star_morphisms(src, tgt)
    elapsed = time.perf_counter() - t0
    subgroups = {frozenset(m.domain_group.elements) for m in morphisms}
    gamma_sizes = {len(m.domain_omega) for m in morphisms}
    ok = (
        len(morphisms) == 18
        and len(subgroups) == 3
        and gamma_sizes == {3}
        and elapsed < 5.0
    )
    conclude(
        2,
        ok,
        "18 expected, got %d over %d subgroups, gamma sizes %s, %.3fs"
        % (len(morphisms), len(subgroups), sorted(gamma_sizes), elapsed),
    )


def test_criterion_3_inner_groups_of_odd_dihedral_quandles():
    results = []
    ok = True
    for n in (3, 5, 7, 9, 11):
        pair = inn(dihedral(n))
        presentation = find_dihedral_presentation(pair.group)
        good = (
            len(pair.group) == 2 * n
            and presentation is not None
            and perm_order(presentation[0]) == n
            and perm_order(presentation[1]) == 2
        )
        ok = ok and good
        results.append("n=%d:%s" % (n, "2n+rel" if good else "BAD"))
    conclude(3, ok, "|Inn(R_n)| = 2n with dihedral relations; " + ", ".join(results))


def _matrix_order(factors, matrix):
    import itertools

    points = list(itertools.product(*[range(f) for f in factors]))
    index = {p: i for i, p in enumerate(points)}

    def apply(v):
        return tuple(
            sum(matrix[i][j] * v[j] for j in range(len(v))) % factors[i]
            for i in range(len(v))
        )

    return perm_order(tuple(index[apply(p)] for p in points))


def test_criterion_4_alexander_inner_group_orders():
    gated = [
        ([5], [[2]], "Z/5 x2"),
        ([7], [[3]], "Z/7 x3"),
        ([3, 3], [[0, -1], [-1, 0]], "Z/3xZ/3 swap-negate"),
    ]
    parts = []
    ok = True
    for factors, matrix, name in gated:
        if not is_fixed_point_free(factors, matrix):
            # gate refused: confirm the refusal is honest, no order claim
            q = alexander_quandle(factors, matrix)
            ok = ok and not is_faithful(q)
            parts.append("%s: gate rejects (has fixed points, quandle unfaithful)" % name)
            continue
        q = alexander_quandle(factors, matrix)
        size = 1
        for f in factors:
            size *= f
        want = size * _matrix_order(factors, matrix)
        got = len(inn(q).group)
        ok = ok and got == want
        parts.append("%s: |Inn| = %d (want %d)" % (name, got, want))
    conclude(4, ok, "; ".join(parts))


def test_criterion_5_divisibility_over_corpus():
    corpus = {
        "R3": dihedral(3),
        "R5": dihedral(5),
        "R7": dihedral(7),
        "R9": dihedral(9),
        "Conj(S3)": conjugation_quandle(
            symmetric_group(3), symmetric_group(3).sorted_elements()
        ),
        "Alex(Z5,x2)": alexander_quandle([5], [[2]]),
    }
    orders = {name: len(inn(q).group) for name, q in corpus.items()}
    ok = all(is_faithful(q) for q in corpus.values())
    checked = empty_pairs = 0
    for n1, q1 in corpus.items():
        for n2, q2 in corpus.items():
            homs = enumerate_homs(q1, q2, "injective")
            if not homs:
                empty_pairs += 1
                continue
            checked += 1
            if orders[n2] % orders[n1] != 0:
                ok = False
    for n in (5, 7):
        if enumerate_homs(dihedral(3), dihedral(n), "injective"):
            ok = False
    conclude(
        5,
        ok,
        "%d nonempty injective hom-sets all satisfy divisibility, %d empty;"
        " Hom_inj(R3,R5) and Hom_inj(R3,R7) empty" % (checked, empty_pairs),
    )


def test_criterion_6_equivalence_suite_default_corpus():
    s3 = symmetric_group(3)
    corpus = [
        dihedral(3),
        dihedral(5),
        dihedral(7),
        dihedral(9),
        conjugation_quandle(s3, s3.sorted_elements()),
    ]
    names = ["r3", "r5", "r7", "r9", "conj:s3"]
    t0 = time.perf_counter()
    reports = [
        verify_equivalence(corpus, mode, names=names)
        for mode in ("surjective", "injective")
    ]
    elapsed = time.perf_counter() - t0
    failures = sum(len(r.failures) for r in reports)
    checks = sum(len(r.records) for r in reports)
    ok = failures == 0 and elapsed < 60.0
    conclude(
        6,
        ok,
        "surj+inj suites: %d checks, %d failures, %.1fs" % (checks, failures, elapsed),
    )
    for r in reports:
        assert r.failures == [], r.summary()


def test_criterion_7_counterexample_regressions():
    # (a) image of a faithful quandle under a hom need not be faithful
    s3 = symmetric_group(3)
    cq = conjugation_quandle(s3, s3.sorted_elements())
    pts = s3.sorted_elements()
    parity = lambda p: sum(
        p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))
    ) % 2
    even, odd = pts.index((0, 1, 2)), pts.index((1, 0, 2))
    f = QuandleHom(cq, cq, tuple(even if parity(p) == 0 else odd for p in pts))
    image = subquandle_closure(cq, set(f.mapping)).as_quandle()
    a = check_hom(f) == [] and is_faithful(cq) and not is_faithful(image)

    # (b) no group homomorphism covers the inclusion of a point into R3
    t1, r3 = trivial_quandle(1), dihedral(3)
    p1, p3 = inn(t1), inn(r3)
    homs = enumerate_group_homs(p1.group, p3.group)
    covering = [h for h in homs if h[p1.group.identity] == r3.table[0]]
    b = check_hom(QuandleHom(t1, r3, (0,))) == [] and covering == []

    # (c) a valid backwards-partial morphism whose projection is not injective
    s6 = symmetric_group(6)
    t3 = all_transpositions(3)
    cycle = (0, 1, 2, 4, 5, 3)
    gamma = tuple(sorted(compose(tuple(p) + (3, 4, 5), cycle) for p in t3))
    src = make_genpair(symmetric_group(3), t3)
    proj = {g: g[:3] for g in gamma}
    c = True
    for omega in (s6.sorted_elements(),
                  [p for p in s6.sorted_elements() if p != s6.identity]):
        tgt = make_genpair(s6, omega)
        from quandlekit import StarMorphism

        m = StarMorphism(src, tgt, proj)
        c = c and check_star_morphism(m) == [] and not m.proj_is_injective()

    ok = a and b and c
    conclude(
        7,
        ok,
        "unfaithful image %s; uncoverable inclusion %s; non-injective pi %s"
        % tuple("confirmed" if x else "REFUTED" for x in (a, b, c)),
    )


def test_criterion_8_enumeration_matches_brute_force():
    universe = []
    for n in range(1, 5):
        universe.extend(all_quandles(n))
    combos = 0
    ok = True
    for q1 in universe:
        for q2 in universe:
            for mode in ("all", "injective", "surjective"):
                fast = hom_mappings(enumerate_homs(q1, q2, mode))
                slow = sorted(brute_force_homs(q1, q2, mode))
                if fast != slow:
                    ok = False
                combos += 1
    r3, r9 = dihedral(3), dihedral(9)
    for mode in ("all", "injective", "surjective"):
        if hom_mappings(enumerate_homs(r3, r9, mode)) != sorted(
            brute_force_homs(r3, r9, mode)
        ):
            ok = False
        combos += 1
    conclude(
        8,
        ok,
        "%d labeled quandles of order <= 4, %d pair-mode combos agree with"
        " the filter-all-maps oracle" % (len(universe), combos),
    )
