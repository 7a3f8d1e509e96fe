import dataclasses
import itertools
import json
import re
from pathlib import Path

import pytest

from quandlekit import (
    CapExceeded,
    G_inj_mor,
    G_surj_mor,
    QuandleHom,
    check_hom,
    check_star_morphism,
    check_surj_morphism,
    compose_homs,
    compose_star,
    compose_surj,
    conjugation_quandle,
    cyclic_group,
    dihedral,
    enumerate_homs,
    enumerate_star_morphisms,
    enumerate_surj_morphisms,
    eta_star,
    eta_surj,
    identity_hom,
    induced_injective,
    induced_surjective,
    inn,
    is_faithful,
    is_star_isomorphism,
    make_genpair,
    symmetric_group,
    theta,
    to_pair,
    to_quandle,
    trivial_quandle,
    verify_equivalence,
)
from quandlekit import functors, grpgen, homs
from quandlekit.cli import load_corpus, main

from helpers import as_point_map, compose_by_extension, entries_read, iso_class_representatives


def conj_s3():
    g = symmetric_group(3)
    return conjugation_quandle(g, g.sorted_elements())


def test_to_pair_requires_faithful():
    with pytest.raises(ValueError):
        to_pair(trivial_quandle(2))
    p = to_pair(dihedral(3))
    assert len(p.group) == 6


def test_to_quandle_requires_stable_faithful():
    from quandlekit import make_genpair

    p = inn(dihedral(9))
    assert to_quandle(p).n == 9
    unstable = make_genpair(symmetric_group(3), [(1, 0, 2), (1, 2, 0)])
    assert not unstable.conj_stable
    with pytest.raises(ValueError):
        to_quandle(unstable)


def stable_pairs():
    """Inner pairs, then make_genpair pairs whose omega is conjugation-stable:
    the reflections of D9, all of S4 and the transpositions of S4."""
    from quandlekit import dihedral_group, dihedral_reflections, make_genpair
    from quandlekit.perm import all_transpositions

    s4 = symmetric_group(4)
    return [inn(q) for q in (dihedral(3), dihedral(9), conj_s3())] + [
        make_genpair(dihedral_group(9), dihedral_reflections(9)),
        make_genpair(s4, s4.elements),
        make_genpair(s4, all_transpositions(4)),
    ]


def unstable_pairs():
    """make_genpair pairs whose omega is not conjugation-stable: the
    reflections of D9 plus a rotation, and two generators of S3."""
    from quandlekit import dihedral_group, dihedral_reflections, make_genpair

    d9, refl9 = dihedral_group(9), dihedral_reflections(9)
    rotation = next(g for g in d9.generators if g not in refl9)
    return [
        make_genpair(d9, refl9 + [rotation]),
        make_genpair(symmetric_group(3), [(1, 0, 2), (1, 2, 0)]),
    ]


def test_conj_table_matches_conjugating_omega():
    from quandlekit import perm

    stable, unstable = stable_pairs(), unstable_pairs()
    assert all(p.conj_stable for p in stable) and not any(p.conj_stable for p in unstable)
    pairs = stable + unstable
    for p in pairs:
        pos = p.omega_position
        oracle = tuple(tuple(pos.get(perm.conjugate(x, y), -1) for y in p.omega) for x in p.omega)
        # one entry read conjugates one entry; rows fills the rest
        last = len(p.omega) - 1
        assert p.conj_table[last][0] == oracle[last][0] and entries_read(p.conj_table) == 1
        assert p.conj_table.rows == oracle
        assert entries_read(p.conj_table) == len(p.omega) ** 2
        # omega generates the group, so stability under the group's
        # generators is closure under conjugation by omega: no -1
        assert p.conj_stable == all(-1 not in row for row in oracle)
        if p.conj_stable and p.faithful:
            q, expected = to_quandle(p), conjugation_quandle(p.group, p.omega)
            assert q == expected and q.labels == expected.labels
        else:
            with pytest.raises(ValueError):
                to_quandle(p)


def test_nothing_conjugates_omega_once_its_table_is_built(monkeypatch):
    # ConjugationTable is the one place omega members are conjugated by one
    # another: with each pair's table filled (and faithfulness, whose
    # centralizer test conjugates, computed), neither the searches, the
    # checks, nor the backward functor and eta conjugate anything
    from quandlekit import grpgen, homs, perm, quandle

    calls = []
    real = perm.conjugate

    def counted(g, s):
        calls.append(None)
        return real(g, s)

    for mod in (perm, grpgen, quandle, homs, functors):
        if hasattr(mod, "conjugate"):
            monkeypatch.setattr(mod, "conjugate", counted)

    def build_table(p):
        assert p.faithful
        del calls[:]
        assert len(p.conj_table.rows) == len(p.omega)
        assert len(calls) == len(p.omega) ** 2
        return p

    pairs = [build_table(p) for p in stable_pairs()]
    round_trips = [build_table(to_pair(to_quandle(p))) for p in pairs]
    del calls[:]
    for p, rt in zip(pairs, round_trips):
        assert to_quandle(p).n == len(p.omega)
        assert check_surj_morphism(eta_surj(p, rt)) == []
        assert check_star_morphism(eta_star(p, rt)) == []
    for src, tgt in itertools.product(pairs, repeat=2):
        for m in enumerate_star_morphisms(src, tgt):
            assert check_star_morphism(m) == []
        for m in enumerate_surj_morphisms(src, tgt):
            assert check_surj_morphism(m) == []
    assert calls == []


def test_describing_a_large_pair_reads_no_conjugation_table(monkeypatch, tmp_path, capsys):
    # conj_stable conjugates omega by the group's generators only, so
    # make genpair on all of S6 costs |gens| * |omega| conjugates, not
    # |omega|^2 table entries
    from quandlekit import make_genpair, perm
    from quandlekit.perm import ConjugationTable

    def refuse(row, j):
        raise AssertionError("conjugation table entry %r read" % (j,))

    monkeypatch.setattr(ConjugationTable.Row, "__missing__", refuse)
    assert main(["make", "genpair", "symmetric", "6", "all", "--out", str(tmp_path / "s6.g")]) == 0
    assert "conj-stable: yes" in capsys.readouterr().out
    s6 = symmetric_group(6)
    p = make_genpair(s6, s6.elements)
    calls = []
    real = perm.conjugate
    monkeypatch.setattr(perm, "conjugate", lambda g, s: calls.append(None) or real(g, s))
    assert p.conj_stable and len(calls) == len(s6.generators) * len(p.omega)
    assert not make_genpair(s6, s6.generators).conj_stable


def test_star_checks_and_searches_read_only_the_target_entries_they_reach(monkeypatch):
    # a star morphism into all of S6 (720 omega members) from inn(R3):
    # the check reads at most 2 * |generators| * |gamma| target entries
    # (perm.generator_blocks), and a search cut by the cap at most k(k-1)
    # entries per assignment, never all 720^2
    from quandlekit import grpgen, make_genpair, make_star_morphism

    def swap(n, a, b):
        p = list(range(n))
        p[a], p[b] = b, a
        return tuple(p)

    src, s6 = inn(dihedral(3)), symmetric_group(6)
    tgt = make_genpair(s6, s6.elements)
    proj = {swap(6, a, b): swap(3, a, b) for a, b in ((0, 1), (0, 2), (1, 2))}
    assert check_star_morphism(make_star_morphism(src, tgt, proj)) == []
    assert entries_read(tgt.conj_table) <= 2 * 2 * 3
    monkeypatch.setattr(grpgen, "SUBSET_CAP", 2000)
    tgt = make_genpair(s6, s6.elements)
    with pytest.raises(CapExceeded):
        enumerate_star_morphisms(src, tgt)
    assert entries_read(tgt.conj_table) <= 3 * 2 * grpgen.SUBSET_CAP < len(tgt.omega) ** 2 // 20


def test_round_trip_theta_is_isomorphism():
    for q in (dihedral(3), dihedral(9), conj_s3()):
        th = theta(q, to_pair(q))
        assert check_hom(th) == []
        assert th.is_injective() and th.is_surjective()
        assert th.source.n == q.n


def test_eta_surj_is_bijective_morphism():
    for q in (dihedral(3), dihedral(9)):
        p = to_pair(q)
        m = eta_surj(p, to_pair(to_quandle(p)))
        assert check_surj_morphism(m) == [] and m.is_injective()
        assert m.target == p


def test_eta_star_is_isomorphism():
    for q in (dihedral(3), conj_s3()):
        p = to_pair(q)
        m = eta_star(p, to_pair(to_quandle(p)))
        assert check_star_morphism(m) == []
        assert is_star_isomorphism(m)


def test_forward_functor_on_morphisms():
    r3, r9 = dihedral(3), dihedral(9)
    p3, p9 = to_pair(r3), to_pair(r9)
    f = enumerate_homs(r3, r9, "injective")[0]
    m = induced_injective(f, p3, p9)
    assert check_star_morphism(m) == []
    g = QuandleHom(r9, r3, tuple(k % 3 for k in range(9)))
    m2 = induced_surjective(g, p9, p3)
    assert check_surj_morphism(m2) == []


def test_forward_functor_respects_composition():
    # the embedding k -> 3k followed by negation, pushed through the functor
    # one hom at a time, matches the functor of the composite
    r3, r9 = dihedral(3), dihedral(9)
    f1 = QuandleHom(r3, r9, (0, 3, 6))
    f2 = QuandleHom(r9, r9, tuple(-x % 9 for x in range(9)))
    assert check_hom(f1) == [] and check_hom(f2) == []
    p3, p9 = to_pair(r3), to_pair(r9)
    m1, m2 = induced_injective(f1, p3, p9), induced_injective(f2, p9, p9)
    assert not is_star_isomorphism(m1)  # proper subgroup of order 6
    assert is_star_isomorphism(m2)
    composite = induced_injective(compose_homs(f2, f1), p3, p9)
    assert check_star_morphism(composite) == []
    assert compose_star(m2, m1) == composite


def test_backward_functor_inverts_forward():
    # G(F(f)) agrees with f after matching points through theta
    r3, r9 = dihedral(3), dihedral(9)
    p3, p9 = to_pair(r3), to_pair(r9)
    th3, th9 = theta(r3, p3), theta(r9, p9)
    for f in enumerate_homs(r3, r9, "injective"):
        gf = G_inj_mor(induced_injective(f, p3, p9), to_quandle(p3), to_quandle(p9))
        assert check_hom(gf) == [] and gf.is_injective()
        left = tuple(th9.mapping[v] for v in gf.mapping)
        right = tuple(f.mapping[v] for v in th3.mapping)
        assert left == right


def test_backward_functor_surjective_flavor():
    r9, r3 = dihedral(9), dihedral(3)
    p9, p3 = to_pair(r9), to_pair(r3)
    th9, th3 = theta(r9, p9), theta(r3, p3)
    f = QuandleHom(r9, r3, tuple(k % 3 for k in range(9)))
    gf = G_surj_mor(induced_surjective(f, p9, p3), to_quandle(p9), to_quandle(p3))
    assert check_hom(gf) == [] and gf.is_surjective()
    left = tuple(th3.mapping[v] for v in gf.mapping)
    right = tuple(f.mapping[v] for v in th9.mapping)
    assert left == right


def test_functor_identity_laws():
    r3 = dihedral(3)
    p3 = to_pair(r3)
    from quandlekit import identity_star, identity_surj

    assert induced_injective(identity_hom(r3), p3, p3) == identity_star(p3)
    assert induced_surjective(identity_hom(r3), p3, p3) == identity_surj(p3)
    cq = to_quandle(p3)
    assert G_inj_mor(identity_star(p3), cq, cq) == identity_hom(cq)
    assert G_surj_mor(identity_surj(p3), cq, cq) == identity_hom(cq)


def test_verify_equivalence_small_corpus():
    corpus = [dihedral(3), dihedral(5)]
    for mode in ("surjective", "injective", "surj", "inj"):
        report = verify_equivalence(corpus, mode, names=["r3", "r5"])
        assert report.failures == []
        assert len(report.records) > 20
        checks = {r.check for r in report.records}
        assert "hom_count" in checks
        assert "theta_naturality" in checks
        assert "eta_naturality" in checks
        assert "functor_F_composition" in checks
        assert "composition_associative" in checks


def test_verify_equivalence_mixed_corpus():
    corpus = [dihedral(3), conj_s3()]
    for mode in ("surjective", "injective"):
        report = verify_equivalence(corpus, mode, names=["r3", "conj_s3"])
        assert report.failures == [], report.summary()


def test_verify_equivalence_empty_corpus():
    for mode in ("surjective", "injective"):
        report = verify_equivalence([], mode)
        assert report.records == []
        assert report.failures == []


def test_degenerate_one_point_instance():
    # identity omega only generates the trivial group; on anything larger
    # the pair is rejected, on the trivial group the whole round trip works
    from quandlekit import close_group, make_genpair

    g = symmetric_group(3)
    with pytest.raises(ValueError):
        make_genpair(g, [g.identity])
    tiny = make_genpair(close_group([(0,)]), [(0,)])
    assert tiny.conj_stable and tiny.faithful
    assert to_quandle(tiny).n == 1
    assert is_star_isomorphism(eta_star(tiny, to_pair(to_quandle(tiny))))


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_builds_each_inner_group_once(monkeypatch, mode):
    # one inner group per corpus member and one per round trip: eta reuses
    # the round trip verify_equivalence built
    calls = []
    real_inn = functors.inn

    def counting_inn(*args, **kwargs):
        calls.append(args[0])
        return real_inn(*args, **kwargs)

    monkeypatch.setattr(functors, "inn", counting_inn)
    corpus = [dihedral(3), dihedral(5)]
    assert verify_equivalence(corpus, mode).failures == []
    assert len(calls) == 2 * len(corpus)


def test_verify_equivalence_rejects_unfaithful():
    with pytest.raises(ValueError, match="not faithful"):
        verify_equivalence([dihedral(4)], "injective")


def test_verify_equivalence_rejects_bad_mode():
    with pytest.raises(ValueError):
        verify_equivalence([dihedral(3)], "both")


def test_report_shapes():
    report = verify_equivalence([dihedral(3)], "surjective", names=["r3"])
    d = report.to_dict()
    assert d["mode"] == "surjective"
    assert d["failures"] == 0
    assert d["checks"] == len(d["records"])
    assert report.summary().startswith("mode surjective")
    line = report.records[0].line()
    assert line.startswith("ok") or line.startswith("FAIL")


# Full to_dict() reports of verify_equivalence, keyed "<mode> <corpus>", so
# that any change to the record list (order, names, details) shows.
GOLDEN_REPORTS = json.loads(Path(__file__).with_name("golden_reports.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN_REPORTS))
def test_verify_equivalence_matches_golden_report(key):
    mode, corpus = key.split(" ")
    tokens, quandles, [mode] = load_corpus(corpus, mode)
    report = verify_equivalence(quandles, mode, names=tokens)
    assert report.to_dict() == GOLDEN_REPORTS[key]


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_tests_only_the_corpus_for_faithfulness(monkeypatch, mode):
    # each corpus member is tested by verify_equivalence and again by
    # to_pair; the round trips are built with inn untested, since the
    # conjugation quandle of a faithful pair is faithful: 10 is_faithful
    # calls on the 5-member default corpus, not 15
    calls = []
    real = functors.is_faithful
    monkeypatch.setattr(functors, "is_faithful", lambda q: calls.append(q) or real(q))
    round_trips = _recording_inn(monkeypatch)
    tokens, quandles, [mode] = load_corpus("r3,r5,r7,r9,conj:s3", mode)
    assert verify_equivalence(quandles, mode, names=tokens).failures == []
    assert calls == quandles + quandles
    assert len(round_trips) == 10 and all(real(to_quandle(p)) for p in round_trips[5:])


# The functions each flavor's record reads from functors' globals.
FLAVOR_FUNCTIONS = {
    "surjective": {
        "enumerate": "enumerate_surj_morphisms",
        "forward": "induced_surjective",
        "backward": "G_surj_mor",
        "compose": "compose_surj",
        "eta": "eta_surj",
        "theta": "theta",
    },
    "injective": {
        "enumerate": "enumerate_star_morphisms",
        "forward": "induced_injective",
        "backward": "G_inj_mor",
        "compose": "compose_star",
        "eta": "eta_star",
        "theta": "theta",
    },
}


def _patch(monkeypatch, mode, role, make):
    """Replace one function of the flavor by make(original)."""
    name = FLAVOR_FUNCTIONS[mode][role]
    monkeypatch.setattr(functors, name, make(getattr(functors, name)))


def _raising(exc):
    def make(orig):
        def fake(*args, **kwargs):
            raise exc

        return fake

    return make


@pytest.mark.parametrize("mode", ["surjective", "injective"])
@pytest.mark.parametrize("role", ["enumerate", "compose", "eta"])
def test_verify_equivalence_cap_propagates(monkeypatch, mode, role):
    _patch(monkeypatch, mode, role, _raising(CapExceeded("injected cap")))
    with pytest.raises(CapExceeded, match="injected cap"):
        verify_equivalence([dihedral(3)], mode)


def test_verify_cli_exits_2_on_cap(monkeypatch, capsys):
    _patch(monkeypatch, "injective", "enumerate", _raising(CapExceeded("injected cap")))
    assert main(["verify", "--corpus", "r3", "--mode", "inj"]) == 2
    assert "error: injected cap" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["surjective", "injective"])
@pytest.mark.parametrize(
    "role, failing",
    [
        pytest.param("theta", {"theta_iso"}, id="theta"),
        pytest.param("eta", {"eta_iso"}, id="eta"),
        pytest.param("forward", {"functor_F_identity", "enumeration"}, id="forward"),
        pytest.param(
            "backward",
            {"functor_G_identity", "theta_naturality", "eta_naturality"},
            id="backward",
        ),
        pytest.param(
            "compose",
            {
                "eta_naturality",
                "functor_F_composition",
                "functor_G_composition",
                "composition_associative",
                "composition_unital",
            },
            id="compose",
        ),
    ],
)
def test_verify_equivalence_records_runtime_errors(monkeypatch, mode, role, failing):
    _patch(monkeypatch, mode, role, _raising(RuntimeError("injected fault")))
    report = verify_equivalence([dihedral(3)], mode, names=["r3"])
    assert {r.check for r in report.failures} == failing
    assert {r.detail for r in report.failures} == {"injected fault"}


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_records_runtime_error_in_G_composition(monkeypatch, mode):
    # compose tags its results and the backward map raises on a tagged
    # morphism, which only the G composition law hands it
    def tag(orig):
        def fake(*args, **kwargs):
            out = orig(*args, **kwargs)
            out.composite = True
            return out

        return fake

    def fail_on_tag(orig):
        def fake(m, *args, **kwargs):
            if getattr(m, "composite", False):
                raise RuntimeError("injected fault")
            return orig(m, *args, **kwargs)

        return fake

    _patch(monkeypatch, mode, "compose", tag)
    _patch(monkeypatch, mode, "backward", fail_on_tag)
    report = verify_equivalence([dihedral(3)], mode, names=["r3"])
    assert [(r.check, r.detail) for r in report.failures] == [
        ("functor_G_composition", "injected fault")
    ]


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_G_law_compares_with_the_chained_images(monkeypatch, mode):
    # compose tags its results and the backward map sends a tagged
    # morphism to a wrong but well-formed point map, its true one reversed
    # (no bijection of R3 is a palindrome): the G law's right-hand side is
    # chained from the two backward images, not read off the composite, so
    # the law must fail, and only it
    def tag(orig):
        def fake(*args, **kwargs):
            out = orig(*args, **kwargs)
            out.composite = True
            return out

        return fake

    def reversed_on_tag(orig):
        def fake(m, source, target):
            g = orig(m, source, target)
            if getattr(m, "composite", False):
                return QuandleHom(source, target, g.mapping[::-1])
            return g

        return fake

    _patch(monkeypatch, mode, "compose", tag)
    _patch(monkeypatch, mode, "backward", reversed_on_tag)
    report = verify_equivalence([dihedral(3)], mode, names=["r3"])
    assert [(r.check, r.detail) for r in report.failures] == [
        ("functor_G_composition", "G(m2 m1) != G(m2) G(m1)")
    ]


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_composes_quandle_homs_only_for_theta_naturality(monkeypatch, mode):
    # theta naturality composes each hom of a leg twice, once per side of
    # its square; the composition laws compare point tuples and build no
    # composite QuandleHom per pair
    corpus = [dihedral(3), dihedral(5)]
    homs_per_leg = [len(enumerate_homs(q1, q2, mode)) for q1, q2 in itertools.product(corpus, repeat=2)]
    calls = []

    def counting(f2, f1):
        calls.append((f2, f1))
        return compose_homs(f2, f1)

    monkeypatch.setattr(functors, "compose_homs", counting)
    report = verify_equivalence(corpus, mode, names=["r3", "r5"])
    assert report.failures == []
    assert sum(r.check == "theta_naturality" for r in report.records) == len(homs_per_leg)
    assert len(calls) == 2 * sum(homs_per_leg) > 0


def test_verify_equivalence_failed_enumeration_leaves_composites_missing(monkeypatch):
    # a -> c fails to enumerate while a -> b and b -> c succeed, so F
    # composition along a -> b -> c has no composite to compare with
    r3s = [dihedral(3)] * 3

    def fail_a_to_c(orig):
        def fake(f, source_pair, target_pair, *args, **kwargs):
            # the three pairs are equal, so tell them apart by identity
            if source_pair is pairs[0] and target_pair is pairs[2]:
                raise RuntimeError("injected fault")
            return orig(f, source_pair, target_pair, *args, **kwargs)

        return fake

    pairs = []  # every pair to_pair builds; the corpus's three come first
    real_to_pair = functors.to_pair

    def recording_to_pair(q, cap):
        pairs.append(real_to_pair(q, cap))
        return pairs[-1]

    monkeypatch.setattr(functors, "to_pair", recording_to_pair)
    _patch(monkeypatch, "surjective", "forward", fail_a_to_c)
    report = verify_equivalence(r3s, "surjective", names=["a", "b", "c"])
    assert [(r.check, r.instance, r.detail) for r in report.failures] == [
        ("enumeration", "a -> c", "injected fault"),
        ("functor_F_composition", "a -> b -> c", "composite hom missing from enumeration"),
    ]


def _wrong_compose(orig):
    # the inner morphism: well formed on endomorphisms, but m2 is dropped
    return lambda m2, m1, *args, **kwargs: m1


def _wrong_backward(orig):
    # reversed images: another bijection, so still a hom of R3, but not G(m)
    def fake(m, *args, **kwargs):
        f = orig(m, *args, **kwargs)
        return QuandleHom(f.source, f.target, tuple(reversed(f.mapping)))

    return fake


def _wrong_forward(orig):
    # every hom goes to the image of the identity
    return lambda f, *args, **kwargs: orig(identity_hom(f.source), *args, **kwargs)


def _then(transform):
    """The maker whose function returns transform(the original's result)."""
    return lambda orig: lambda *args, **kwargs: transform(orig(*args, **kwargs))


def _positions(m):
    """A group-side morphism's stored positions as a dict, source omega
    position to target omega position, in both flavors."""
    return dict(enumerate(m.images))


def _with_positions(m, graph):
    """m with its stored positions replaced by graph (from _positions)."""
    return dataclasses.replace(m, images=tuple(graph[i] for i in range(len(graph))))


def _corrupted(m):
    # a group-side morphism with its value at one element (not the identity)
    # replaced by another of its values: well formed, not a homomorphism
    graph = _positions(m)
    g = max(graph)
    graph[g] = next(v for v in sorted(graph.values()) if v != graph[g])
    return _with_positions(m, graph)


def _swapped(f):
    # the images of points 0 and 1 exchanged: on R5 a bijection but no hom
    return QuandleHom(f.source, f.target, (f.mapping[1], f.mapping[0]) + f.mapping[2:])


def _constant(f):
    # a hom, but neither injective nor surjective
    return QuandleHom(f.source, f.target, (0,) * f.source.n)


@pytest.mark.parametrize("mode", ["surjective", "injective"])
@pytest.mark.parametrize(
    "role, make, failing",
    [
        pytest.param(
            "compose",
            _wrong_compose,
            {"eta_naturality", "functor_F_composition", "functor_G_composition", "composition_unital"},
            id="compose",
        ),
        pytest.param(
            "backward",
            _wrong_backward,
            {"functor_G_identity", "theta_naturality", "eta_naturality", "functor_G_composition"},
            id="backward",
        ),
        pytest.param(
            "forward",
            _wrong_forward,
            {"functor_injective", "functor_onto", "theta_naturality", "eta_naturality"},
            id="forward",
        ),
        # well formed but invalid: only a check that verify_equivalence runs
        # itself (the constructors build without checking) catches each.  A
        # forward image is not checked on its own: it differs from every
        # enumerated morphism, which passed the flavor's check in the search,
        # so functor_onto and the laws that compare it catch it
        pytest.param(
            "forward",
            _then(_corrupted),
            {
                "functor_F_identity",
                "functor_onto",
                "theta_naturality",
                "eta_naturality",
                "functor_F_composition",
            },
            id="non-hom-forward",
        ),
        pytest.param(
            "backward",
            _then(_swapped),
            {"functor_G_identity", "theta_naturality", "eta_naturality"},
            id="non-hom-backward",
        ),
        pytest.param(
            "backward",
            _then(_constant),
            {"functor_G_identity", "theta_naturality", "eta_naturality"},
            id="wrong-mode-backward",
        ),
        pytest.param("eta", _then(_corrupted), {"eta_iso"}, id="non-hom-eta"),
        pytest.param("theta", _then(_swapped), {"theta_iso"}, id="non-hom-theta"),
        pytest.param("theta", _then(_constant), {"theta_iso"}, id="non-iso-theta"),
    ],
)
def test_verify_equivalence_catches_wrong_operations(monkeypatch, mode, role, make, failing):
    # corpus R5 alone: every morphism is an endomorphism, so a wrong value
    # of the right shape composes and compares without raising; and some
    # bijections of R5 are not homs
    _patch(monkeypatch, mode, role, make)
    report = verify_equivalence([dihedral(5)], mode, names=["r5"])
    assert {r.check for r in report.failures} == failing, report.summary()


def _recording_inn(monkeypatch):
    """Patch functors.inn, through which to_pair builds the corpus members'
    pairs and verify_equivalence their round trips', to record every pair
    it builds, in order: the corpus members' first, then their round
    trips'.  Returns the list."""
    pairs = []
    real_inn = functors.inn

    def recording_inn(q, cap):
        pairs.append(real_inn(q, cap))
        return pairs[-1]

    monkeypatch.setattr(functors, "inn", recording_inn)
    return pairs


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_catches_one_wrong_composite_deep_in_the_laws(monkeypatch, mode):
    # corpus r3, r9: R9 -> R9 -> R9 alone has 54 * 54 composable pairs per
    # law.  compose is wrong on one pair only, the last two morphisms the
    # search lists, so no naturality square and no sampled law meets it,
    # and both composition laws must reach it inside their loop
    fl = functors._flavor(mode)
    r9 = to_pair(dihedral(9))
    ms = fl.enumerate(r9, r9)
    late, identity = (ms[-2].key(), ms[-1].key()), tuple(range(len(r9.omega)))
    assert len(ms) ** 2 > 1000 and identity not in late
    right = fl.compose(ms[-2], ms[-1]).images
    wrong = next(m.images for m in ms if m.images != right)
    pairs = _recording_inn(monkeypatch)

    def wrong_on_one_pair(orig):
        def fake(m2, m1):
            out = orig(m2, m1)
            ends = (m1.source, m1.target, m2.source, m2.target)
            if all(p is pairs[1] for p in ends) and (m2.key(), m1.key()) == late:
                return dataclasses.replace(out, images=wrong)
            return out

        return fake

    _patch(monkeypatch, mode, "compose", wrong_on_one_pair)
    report = verify_equivalence([dihedral(3), dihedral(9)], mode, names=["r3", "r9"])
    assert [(r.check, r.instance, r.detail) for r in report.failures] == [
        ("functor_F_composition", "r9 -> r9 -> r9", "F(f2 f1) != F(f2) F(f1)"),
        ("functor_G_composition", "r9 -> r9 -> r9", "G(m2 m1) != G(m2) G(m1)"),
    ]


@pytest.mark.parametrize("mode", ["surjective", "injective"])
@pytest.mark.parametrize("first", ["F", "G"])
def test_verify_equivalence_checks_each_composition_law_past_the_others_failure(
    monkeypatch, mode, first
):
    # corpus a, b, c, each R3.  compose is wrong on the last pair of
    # a -> b -> c only, and one law fails on its first pair there: F when
    # a -> c fails to enumerate (no composite to compare with), G when the
    # backward map raises on the other composites of a -> b -> c, which
    # compose tags.  The loop the laws share must still take the other law
    # to the last pair
    fl = functors._flavor(mode)
    r3 = to_pair(dihedral(3))
    ms = fl.enumerate(r3, r3)
    late = (ms[-2].key(), ms[-1].key())
    right = fl.compose(ms[-2], ms[-1]).images
    wrong = next(m.images for m in ms if m.images != right)
    pairs = _recording_inn(monkeypatch)

    def wrong_on_the_last_pair(orig):
        def fake(m2, m1):
            out = orig(m2, m1)
            a, b, c = pairs[:3]
            if m1.source is a and m1.target is b and m2.source is b and m2.target is c:
                if (m2.key(), m1.key()) == late:
                    return dataclasses.replace(out, images=wrong)
                out.composite = True
            return out

        return fake

    def fail_a_to_c(orig):
        def fake(f, source_pair, target_pair):
            if source_pair is pairs[0] and target_pair is pairs[2]:
                raise RuntimeError("injected fault")
            return orig(f, source_pair, target_pair)

        return fake

    def fail_on_composites(orig):
        def fake(m, *args):
            if getattr(m, "composite", False):
                raise RuntimeError("injected fault")
            return orig(m, *args)

        return fake

    _patch(monkeypatch, mode, "compose", wrong_on_the_last_pair)
    if first == "F":
        _patch(monkeypatch, mode, "forward", fail_a_to_c)
        expected = [
            ("functor_F_composition", "composite hom missing from enumeration"),
            ("functor_G_composition", "G(m2 m1) != G(m2) G(m1)"),
        ]
    else:
        _patch(monkeypatch, mode, "backward", fail_on_composites)
        expected = [
            ("functor_F_composition", "F(f2 f1) != F(f2) F(f1)"),
            ("functor_G_composition", "injected fault"),
        ]
    report = verify_equivalence([dihedral(3)] * 3, mode, names=["a", "b", "c"])
    records = [r for r in report.records if r.instance == "a -> b -> c"]
    assert [(r.check, r.detail) for r in records if not r.passed] == expected


# The failures verify_equivalence records when the forward images of one
# leg only are corrupted (_corrupted: well formed, no homomorphism), so they
# match no enumerated morphism and the laws compose each side of that leg
# on its own.  Pinned from the two separate law loops this one replaced.
F_COMPOSITION_DETAIL = "F(f2 f1) != F(f2) F(f1)"
UNMATCHED_LEG_FAILURES = {
    "surjective": (
        "r9",
        "r3",
        [
            ["functor_onto", "r9 -> r3", "forward image must equal the enumerated group side"],
            ["theta_naturality", "r9 -> r3", "6 homs"],
            ["functor_F_composition", "r9 -> r3 -> r3", F_COMPOSITION_DETAIL],
            ["functor_F_composition", "r9 -> r9 -> r3", F_COMPOSITION_DETAIL],
        ],
    ),
    "injective": (
        "r3",
        "r9",
        [
            ["functor_onto", "r3 -> r9", "forward image must equal the enumerated group side"],
            ["theta_naturality", "r3 -> r9", "18 homs"],
            ["functor_F_composition", "r3 -> r3 -> r9", F_COMPOSITION_DETAIL],
            ["functor_F_composition", "r3 -> r9 -> r9", F_COMPOSITION_DETAIL],
        ],
    ),
}


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_records_the_same_failures_on_an_unmatched_leg(monkeypatch, mode):
    source, target, expected = UNMATCHED_LEG_FAILURES[mode]
    names = ["r3", "r9"]
    pairs = _recording_inn(monkeypatch)

    def corrupt_one_leg(orig):
        def fake(f, source_pair, target_pair):
            m = orig(f, source_pair, target_pair)
            # round trips may equal the corpus pairs, so compare identities
            i, j = names.index(source), names.index(target)
            return _corrupted(m) if source_pair is pairs[i] and target_pair is pairs[j] else m

        return fake

    _patch(monkeypatch, mode, "forward", corrupt_one_leg)
    report = verify_equivalence([dihedral(3), dihedral(9)], mode, names=names)
    assert [[r.check, r.instance, r.detail] for r in report.failures] == expected
    # the G law composes the enumerated side of that leg, which is right
    g_laws = [r for r in report.records if r.check == "functor_G_composition"]
    assert {r.instance for r in g_laws} >= {row[1] for row in expected[2:]}
    assert all(r.passed for r in g_laws)


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_checks_each_quandle_map_once(monkeypatch, mode):
    # check_hom runs on theta once per member and on each backward image
    # once, where it enters F; F itself re-proves nothing
    corpus = [dihedral(3), dihedral(5)]
    pairs = [to_pair(q) for q in corpus]
    enumerate_group_side = functors._flavor(mode).enumerate
    expected = len(corpus) + sum(
        len(enumerate_group_side(p1, p2)) for p1, p2 in itertools.product(pairs, repeat=2)
    )
    calls = []

    def spy(f):
        calls.append(f)
        return check_hom(f)

    monkeypatch.setattr(homs, "check_hom", spy)
    monkeypatch.setattr(functors, "check_hom", spy)
    report = verify_equivalence(corpus, mode, names=["r3", "r5"])
    assert report.failures == []
    assert len(calls) == expected


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_checks_each_group_side_morphism_once(monkeypatch, mode):
    # the flavor's check runs on eta once per member and never on a forward
    # image: every enumerated morphism passed it inside the search, and
    # functor_onto matches the forward images with those
    corpus = [dihedral(3), dihedral(5)]
    fl = functors._flavor(mode)
    pairs = [to_pair(q) for q in corpus]
    etas = [fl.eta(p, to_pair(to_quandle(p))) for p in pairs]
    check_name = fl.check.__name__
    calls = []

    def spy(m):
        calls.append(m)
        return getattr(grpgen, check_name)(m)

    monkeypatch.setattr(functors, check_name, spy)
    report = verify_equivalence(corpus, mode, names=["r3", "r5"])
    assert report.failures == []
    assert calls == etas


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_records_a_forward_value_off_the_generators(monkeypatch, mode):
    # only the forward images between round trips are corrupted: eta
    # naturality composes them with eta unchecked.  One generator value
    # becomes a position past the target omega, which is no generator; in
    # both flavors the composite raises RuntimeError on it, and the law is
    # recorded as failing, not raised
    pairs = _recording_inn(monkeypatch)  # R5's pair, then its round trip's

    def off_generators(orig):
        def fake(f, source_pair, target_pair):
            m = orig(f, source_pair, target_pair)
            if source_pair is not pairs[1]:
                return m
            graph = _positions(m)
            graph[max(graph)] = len(m.target.omega)
            return _with_positions(m, graph)

        return fake

    _patch(monkeypatch, mode, "forward", off_generators)
    report = verify_equivalence([dihedral(5)], mode, names=["r5"])
    assert [r.check for r in report.failures] == ["eta_naturality"], report.summary()
    assert "leaves the outer" in report.failures[0].detail


def _assert_trusted(f):
    # a hom built without __post_init__'s checks equals the validated one
    assert type(f.mapping) is tuple
    assert f == QuandleHom(f.source, f.target, f.mapping)


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_compositions_and_backward_maps_match_the_slow_oracle(mode):
    # every enumerated morphism between the inner pairs of the faithful
    # quandles of order <= 4, R5 and R9, and every composable pair of them:
    # the integer composites and backward images agree with composing the
    # permutation values as group maps and restricting to omega
    quandles = [q for n in range(1, 5) for q in iso_class_representatives(n) if is_faithful(q)]
    pairs = [inn(q) for q in [*quandles, dihedral(5), dihedral(9)]]
    conjs = [to_quandle(p) for p in pairs]
    if mode == "surjective":
        enumerate_, compose, backward = enumerate_surj_morphisms, compose_surj, G_surj_mor

        def values(m):
            return dict(m.mapping)

        def oracle(m2, m1):
            return compose_by_extension(values(m1), values(m2))

        def points(vals, src, tgt):
            return as_point_map(vals, src.omega, tgt.omega)

    else:
        enumerate_, compose, backward = enumerate_star_morphisms, compose_star, G_inj_mor

        def values(m):
            return dict(m.proj)

        def oracle(m2, m1):
            return compose_by_extension(values(m2), values(m1))

        def points(vals, src, tgt):
            return as_point_map({v: g for g, v in vals.items()}, src.omega, tgt.omega)

    homs = {}
    for i, j in itertools.product(range(len(pairs)), repeat=2):
        homs[i, j] = [(m, backward(m, conjs[i], conjs[j])) for m in enumerate_(pairs[i], pairs[j])]
        for m, g in homs[i, j]:
            assert g.mapping == points(values(m), pairs[i], pairs[j])
            _assert_trusted(g)
    seen = 0
    for i, j, l in itertools.product(range(len(pairs)), repeat=3):
        for (m1, g1), (m2, g2) in itertools.product(homs[i, j], homs[j, l]):
            expected = oracle(m2, m1)
            composite = compose(m2, m1)
            assert values(composite) == expected
            g = backward(composite, conjs[i], conjs[l])
            h = compose_homs(g2, g1)
            assert g.mapping == h.mapping == points(expected, pairs[i], pairs[l])
            _assert_trusted(g)
            _assert_trusted(h)
            seen += 1
    assert seen > 1000


def test_both_flavors_store_the_same_positions():
    # a bijective hom induces one position tuple in either flavor: the
    # surjective map's values and the star morphism's sigma, the inverse of
    # its projection; so the backward functors agree on them too.  Every
    # enumerated star morphism's proj inverts sigma, and its domain_omega
    # lists set(sigma) in order
    quandles = [q for n in range(1, 5) for q in iso_class_representatives(n) if is_faithful(q)]
    quandles += [dihedral(5), dihedral(9)]
    pairs = [inn(q) for q in quandles]
    conjs = [to_quandle(p) for p in pairs]
    bijective = stars = 0
    for i, j in itertools.product(range(len(quandles)), repeat=2):
        p1, p2 = pairs[i], pairs[j]
        if quandles[i].n == quandles[j].n:
            for f in enumerate_homs(quandles[i], quandles[j], "injective"):
                star, surj = induced_injective(f, p1, p2), induced_surjective(f, p1, p2)
                assert star.images == surj.images
                assert G_inj_mor(star, conjs[i], conjs[j]) == G_surj_mor(surj, conjs[i], conjs[j])
                bijective += 1
        for m in enumerate_star_morphisms(p1, p2):
            sigma = m.images
            assert len(m.proj) == len(sigma) == len(p1.omega)
            assert all(m.proj[p2.omega[a]] == p1.omega[x] for x, a in enumerate(sigma))
            assert m.domain_omega == tuple(p2.omega[a] for a in sorted(set(sigma)))
            stars += 1
    assert bijective > 50 and stars > bijective


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: to_quandle(make_genpair(cyclic_group(3), [(1, 2, 0)])),
            "omega has a non-trivial centralizer",
        ),
        (
            lambda: verify_equivalence([dihedral(3)], "surjective", names=["r3", "r5"]),
            "names length differs from corpus length",
        ),
    ],
    ids=["to-quandle-abelian", "verify-names-length"],
)
def test_functor_entry_points_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()
