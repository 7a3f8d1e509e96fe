import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from quandlekit import (
    CapExceeded,
    F_inj_mor,
    F_surj_mor,
    G_inj_mor,
    G_surj_mor,
    QuandleHom,
    StarMorphism,
    check_hom,
    check_star_morphism,
    check_surj_morphism,
    compose_homs,
    compose_star,
    compose_surj,
    conjugation_quandle,
    dihedral,
    enumerate_homs,
    enumerate_star_morphisms,
    enumerate_surj_morphisms,
    eta_star,
    eta_surj,
    identity_hom,
    inn,
    is_faithful,
    is_star_isomorphism,
    symmetric_group,
    theta,
    to_pair,
    to_quandle,
    trivial_quandle,
    verify_equivalence,
)
from quandlekit import functors
from quandlekit.cli import load_corpus, main

from helpers import as_point_map, compose_by_extension, iso_class_representatives


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
    m = F_inj_mor(f, p3, p9)
    assert check_star_morphism(m) == []
    g = QuandleHom(r9, r3, tuple(k % 3 for k in range(9)))
    m2 = F_surj_mor(g, p9, p3)
    assert check_surj_morphism(m2) == []


def test_forward_functor_respects_composition():
    # the embedding k -> 3k followed by negation, pushed through the functor
    # one hom at a time, matches the functor of the composite
    r3, r9 = dihedral(3), dihedral(9)
    f1 = QuandleHom(r3, r9, (0, 3, 6))
    f2 = QuandleHom(r9, r9, tuple(-x % 9 for x in range(9)))
    assert check_hom(f1) == [] and check_hom(f2) == []
    p3, p9 = to_pair(r3), to_pair(r9)
    m1, m2 = F_inj_mor(f1, p3, p9), F_inj_mor(f2, p9, p9)
    assert not is_star_isomorphism(m1)  # proper subgroup of order 6
    assert is_star_isomorphism(m2)
    composite = F_inj_mor(compose_homs(f2, f1), p3, p9)
    assert check_star_morphism(composite) == []
    assert compose_star(m2, m1) == composite


def test_backward_functor_inverts_forward():
    # G(F(f)) agrees with f after matching points through theta
    r3, r9 = dihedral(3), dihedral(9)
    p3, p9 = to_pair(r3), to_pair(r9)
    th3, th9 = theta(r3, p3), theta(r9, p9)
    for f in enumerate_homs(r3, r9, "injective"):
        gf = G_inj_mor(F_inj_mor(f, p3, p9), to_quandle(p3), to_quandle(p9))
        assert check_hom(gf) == [] and gf.is_injective()
        left = tuple(th9.mapping[v] for v in gf.mapping)
        right = tuple(f.mapping[v] for v in th3.mapping)
        assert left == right


def test_backward_functor_surjective_flavor():
    r9, r3 = dihedral(9), dihedral(3)
    p9, p3 = to_pair(r9), to_pair(r3)
    th9, th3 = theta(r9, p9), theta(r3, p3)
    f = QuandleHom(r9, r3, tuple(k % 3 for k in range(9)))
    gf = G_surj_mor(F_surj_mor(f, p9, p3), to_quandle(p9), to_quandle(p3))
    assert check_hom(gf) == [] and gf.is_surjective()
    left = tuple(th3.mapping[v] for v in gf.mapping)
    right = tuple(f.mapping[v] for v in th9.mapping)
    assert left == right


def test_functor_identity_laws():
    r3 = dihedral(3)
    p3 = to_pair(r3)
    from quandlekit import identity_star, identity_surj

    assert F_inj_mor(identity_hom(r3), p3, p3) == identity_star(p3)
    assert F_surj_mor(identity_hom(r3), p3, p3) == identity_surj(p3)
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
    """A group-side morphism's stored values as a dict of omega positions."""
    return dict(m.images) if isinstance(m, StarMorphism) else dict(enumerate(m.images))


def _with_positions(m, graph):
    """m with its stored values replaced by graph (from _positions)."""
    images = graph if isinstance(m, StarMorphism) else tuple(graph[i] for i in range(len(graph)))
    return dataclasses.replace(m, images=images)


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
        # itself (the constructors build without checking) catches each
        pytest.param(
            "forward",
            _then(_corrupted),
            {"enumeration", "functor_F_identity"},
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


@pytest.mark.parametrize("mode", ["surjective", "injective"])
def test_verify_equivalence_records_a_forward_value_off_the_generators(monkeypatch, mode):
    # only the forward images between round trips are corrupted: eta
    # naturality composes them with eta unchecked.  One generator value
    # becomes a position past omega, which is no generator; the surjective
    # composite raises RuntimeError on it and the star composite carries
    # it, and either way the law is recorded as failing, not raised
    pairs = []  # every pair to_pair builds: R5's, then its round trip's
    real_to_pair = functors.to_pair

    def recording_to_pair(q, cap):
        pairs.append(real_to_pair(q, cap))
        return pairs[-1]

    def off_generators(orig):
        def fake(f, source_pair, target_pair):
            m = orig(f, source_pair, target_pair)
            if source_pair is not pairs[1]:
                return m
            values_in = m.source if mode == "injective" else m.target
            graph = _positions(m)
            graph[max(graph)] = len(values_in.omega)
            return _with_positions(m, graph)

        return fake

    monkeypatch.setattr(functors, "to_pair", recording_to_pair)
    _patch(monkeypatch, mode, "forward", off_generators)
    report = verify_equivalence([dihedral(5)], mode, names=["r5"])
    assert [r.check for r in report.failures] == ["eta_naturality"], report.summary()
    if mode == "surjective":
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
