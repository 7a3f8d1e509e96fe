"""The functor pairs between faithful quandles and generator pairs, the
natural isomorphisms relating their round trips to the identity, and a
corpus-level verification harness.

Surjective flavor: quandles with surjective homomorphisms on one side,
pairs with omega-onto group maps on the other.  Forward sends a quandle to
its inner group with the symmetries distinguished; backward sends a pair to
the conjugation quandle on its omega.

Injective flavor: quandles with injective homomorphisms against pairs with
backwards-partial morphisms (StarMorphism).  The object maps are the same;
only the morphism directions change.

verify_equivalence replays the whole story on a concrete corpus: hom sets
are enumerated independently on both sides, the forward functor is checked
to biject them, the round-trip isomorphisms are checked natural, and the
functor laws are checked on every composable pair.  One loop serves both
flavors; a small per-call record holds the morphism data that differs.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from .grpgen import (
    CapExceeded,
    GenPair,
    StarMorphism,
    SurjMorphism,
    check_star_morphism,
    check_surj_morphism,
    compose_star,
    compose_surj,
    enumerate_star_morphisms,
    enumerate_surj_morphisms,
    identity_star,
    identity_surj,
    is_star_isomorphism,
    make_star_morphism,
    make_surj_morphism,
)
from .homs import (
    MODE_WORDS,
    QuandleHom,
    _trusted_hom,
    check_hom,
    compose_homs,
    enumerate_homs,
    identity_hom,
    induced_injective,
    induced_surjective,
)
from .perm import DEFAULT_CAP
from .quandle import Quandle, inn, is_faithful, quandle_of_conjugation_table


def to_pair(q: Quandle, cap: int = DEFAULT_CAP) -> GenPair:
    """Object map of both forward functors: the inner group with its symmetries.

    Only faithful quandles are accepted; the equivalences live there.
    """
    if not is_faithful(q):
        raise ValueError("not faithful: distinct points share a symmetry")
    return inn(q, cap)


def to_quandle(p: GenPair) -> Quandle:
    """Object map of both backward functors: the conjugation quandle on omega."""
    if not p.faithful:
        raise ValueError("omega has a non-trivial centralizer")
    return quandle_of_conjugation_table(p.conj_table)


# F on morphisms is the group map a homomorphism induces.
F_surj_mor = induced_surjective
F_inj_mor = induced_injective


def G_surj_mor(m: SurjMorphism, source_quandle: Quandle, target_quandle: Quandle) -> QuandleHom:
    """Restrict the group map to omega: the stored positions themselves.

    Point i of the conjugation quandle on omega is the i-th omega member in
    canonical order, so the restriction sends point i to m.images[i].  The
    quandles are to_quandle of m's source and target, and m is valid
    (check_surj_morphism), so the positions fit them.  The result is built,
    not checked: check_hom checks it.
    """
    return _trusted_hom(source_quandle, target_quandle, m.images)


def G_inj_mor(m: StarMorphism, source_quandle: Quandle, target_quandle: Quandle) -> QuandleHom:
    """Send each source omega member to the unique subset member above it.

    The projection of a valid m restricts to a bijection subset -> source
    omega, so its inverse is a well-defined injective quandle map: the
    subset's target positions sorted by the source positions they project
    to, which are each position of the source omega once.  The quandles
    are to_quandle of m's source and target, and m is valid
    (check_star_morphism), so the positions fit them.  The result is
    built, not checked: check_hom checks it.
    """
    images = m.images
    return _trusted_hom(source_quandle, target_quandle, tuple(sorted(images, key=images.__getitem__)))


def theta(q: Quandle, pair: GenPair) -> QuandleHom:
    """The round-trip isomorphism on the quandle side: symmetry-point back to point.

    pair is to_pair(q).  Source is the conjugation quandle on the quandle's
    own symmetries; the map matches each of its points (a permutation) with
    the point of q whose row it is.  Faithfulness makes that unambiguous.
    The result is built, not checked: verify_equivalence checks it with
    check_hom.
    """
    back = {q.table[x]: x for x in range(q.n)}
    return QuandleHom(to_quandle(pair), q, tuple(back[w] for w in pair.omega))


def eta_surj(p: GenPair, round_trip: GenPair) -> SurjMorphism:
    """The round-trip isomorphism on the pair side, surjective flavor.

    round_trip is to_pair(to_quandle(p)).  The map sends its inner group
    back onto the original group: the symmetry at omega point w, w's row
    of p.conj_table, goes to w.  The result is built, not checked:
    check_surj_morphism and SurjMorphism.is_injective check it.
    """
    return make_surj_morphism(round_trip, p, dict(zip(p.conj_table.rows, p.omega)))


def eta_star(p: GenPair, round_trip: GenPair) -> StarMorphism:
    """The round-trip isomorphism on the pair side, backwards-partial flavor.

    round_trip is to_pair(to_quandle(p)).  The subset is the whole of p's
    omega and the projection is the conjugation action onto round_trip's
    group: w goes to its row of p.conj_table, the symmetry at w.  Built,
    not checked: check_star_morphism and is_star_isomorphism check it.
    """
    return make_star_morphism(round_trip, p, dict(zip(p.omega, p.conj_table.rows)))


@dataclass
class CheckRecord:
    check: str
    instance: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        tail = " (%s)" % self.detail if self.detail else ""
        return "%s %-22s %s%s" % (mark, self.check, self.instance, tail)


@dataclass
class EquivalenceReport:
    mode: str
    names: list[str]
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, check: str, instance: str, passed: bool, detail: str = "") -> None:
        self.records.append(CheckRecord(check, instance, bool(passed), detail))

    @contextmanager
    def checking(self, check: str, instance: str) -> Iterator[Callable[..., None]]:
        """Run the body of one check, which records its verdict through the
        yielded add(passed, detail="").  A RuntimeError or ValueError raised
        in the body is recorded as a failure of this check, with its
        message; CapExceeded, a RuntimeError too, propagates."""
        try:
            yield partial(self.add, check, instance)
        except CapExceeded:
            raise
        except (RuntimeError, ValueError) as exc:
            self.add(check, instance, False, str(exc))

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def summary(self) -> str:
        lines = [
            "mode %s on corpus [%s]: %d checks, %d failures"
            % (self.mode, ", ".join(self.names), len(self.records), len(self.failures))
        ]
        lines.extend(r.line() for r in self.failures)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "corpus": self.names,
            "checks": len(self.records),
            "failures": len(self.failures),
            "records": [
                {
                    "check": r.check,
                    "instance": r.instance,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in self.records
            ],
        }


@dataclass(frozen=True)
class _Flavor:
    """The morphism data that tells the two equivalences apart; the object
    maps to_pair and to_quandle are shared."""

    mode: str  # canonical hom mode on the quandle side
    enumerate: Callable  # (source pair, target pair) -> group-side hom set
    check: Callable  # group-side morphism -> violated clauses, [] when valid
    forward: Callable  # F on morphisms: (hom, source pair, target pair)
    backward: Callable  # G on morphisms: (morphism, source quandle, target quandle)
    compose: Callable  # (m2, m1) -> m1 then m2
    identity: Callable  # pair -> its identity morphism
    eta: Callable  # (pair, its round trip) -> the round-trip isomorphism onto it
    is_iso: Callable  # eta's isomorphism test


def _flavor(mode: str) -> _Flavor:
    """The flavor a mode word names.

    Built on each call from the module globals, so that a function patched
    in this module (by a test or a tracer) is the one the record holds.
    No function takes a cap: the group side only closes subgroups of pairs
    that to_pair has already bounded.
    """
    mode = MODE_WORDS.get(mode)
    if mode == "surjective":
        return _Flavor(
            mode,
            enumerate_surj_morphisms,
            check_surj_morphism,
            induced_surjective,
            G_surj_mor,
            compose_surj,
            identity_surj,
            eta_surj,
            SurjMorphism.is_injective,
        )
    if mode == "injective":
        return _Flavor(
            mode,
            enumerate_star_morphisms,
            check_star_morphism,
            induced_injective,
            G_inj_mor,
            compose_star,
            identity_star,
            eta_star,
            is_star_isomorphism,
        )
    raise ValueError("mode must be injective or surjective")


# Composable triples on which verify_equivalence samples associativity.
LAW_SAMPLES = 40


def verify_equivalence(
    corpus: list[Quandle],
    mode: str,
    names: list[str] | None = None,
    cap: int = DEFAULT_CAP,
) -> EquivalenceReport:
    """Machine-check one equivalence flavor on a corpus of faithful quandles.

    Per ordered corpus pair: hom sets are enumerated on the quandle side and
    (independently) on the group side, the forward functor must biject them,
    and both round-trip naturality squares must commute.  Functor laws are
    checked on all composable pairs; associativity and unit laws of the
    group-side composition on deterministic samples.

    Constructors only build; every fact is checked here, once.  Each
    forward image of an enumerated hom is checked with the flavor's check
    (in "enumeration"), theta with check_hom and eta with the flavor's
    check (in "theta_iso" and "eta_iso").  Each backward image of an
    enumerated morphism is checked in "eta_naturality" by the forward map
    itself, whose input validation (check_hom and the mode test) raises
    ValueError on a non-hom or a hom of the wrong mode.  Composites are not
    checked: the laws compare them with checked morphisms, and that
    comparison is the law itself.

    cap bounds each inner group to_pair lists; every group the run builds
    after that is a subgroup of one of them and takes no cap of its own.

    Error policy: a law that does not hold is recorded, not raised, and so
    is a RuntimeError or ValueError raised while a check runs (a morphism
    that failed verification): it becomes a failure of that check, with
    its message.  CapExceeded propagates, since a cap limits the run and
    refutes nothing; so does the ValueError for a bad mode, names list or
    unfaithful corpus member, raised before any check runs.
    """
    fl = _flavor(mode)
    names = list(names) if names is not None else ["Q%d" % i for i in range(len(corpus))]
    if len(names) != len(corpus):
        raise ValueError("names length differs from corpus length")
    report = EquivalenceReport(fl.mode, names)
    for name, q in zip(names, corpus):
        if not is_faithful(q):
            raise ValueError("%s: not faithful" % name)
    k = len(corpus)
    pairs = [to_pair(q, cap) for q in corpus]
    conjs = [to_quandle(p) for p in pairs]
    round_trips = [to_pair(qc, cap) for qc in conjs]

    thetas: list[QuandleHom | None] = [None] * k
    etas: list = [None] * k
    for i, q in enumerate(corpus):
        p, qc, inst = pairs[i], conjs[i], names[i]
        with report.checking("theta_iso", inst) as add:
            th = theta(q, p)
            ok = th.is_injective() and th.is_surjective() and not check_hom(th)
            thetas[i] = th if ok else None
            add(ok, "" if ok else "round-trip map is not a quandle isomorphism")
        with report.checking("eta_iso", inst) as add:
            eta = fl.eta(p, round_trips[i])
            bad = fl.check(eta)
            etas[i] = None if bad else eta
            add(not bad and fl.is_iso(eta), "; ".join(bad))
        # identity laws of the two functors
        with report.checking("functor_F_identity", inst) as add:
            add(fl.forward(identity_hom(q), p, p) == fl.identity(p))
        with report.checking("functor_G_identity", inst) as add:
            add(fl.backward(fl.identity(p), qc, qc) == identity_hom(qc))

    q_homs: dict[tuple[int, int], list[QuandleHom]] = {}
    g_homs: dict[tuple[int, int], list] = {}
    f_mapped: dict[tuple[int, int], list] = {}
    f_by_mapping: dict[tuple[int, int], dict] = {}
    g_mapped: dict[tuple[int, int], list[QuandleHom]] = {}

    for i, j in itertools.product(range(k), repeat=2):
        inst = "%s -> %s" % (names[i], names[j])
        with report.checking("enumeration", inst):
            qh = enumerate_homs(corpus[i], corpus[j], fl.mode)
            gh = fl.enumerate(pairs[i], pairs[j])
            mapped = [fl.forward(f, pairs[i], pairs[j]) for f in qh]
            for m in mapped:
                bad = fl.check(m)
                if bad:
                    raise RuntimeError("induced map failed verification: %s" % "; ".join(bad))
            q_homs[i, j], g_homs[i, j], f_mapped[i, j] = qh, gh, mapped
        if (i, j) not in q_homs:
            continue
        f_by_mapping[i, j] = {f.mapping: m for f, m in zip(qh, mapped)}
        report.add(
            "hom_count",
            inst,
            len(qh) == len(gh),
            "quandle side %d, group side %d" % (len(qh), len(gh)),
        )
        keys = [m.key() for m in mapped]
        report.add("functor_injective", inst, len(set(keys)) == len(keys))
        report.add(
            "functor_onto",
            inst,
            set(keys) == {m.key() for m in gh},
            "forward image must equal the enumerated group side",
        )
        # theta naturality: theta_j ( GF f ) == f ( theta_i )
        th_i, th_j = thetas[i], thetas[j]
        if th_i is not None and th_j is not None:
            with report.checking("theta_naturality", inst) as add:
                ok = all(
                    tuple(th_j.mapping[v] for v in fl.backward(m, conjs[i], conjs[j]).mapping)
                    == tuple(f.mapping[v] for v in th_i.mapping)
                    for f, m in zip(qh, mapped)
                )
                add(ok, "%d homs" % len(qh))
        # eta naturality: m ( eta_i ) == eta_j ( FG m )
        et_i, et_j = etas[i], etas[j]
        if et_i is not None and et_j is not None:
            with report.checking("eta_naturality", inst) as add:
                backs = [fl.backward(m, conjs[i], conjs[j]) for m in gh]
                # the forward map rejects a backward image that is not a hom
                # of the mode, before G composition may read it
                forwards = [fl.forward(g, round_trips[i], round_trips[j]) for g in backs]
                g_mapped[i, j] = backs
                ok = all(
                    fl.compose(m, et_i) == fl.compose(et_j, fm) for m, fm in zip(gh, forwards)
                )
                add(ok, "%d morphisms" % len(gh))

    # functor composition laws on every composable pair
    for i, j, l in itertools.product(range(k), repeat=3):
        if not q_homs.get((i, j)) or not q_homs.get((j, l)):
            continue
        inst = "%s -> %s -> %s" % (names[i], names[j], names[l])
        with report.checking("functor_F_composition", inst) as add:
            detail = ""
            for (f1, m1), (f2, m2) in itertools.product(
                zip(q_homs[i, j], f_mapped[i, j]), zip(q_homs[j, l], f_mapped[j, l])
            ):
                # an (i, l) enumeration that failed leaves every composite missing
                composite = tuple([f2.mapping[v] for v in f1.mapping])
                expected = f_by_mapping.get((i, l), {}).get(composite)
                if expected is None:
                    detail = "composite hom missing from enumeration"
                    break
                if fl.compose(m2, m1) != expected:
                    detail = "F(f2 f1) != F(f2) F(f1)"
                    break
            add(not detail, detail)
        if (i, j) in g_mapped and (j, l) in g_mapped:
            with report.checking("functor_G_composition", inst) as add:
                ok = all(
                    fl.backward(fl.compose(m2, m1), conjs[i], conjs[l]) == compose_homs(g2, g1)
                    for (m1, g1), (m2, g2) in itertools.product(
                        zip(g_homs[i, j], g_mapped[i, j]), zip(g_homs[j, l], g_mapped[j, l])
                    )
                )
                add(ok, "" if ok else "G(m2 m1) != G(m2) G(m1)")

    # associativity and unit laws of the group-side composition, sampled
    triples = []
    for i, j, l, h in itertools.product(range(k), repeat=4):
        if g_homs.get((i, j)) and g_homs.get((j, l)) and g_homs.get((l, h)):
            triples.extend(
                itertools.islice(itertools.product(g_homs[i, j], g_homs[j, l], g_homs[l, h]), 2)
            )
        if len(triples) >= LAW_SAMPLES:
            break
    triples = triples[:LAW_SAMPLES]
    if triples:
        with report.checking("composition_associative", "sampled triples") as add:
            ok = all(
                fl.compose(fl.compose(m3, m2), m1) == fl.compose(m3, fl.compose(m2, m1))
                for m1, m2, m3 in triples
            )
            add(ok, "%d triples" % len(triples))
    units = [(i, j, m) for (i, j), ms in g_homs.items() for m in ms[:2]]
    if units:
        with report.checking("composition_unital", "sampled morphisms") as add:
            ok = all(
                fl.compose(m, fl.identity(pairs[i])) == m
                and fl.compose(fl.identity(pairs[j]), m) == m
                for i, j, m in units
            )
            add(ok, "%d morphisms" % len(units))
    return report
