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
Both composition laws share one loop over the composable pairs and one
group-side composite per pair: a forward image equal to an enumerated
morphism composes to the same composite, so the F law may read the
enumerated morphism in its place.  G of a morphism is its stored
positions as a point map, so the G law compares point tuples: G(m2 m1)'s
mapping with G(m1)'s mapping chained through G(m2)'s.  No composite
QuandleHom is built per pair.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from .grpgen import (
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
from .perm import DEFAULT_CAP, CapExceeded
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


def G_surj_mor(m: SurjMorphism, source_quandle: Quandle, target_quandle: Quandle) -> QuandleHom:
    """Restrict the group map to omega: the stored positions themselves.

    Point i of the conjugation quandle on omega is the i-th omega member in
    canonical order, so the restriction sends point i to m.images[i].  The
    quandles are to_quandle of m's source and target, and m is valid
    (check_surj_morphism), so the positions fit them.  The result is built,
    not checked: verify_equivalence runs check_hom on it before F reads it.
    """
    return _trusted_hom(source_quandle, target_quandle, m.images)


def G_inj_mor(m: StarMorphism, source_quandle: Quandle, target_quandle: Quandle) -> QuandleHom:
    """Send each source omega member to the unique subset member above it:
    the stored positions themselves, as in G_surj_mor.

    The projection of a valid m restricts to a bijection subset -> source
    omega, and m.images[i] is the target position of the subset member
    that projects to source point i, so the map is a well-defined injective
    quandle map.  The quandles are to_quandle of m's source and target,
    and m is valid (check_star_morphism), so the positions fit them.  The
    result is built, not checked: verify_equivalence runs check_hom on it
    before F reads it.
    """
    return _trusted_hom(source_quandle, target_quandle, m.images)


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


def _eta_images(p: GenPair, round_trip: GenPair) -> tuple[int, ...]:
    """The omega positions of both flavors' eta: round_trip is
    to_pair(to_quandle(p)), whose omega is the rows of p.conj_table, and
    the row at omega point i, the symmetry at p.omega[i], sits over i."""
    pos = round_trip.omega_position
    images = [0] * len(pos)
    for i, row in enumerate(p.conj_table.rows):
        images[pos[row]] = i
    return tuple(images)


def eta_surj(p: GenPair, round_trip: GenPair) -> SurjMorphism:
    """The round-trip isomorphism on the pair side, surjective flavor.

    round_trip is to_pair(to_quandle(p)).  The map sends its inner group
    back onto the original group: the symmetry at omega point w, w's row
    of p.conj_table, goes to w (_eta_images).  The result is built, not
    checked: check_surj_morphism and SurjMorphism.is_injective check it.
    """
    return SurjMorphism(round_trip, p, _eta_images(p, round_trip))


def eta_star(p: GenPair, round_trip: GenPair) -> StarMorphism:
    """The round-trip isomorphism on the pair side, backwards-partial flavor.

    round_trip is to_pair(to_quandle(p)).  The subset is the whole of p's
    omega and the projection is the conjugation action onto round_trip's
    group: w goes to its row of p.conj_table, the symmetry at w.  So sigma
    lifts that row back to w, the positions of eta_surj (_eta_images).
    Built, not checked: check_star_morphism and is_star_isomorphism check
    it.
    """
    return StarMorphism(round_trip, p, _eta_images(p, round_trip))


def _failure_detail(exc: RuntimeError | ValueError) -> str:
    """The detail a check records for exc, raised while it ran: its
    message.  CapExceeded is raised again, since a cap limits the run and
    refutes nothing."""
    if isinstance(exc, CapExceeded):
        raise exc
    return str(exc)


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
        except (RuntimeError, ValueError) as exc:
            self.add(check, instance, False, _failure_detail(exc))

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
                {"check": r.check, "instance": r.instance, "passed": r.passed, "detail": r.detail}
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


def _leg(
    homs: list[QuandleHom], forwards: list, morphisms: list, backwards: list[QuandleHom] | None
) -> list[tuple]:
    """The rows (f, F f, m, G m) one (i, j) leg hands the composition laws.

    Each forward image F f is matched with the enumerated morphism it
    equals, through a key -> index dict and ==.  When that is a bijection
    (always, in a passing run), row n is (f, m, m, G m) for the n-th hom f
    and the morphism m = F f: both laws read the object m, so one
    composite m2 m1 serves both.  Otherwise row n holds the n-th hom and
    the n-th enumerated morphism, in their own orders, None past the end of
    either list, and the laws compose each side on its own.  G m is None
    when the backward images were not built.
    """
    if backwards is None:
        backwards = [None] * len(morphisms)
    index = {m.key(): n for n, m in enumerate(morphisms)}
    order = [index.get(fm.key()) for fm in forwards]
    if (
        len(morphisms) == len(forwards)
        and set(order) == set(range(len(morphisms)))
        and all(morphisms[n] == fm for n, fm in zip(order, forwards))
    ):
        return [(f, morphisms[n], morphisms[n], backwards[n]) for f, n in zip(homs, order)]
    rows = itertools.zip_longest(
        zip(homs, forwards), zip(morphisms, backwards), fillvalue=(None, None)
    )
    return [(f, fm, m, g) for (f, fm), (m, g) in rows]


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

    Constructors only build; every fact is checked once.  Each enumerated
    group-side morphism has passed the flavor's check inside the search
    (grpgen._sigma_search), and the forward images of the enumerated homs
    are not checked again: "functor_onto" matches their keys with the
    enumerated set, and a forward image with the same pairs, flavor and
    key is equal to an enumerated morphism, so an invalid one fails there.
    theta is checked with check_hom and eta with the flavor's check (in
    "theta_iso" and "eta_iso"), the only group-side check run here.  Each
    backward image of an enumerated morphism is checked with check_hom in
    "eta_naturality", just before the forward map reads it; the forward
    map's mode test then rejects a hom of the wrong mode.  F is handed no
    other unchecked map: the identity and the enumerated homs are homs
    already.  Composites are not checked: the laws compare them with
    checked morphisms, and that comparison is the law itself.

    The two composition laws run in one loop per composable triple, which
    builds the group-side composite m2 m1 once per pair: the F law compares
    it with F(f2 f1), and the G law compares G(m2 m1) with G(m2) G(m1).
    Sharing it keeps the F law's check: each leg's forward images are
    matched with the enumerated morphisms they equal (_leg), and the
    composite is a function of what == compares (the pairs and the
    positions), so F(f2) F(f1) is the composite of the matched morphisms.
    A leg whose forward images do not match its enumerated morphisms one
    to one (only in a failing run) has each side composed on its own.

    The G law compares point tuples: the mapping of G(m2 m1) with G(m1)'s
    mapping chained through G(m2)'s, read from the backward images that
    eta_naturality built and checked.  No composite QuandleHom is built
    per pair, and the right-hand side never reads the composite, so a
    wrong composite fails the law.  Only theta_naturality composes
    QuandleHoms (compose_homs), twice per hom.

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
    # to_quandle took only faithful pairs, and the conjugation quandle of a faithful
    # pair is faithful (w, w' acting alike on omega makes w^-1 w' central): no test
    round_trips = [inn(qc, cap) for qc in conjs]

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
    f_by_mapping: dict[tuple[int, int], dict] = {}
    g_mapped: dict[tuple[int, int], list[QuandleHom]] = {}
    # per leg, the rows (f, F f, m, G m) the composition laws read (_leg)
    legs: dict[tuple[int, int], list[tuple]] = {}

    for i, j in itertools.product(range(k), repeat=2):
        inst = "%s -> %s" % (names[i], names[j])
        with report.checking("enumeration", inst):
            qh = enumerate_homs(corpus[i], corpus[j], fl.mode)
            gh = fl.enumerate(pairs[i], pairs[j])
            mapped = [fl.forward(f, pairs[i], pairs[j]) for f in qh]
            q_homs[i, j], g_homs[i, j] = qh, gh
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
                    compose_homs(th_j, fl.backward(m, conjs[i], conjs[j])) == compose_homs(f, th_i)
                    for f, m in zip(qh, mapped)
                )
                add(ok, "%d homs" % len(qh))
        # eta naturality: m ( eta_i ) == eta_j ( FG m )
        et_i, et_j = etas[i], etas[j]
        if et_i is not None and et_j is not None:
            with report.checking("eta_naturality", inst) as add:
                backs = [fl.backward(m, conjs[i], conjs[j]) for m in gh]
                # F builds without checking, so each backward image is
                # hom-checked here and F's mode test rejects one of the wrong
                # mode, before G composition reads them
                forwards = []
                for g in backs:
                    if check_hom(g):
                        raise ValueError("not a quandle homomorphism")
                    forwards.append(fl.forward(g, round_trips[i], round_trips[j]))
                g_mapped[i, j] = backs
                ok = all(
                    fl.compose(m, et_i) == fl.compose(et_j, fm) for m, fm in zip(gh, forwards)
                )
                add(ok, "%d morphisms" % len(gh))
        legs[i, j] = _leg(qh, mapped, gh, g_mapped.get((i, j)))

    # functor composition laws on every composable pair, one loop for both:
    # where F f is the enumerated morphism itself, F's composite is G's
    for i, j, l in itertools.product(range(k), repeat=3):
        if not q_homs.get((i, j)) or not q_homs.get((j, l)):
            continue
        inst = "%s -> %s -> %s" % (names[i], names[j], names[l])
        run_g = (i, j) in g_mapped and (j, l) in g_mapped
        # an (i, l) enumeration that failed leaves every composite missing
        by_mapping = f_by_mapping.get((i, l), {})
        source, target = conjs[i], conjs[l]
        f_fail = g_fail = None  # each law's first failure, None while it holds
        for (f1, fm1, m1, g1), (f2, fm2, m2, g2) in itertools.product(legs[i, j], legs[j, l]):
            c = None
            if f_fail is None and f1 is not None and f2 is not None:
                expected = by_mapping.get(tuple([f2.mapping[v] for v in f1.mapping]))
                if expected is None:
                    f_fail = "composite hom missing from enumeration"
                else:
                    try:
                        c = fl.compose(fm2, fm1)
                        if c != expected:
                            f_fail = "F(f2 f1) != F(f2) F(f1)"
                    except (RuntimeError, ValueError) as exc:
                        f_fail = _failure_detail(exc)
            if run_g and g_fail is None and m1 is not None and m2 is not None:
                try:
                    if c is None or fm1 is not m1 or fm2 is not m2:
                        c = fl.compose(m2, m1)
                    g2m = g2.mapping
                    if fl.backward(c, source, target).mapping != tuple([g2m[v] for v in g1.mapping]):
                        g_fail = "G(m2 m1) != G(m2) G(m1)"
                except (RuntimeError, ValueError) as exc:
                    g_fail = _failure_detail(exc)
            if f_fail is not None and (g_fail is not None or not run_g):
                break
        report.add("functor_F_composition", inst, f_fail is None, f_fail or "")
        if run_g:
            report.add("functor_G_composition", inst, g_fail is None, g_fail or "")

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
