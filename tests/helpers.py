"""Brute-force oracles shared by the test modules.

Everything here is written the slow, obvious way on purpose: the library is
checked against these, so none of the library's own shortcuts may appear.
"""

import itertools

from hypothesis import strategies as st

from quandlekit import Quandle


def brute_force_homs(q1, q2, mode="all"):
    """Filter every map q1 -> q2 through the defining equation."""
    out = []
    for images in itertools.product(range(q2.n), repeat=q1.n):
        if mode == "injective" and len(set(images)) != q1.n:
            continue
        if mode == "surjective" and set(images) != set(range(q2.n)):
            continue
        ok = True
        for x in range(q1.n):
            for y in range(q1.n):
                if q2.table[images[x]][images[y]] != images[q1.table[x][y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(images)
    return out


@st.composite
def arbitrary_tables(draw, max_order=4):
    """Total tables of any entries, no axiom asked."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    entry = st.integers(min_value=0, max_value=n - 1)
    return Quandle([[draw(entry) for _ in range(n)] for _ in range(n)])


def naive_generators(table, members):
    """(generators, stable) of the members under table[x, y] = x |> y, the
    slow way: each member, in order, that the closure of the earlier
    generators does not hold becomes one.  The closure is the fixpoint of
    adding every member x |> y and y |> x for a generator x and a held y;
    stable says every such entry, over all members, is a member."""
    mset = set(members)
    generators, held = [], set()
    for m in members:
        if m in held:
            continue
        generators.append(m)
        held.add(m)
        while True:
            more = {table[x, y] for x in generators for y in held} | {table[y, x] for x in generators for y in held}
            more = (more & mset) - held
            if not more:
                break
            held |= more
    stable = all(table[x, y] in mset and table[y, x] in mset for x in generators for y in mset)
    return generators, stable


def naive_subquandle_closure(q, seed):
    """The seed's closure under the row of each interior point and its
    inverse: y's image and y's preimage under row x are added for interior
    x and y until nothing new comes."""
    pts = set(seed)
    while True:
        more = {z for x in pts for y in pts for z in (q.table[x][y], q.table[x].index(y))} - pts
        if not more:
            return pts
        pts |= more


def naive_closure(gens):
    """Positive products from the identity, breadth first."""
    return set(closure_words(gens))


def closure_words(gens):
    """Each element of <gens> with the first positive word (generator
    indices) reaching it, breadth first from the identity."""
    deg = len(gens[0])
    words = {tuple(range(deg)): ()}
    frontier = list(words)
    while frontier:
        fresh = []
        for a in frontier:
            for i, g in enumerate(gens):
                b = tuple(a[g[j]] for j in range(deg))
                if b not in words:
                    words[b] = words[a] + (i,)
                    fresh.append(b)
        frontier = fresh
    return words


def evaluate_words(words, images):
    """Map each element of a closure_words dict to its word with generator i
    replaced by images[i], multiplied out left to right."""
    deg = len(images[0])
    out = {}
    for h, word in words.items():
        img = tuple(range(deg))
        for i in word:
            img = tuple(img[images[i][j]] for j in range(deg))
        out[h] = img
    return out


def induced_by_words(f, mode):
    """(domain, map) of the group map that the quandle hom f induces in
    mode "surjective" or "injective", the slow way.  Surjective: the domain
    is generated by the source symmetries, and the symmetry at x goes to the
    symmetry at f(x).  Injective: the domain is generated by the target
    symmetries at the image points, and the symmetry at f(x) goes back to
    the symmetry at x.  Each domain element is evaluated along its closure
    word."""
    q1, q2, m = f.source, f.target, f.mapping
    source_symmetries = [q1.table[x] for x in range(q1.n)]
    image_symmetries = [q2.table[v] for v in m]
    if mode == "surjective":
        gens, images = source_symmetries, image_symmetries
    else:
        gens, images = image_symmetries, source_symmetries
    words = closure_words(gens)
    return frozenset(words), evaluate_words(words, images)


def extends_to_hom(gens, images):
    """The map of <gens> that evaluates each element's closure word on the
    images, when it is a homomorphism sending gens[i] to images[i]; None
    otherwise.  Every product of two elements is checked."""
    words = closure_words(gens)
    f = evaluate_words(words, images)
    if any(f[g] != u for g, u in zip(gens, images)):
        return None
    for a, b in itertools.product(f, repeat=2):
        ab = tuple(a[j] for j in b)
        if f[ab] != tuple(f[a][j] for j in f[b]):
            return None
    return f


_EXTENSIONS = {}


def extend_values(values):
    """extends_to_hom of a dict of generator values, remembered per dict
    content so that a morphism met in many composites is extended once."""
    key = frozenset(values.items())
    if key not in _EXTENSIONS:
        gens = sorted(values)
        _EXTENSIONS[key] = extends_to_hom(gens, [values[g] for g in gens])
    return _EXTENSIONS[key]


def compose_by_extension(first, second):
    """first then second, two group maps given by their values on
    generators (dicts of permutations), composed the slow way: each is
    extended to the group its generators generate (extend_values), the
    two group maps are composed where the second is defined, and the
    composite is restricted to the generators of first that first sends to
    generators of second.  None when either set of values extends to no
    homomorphism."""
    f1, f2 = extend_values(first), extend_values(second)
    if f1 is None or f2 is None:
        return None
    composite = {h: f2[f1[h]] for h in f1 if f1[h] in f2}
    return {g: composite[g] for g in first if first[g] in second}


def as_point_map(values, source_points, target_points):
    """A map of permutations, given by its values on source_points, as a map
    of the conjugation quandles whose points are the two lists in order:
    point i goes to the index of its value in target_points."""
    return tuple(list(target_points).index(values[w]) for w in source_points)


def conjugation_stable(gamma):
    """True when each element of the group gamma generates conjugates each
    member of gamma into gamma."""
    return all(
        tuple(h[g[j]] for j in sorted(range(len(h)), key=h.__getitem__)) in gamma
        for h in naive_closure(gamma)
        for g in gamma
    )


def brute_force_surj_morphisms(src, tgt):
    """The values on the source omega, in omega order, of every surjective
    pair morphism src -> tgt: every map of the source omega into the target
    omega, tried in lexicographic order of the target omega, kept when it
    extends to a homomorphism and covers the target omega."""
    out = []
    for images in itertools.product(tgt.omega, repeat=len(src.omega)):
        if set(images) == set(tgt.omega) and extends_to_hom(src.omega, images) is not None:
            out.append(images)
    return out


def brute_force_star_morphisms(src, tgt):
    """Every star morphism src -> tgt, each as (domain elements, subset,
    projection on the whole domain), found by trying each subset of the
    target omega of the source omega's size with each bijection onto the
    source omega.  A subset counts when each domain element conjugates it
    into itself, and a bijection when it extends to a homomorphism."""
    out = set()
    for gamma in itertools.combinations(tgt.omega, len(src.omega)):
        if not conjugation_stable(gamma):
            continue
        domain = naive_closure(gamma)
        for images in itertools.permutations(src.omega):
            f = extends_to_hom(gamma, images)
            if f is not None:
                out.add((frozenset(domain), frozenset(gamma), frozenset(f.items())))
    return out


def conjugacy_classes(group):
    """Partition the group into conjugation orbits."""
    seen = set()
    classes = []
    for g in group.sorted_elements():
        if g in seen:
            continue
        orbit = set()
        for h in group.elements:
            hi = tuple(sorted(range(len(h)), key=h.__getitem__))
            orbit.add(tuple(h[g[hi[i]]] for i in range(len(g))))
        seen |= orbit
        classes.append(orbit)
    return classes


def axiom_violations(q):
    """The violated axiom instances of a table, the way check_axioms lists
    them: every point for Q1, every row for Q2, every triple for Q3."""
    n, t = q.n, q.table
    out = [("Q1", (x,)) for x in range(n) if t[x][x] != x]
    out += [("Q2", (x,)) for x in range(n) if sorted(t[x]) != list(range(n))]
    for x, y, z in itertools.product(range(n), repeat=3):
        if t[x][t[y][z]] != t[t[x][y]][t[x][z]]:
            out.append(("Q3", (x, y, z)))
    return out


def all_quandles(n):
    """Every labeled quandle table of order n.

    Row x must be a permutation fixing x, which already enforces the first
    two axioms; the third is filtered explicitly.
    """
    row_choices = []
    for x in range(n):
        row_choices.append([p for p in itertools.permutations(range(n)) if p[x] == x])
    out = []
    for rows in itertools.product(*row_choices):
        q = Quandle(rows)
        if not axiom_violations(q):
            out.append(q)
    return out


def canonical_form(q):
    """Lexicographically least relabeling of the table."""
    n = q.n
    best = None
    for s in itertools.permutations(range(n)):
        inv = [0] * n
        for i, v in enumerate(s):
            inv[v] = i
        t = tuple(
            tuple(s[q.table[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
        )
        if best is None or t < best:
            best = t
    return best


def iso_class_representatives(n):
    reps = {}
    for q in all_quandles(n):
        reps.setdefault(canonical_form(q), q)
    return list(reps.values())


def abelian_automorphisms(factors):
    """All automorphism matrices of Z/f1 x ... x Z/fk, the slow way.

    Row i of a candidate matrix lives mod factors[i]; a candidate counts when
    the induced map is additive and bijective, which validate checks for us.
    """
    from quandlekit.quandle import validate_abelian_automorphism

    k = len(factors)
    entry_ranges = [range(factors[i]) for i in range(k) for _ in range(k)]
    out = []
    for flat in itertools.product(*entry_ranges):
        matrix = [list(flat[i * k : (i + 1) * k]) for i in range(k)]
        try:
            validate_abelian_automorphism(factors, matrix)
        except ValueError:
            continue
        out.append(matrix)
    return out


def hom_mappings(homs):
    return sorted(f.mapping for f in homs)
