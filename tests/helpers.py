"""Brute-force oracles shared by the test modules.

Everything here is written the slow, obvious way on purpose: the library is
checked against these, so none of the library's own shortcuts may appear.
"""

import itertools

from quandlekit import PermGroup, Quandle, StarMorphism, check_axioms, check_star_morphism


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


def bfs_witness(gens):
    """Each element of <gens> with the first word reaching it, breadth first
    from the identity over the full alphabet: for each generator index, the
    generator (sign +1) and then its inverse (sign -1), duplicates and
    identities included.  Items come in the order the search finds them."""
    deg = len(gens[0])
    alphabet = []
    for i, g in enumerate(gens):
        inv = [0] * deg
        for j in range(deg):
            inv[g[j]] = j
        alphabet.append(((i, 1), tuple(g)))
        alphabet.append(((i, -1), tuple(inv)))
    start = tuple(range(deg))
    words = {start: ()}
    queue = [start]
    for a in queue:
        for letter, g in alphabet:
            b = tuple(a[g[j]] for j in range(deg))
            if b not in words:
                words[b] = words[a] + (letter,)
                queue.append(b)
    return list(words.items())


def brute_force_star_morphisms(src, tgt):
    """Keys of every star morphism src -> tgt, found by trying each subset of
    the target omega of the source omega's size with each bijection onto the
    source omega, reading the projection off closure words and keeping what
    check_star_morphism accepts."""
    keys = set()
    for gamma in itertools.combinations(tgt.omega, len(src.omega)):
        words = closure_words(gamma)
        domain = PermGroup(tgt.degree, gamma, frozenset(words), {})
        for images in itertools.permutations(src.omega):
            proj = {}
            for h, word in words.items():
                img = tuple(range(src.degree))
                for i in word:
                    img = tuple(img[images[i][j]] for j in range(src.degree))
                proj[h] = img
            m = StarMorphism(src, tgt, domain, gamma, proj)
            if not check_star_morphism(m):
                keys.add(m.key())
    return keys


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
        if not check_axioms(q):
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
