"""Permutations of {0, ..., n-1} and small fully enumerated permutation groups.

A permutation is a plain tuple of images: ``p[i]`` is where point ``i`` goes.
Groups keep every element explicitly, so membership tests, centralizers and
conjugation-stability checks are plain iteration.  Everything is desk scale
by design: closures refuse to grow past a configurable cap instead of
switching to clever data structures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

Perm = tuple[int, ...]

DEFAULT_CAP = 100_000
# Stack frames kept free for the callers of a recursive search and its callees.
RECURSION_MARGIN = 200


class CapExceeded(RuntimeError):
    """A closure or enumeration would grow past its configured cap."""


def require_recursion_depth(depth: int, what: str) -> None:
    """Raise CapExceeded when a search recursing depth levels deep would pass
    the interpreter's recursion limit minus RECURSION_MARGIN."""
    limit = sys.getrecursionlimit()
    if depth > limit - RECURSION_MARGIN:
        raise CapExceeded(
            "%s would recurse %d levels deep, past the interpreter's recursion"
            " limit of %d minus a margin of %d" % (what, depth, limit, RECURSION_MARGIN)
        )


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(images: Sequence[int]) -> bool:
    return sorted(images) == list(range(len(images)))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: result[i] = p[q[i]]."""
    if len(p) != len(q):
        raise ValueError("degree mismatch: %d vs %d" % (len(p), len(q)))
    return tuple([p[j] for j in q])


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugate(g: Perm, s: Perm) -> Perm:
    """g s g^-1, in one pass: it sends g[i] to g[s[i]]."""
    if len(g) != len(s):
        raise ValueError("degree mismatch: %d vs %d" % (len(g), len(s)))
    out = [0] * len(g)
    for i, j in enumerate(s):
        out[g[i]] = g[j]
    return tuple(out)


def perm_order(p: Perm) -> int:
    """The order of p: the lcm of its cycle lengths."""
    if not is_perm(p):
        raise ValueError("not a permutation: %r" % (p,))
    order, seen = 1, [False] * len(p)
    for start in range(len(p)):
        i, length = start, 0
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        order = math.lcm(order, length or 1)
    return order


def perm_to_text(p: Perm) -> str:
    return "[" + " ".join(str(i) for i in p) + "]"


def integers(words: Iterable[str], line: str, form: str) -> list[int]:
    """The words as integers, or a ValueError naming the line and the form
    it should take."""
    try:
        return [int(w) for w in words]
    except ValueError:
        raise ValueError("line %r is not of the form %s" % (line, form)) from None


def perm_from_text(text: str) -> Perm:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("permutation text must look like [i0 i1 ... ik]")
    images = tuple(integers(text[1:-1].split(), text, "[i0 i1 ... ik]"))
    if not is_perm(images):
        raise ValueError("not a permutation: %s" % text)
    return images


@dataclass(eq=False)
class PermGroup:
    """A finite permutation group with every element listed.

    ``generators`` are kept as given to close_group, and ``elements`` is
    their closure.  Instances are treated as immutable once built.
    """

    degree: int
    generators: tuple[Perm, ...]
    elements: frozenset[Perm]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    @property
    def identity(self) -> Perm:
        return identity(self.degree)

    @cached_property
    def _sorted(self) -> list[Perm]:
        return sorted(self.elements)

    @cached_property
    def _index(self) -> dict[Perm, int]:
        return {g: i for i, g in enumerate(self._sorted)}

    def sorted_elements(self) -> list[Perm]:
        """Elements in the canonical order: lexicographic by image tuple."""
        return self._sorted

    def element_index(self, p: Perm) -> int:
        return self._index[p]


def close_group(generators: Iterable[Perm], cap: int = DEFAULT_CAP) -> PermGroup:
    """The group the generators generate, closed from the identity.

    A generator the closure already contains is skipped.  A kept letter
    multiplies, on the right, the elements found so far, and each element
    found after it is multiplied by every kept letter.  The set then holds
    the identity and is closed under right multiplication by each kept
    letter, so it is the group: in a finite group every inverse is a
    positive power.  The generators are kept as given.  Exceeding ``cap``
    elements raises CapExceeded.
    """
    gens = tuple(tuple(g) for g in generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValueError("generators have mixed degrees")
        if not is_perm(g):
            raise ValueError("generator is not a permutation: %r" % (g,))
    found = [identity(degree)]
    seen = set(found)
    letters: list[Perm] = []
    for g in gens:
        if g in seen:
            continue
        letters.append(g)
        start = len(found)
        for i, cur in enumerate(found):  # found grows while it is read
            for h in letters if i >= start else (g,):
                nxt = tuple([cur[j] for j in h])
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded("group closure exceeded the cap of %d elements" % cap)
                    seen.add(nxt)
                    found.append(nxt)
    return PermGroup(degree, gens, frozenset(seen))


def centralizer_of_subset_is_trivial(group: PermGroup, subset: Iterable[Perm]) -> bool:
    """True when only the identity commutes with every member of the subset."""
    elems = [tuple(s) for s in subset]
    for s in elems:
        if s not in group.elements:
            raise ValueError("subset element %s is not in the group" % (s,))
    e = group.identity
    for g in group.elements:
        if g != e and all(conjugate(g, s) == s for s in elems):
            return False
    return True


def conjugation_stable_under(generators: Iterable[Perm], subset: Iterable[Perm]) -> bool:
    """True when g s g^-1 stays in the subset for every g in the group the
    generators generate.

    Only the generators are tried: conjugation by one maps the finite
    subset injectively into itself, hence onto it, so their inverses and
    products keep it too.  No group is closed.
    """
    sset = frozenset(subset)
    return all(conjugate(g, s) in sset for g in generators for s in sset)


class ConjugationTable(list):
    """Row i, entry j: the position among the members of members[i]
    members[j] members[i]^-1, or -1 if it is none, read as table[i][j], as
    a quandle's table is.  Each row is a dict that conjugates an entry the
    first time it is read and keeps it, so a reader pays for the entries it
    reads; rows builds every entry, on each read, as the table of tuples."""

    class Row(dict):
        __slots__ = ("member", "members", "position")

        def __init__(self, member: Perm, members: Sequence[Perm], position: dict[Perm, int]) -> None:
            self.member, self.members, self.position = member, members, position

        def __missing__(self, j: int) -> int:
            c = self[j] = self.position.get(conjugate(self.member, self.members[j]), -1)
            return c

    def __init__(self, members: Sequence[Perm]) -> None:
        position = {m: i for i, m in enumerate(members)}
        super().__init__(self.Row(m, members, position) for m in members)
        self.members = members

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = range(len(self.members))
        return tuple(tuple([row[j] for j in n]) for row in self)


def generator_blocks(table, members: Sequence[int]) -> tuple[list[tuple[int, list[tuple[int, int, int]]]], bool]:
    """(blocks, stable): a generating set of the members under |>, each
    generator with the members its addition brings in, and whether every
    entry read stays among the members.

    table[x][y] is x |> y: a Quandle's table, or a ConjugationTable, where
    it is the position of x y x^-1.  The members are taken in order; one
    not reached yet becomes the next generator g, and its block lists, in
    the order they are reached, the members it brings in, each as
    (z, x, y) with x |> y = z and x, y reached before z.  A new generator
    meets every member reached so far, itself included, and each newly
    reached member meets every generator, both ways: 2 * |generators| *
    |members| entries read at most.  An entry outside the members is not
    reached and makes stable False.  table_homs places points in block
    order, so the hom searches' work follows this order.

    Among permutations every reached member lies in the group the
    generators generate, as x y x^-1 of two of its elements does, so the
    generators generate the same group as the members.  stable is then
    True exactly when the members are closed under conjugation by that
    group: stability under generators is stability under the group they
    generate.  No group is closed.
    """
    mset, reached = frozenset(members), set()
    order: list[int] = []
    generators: list[int] = []
    blocks = []
    stable = True
    for g in members:
        if g in reached:
            continue
        reached.add(g)
        generators.append(g)
        block: list[tuple[int, int, int]] = []
        blocks.append((g, block))
        i = len(order)
        order.append(g)
        partners = order[:]
        while i < len(order):
            a = order[i]
            # both reads spelled out: a loop over ((a, b), (b, a)) would
            # build tuples per pair on check_star_morphism's hot path
            for b in partners:
                z = table[a][b]
                if z not in mset:
                    stable = False
                elif z not in reached:
                    reached.add(z)
                    order.append(z)
                    block.append((z, a, b))
                z = table[b][a]
                if z not in mset:
                    stable = False
                elif z not in reached:
                    reached.add(z)
                    order.append(z)
                    block.append((z, b, a))
            partners = generators
            i += 1
    return blocks, stable


def table_homs(
    rows, blocks: list[tuple[int, list[tuple[int, int, int]]]], targets, values: Sequence[Sequence[int]],
    leaf: Callable[[tuple[int, ...]], None], *, injective: bool, surjective: bool, every: bool,
    cap: tuple[int, str] | None = None,
) -> None:
    """Call leaf(img), img a tuple, for every map img of the source points
    into the target points that keeps the instances of |> it checks; the
    maps come in the order of their generator values.

    rows[x][y] is x |> y on the source points range(len(rows)), and
    targets[a][b] on the target points: a Quandle's table or a
    ConjugationTable, where -1 means undefined.  blocks is
    generator_blocks of the source points, and values[i] lists the values
    tried, in order, for generator i.  Once a generator has a value, each
    point of its block follows in a flat loop: a point z reached as
    x |> y = z can only take img[x] |> img[y], since any other value fails
    that instance, and where that is undefined the branch dies.  Each
    instance (x, y) that is checked is checked as soon as the last of x, y
    and x |> y is placed; it fails when img[x] |> img[y] is undefined or
    differs from img[x |> y], and an undefined source entry constrains
    nothing.  With every set every instance is checked, and without it only
    those in a generator's row or column.  injective refuses a value
    already taken, and surjective one that leaves more target points
    uncovered than points are left to place.  cap, (limit, message), raises
    CapExceeded(message) once more than limit generator values pass those
    two prunes.  The search recurses once per generator.

    Lemma: the instances in the generators' rows and columns suffice when
    both tables act by groups, x |> y = s_x(y) with
    s_(x|>y) = s_x s_y s_x^-1 wherever x |> y is defined, and each source
    s_x permutes the source points.  Quandles do (Q2, Q3), and so do
    members of a group conjugated by one another (s_x is conjugation by x),
    the source members closed under it.  Write C(x) for
    img s_x = s_img(x) img on every source point.  With n the order of s_x,
    C(x) applied n times shows that s_img(x)^n fixes every value of img, so
    img s_x^-1 = img s_x^(n-1) = s_img(x)^-1 img.  Then C(x), C(w) and
    img(x |> w) = img(x) |> img(w) give C(x |> w), by
    s_(x|>w) = s_x s_w s_x^-1 on both sides.  The rows give C at every
    generator, and each block point z is placed by an instance x |> y = z
    with x or y a generator and both placed before z, so by induction along
    the block order C holds at every point: img keeps every instance.  The
    columns reject a wrong generator value before its block is placed.
    """
    n1, n2 = len(rows), len(targets)
    order = [p for g, block in blocks for p in (g, *(z for z, _, _ in block))]
    position = [0] * n1
    for k, p in enumerate(order):
        position[p] = k
    generators = [g for g, _ in blocks]
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n1)]
    for x in range(n1):
        row = rows[x]
        for y in range(n1) if every or x in generators else generators:
            z = row[y]
            if z >= 0:
                checks[max(position[x], position[y], position[z])].append((x, y, z))
    # per generator: the generator, its values, slack and checks, and one
    # step (point, x, y, slack, checks) per point of its block, whose
    # forced value is x |> y; slack is the number of points placed after a
    # point, which the surjective prune reads
    plan = []
    for (g, block), vals in zip(blocks, values):
        steps = [(z, x, y, n1 - 1 - position[z], checks[position[z]]) for z, x, y in block]
        plan.append((g, vals, n1 - 1 - position[g], checks[position[g]], steps))
    limit, refusal = cap or (-1, "")
    tried = 0
    img: list[int] = [0] * n1
    used = [0] * n2  # multiplicity of each target value among placed points

    def extend(level: int, distinct: int) -> None:
        nonlocal tried
        if level == len(plan):
            leaf(tuple(img))
            return
        g, vals, slack, gen_checks, steps = plan[level]
        for v in vals:
            if injective and used[v]:
                continue
            d = distinct + (used[v] == 0)
            if surjective and n2 - d > slack:
                continue
            if limit >= 0:
                tried += 1
                if tried > limit:
                    raise CapExceeded(refusal)
            img[g] = v
            ok = True
            for x, y, z in gen_checks:
                if img[z] != targets[img[x]][img[y]]:
                    ok = False
                    break
            if not ok:
                continue
            used[v] += 1
            placed = [v]
            for p, x, y, p_slack, p_checks in steps:
                w = targets[img[x]][img[y]]
                if w < 0 or (injective and used[w]):
                    ok = False
                    break
                d += used[w] == 0
                if surjective and n2 - d > p_slack:
                    ok = False
                    break
                img[p] = w
                for a, b, c in p_checks:
                    if img[c] != targets[img[a]][img[b]]:
                        ok = False
                        break
                if not ok:
                    break
                used[w] += 1
                placed.append(w)
            if ok:
                extend(level + 1, d)
            for w in placed:
                used[w] -= 1

    extend(0, 0)


def _rotation(n: int) -> Perm:
    return tuple((i + 1) % n for i in range(n))


def _negation(n: int) -> Perm:
    return tuple((-i) % n for i in range(n))


def cyclic_group(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    return close_group([_rotation(n)], cap=cap)


def symmetric_group(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return close_group([identity(1)], cap=cap)
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    return close_group([tuple(swap), _rotation(n)], cap=cap)


def _dihedral_gens(n: int) -> tuple[Perm, Perm]:
    # Realizations chosen so the group really has order 2n, including n < 3
    # where the n-point action is too small.
    if n >= 3:
        return _rotation(n), _negation(n)
    if n == 2:
        return (1, 0, 3, 2), (2, 3, 0, 1)
    if n == 1:
        return identity(2), (1, 0)
    raise ValueError("n must be >= 1")


def dihedral_group(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """The dihedral group of order 2n (rotation and reflection generators)."""
    return close_group(list(_dihedral_gens(n)), cap=cap)


def dihedral_reflections(n: int) -> list[Perm]:
    """The n reflections of dihedral_group(n), in rotation-power order."""
    a, x = _dihedral_gens(n)
    out = []
    r = x
    for _ in range(n):
        out.append(r)
        r = compose(a, r)
    return out


def all_transpositions(n: int) -> list[Perm]:
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            images = list(range(n))
            images[i], images[j] = j, i
            out.append(tuple(images))
    return out


def find_dihedral_presentation(group: PermGroup) -> tuple[Perm, Perm] | None:
    """Search for (a, x) with a^n = x^2 = 1, x a x = a^-1 and <a, x> = group.

    Returns the first such pair in sorted element order when the group is
    dihedral of order 2n with n = |group| / 2, else None.  Only <a> is
    closed: it has index 2 in the group, so any x outside it makes
    <a, x> the whole group.
    """
    order = len(group)
    if order % 2 != 0:
        return None
    n = order // 2
    e = group.identity
    elems = group.sorted_elements()
    involutions = [g for g in elems if g != e and compose(g, g) == e]
    for a in elems:
        if perm_order(a) != n:
            continue
        powers = close_group([a], cap=order).elements
        a_inv = inverse(a)
        for x in involutions:
            if x not in powers and compose(compose(x, a), x) == a_inv:
                return a, x
    return None


def group_to_lines(group: PermGroup) -> list[str]:
    """Explicit text block: 'perms <degree>' then one generator per line."""
    return ["perms %d" % group.degree] + [perm_to_text(g) for g in group.generators]


def group_from_lines(lines: Sequence[str], cap: int = DEFAULT_CAP) -> PermGroup:
    """Parse a group block: a named family line or a 'perms' block.

    Named families: 'cyclic n', 'dihedral n' (order 2n), 'symmetric n'.
    """
    if not lines:
        raise ValueError("empty group block")
    head = lines[0].split()
    if not head:
        raise ValueError("empty group header line")
    kind = head[0]
    families = {"cyclic": cyclic_group, "dihedral": dihedral_group, "symmetric": symmetric_group}
    if kind in families:
        if len(head) != 2 or len(lines) != 1:
            raise ValueError("family line must be '%s n' on its own" % kind)
        (n,) = integers(head[1:], lines[0], "'%s <n>'" % kind)
        return families[kind](n, cap=cap)
    if kind == "perms":
        if len(head) != 2:
            raise ValueError("expected 'perms <degree>'")
        (degree,) = integers(head[1:], lines[0], "'perms <degree>'")
        gens = [perm_from_text(line) for line in lines[1:]]
        if not gens:
            raise ValueError("perms block needs at least one generator line")
        for g in gens:
            if len(g) != degree:
                raise ValueError("generator degree does not match header")
        return close_group(gens, cap=cap)
    raise ValueError("unknown group block kind: %r" % kind)
