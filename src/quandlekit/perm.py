"""Permutations of {0, ..., n-1} and small fully enumerated permutation groups.

A permutation is a plain tuple of images: ``p[i]`` is where point ``i`` goes.
Groups keep every element explicitly, so membership tests, centralizers and
conjugation-stability checks are plain iteration.  Everything is desk scale
by design: closures refuse to grow past a configurable cap instead of
switching to clever data structures.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
    n = 1
    q = p
    e = identity(len(p))
    while q != e:
        q = compose(q, p)
        n += 1
    return n


def perm_to_text(p: Perm) -> str:
    return "[" + " ".join(str(i) for i in p) + "]"


def perm_from_text(text: str) -> Perm:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("permutation text must look like [i0 i1 ... ik]")
    body = text[1:-1].split()
    images = tuple(int(tok) for tok in body)
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
    """Breadth-first closure of the generators, from the identity.

    The BFS multiplies on the right by the distinct non-identity
    generators only: in a finite group every inverse is a positive power,
    so they reach every element.  The generators are kept as given.
    Exceeding ``cap`` elements raises CapExceeded.
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
    e = identity(degree)
    alphabet = [g for g in dict.fromkeys(gens) if g != e]
    seen = {e}
    queue: deque[Perm] = deque([e])
    while queue:
        cur = queue.popleft()
        for g in alphabet:
            nxt = compose(cur, g)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(
                        "group closure exceeded the cap of %d elements" % cap
                    )
                seen.add(nxt)
                queue.append(nxt)
    return PermGroup(degree, gens, frozenset(seen))


def _require_subset(group: PermGroup, subset: Iterable[Perm]) -> list[Perm]:
    elems = [tuple(s) for s in subset]
    for s in elems:
        if s not in group.elements:
            raise ValueError("subset element %s is not in the group" % (s,))
    return elems


def centralizer_of_subset_is_trivial(group: PermGroup, subset: Iterable[Perm]) -> bool:
    """True when only the identity commutes with every member of the subset."""
    elems = _require_subset(group, subset)
    e = group.identity
    for g in group.elements:
        if g != e and all(conjugate(g, s) == s for s in elems):
            return False
    return True


def is_conjugation_stable(group: PermGroup, subset: Iterable[Perm]) -> bool:
    """True when g s g^-1 stays in the subset for every g in the group."""
    return conjugation_stable_under(group.generators, _require_subset(group, subset))


def conjugation_stable_under(generators: Iterable[Perm], subset: Iterable[Perm]) -> bool:
    """True when g s g^-1 stays in the subset for every g in the group the
    generators generate.

    Only the generators are tried: conjugation by one maps the finite
    subset injectively into itself, hence onto it, so their inverses and
    products keep it too.  No group is closed.
    """
    sset = frozenset(subset)
    return all(conjugate(g, s) in sset for g in generators for s in sset)


def conjugation_basis(members: Sequence[Perm]) -> tuple[list[Perm], bool]:
    """(basis, stable): a quandle generating set of the members, and whether
    the members are closed under conjugation by one another.

    The members are taken in order; one that conjugation by the basis has
    not reached yet joins the basis.  Each pair (basis member, reached
    member) is conjugated once, |basis| * |members| conjugates at most, and
    a conjugate outside the members is not reached.  Every reached member
    lies in the group the basis generates, so the basis generates the same
    group as the members.  stable is True exactly when every conjugate
    stays among the members: stability under generators is stability under
    the group they generate.  No group is closed.
    """
    mset = frozenset(members)
    basis: list[Perm] = []
    done: list[int] = []  # done[i]: reached members basis[i] has conjugated
    reached: list[Perm] = []
    seen: set[Perm] = set()
    stable = True
    for m in members:
        if m in seen:
            continue
        basis.append(m)
        done.append(0)
        seen.add(m)
        reached.append(m)
        while any(d < len(reached) for d in done):
            for i, b in enumerate(basis):
                while done[i] < len(reached):
                    c = conjugate(b, reached[done[i]])
                    done[i] += 1
                    if c not in mset:
                        stable = False
                    elif c not in seen:
                        seen.add(c)
                        reached.append(c)
    return basis, stable


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
    if kind in ("cyclic", "dihedral", "symmetric"):
        if len(head) != 2 or len(lines) != 1:
            raise ValueError("family line must be '%s n' on its own" % kind)
        n = int(head[1])
        if kind == "cyclic":
            return cyclic_group(n, cap=cap)
        if kind == "dihedral":
            return dihedral_group(n, cap=cap)
        return symmetric_group(n, cap=cap)
    if kind == "perms":
        if len(head) != 2:
            raise ValueError("expected 'perms <degree>'")
        degree = int(head[1])
        gens = [perm_from_text(line) for line in lines[1:]]
        if not gens:
            raise ValueError("perms block needs at least one generator line")
        for g in gens:
            if len(g) != degree:
                raise ValueError("generator degree does not match header")
        return close_group(gens, cap=cap)
    raise ValueError("unknown group block kind: %r" % kind)
