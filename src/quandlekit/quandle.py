"""Finite quandles as Cayley tables of their point symmetries.

A quandle on points {0, ..., n-1} is stored as a table where row x is the
symmetry at x: ``table[x][y]`` is the image of y under it.  The axioms are

  Q1: table[x][x] == x
  Q2: every row is a permutation
  Q3: table[x][table[y][z]] == table[table[x][y]][table[x][z]]

so a valid row doubles as a permutation tuple and can be fed straight into
the perm module.  Tables that break the axioms are still constructible;
check_axioms reports exactly which instances fail, and Quandle.violations
keeps its report with the quandle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .grpgen import GenPair
from .perm import (
    DEFAULT_CAP,
    ConjugationTable,
    Perm,
    PermGroup,
    close_group,
    integers,
    is_perm,
    perm_to_text,
)

Violation = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class Quandle:
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        if n == 0:
            raise ValueError("empty table")
        for row in table:
            if len(row) != n:
                raise ValueError("malformed table: row length differs from size")
            for v in row:
                if not 0 <= v < n:
                    raise ValueError("malformed table: entry %r out of range" % (v,))
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise ValueError("labels length differs from size")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.table)

    def symmetry(self, x: int) -> Perm:
        """The row at x, viewed as a permutation (valid quandles only)."""
        return self.table[x]

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """check_axioms(self), computed on first read and kept: the table
        never changes, so each quandle is checked once."""
        return tuple(check_axioms(self))


def check_axioms(q: Quandle) -> list[Violation]:
    """Violated axiom instances: ("Q1", (x,)), ("Q2", (x,)), ("Q3", (x, y, z)),
    in that order, each kind by ascending indices.

    Q3 at (x, y, z) says that s_x s_y and s_{x|>y} s_x agree at z, so the
    two are compared as whole rows and z is scanned only where they
    differ.  A row that is a permutation and keeps Q3 for every (y, z) is
    an automorphism of the table.  Lemma: if s_a and s_b are automorphisms,
    so is s_{a|>b}, since Q3 at a gives s_a s_b = s_{a|>b} s_a, that is
    s_{a|>b} = s_a s_b s_a^-1.  So a row that |> reaches from rows proven
    automorphisms has no Q2 or Q3 violation and is skipped.
    """
    n = q.n
    t = q.table
    out: list[Violation] = [("Q1", (x,)) for x in range(n) if t[x][x] != x]
    perms = [is_perm(row) for row in t]
    out += [("Q2", (x,)) for x in range(n) if not perms[x]]
    after = [itemgetter(*row) for row in t]  # after[y](r) is r s_y
    known: set[int] = set()  # proven automorphisms, closed under |>
    for x in range(n):
        if x in known:
            continue
        tx = t[x]
        proven = perms[x]
        for y in range(n):
            if after[y](tx) != after[x](t[tx[y]]):
                proven = False
                out += [("Q3", (x, y, z)) for z in range(n) if tx[t[y][z]] != t[tx[y]][tx[z]]]
        pending = [x] if proven else []
        while pending:
            a = pending.pop()
            if a not in known:
                known.add(a)
                pending += [c for b in known for c in (t[a][b], t[b][a])]
    return out


def is_faithful(q: Quandle) -> bool:
    """True when distinct points have distinct symmetries."""
    return len(set(q.table)) == q.n


def trivial_quandle(n: int) -> Quandle:
    if n < 1:
        raise ValueError("n must be >= 1")
    row = tuple(range(n))
    return Quandle(tuple(row for _ in range(n)))


def dihedral(n: int) -> Quandle:
    """The dihedral quandle: table[x][y] = (2x - y) mod n.  Faithful iff n is odd."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Quandle(tuple(tuple((2 * x - y) % n for y in range(n)) for x in range(n)))


def _abelian_elements(factors: Sequence[int]) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(m) for m in factors)))


def _add(u: tuple[int, ...], v: tuple[int, ...], factors: Sequence[int]) -> tuple[int, ...]:
    return tuple((a + b) % m for a, b, m in zip(u, v, factors))


def _sub(u: tuple[int, ...], v: tuple[int, ...], factors: Sequence[int]) -> tuple[int, ...]:
    return tuple((a - b) % m for a, b, m in zip(u, v, factors))


def _apply(matrix: Sequence[Sequence[int]], v: tuple[int, ...], factors: Sequence[int]) -> tuple[int, ...]:
    return tuple(
        sum(matrix[i][j] * v[j] for j in range(len(v))) % factors[i]
        for i in range(len(factors))
    )


def validate_abelian_automorphism(
    factors: Sequence[int], matrix: Sequence[Sequence[int]]
) -> None:
    """Exhaustively check that the matrix acts as an automorphism of the group.

    The group is the product of cyclic groups of the given orders; the matrix
    acts on coordinate vectors.  Raises ValueError when the action is not
    additive or not bijective.
    """
    k = len(factors)
    if k == 0 or any(m < 1 for m in factors):
        raise ValueError("factors must be a nonempty list of orders >= 1")
    if len(matrix) != k or any(len(row) != k for row in matrix):
        raise ValueError("matrix shape must be %dx%d" % (k, k))
    elems = _abelian_elements(factors)
    for u in elems:
        for v in elems:
            lhs = _apply(matrix, _add(u, v, factors), factors)
            rhs = _add(_apply(matrix, u, factors), _apply(matrix, v, factors), factors)
            if lhs != rhs:
                raise ValueError("matrix action is not additive")
    images = {_apply(matrix, v, factors) for v in elems}
    if len(images) != len(elems):
        raise ValueError("matrix action is not bijective")


def is_fixed_point_free(factors: Sequence[int], matrix: Sequence[Sequence[int]]) -> bool:
    """True when only the zero vector is fixed by the matrix action."""
    zero = tuple(0 for _ in factors)
    for v in _abelian_elements(factors):
        if v != zero and _apply(matrix, v, factors) == v:
            return False
    return True


def alexander_quandle(
    factors: Sequence[int], matrix: Sequence[Sequence[int]]
) -> Quandle:
    """Affine quandle on a product of cyclic groups: s_a(b) = phi(b) + a - phi(a).

    phi is the matrix action, validated exhaustively.  Points are the group
    elements in lexicographic coordinate order; labels record coordinates.
    """
    validate_abelian_automorphism(factors, matrix)
    elems = _abelian_elements(factors)
    index = {v: i for i, v in enumerate(elems)}
    phi = {v: _apply(matrix, v, factors) for v in elems}
    table = []
    for a in elems:
        shift = _sub(a, phi[a], factors)
        table.append(tuple(index[_add(phi[b], shift, factors)] for b in elems))
    labels = tuple(",".join(str(c) for c in v) for v in elems)
    return Quandle(tuple(table), labels)


def conjugation_quandle(group: PermGroup, omega: Iterable[Perm]) -> Quandle:
    """Conjugation quandle on omega: the symmetry at g sends h to g h g^-1.

    omega must be closed under conjugation by its own members, hence by the
    subgroup they generate; closure under the whole ambient group (e.g. a
    union of its conjugacy classes) is sufficient but not required.  Points
    are the members of omega in lexicographic order; labels record the
    underlying permutations.
    """
    pts = sorted(set(tuple(w) for w in omega))
    if not pts:
        raise ValueError("omega must be nonempty")
    for p in pts:
        if p not in group.elements:
            raise ValueError("omega element %s is not in the group" % (p,))
    return quandle_of_conjugation_table(ConjugationTable(pts))


def quandle_of_conjugation_table(table: ConjugationTable) -> Quandle:
    """The conjugation quandle on the table's members, in their order;
    labels record the permutations."""
    rows = table.rows
    if any(-1 in row for row in rows):
        raise ValueError("omega is not conjugation-stable (conjugate escapes)")
    return Quandle(rows, tuple(perm_to_text(p) for p in table.members))


@dataclass(frozen=True)
class SubquandleWitness:
    """A subset of a quandle's points verified closed under all symmetries.

    Closed means: for interior x and y, both table[x][y] and the preimage of
    y under row x stay inside the subset.  Only the first is checked: a row
    is a permutation, so one that maps the finite subset into itself is
    injective on it, hence onto it, and the preimage of an interior y is
    interior too.
    """

    parent: Quandle
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted(set(self.points)))
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("subset must be nonempty")
        n = self.parent.n
        if pts[0] < 0 or pts[-1] >= n:
            raise ValueError("points out of range")
        inside = set(pts)
        for x in pts:
            row = self.parent.table[x]
            if not is_perm(row):
                raise ValueError("parent row %d is not a permutation" % x)
            for y in pts:
                if row[y] not in inside:
                    raise ValueError("subset is not closed under the symmetries")

    def as_quandle(self) -> Quandle:
        """The subset reindexed as a quandle of its own; labels track parent points."""
        pos = {p: i for i, p in enumerate(self.points)}
        table = tuple(
            tuple(pos[self.parent.table[x][y]] for y in self.points)
            for x in self.points
        )
        labels = tuple(self.parent.label(p) for p in self.points)
        return Quandle(table, labels)


def subquandle_closure(q: Quandle, seed: Iterable[int]) -> SubquandleWitness:
    """Smallest subset containing the seed and closed under all interior
    symmetries and their inverses.

    Only the symmetries are applied: a row that maps a finite subset into
    itself maps it onto itself, being injective, so the inverse rows add
    nothing once the rows do.  SubquandleWitness checks that the rows of
    the subset are permutations.
    """
    pts = set(seed)
    if not pts:
        raise ValueError("seed must be nonempty")
    for p in pts:
        if not 0 <= p < q.n:
            raise ValueError("seed point %r out of range" % (p,))
    changed = True
    while changed:
        changed = False
        for x in sorted(pts):
            row = q.table[x]
            for y in sorted(pts):
                z = row[y]
                if z not in pts:
                    pts.add(z)
                    changed = True
    return SubquandleWitness(q, tuple(sorted(pts)))


def inn(q: Quandle, cap: int = DEFAULT_CAP) -> GenPair:
    """The inner group: closure of all point symmetries, with them distinguished.

    It is inn_relative on the subquandle of all points.  Duplicate
    symmetries of a non-faithful quandle collapse to one omega member.
    Generator i of the underlying group is the symmetry at the i-th point
    carrying a new one, so for a faithful quandle generator i is the
    symmetry at point i.
    """
    return inn_relative(q, SubquandleWitness(q, tuple(range(q.n))), cap)


def inn_relative(q: Quandle, subquandle: SubquandleWitness, cap: int = DEFAULT_CAP) -> GenPair:
    """Closure of the symmetries at the subset's points, acting on all of q,
    with them distinguished.

    The group is the closure of exactly these generators, so the pair
    needs none of make_genpair's checks.
    """
    if subquandle.parent != q:
        raise ValueError("subquandle belongs to a different quandle")
    gens = list(dict.fromkeys(q.table[x] for x in subquandle.points))
    return GenPair(close_group(gens, cap=cap), tuple(sorted(gens)))


def quandle_to_text(q: Quandle) -> str:
    """Canonical file form: header line, then one table row per line.

    Rows carry the point label as a trailing comment when labels are set.
    """
    lines = ["quandle %d" % q.n]
    for x in range(q.n):
        row = " ".join(str(v) for v in q.table[x])
        if q.labels is not None:
            row += "  # " + q.labels[x]
        lines.append(row)
    return "\n".join(lines) + "\n"


def quandle_from_text(text: str) -> Quandle:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty quandle text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "quandle":
        raise ValueError("first line must be 'quandle <n>'")
    (n,) = integers(head[1:], lines[0], "'quandle <n>'")
    if len(lines) != n + 1:
        raise ValueError("expected %d table rows, found %d" % (n, len(lines) - 1))
    rows = []
    labels: list[str] = []
    saw_label = False
    for line in lines[1:]:
        body, _, comment = line.partition("#")
        row = tuple(integers(body.split(), line, "'<n> entries [# label]'"))
        rows.append(row)
        label = comment.strip()
        labels.append(label)
        if label:
            saw_label = True
    return Quandle(tuple(rows), tuple(labels) if saw_label else None)
