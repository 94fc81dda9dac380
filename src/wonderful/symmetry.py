"""The symmetric group acting on labels: centers (boundary divisors among
them), nested sets, degeneration trees.

Permutations relabel index sets; component indices and expansion depths are
untouched.  The nestedness predicate is invariant (all its clauses are
boolean combinations of disjointness and containment of index sets), which
is the checkable shadow of equivariance of the whole construction.

Orbits are found without listing the group.  The index sets of a nested set
form a laminar family on {1..n}: the D-divisors of one component form a
chain, D-divisors of different components are disjoint, diagonals are
pairwise disjoint or nested, and a diagonal Delta_I meets a D-divisor
D_{c,S} only when I lies inside S.  ``trees.face_forest`` orders them into a
forest with one node per divisor, under a root that holds every point;
Delta_I hangs under D_{c,I} when both are present.  A node carries its
component (0 for a diagonal) and its number of free points (those on no
child).  The AHU code of a node (Aho, Hopcroft and Ullman, 1974) is
(component, free points, sorted child codes), and the code of the nested
set is the sorted tuple of the codes of the root's children.

The code is a complete invariant.  A permutation preserves inclusion, sizes
and components, hence the code.  Conversely, equal codes give an isomorphism
of the two forests that keeps components and free-point counts, node by
node.  Sending each node's free points onto its partner's, and the root's
free points onto each other, defines a permutation that carries every index
set onto its partner, and with it every divisor of the one nested set onto
a divisor of the other.  The nested sets of one size are closed under
relabeling, so an orbit is exactly the nested sets that share a code: its
size is their number, and the stabilizer order is n! over it.

A divisor is the one-node forest, with code (c, |S|) (c = 0 for Delta_S).
So the divisor orbits are listed without listing the divisors: per
component D_{c,[s]} for s = 1..n, then Delta_{[s]} for s = 2..n, where
[s] = {1..s} is the least index set of its size; each orbit has C(n, s)
members and a stabilizer of order s!(n - s)!.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .geometry import GeometryConfig, Space
from .labels import elements
from .loci import Diagonal, DLocus
from .nested import NestedSet, enumerate_nested_sets, make_nested_set
from .trees import DegenerationTree, face_forest


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; images[i-1] = image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("images %r are not a bijection of {1..%d}" % (self.images, len(self.images)))

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, i: int) -> int:
        return self.images[i - 1]

    def apply_mask(self, mask: int) -> int:
        out = 0
        for i in elements(mask):
            out |= 1 << (self.images[i - 1] - 1)
        return out


def all_permutations(n: int):
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def act(p: Permutation, x):
    """Relabel x by the permutation; x may be a center (which covers the
    boundary divisors too), a nested set, or a degeneration tree."""
    if isinstance(x, DLocus):
        if p.n != x.n:
            raise ValueError("permutation degree %d does not match population %d" % (p.n, x.n))
        return DLocus(x.n, x.component, p.apply_mask(x.subset))
    if isinstance(x, Diagonal):
        if p.n != x.n:
            raise ValueError("permutation degree %d does not match population %d" % (p.n, x.n))
        return Diagonal(x.n, tuple(sorted(map(p.apply_mask, x.blocks), key=lambda m: m & -m)))
    if isinstance(x, NestedSet):
        return make_nested_set(x.geometry, [act(p, d) for d in x.divisors])
    if isinstance(x, DegenerationTree):
        if p.n != x.geometry.n:
            raise ValueError("permutation degree %d does not match population %d" % (p.n, x.geometry.n))
        markings = [0] * p.n
        for i in range(1, p.n + 1):
            markings[p.apply(i) - 1] = x.markings[i - 1]
        return replace(x, markings=tuple(markings))
    raise TypeError("cannot act on %r" % (x,))


@dataclass(frozen=True)
class Orbit:
    representative: object
    size: int
    stabilizer_order: int


def _forest_code(n: int, divisors) -> tuple:
    """The AHU code of a nested set's laminar forest; see the module docstring."""
    order, parents, points = face_forest(n, divisors)
    free = [0] * (len(order) + 1)
    for vid in points:
        free[vid] += 1
    kids: list[list[tuple]] = [[] for _ in free]
    for vid in range(len(order), 0, -1):  # children before parents
        kids[parents[vid]].append((order[vid - 1].component, free[vid], tuple(sorted(kids[vid]))))
    return tuple(sorted(kids[0]))


def orbits(g: GeometryConfig, kind: str, size: int | None = None) -> tuple[Orbit, ...]:
    """Orbit representatives with orbit sizes, in canonical order: each
    orbit is listed at its least member, in the order of those members.

    kind "divisors" partitions the boundary divisors, in closed form from
    (component, |S|); kind "nested" the nested sets of the given
    cardinality, grouped by their forest code.  Sizes always divide n!.

    No sort is needed for "nested": the walk lists each face before its
    extensions and extends by later divisors only, so the faces of one size
    come out in the order of their divisor keys, least member first.
    """
    n = g.n
    if kind == "divisors":
        families = [] if g.space is Space.FM else [(c, 1) for c in range(1, g.n_components + 1)]
        families += [] if g.space is Space.XD_UPPER else [(0, 2)]
        return tuple(
            Orbit(DLocus(n, c, (1 << s) - 1) if c else Diagonal.simple(n, (1 << s) - 1),
                  math.comb(n, s), math.factorial(s) * math.factorial(n - s))
            for c, least in families for s in range(least, n + 1))
    if kind == "nested":
        if size is None:
            raise ValueError("orbit kind 'nested' needs a size")
        groups: dict[tuple, list] = {}
        for ns in enumerate_nested_sets(g, max_size=size):
            if len(ns) == size:
                groups.setdefault(_forest_code(n, ns.divisors), []).append(ns)
        whole = math.factorial(n)
        return tuple(Orbit(xs[0], len(xs), whole // len(xs)) for xs in groups.values())
    raise ValueError("unknown orbit kind %r" % kind)


def stabilizer(g: GeometryConfig, ns: NestedSet) -> tuple[Permutation, ...]:
    """The permutations fixing the nested set as a set of divisors, found by
    running through all n! of them."""
    return tuple(p for p in all_permutations(g.n) if act(p, ns) == ns)


__all__ = [
    "Orbit",
    "Permutation",
    "act",
    "all_permutations",
    "orbits",
    "stabilizer",
]
