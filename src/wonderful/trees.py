"""Dual graphs of universal-family fibers.

A fiber over a boundary point is a normal-crossing modification of X: the
root component (X blown up along the participating D-centers), one accordion
of expansion levels P(N oplus 1) per component of D, and Fulton-MacPherson
screens P(T_x oplus 1) bubbling off where labeled points collide away from
D.  The combinatorial shadow kept here is a rooted tree of typed vertices
with a total marking assignment; attachment points and coordinates are not
modeled, only the facts needed for stability and for reading the nested set
back off the tree.

Stability concretely: a screen carries the dilation-translation group, so it
needs at least two special points; an expansion level carries the fiberwise
scaling, so it needs at least one special point away from its two boundary
sections.  Special points are the markings on the vertex plus the attachment
points of child screens; a deeper expansion level attaches along a section
and does not count.  The thresholds sit in one table (_MIN_SPECIAL) so a
sharper analysis can revise them in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .geometry import GeometryConfig
from .labels import elements, format_subset, mask_of
from .loci import Center, Diagonal, DLocus
from .nested import NestedSet, make_nested_set


class VertexKind(Enum):
    ROOT = "Root"
    DLEVEL = "DLevel"
    SCREEN = "Screen"


@dataclass(frozen=True)
class Vertex:
    vid: int
    kind: VertexKind
    component: int | None = None  # DLevel only
    depth: int | None = None      # DLevel only: 1 attaches to the root

    def label(self) -> str:
        if self.kind is VertexKind.DLEVEL:
            return "D(c%d,%d)" % (self.component, self.depth)
        return self.kind.value


@dataclass(frozen=True)
class DegenerationTree:
    geometry: GeometryConfig
    vertices: tuple[Vertex, ...]
    parents: tuple[int | None, ...]
    markings: tuple[int, ...]  # markings[i-1] = vertex id carrying point i

    def __post_init__(self):
        vs = self.vertices
        if not vs or vs[0].kind is not VertexKind.ROOT or self.parents[0] is not None:
            raise ValueError("vertex 0 must be the parentless root")
        if len(self.parents) != len(vs):
            raise ValueError("parent table size mismatch")
        if len(self.markings) != self.geometry.n:
            raise ValueError("markings must place every one of the %d points" % self.geometry.n)
        chains: dict[int, set[int]] = {}
        for pos, v in enumerate(vs):
            if v.vid != pos:
                raise ValueError("vertex ids must match positions")
            if v.kind is VertexKind.ROOT and v.vid != 0:
                raise ValueError("only vertex 0 may be the root")
            if v.kind is VertexKind.DLEVEL:
                if v.component is None or v.depth is None or v.depth < 1:
                    raise ValueError("expansion levels need a component and a depth >= 1")
                if v.depth in chains.setdefault(v.component, set()):
                    raise ValueError("one expansion chain per component")
                chains[v.component].add(v.depth)
        for v in vs[1:]:
            p = self.parents[v.vid]
            if p is None or not 0 <= p < v.vid:  # parents first: the relation is a tree
                raise ValueError("vertex %d needs a parent listed before it" % v.vid)
            if v.kind is VertexKind.DLEVEL:
                parent = vs[p]
                if v.depth == 1:
                    if parent.kind is not VertexKind.ROOT:
                        raise ValueError("depth-1 expansion levels attach to the root")
                elif not (
                    parent.kind is VertexKind.DLEVEL
                    and parent.component == v.component
                    and parent.depth == v.depth - 1
                ):
                    raise ValueError("expansion levels chain by depth within one component")
        for i, vid in enumerate(self.markings, start=1):
            if not 0 <= vid < len(vs):
                raise ValueError("marking %d placed on a missing vertex" % i)

    def marks_on(self, vid: int) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.markings, start=1) if m == vid)


def _subtree_masks(t: DegenerationTree) -> list[int]:
    """Per vertex the bitmask of the points on it or below it: one pass from
    the last vertex back, as every parent is listed before its children."""
    masks = [0] * len(t.vertices)
    for i, vid in enumerate(t.markings):
        masks[vid] |= 1 << i
    for vid in range(len(masks) - 1, 0, -1):
        masks[t.parents[vid]] |= masks[vid]
    return masks


# screens: C* x translations, trivialized by two fixed points;
# expansion levels: fiberwise C*, trivialized by one point off the sections
_MIN_SPECIAL = {VertexKind.ROOT: 0, VertexKind.DLEVEL: 1, VertexKind.SCREEN: 2}


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    violating_vertex: int | None = None


def is_stable(t: DegenerationTree) -> StabilityReport:
    """No vertex admits a leftover automorphism: enough special points
    everywhere.  Special points are own markings plus child-screen
    attachments; a deeper expansion level rides a section and is not special."""
    special = [0] * len(t.vertices)
    for vid in t.markings:
        special[vid] += 1
    for v in t.vertices[1:]:
        if v.kind is VertexKind.SCREEN:
            special[t.parents[v.vid]] += 1
    for v in t.vertices:
        if special[v.vid] < _MIN_SPECIAL[v.kind]:
            return StabilityReport(False, v.vid)
    return StabilityReport(True)


def face_forest(n: int, divisors) -> tuple[list[Center], list[int | None], list[int]]:
    """The laminar forest of a nested set's index sets: the divisors in
    vertex order, each vertex's parent, and each point's vertex.

    Vertex 0 is the root and holds every point; vertex v is divisor v - 1.
    Vertex order is the D-divisors by component, each chain largest set
    first, then the diagonals largest first (a stable sort of the canonical
    order keeps its tie-break).  A vertex's parent, and a point's vertex, is
    the last earlier vertex whose set contains it.  The rule is exact: the
    sets containing a given set form a chain, which vertex order lists
    outermost first, since D-divisors of two components are disjoint and
    Delta_J meets D_{c,S} only when J lies in S (so Delta_S hangs under
    D_{c,S}).  An earlier vertex that meets a set thus contains it, and the
    last one holding any point of the set is its parent.
    """
    order = sorted(divisors, key=lambda d: (not d.component, d.component, -d.subset.bit_count()))
    owner = [0] * n  # per point, the last vertex so far whose set holds it
    parents: list[int | None] = [None]
    for vid, d in enumerate(order, start=1):
        points = elements(d.subset)
        parents.append(owner[points[0] - 1])
        for i in points:
            owner[i - 1] = vid
    return order, parents, owner


def fiber_tree(g: GeometryConfig, ns: NestedSet) -> DegenerationTree:
    """The dual graph of the fiber over the stratum cut out by ``ns``.

    Vertices, parents and markings are those of ``face_forest``, placed by
    its one rule: a D-divisor is an expansion level, its depth counted down
    its component's chain from the root, and a diagonal is a screen.
    """
    if ns.geometry != g:
        raise ValueError("nested set belongs to a different configuration")
    order, parents, points = face_forest(g.n, ns.divisors)
    vertices = [Vertex(0, VertexKind.ROOT)]
    depth: dict[int, int] = {}
    for vid, d in enumerate(order, start=1):
        if d.component:
            depth[d.component] = depth.get(d.component, 0) + 1
            vertices.append(Vertex(vid, VertexKind.DLEVEL, component=d.component, depth=depth[d.component]))
        else:
            vertices.append(Vertex(vid, VertexKind.SCREEN))
    tree = DegenerationTree(g, tuple(vertices), tuple(parents), tuple(points))
    report = is_stable(tree)
    if not report.ok:
        raise AssertionError("placement rules produced an unstable tree at vertex %d" % report.violating_vertex)
    return tree


def tree_to_nested(t: DegenerationTree) -> NestedSet:
    """Read the nested set back off the tree: chain sets are the subtree
    markings of each expansion level, screen sets the subtree markings of
    each screen.  Inverse to fiber_tree on its image."""
    g = t.geometry
    masks = _subtree_masks(t)
    divisors = []
    for v in t.vertices:
        if v.kind is VertexKind.DLEVEL:
            divisors.append(DLocus(g.n, v.component, masks[v.vid]))
        elif v.kind is VertexKind.SCREEN:
            divisors.append(Diagonal.simple(g.n, masks[v.vid]))
    return make_nested_set(g, divisors)


def to_dot(t: DegenerationTree) -> str:
    """Graphviz rendering with stable label text."""
    lines = ["digraph fiber {"]
    for v in t.vertices:
        marks = format_subset(mask_of(t.marks_on(v.vid)))
        lines.append('  v%d [label="%s marks=%s"];' % (v.vid, v.label(), marks))
    for v in t.vertices[1:]:
        lines.append("  v%d -> v%d;" % (t.parents[v.vid], v.vid))
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "DegenerationTree",
    "StabilityReport",
    "Vertex",
    "VertexKind",
    "face_forest",
    "fiber_tree",
    "is_stable",
    "to_dot",
    "tree_to_nested",
]
