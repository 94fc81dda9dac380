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
and does not count.  The thresholds sit in one predicate (_min_special) so a
sharper analysis can revise them in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .geometry import GeometryConfig, extended_config
from .labels import elements, format_subset, mask_of
from .loci import Diagonal, DLocus, SeparationCertificate, check_separation
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
            if p is None or not 0 <= p < len(vs) or p == v.vid:
                raise ValueError("vertex %d needs a valid parent" % v.vid)
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
        # screens may hang off any vertex; walk up to guarantee the parent
        # relation is a tree
        for v in vs[1:]:
            seen = {v.vid}
            p = self.parents[v.vid]
            while p is not None:
                if p in seen:
                    raise ValueError("parent links contain a cycle")
                seen.add(p)
                p = self.parents[p]
        for i, vid in enumerate(self.markings, start=1):
            if not 0 <= vid < len(vs):
                raise ValueError("marking %d placed on a missing vertex" % i)

    def children(self, vid: int) -> tuple[int, ...]:
        return tuple(v.vid for v in self.vertices if self.parents[v.vid] == vid)

    def marks_on(self, vid: int) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.markings, start=1) if m == vid)

    def subtree_marks(self, vid: int) -> int:
        mask = mask_of(self.marks_on(vid))
        for ch in self.children(vid):
            mask |= self.subtree_marks(ch)
        return mask


def _min_special(kind: VertexKind) -> int:
    # screens: C* x translations, trivialized by two fixed points;
    # expansion levels: fiberwise C*, trivialized by one point off the sections
    return {VertexKind.ROOT: 0, VertexKind.DLEVEL: 1, VertexKind.SCREEN: 2}[kind]


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    violating_vertex: int | None = None


def is_stable(t: DegenerationTree) -> StabilityReport:
    """No vertex admits a leftover automorphism: enough special points
    everywhere.  Special points are own markings plus child-screen
    attachments; a deeper expansion level rides a section and is not special."""
    for v in t.vertices:
        screens = sum(1 for ch in t.children(v.vid) if t.vertices[ch].kind is VertexKind.SCREEN)
        special = len(t.marks_on(v.vid)) + screens
        if special < _min_special(v.kind):
            return StabilityReport(False, v.vid)
    return StabilityReport(True)


def fiber_tree(g: GeometryConfig, ns: NestedSet) -> DegenerationTree:
    """The dual graph of the fiber over the stratum cut out by ``ns``.

    The D-divisors of one component form a chain by nestedness; each chain
    set becomes an expansion level, the smallest set deepest, and a marking
    sits at the deepest level whose set contains it (the root if none).
    Diagonal divisors form a forest; each becomes a screen attached to the
    vertex owning its markings (the level of the smallest containing S, or
    the root), nested index sets giving nested screens, and each marking
    moves to its minimal screen.
    """
    if ns.geometry != g:
        raise ValueError("nested set belongs to a different configuration")
    d_sets: dict[int, list[int]] = {}
    delta_sets: list[int] = []
    for d in ns.divisors:
        if d.component:
            d_sets.setdefault(d.component, []).append(d.subset)
        else:
            delta_sets.append(d.subset)

    vertices = [Vertex(0, VertexKind.ROOT)]
    parents: list[int | None] = [None]
    level_of: dict[tuple[int, int], int] = {}  # (component, chain set) -> vid
    for c in sorted(d_sets):
        chain = sorted(d_sets[c], key=lambda m: -m.bit_count())  # largest = depth 1
        prev = 0
        for depth, mask in enumerate(chain, start=1):
            vid = len(vertices)
            vertices.append(Vertex(vid, VertexKind.DLEVEL, component=c, depth=depth))
            parents.append(prev)
            level_of[(c, mask)] = vid
            prev = vid

    def d_anchor(i_mask: int) -> int:
        best = None
        for (c, mask), vid in level_of.items():
            if i_mask & mask == i_mask and (best is None or mask.bit_count() < best[0]):
                best = (mask.bit_count(), vid)
        return 0 if best is None else best[1]

    screen_of: dict[int, int] = {}
    for i_mask in sorted(delta_sets, key=lambda m: (-m.bit_count(), elements(m))):
        enclosing = [j for j in delta_sets if j != i_mask and i_mask & j == i_mask]
        if enclosing:
            parent = screen_of[min(enclosing, key=lambda m: m.bit_count())]
        else:
            parent = d_anchor(i_mask)
        vid = len(vertices)
        vertices.append(Vertex(vid, VertexKind.SCREEN))
        parents.append(parent)
        screen_of[i_mask] = vid

    markings = []
    for i in range(1, g.n + 1):
        bit = 1 << (i - 1)
        screens = [m for m in delta_sets if m & bit]
        if screens:
            markings.append(screen_of[min(screens, key=lambda m: m.bit_count())])
            continue
        d_hits = [(mask.bit_count(), vid) for (c, mask), vid in level_of.items() if mask & bit]
        markings.append(min(d_hits)[1] if d_hits else 0)

    tree = DegenerationTree(g, tuple(vertices), tuple(parents), tuple(markings))
    report = is_stable(tree)
    if not report.ok:
        raise AssertionError("placement rules produced an unstable tree at vertex %d" % report.violating_vertex)
    return tree


def tree_to_nested(t: DegenerationTree) -> NestedSet:
    """Read the nested set back off the tree: chain sets are the subtree
    markings of each expansion level, screen sets the subtree markings of
    each screen.  Inverse to fiber_tree on its image."""
    g = t.geometry
    divisors = []
    for v in t.vertices:
        if v.kind is VertexKind.DLEVEL:
            divisors.append(DLocus(g.n, v.component, t.subtree_marks(v.vid)))
        elif v.kind is VertexKind.SCREEN:
            divisors.append(Diagonal.simple(g.n, t.subtree_marks(v.vid)))
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


@dataclass(frozen=True)
class SectionsReport:
    ok: bool
    certificates: tuple[SeparationCertificate, ...]


def sections_disjoint_check(g: GeometryConfig) -> SectionsReport:
    """Every section stays off the boundary where the moving point enters D.

    For each point a and component c the witness center is D_{c,{a,n+1}}:
    it contains the intersection of D_{c,{n+1}} with the section diagonal of
    a and is strictly contained in D_{c,{n+1}}, so after its blowup (it is a
    universal-family center) the two transforms are disjoint.
    """
    gp = extended_config(g)
    moving = 1 << g.n
    certs = []
    ok = True
    for a in range(1, g.n + 1):
        for c in range(1, g.n_components + 1):
            cert = SeparationCertificate(
                v1=DLocus(gp.n, c, moving),
                v2=Diagonal.simple(gp.n, (1 << (a - 1)) | moving),
                center=DLocus(gp.n, c, (1 << (a - 1)) | moving),
            )
            ok = ok and check_separation(gp, cert)
            certs.append(cert)
    return SectionsReport(ok, tuple(certs))


__all__ = [
    "DegenerationTree",
    "SectionsReport",
    "StabilityReport",
    "Vertex",
    "VertexKind",
    "fiber_tree",
    "is_stable",
    "sections_disjoint_check",
    "to_dot",
    "tree_to_nested",
]
