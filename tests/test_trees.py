import pytest

from wonderful.geometry import Component, GeometryConfig, Space, point_components
from wonderful.loci import DLocus, Diagonal, SeparationCertificate, check_separation
from wonderful.nested import divisors_for, enumerate_nested_sets, make_nested_set
from wonderful.trees import (
    DegenerationTree,
    Vertex,
    VertexKind,
    face_forest,
    fiber_tree,
    is_stable,
    to_dot,
    tree_to_nested,
)


def test_generic_fiber_over_d_stratum():
    g = point_components(1, n=3)
    t = fiber_tree(make_nested_set(g, [DLocus(3, 1, 0b011)]))
    assert [v.kind for v in t.vertices] == [VertexKind.ROOT, VertexKind.DLEVEL]
    assert t.marks_on(0) == (3,)
    assert t.marks_on(1) == (1, 2)


def test_generic_fiber_with_screen():
    g = GeometryConfig(3, 2, (), Space.FM)
    t = fiber_tree(make_nested_set(g, [Diagonal.simple(3, 0b011)]))
    assert [v.kind for v in t.vertices] == [VertexKind.ROOT, VertexKind.SCREEN]
    assert t.marks_on(0) == (3,) and t.marks_on(1) == (1, 2)


def test_screen_hangs_off_expansion_level():
    g = point_components(1, n=3)
    t = fiber_tree(make_nested_set(g, [DLocus(3, 1, 0b111), Diagonal.simple(3, 0b011)]))
    root, level, screen = t.vertices
    assert level.kind is VertexKind.DLEVEL and screen.kind is VertexKind.SCREEN
    assert t.parents[screen.vid] == level.vid
    assert t.marks_on(0) == () and t.marks_on(level.vid) == (3,) and t.marks_on(screen.vid) == (1, 2)
    report = is_stable(t)
    assert report.ok  # the level keeps {3} plus the screen attachment


def test_diagonal_on_its_own_set_hangs_under_the_level():
    # D_{1,S} and Delta_S share S = {1,2,3}: the level comes first, so the
    # screen of Delta_{123} hangs under it and holds point 3
    g = point_components(1, n=3)
    ns = make_nested_set(g, [DLocus(3, 1, 0b111), Diagonal.simple(3, 0b111), Diagonal.simple(3, 0b011)])
    order, parents, points = face_forest(3, ns.divisors)
    assert order == [DLocus(3, 1, 0b111), Diagonal.simple(3, 0b111), Diagonal.simple(3, 0b011)]
    assert parents == [None, 0, 1, 2] and points == [3, 3, 2]
    t = fiber_tree(ns)
    kinds = [v.kind for v in t.vertices]
    assert kinds == [VertexKind.ROOT, VertexKind.DLEVEL, VertexKind.SCREEN, VertexKind.SCREEN]
    assert t.parents == (None, 0, 1, 2) and t.markings == (3, 3, 2)
    assert is_stable(t).ok and tree_to_nested(t) == ns


def test_chain_depths_and_marking_placement():
    g = point_components(1, n=4, space=Space.XD_UPPER)
    ns = make_nested_set(g, [DLocus(4, 1, 0b0001), DLocus(4, 1, 0b0111)])
    t = fiber_tree(ns)
    levels = {(v.component, v.depth): v.vid for v in t.vertices if v.kind is VertexKind.DLEVEL}
    assert set(levels) == {(1, 1), (1, 2)}
    # the larger chain set sits at depth 1, the smaller deepest
    assert t.marks_on(levels[(1, 1)]) == (2, 3)
    assert t.marks_on(levels[(1, 2)]) == (1,)
    assert t.marks_on(0) == (4,)


def test_nested_screens():
    g = GeometryConfig(4, 2, (), Space.FM)
    ns = make_nested_set(g, [Diagonal.simple(4, 0b0111), Diagonal.simple(4, 0b0011)])
    t = fiber_tree(ns)
    outer = next(v.vid for v in t.vertices if v.kind is VertexKind.SCREEN and t.parents[v.vid] == 0)
    inner = next(v.vid for v in t.vertices if v.kind is VertexKind.SCREEN and v.vid != outer)
    assert t.parents[inner] == outer
    assert t.marks_on(outer) == (3,) and t.marks_on(inner) == (1, 2)


def test_stability_negative_examples():
    g = GeometryConfig(2, 2, (), Space.FM)
    lonely_screen = DegenerationTree(
        g,
        (Vertex(0, VertexKind.ROOT), Vertex(1, VertexKind.SCREEN)),
        (None, 0),
        (1, 0),  # a single marking on the screen
    )
    report = is_stable(lonely_screen)
    assert not report.ok and report.violating_vertex == 1

    g1 = point_components(1, n=2)
    bare_level = DegenerationTree(
        g1,
        (Vertex(0, VertexKind.ROOT), Vertex(1, VertexKind.DLEVEL, component=1, depth=1)),
        (None, 0),
        (0, 0),  # nothing on the expansion level
    )
    report = is_stable(bare_level)
    assert not report.ok and report.violating_vertex == 1


def test_deeper_level_does_not_stabilize():
    # a middle expansion level carrying nothing but the next level is unstable
    g = point_components(1, n=1, space=Space.XD_UPPER)
    t = DegenerationTree(
        g,
        (
            Vertex(0, VertexKind.ROOT),
            Vertex(1, VertexKind.DLEVEL, component=1, depth=1),
            Vertex(2, VertexKind.DLEVEL, component=1, depth=2),
        ),
        (None, 0, 1),
        (2,),
    )
    report = is_stable(t)
    assert not report.ok and report.violating_vertex == 1


def test_structural_validation():
    g = point_components(1, n=2)
    with pytest.raises(ValueError):
        DegenerationTree(g, (Vertex(0, VertexKind.SCREEN),), (None,), (0, 0))
    with pytest.raises(ValueError):
        DegenerationTree(
            g,
            (Vertex(0, VertexKind.ROOT), Vertex(1, VertexKind.DLEVEL, component=1, depth=2)),
            (None, 0),
            (0, 0),
        )
    with pytest.raises(ValueError, match="parent table size mismatch"):
        DegenerationTree(point_components(1, n=1), (Vertex(0, VertexKind.ROOT),), (), (0,))


def test_round_trip_exhaustive():
    battery = [
        point_components(1, n=3),
        point_components(2, n=3),
        point_components(1, n=3, space=Space.XD_UPPER),
        GeometryConfig(4, 2, (), Space.FM),
        GeometryConfig(3, 2, (Component("q", 1),), Space.XD_BRACKET),
    ]
    for g in battery:
        for ns in enumerate_nested_sets(g):
            t = fiber_tree(ns)
            assert is_stable(t).ok
            assert tree_to_nested(t) == ns
            placed = sorted(i for v in t.vertices for i in t.marks_on(v.vid))
            assert placed == list(range(1, g.n + 1))


def test_dot_output_stable():
    g = point_components(1, n=3)
    t = fiber_tree(make_nested_set(g, [DLocus(3, 1, 0b011)]))
    assert to_dot(t) == (
        "digraph fiber {\n"
        '  v0 [label="Root marks={3}"];\n'
        '  v1 [label="D(c1,1) marks={1,2}"];\n'
        "  v0 -> v1;\n"
        "}\n"
    )


def _section_certificates(g):
    # In the (n+1)-point geometry the section of point a is Delta_{a,n+1}.  It
    # meets D_{c,{n+1}}, where the moving point enters D, inside the divisor
    # D_{c,{a,n+1}}, whose blowup separates the two.
    gp = GeometryConfig(g.n + 1, g.dim_x, g.components, g.space)
    moving = 1 << g.n
    certs = []
    for a in range(1, g.n + 1):
        for c in range(1, g.n_components + 1):
            section = (1 << (a - 1)) | moving
            certs.append(SeparationCertificate(DLocus(gp.n, c, moving), Diagonal.simple(gp.n, section),
                                               DLocus(gp.n, c, section)))
    return gp, certs


def test_sections_disjoint_certificates():
    for g in [
        point_components(1, n=1),
        point_components(2, n=2),
        point_components(1, n=3, space=Space.XD_UPPER),
    ]:
        gp, certs = _section_certificates(g)
        assert len(certs) == g.n * g.n_components
        for cert in certs:
            assert check_separation(gp, cert)


def test_sections_witnesses_are_family_centers():
    for g in [point_components(2, n=2), point_components(1, n=3, space=Space.XD_UPPER)]:
        gp, certs = _section_certificates(g)
        divisors = set(divisors_for(gp))
        for cert in certs:
            assert cert.center in divisors
