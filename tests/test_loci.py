import itertools

import pytest

from wonderful import loci
from wonderful.building import _intersection_closure, building_set_for
from wonderful.geometry import Component, GeometryConfig, Space, point_components
from wonderful.certify import partitions_of
from wonderful.labels import mask_of, subsets
from wonderful.loci import (
    Diagonal,
    DLocus,
    Locus,
    PairPosition,
    center_to_locus,
    codimension,
    contains,
    contains_locus,
    dimension,
    intersect,
    pair_position,
    parse_center,
)
from wonderful.certify import GridModel


def bracket(n, comps, dim_x=2):
    return GeometryConfig(n, dim_x, tuple(Component("c%d" % (i + 1), d) for i, d in enumerate(comps)))


def all_centers(g, max_poly_blocks=1):
    """Every D-locus and every simple diagonal of the configuration."""
    out = []
    for c in range(1, g.n_components + 1):
        for m in subsets(g.n, min_size=1):
            out.append(DLocus(g.n, c, m))
    for m in subsets(g.n, min_size=2):
        out.append(Diagonal.simple(g.n, m))
    return out


def test_center_to_locus_definitions():
    g = bracket(3, [1])
    lo = center_to_locus(g, DLocus(3, 1, mask_of([1, 2])))
    assert lo.blocks == (0b001, 0b010, 0b100)
    assert lo.pins == (1, 1, None)
    lo2 = center_to_locus(g, Diagonal.simple(3, mask_of([1, 2])))
    assert lo2.blocks == (0b011, 0b100)
    assert lo2.pins == (None, None)
    g4 = bracket(4, [1])
    lo3 = center_to_locus(g4, Diagonal(4, (0b0011, 0b1100)))
    assert lo3.blocks == (0b0011, 0b1100)


def test_point_component_locus_merges():
    # dim-0 components force equality: D_{c,S} collapses to one pinned block
    g = bracket(3, [0])
    lo = center_to_locus(g, DLocus(3, 1, mask_of([1, 2])))
    assert lo.blocks == (0b011, 0b100)
    assert lo.pins == (1, None)


def test_intersect_diagonals_is_meet():
    g = bracket(3, [])
    a = center_to_locus(g, Diagonal.simple(3, mask_of([1, 2])))
    b = center_to_locus(g, Diagonal.simple(3, mask_of([2, 3])))
    li = intersect(g, a, b)
    assert li.blocks == (0b111,)
    assert li.pins == (None,)


def test_intersect_conflicting_pins_empty():
    g = bracket(2, [1, 1])
    a = center_to_locus(g, DLocus(2, 1, mask_of([1])))
    b = center_to_locus(g, DLocus(2, 2, mask_of([1])))
    assert intersect(g, a, b).is_empty


def test_intersect_pin_spreads_over_block():
    g = bracket(2, [1])
    a = center_to_locus(g, DLocus(2, 1, mask_of([1])))
    b = center_to_locus(g, Diagonal.simple(2, mask_of([1, 2])))
    li = intersect(g, a, b)
    assert li.blocks == (0b11,) and li.pins == (1,)
    model = GridModel(g)
    assert model.locus_points(li) == model.center_points(DLocus(2, 1, mask_of([1]))) & model.center_points(
        Diagonal.simple(2, mask_of([1, 2]))
    )


def test_intersect_kernel_block_meeting_two_pins_is_empty():
    # Delta_{1,2} meets {1}->c1 and {2}->c2: both pins land on one block
    for dims in ([1, 1], [0, 0], [0, 1]):
        g = bracket(3, dims)
        a = intersect(g, *(center_to_locus(g, parse_center(t, 3)) for t in ("D:c1:{1}", "D:c2:{2}")))
        assert a.pins == (1, 2, None)
        b = center_to_locus(g, Diagonal.simple(3, mask_of([1, 2])))
        assert loci._intersect(g, a, b).is_empty, dims


def test_intersect_kernel_point_pin_from_b_pulls_in_a_third_block():
    # a: {1}->c1, {2} and the free block {3,4}; b pins 4 to the point c1, so
    # {3,4} joins {1}, and the merged block sorts before {2}
    g = bracket(4, [0])
    a = intersect(g, center_to_locus(g, DLocus(4, 1, mask_of([1]))),
                  center_to_locus(g, Diagonal.simple(4, mask_of([3, 4]))))
    assert (a.blocks, a.pins) == ((0b0001, 0b0010, 0b1100), (1, None, None))
    b = center_to_locus(g, DLocus(4, 1, mask_of([4])))
    li = loci._intersect(g, a, b)
    assert (li.blocks, li.pins) == ((0b1101, 0b0010), (1, None))
    assert li == center_to_locus(g, DLocus(4, 1, mask_of([1, 3, 4])))


def test_intersect_kernel_curve_pin_keeps_blocks_apart():
    # on a curve, {1,2} and {3} both pinned to c1 stay two blocks
    g = bracket(4, [1])
    a = center_to_locus(g, Diagonal.simple(4, mask_of([1, 2])))
    b = center_to_locus(g, DLocus(4, 1, mask_of([1, 3])))
    li = loci._intersect(g, a, b)
    assert (li.blocks, li.pins) == ((0b0011, 0b0100, 0b1000), (1, 1, None))
    assert dimension(g, li) == 1 + 1 + 2


def test_dimension_examples():
    g = bracket(2, [], dim_x=2)
    assert dimension(g, center_to_locus(g, Diagonal.simple(2, 0b11))) == 2
    assert codimension(g, center_to_locus(g, Diagonal.simple(2, 0b11))) == 2
    g1 = bracket(2, [1], dim_x=2)
    assert dimension(g1, center_to_locus(g1, DLocus(2, 1, 0b11))) == 2
    li = intersect(
        g1,
        center_to_locus(g1, DLocus(2, 1, 0b01)),
        center_to_locus(g1, Diagonal.simple(2, 0b11)),
    )
    assert dimension(g1, li) == 1  # one point moving inside the component


def test_contains_examples():
    g = bracket(3, [1])
    assert contains(g, DLocus(3, 1, mask_of([1])), DLocus(3, 1, mask_of([1, 2])))
    assert not contains(g, DLocus(3, 1, mask_of([1, 2])), DLocus(3, 1, mask_of([1])))
    assert contains(g, Diagonal.simple(3, 0b011), Diagonal.simple(3, 0b111))
    g0 = bracket(3, [0])
    assert contains(g0, Diagonal.simple(3, 0b011), DLocus(3, 1, mask_of([1, 2])))
    assert not contains(bracket(3, [1]), Diagonal.simple(3, 0b011), DLocus(3, 1, mask_of([1, 2])))


def test_locus_equality_is_field_equality():
    point_pair = point_components(2, n=4)
    mixed = bracket(3, [0, 1], dim_x=2)
    batteries = [
        (point_pair, building_set_for(point_pair)[0].members),
        (mixed, building_set_for(mixed)[0].members),
        (mixed, all_centers(mixed)),
    ]
    for g, centers in batteries:
        closure = _intersection_closure(g, [center_to_locus(g, c) for c in centers])
        closure.append(Locus.empty(g.n))
        assert len(closure) > len(centers)
        for outer, inner in itertools.product(closure, repeat=2):
            fields_equal = (outer.blocks, outer.pins, outer.is_empty) == (
                inner.blocks, inner.pins, inner.is_empty)
            assert (outer == inner) == fields_equal


def test_intersect_memo_is_per_geometry():
    # D:c1:{1} and D:c1:{2} have the same codes on a point and on a curve,
    # but only on the point do the two pinned points merge
    centers = [parse_center(t, 3) for t in ("D:c1:{1}", "D:c1:{2}")]
    expected = {0: ((0b011, 0b100), (1, None)), 1: ((0b001, 0b010, 0b100), (1, 1, None))}
    for order in ((0, 1), (1, 0)):
        codes = set()
        for dim in order:
            g = point_components(1, n=3) if dim == 0 else GeometryConfig(3, 2, (Component("q", 1),))
            a, b = (center_to_locus(g, c) for c in centers)
            codes.add((a.code, b.code))
            li = intersect(g, a, b)
            assert (li.blocks, li.pins) == expected[dim], (order, dim)
            assert intersect(g, b, a) is li
            model = GridModel(g)
            assert model.locus_points(li) == model.center_points(centers[0]) & model.center_points(centers[1])
        assert len(codes) == 1


def test_contains_mutual_means_equal_locus():
    g = bracket(3, [0, 1])
    centers = all_centers(g)
    for a, b in itertools.combinations(centers, 2):
        if contains(g, a, b) and contains(g, b, a):
            assert center_to_locus(g, a) == center_to_locus(g, b)


def test_empty_locus_is_contained_everywhere():
    g = bracket(2, [1, 1])
    empty = intersect(
        g, center_to_locus(g, DLocus(2, 1, 0b01)), center_to_locus(g, DLocus(2, 2, 0b01))
    )
    assert empty.is_empty
    assert contains_locus(g, center_to_locus(g, DLocus(2, 1, 0b01)), empty)
    assert not contains_locus(g, empty, center_to_locus(g, DLocus(2, 1, 0b01)))


def test_pair_position_examples():
    g = bracket(4, [1], dim_x=2)
    assert pair_position(g, Diagonal.simple(4, 0b0011), Diagonal.simple(4, 0b1100)) is PairPosition.TRANSVERSAL
    assert pair_position(g, Diagonal.simple(4, 0b0011), Diagonal.simple(4, 0b0110)) is PairPosition.TRANSVERSAL
    # excess (dim X - dim D_c) over the transversal count
    assert pair_position(g, DLocus(4, 1, 0b0011), Diagonal.simple(4, 0b0011)) is PairPosition.CLEAN_OVERLAP
    g0 = bracket(4, [0], dim_x=2)
    assert pair_position(g0, DLocus(4, 1, 0b0011), Diagonal.simple(4, 0b0011)) is PairPosition.CLEAN_CONTAINMENT


def test_pair_position_closed_forms_small():
    g = bracket(3, [1, 1], dim_x=2)
    # same component: transversal iff index sets disjoint
    assert pair_position(g, DLocus(3, 1, 0b001), DLocus(3, 1, 0b010)) is PairPosition.TRANSVERSAL
    assert pair_position(g, DLocus(3, 1, 0b011), DLocus(3, 1, 0b110)) is PairPosition.CLEAN_OVERLAP
    # different components: disjoint iff index sets meet
    assert pair_position(g, DLocus(3, 1, 0b001), DLocus(3, 2, 0b001)) is PairPosition.DISJOINT
    assert pair_position(g, DLocus(3, 1, 0b001), DLocus(3, 2, 0b010)) is PairPosition.TRANSVERSAL
    # mixed: shared indices at most one
    assert pair_position(g, DLocus(3, 1, 0b011), Diagonal.simple(3, 0b110)) is PairPosition.TRANSVERSAL
    assert pair_position(g, DLocus(3, 1, 0b001), Diagonal.simple(3, 0b110)) is PairPosition.TRANSVERSAL


def test_polydiagonal_pairs_take_the_locus_route(monkeypatch):
    routed = []

    def counting(g, a, b):
        routed.append((a, b))
        return original(g, a, b)

    original = loci._pair_position_by_loci
    monkeypatch.setattr(loci, "_pair_position_by_loci", counting)
    g = bracket(5, [0, 1], dim_x=2)
    merged = [tuple(b for b in p.blocks if b.bit_count() >= 2) for p in partitions_of(5)]
    polys = [Diagonal(5, blocks) for blocks in merged if len(blocks) >= 2]
    simple = all_centers(g)
    assert len(polys) == 25
    for a in simple:
        for b in simple:
            pair_position(g, a, b)
    assert routed == []
    for a in polys:
        for b in simple + polys:
            for x, y in ((a, b), (b, a)):
                routed.clear()
                assert pair_position(g, x, y) is original(g, x, y)
                assert routed == [(x, y)]
    with pytest.raises(ValueError):  # the centers are still validated
        pair_position(g, polys[0], DLocus(5, 3, 0b1))
    with pytest.raises(ValueError):
        pair_position(g, DLocus(4, 1, 0b1), Diagonal.simple(5, 0b11))


def test_pair_position_never_not_clean():
    g = bracket(3, [0, 1], dim_x=2)
    centers = all_centers(g)
    for a, b in itertools.combinations(centers, 2):
        assert pair_position(g, a, b) in (
            PairPosition.DISJOINT,
            PairPosition.TRANSVERSAL,
            PairPosition.CLEAN_CONTAINMENT,
            PairPosition.CLEAN_OVERLAP,
        )


def test_cross_component_overlap_always_empty():
    for n in (2, 3, 4, 5):
        g = bracket(n, [0, 1], dim_x=2)
        for s1 in subsets(n, min_size=1):
            for s2 in subsets(n, min_size=1):
                if s1 & s2:
                    li = intersect(
                        g,
                        center_to_locus(g, DLocus(n, 1, s1)),
                        center_to_locus(g, DLocus(n, 2, s2)),
                    )
                    assert li.is_empty


def test_intersect_commutative_associative_exhaustive_n3():
    g = bracket(3, [0, 1], dim_x=2)
    loci = [center_to_locus(g, c) for c in all_centers(g)]
    for a, b in itertools.combinations(loci, 2):
        assert intersect(g, a, b) == intersect(g, b, a)
    for a, b, c in itertools.combinations(loci, 3):
        assert intersect(g, intersect(g, a, b), c) == intersect(g, a, intersect(g, b, c))


def test_center_labels_round_trip():
    g = bracket(4, [1, 0])
    for c in all_centers(g):
        assert parse_center(str(c), 4) == c
    poly = Diagonal(4, (0b0011, 0b1100))
    assert parse_center(str(poly), 4) == poly
    with pytest.raises(ValueError):
        parse_center("X:{1}", 4)


@pytest.mark.parametrize(
    "n, blocks, message",
    [
        (65, (0b11,), "population"),
        (-1, (0b11,), "population"),
        (3, (), "at least one block of size >= 2"),
        (3, (0,), "at least one block of size >= 2"),
        (3, (0b100,), "at least one block of size >= 2"),
        (4, (0b0011, 0b0100), "fewer than 2 points"),
        (3, (-0b11,), "nonnegative"),
        (3, (0b1001,), "exceeds population 3"),
        (4, (0b0011, 0b0110), "overlapping"),
        (4, (0b1100, 0b0011), "sorted by least element"),
    ],
    ids=["n-too-big", "n-negative", "no-block", "empty-block", "singleton", "singleton-beside-a-block",
         "negative-mask", "outside-population", "overlap", "unsorted"],
)
def test_diagonal_rejects_bad_blocks_on_every_path(n, blocks, message):
    with pytest.raises(ValueError, match=message):
        Diagonal(n, blocks)
    if len(blocks) == 1:
        with pytest.raises(ValueError, match=message):
            Diagonal.simple(n, blocks[0])


def test_diagonal_is_its_merged_blocks():
    simple = Diagonal.simple(3, 0b011)
    parsed = parse_center("Delta:{{1,2}}", 3)
    assert parsed == simple and hash(parsed) == hash(simple)
    assert parsed.label == simple.label == "Delta:{1,2}"
    assert (simple.blocks, simple.subset, simple.component) == ((0b011,), 0b011, 0)
    poly = parse_center("Delta:{{3,4},{1,2}}", 5)
    assert poly == Diagonal(5, (0b00011, 0b01100))
    assert (poly.subset, poly.label) == (0, "Delta:{{1,2},{3,4}}")
    # singletons may be given or omitted; the blocks come out sorted by least element
    assert parse_center("Delta:{{1,2},{3}}", 3) == simple
    assert parse_center("Delta:{{1,3},{2}}", 5) == parse_center("Delta:{{1,3}}", 5) == Diagonal.simple(5, 0b00101)
    assert parse_center("Delta:{{2,3},{1,4}}", 4).blocks == (0b1001, 0b0110)
    for text, message in (("Delta:{{1}}", "size >= 2"), ("Delta:{{1,2},{2,3}}", "overlapping blocks"),
                          ("Delta:{{1,4}}", "exceeds population 3"),
                          # a given singleton still counts for overlap and population
                          ("Delta:{{1,2},{1}}", "overlapping blocks")):
        with pytest.raises(ValueError, match=message):
            parse_center(text, 3)
    with pytest.raises(ValueError, match="exceeds population 4"):
        parse_center("Delta:{{1,2},{9}}", 4)


def test_config_json_round_trip():
    from wonderful.geometry import config_from_json_dict

    g = GeometryConfig(3, 2, (Component("a", 0), Component("b", 1)), Space.XD_UPPER)
    assert config_from_json_dict(g.to_json_dict()) == g
    with pytest.raises(ValueError):
        config_from_json_dict({"n": 2, "dim_X": 1, "components": [{"name": "a", "dim": 1}]})
    with pytest.raises(ValueError):
        config_from_json_dict({"n": 2, "dim_X": 1, "bogus": 1})


def test_population_cap_enforced_at_config():
    with pytest.raises(ValueError):
        GeometryConfig(65, 1)
    assert point_components(1, n=64).n == 64
