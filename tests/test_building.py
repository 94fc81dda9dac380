import itertools
import random

import pytest

from wonderful import building, nested
from wonderful.building import (
    _intersection_closure,
    building_set_for,
    factors_of_locus,
    g_factors,
    is_building_set,
    is_nested_flag_oracle,
)
from wonderful.geometry import Component, GeometryConfig, Space, point_components
from wonderful.loci import (
    Diagonal,
    DLocus,
    center_to_locus,
    contains,
    everything_locus,
    intersect,
    intersect_all,
    meets_transversally,
)
from wonderful.nested import is_nested


def test_building_set_sizes():
    g = point_components(3, n=2)
    first, second = building_set_for(g)
    assert len(first.members) == 9  # 3 components * (2^2 - 1)
    assert len(second.members) == 1  # only Delta_{12}
    g1 = point_components(1, n=1)
    first1, second1 = building_set_for(g1)
    assert [str(c) for c in first1.members] == ["D:c1:{1}"]
    assert second1.members == ()


def test_building_set_stage_split_by_space():
    g_up = point_components(2, n=3, space=Space.XD_UPPER)
    first, second = building_set_for(g_up)
    assert len(first.members) == 14 and second.members == ()
    g_fm = GeometryConfig(3, 2, (), Space.FM)
    first, second = building_set_for(g_fm)
    assert first.members == ()
    assert [str(c) for c in second.members] == [
        "Delta:{1,2}", "Delta:{1,3}", "Delta:{2,3}", "Delta:{1,2,3}"
    ]
    assert len(second.members) == 2 ** 3 - 3 - 1


def test_g_factors_of_overlapping_diagonals():
    g = GeometryConfig(4, 2, (), Space.FM)
    _, diag = building_set_for(g)
    d = lambda m: Diagonal.simple(4, m)
    assert g_factors(diag, [d(0b0011), d(0b0110)]) == (d(0b0111),)
    assert set(g_factors(diag, [d(0b0011), d(0b1100)])) == {d(0b0011), d(0b1100)}


def test_g_factors_polydiagonal_blocks():
    # factors of a polydiagonal transform are the simple diagonals of its blocks
    g = GeometryConfig(5, 2, (), Space.FM)
    _, diag = building_set_for(g)
    lo = intersect_all(
        g,
        [
            center_to_locus(g, Diagonal.simple(5, 0b00011)),
            center_to_locus(g, Diagonal.simple(5, 0b11000)),
        ],
    )
    assert set(factors_of_locus(diag, lo)) == {Diagonal.simple(5, 0b00011), Diagonal.simple(5, 0b11000)}


def test_g_factors_d_family_minimality():
    # the intersection of D_{c,{1}} and D_{c,{2}} is D_{c,{1,2}}, itself a
    # member, hence the unique minimal one containing the intersection
    g = point_components(1, n=2, space=Space.XD_UPPER)
    first, _ = building_set_for(g)
    fs = g_factors(first, [DLocus(2, 1, 0b01), DLocus(2, 1, 0b10)])
    assert fs == (DLocus(2, 1, 0b11),)


def test_g_factors_validation():
    g = point_components(2, n=2, space=Space.XD_UPPER)
    first, _ = building_set_for(g)
    with pytest.raises(ValueError):
        g_factors(first, [DLocus(2, 1, 0b01), DLocus(2, 2, 0b01)])  # empty intersection
    with pytest.raises(ValueError):
        g_factors(first, [Diagonal.simple(2, 0b11)])  # not a member


def test_g_factors_antichain_transversal_and_exact():
    g = point_components(2, n=3, space=Space.XD_UPPER)
    first, _ = building_set_for(g)
    members = list(first.members)
    for sub in itertools.combinations(members, 2):
        lo = intersect_all(g, [center_to_locus(g, c) for c in sub])
        if lo.is_empty:
            continue
        fs = g_factors(first, sub)
        for a, b in itertools.combinations(fs, 2):
            assert not contains(g, a, b) and not contains(g, b, a)
        assert intersect_all(g, [center_to_locus(g, c) for c in fs]) == lo
        assert meets_transversally(g, [center_to_locus(g, c) for c in fs])


def test_flag_oracle_examples():
    g = point_components(1, n=2, space=Space.XD_UPPER)
    first, _ = building_set_for(g)
    assert is_nested_flag_oracle(first, [DLocus(2, 1, 0b01), DLocus(2, 1, 0b11)])
    assert not is_nested_flag_oracle(first, [DLocus(2, 1, 0b01), DLocus(2, 1, 0b10)])
    g_fm = GeometryConfig(4, 2, (), Space.FM)
    _, diag = building_set_for(g_fm)
    assert is_nested_flag_oracle(diag, [Diagonal.simple(4, 0b0011), Diagonal.simple(4, 0b1100)])
    assert is_nested_flag_oracle(diag, [])


def _stage_one_collections(k, n):
    g = point_components(k, n=n, space=Space.XD_UPPER)
    first, _ = building_set_for(g)
    members = first.members
    subs = [sub for r in range(len(members) + 1) for sub in itertools.combinations(members, r)]
    return g, first, subs


def test_flag_oracle_refuses_an_empty_meet_before_the_closure(monkeypatch):
    g, first, subs = _stage_one_collections(2, 3)
    # combinations come by size, so each meet extends the one without its last member
    meets = {(): everything_locus(g)}
    for sub in subs[1:]:
        meets[sub] = intersect(g, meets[sub[:-1]], center_to_locus(g, sub[-1]))
    disjoint = [sub for sub in subs if meets[sub].is_empty]
    expected = [is_nested(g, sub) for sub in disjoint]

    class ClosureBuilt(Exception):
        pass

    def closure(g, loci):
        raise ClosureBuilt

    monkeypatch.setattr(building, "_intersection_closure", closure)
    assert disjoint and not any(expected)
    assert [is_nested_flag_oracle(first, sub) for sub in disjoint] == expected
    # a pair that meets but is not nested still needs the flag search
    g1 = point_components(1, n=2, space=Space.XD_UPPER)
    pair = [DLocus(2, 1, 0b01), DLocus(2, 1, 0b10)]
    assert not is_nested(g1, pair)
    with pytest.raises(ClosureBuilt):
        is_nested_flag_oracle(building_set_for(g1)[0], pair)


def test_flag_oracle_never_reads_the_pairwise_rule(monkeypatch):
    sweeps = [_stage_one_collections(k, n) for k in (1, 2) for n in (1, 2, 3)]
    expected = [[is_nested(g, sub) for sub in subs] for g, _, subs in sweeps]

    def pairwise(*args):
        raise AssertionError("the flag oracle read the pairwise rule")

    for name in ("pair_compatible", "is_nested", "_compatibility_rows"):
        monkeypatch.setattr(nested, name, pairwise)
    for (_, first, subs), answers in zip(sweeps, expected):
        assert [is_nested_flag_oracle(first, sub) for sub in subs] == answers


def test_intersection_closure_matches_every_subcollection():
    rng = random.Random(8)
    geometries = [
        point_components(2, n=3),
        point_components(3, n=4),
        GeometryConfig(4, 2, (Component("q", 1), Component("p", 0))),
    ]
    for g in geometries:
        first, second = building_set_for(g)
        centers = list(first.members + second.members)
        if g.n == 4:
            centers.append(Diagonal(4, (0b0011, 0b1100)))
        for size in range(1, 9):
            for _ in range(6):
                loci = [center_to_locus(g, c) for c in rng.sample(centers, size)]
                closure = _intersection_closure(g, loci)
                by_subsets = set()
                for picks in range(1, 1 << size):
                    lo = intersect_all(g, [loci[i] for i in range(size) if picks >> i & 1])
                    if not lo.is_empty:
                        by_subsets.add(lo.code)
                assert len(closure) == len(by_subsets)
                assert {lo.code for lo in closure} == by_subsets


def test_building_set_prefix_basics():
    g = point_components(1, n=2, space=Space.XD_UPPER)
    members = (DLocus(2, 1, 0b01), DLocus(2, 1, 0b11), DLocus(2, 1, 0b10))
    for k in (1, 2, 3):
        assert is_building_set(g, members[:k])
    # a pair with disjoint index sets is transversal, so it forms a building set
    assert is_building_set(g, (DLocus(2, 1, 0b01), DLocus(2, 1, 0b10)))


def test_building_set_prefix_rejects_classic_triple():
    # three pairwise-transversal diagonals whose factors of the small diagonal
    # fail collection transversality
    g = GeometryConfig(3, 2, (), Space.FM)
    d = lambda m: Diagonal.simple(3, m)
    triple = (d(0b011), d(0b101), d(0b110))
    assert is_building_set(g, triple[:2])
    assert not is_building_set(g, triple)
    with_small = (d(0b111), d(0b011), d(0b101), d(0b110))
    assert all(is_building_set(g, with_small[:k]) for k in (1, 2, 3, 4))


def test_is_building_set_d_family_whole():
    for k, n in [(1, 2), (1, 3), (2, 2)]:
        g = point_components(k, n=n, space=Space.XD_UPPER)
        first, _ = building_set_for(g)
        assert is_building_set(g, first.members)


def test_the_union_of_both_stages_is_a_building_set_unless_a_component_has_positive_dimension():
    # every space, dim X <= 3, k <= 2 with every choice of component dimensions
    # below dim X, n <= 3; at n = 1 there is no diagonal, so stage one is all
    configs = [GeometryConfig(n, d, (), Space.FM) for d in (1, 2, 3) for n in (1, 2, 3)]
    configs += [GeometryConfig(n, d, tuple(Component("c%d" % (i + 1), c) for i, c in enumerate(dims)), space)
                for space in (Space.XD_BRACKET, Space.XD_UPPER) for d in (1, 2, 3)
                for k in (0, 1, 2) for dims in itertools.product(range(d), repeat=k) for n in (1, 2, 3)]
    assert len(configs) == 147
    for g in configs:
        positive = any(c.dim for c in g.components)
        expected = not (g.space is Space.XD_BRACKET and g.n >= 2 and positive)
        assert is_building_set(g, nested.divisors_for(g)) is expected, g
