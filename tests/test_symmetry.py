import itertools
import math
import random

import pytest

from wonderful.geometry import GeometryConfig, Space, point_components
from wonderful.loci import Diagonal, DLocus
from wonderful import nested, symmetry
from wonderful.nested import (
    count_divisors,
    divisors_for,
    enumerate_nested_sets,
    is_nested,
    make_nested_set,
)
from wonderful.symmetry import Permutation, act, all_permutations, orbits, stabilizer
from wonderful.trees import fiber_tree

ORBIT_KINDS = [("divisors", None), ("nested", 1), ("nested", 2), ("nested", 3)]


def every_space(n_max):
    """Each space at n = 1..n_max; components k = 0..3 where the space has them."""
    for n in range(1, n_max + 1):
        for k in range(4):
            yield point_components(k, n=n)
            yield point_components(k, n=n, space=Space.XD_UPPER)
        yield GeometryConfig(n, 2, (), Space.FM)


def test_act_examples():
    p = Permutation((2, 1, 3))  # (1 2)
    assert act(p, DLocus(3, 1, 0b101)) == DLocus(3, 1, 0b110)
    assert act(Permutation((1, 2, 3)), DLocus(3, 1, 0b101)) == DLocus(3, 1, 0b101)
    rho = Permutation((2, 3, 1))  # (1 2 3)
    assert act(rho, Diagonal.simple(3, 0b011)) == Diagonal.simple(3, 0b110)
    sigma = Permutation((1, 3, 2, 4))  # (2 3)
    poly = Diagonal(4, (0b0011, 0b1100))
    assert act(sigma, poly) == Diagonal(4, (0b0101, 0b1010))
    assert act(p, DLocus(3, 2, 0b001)) == DLocus(3, 2, 0b010)


def test_group_action_laws_exhaustive_n3():
    g = point_components(1, n=3)
    xs = list(divisors_for(g))
    perms = list(all_permutations(3))
    for p, q in itertools.product(perms, repeat=2):
        p_after_q = Permutation(tuple(p.apply(q.apply(i)) for i in range(1, 4)))
        for x in xs:
            assert act(p_after_q, x) == act(p, act(q, x))
    for x in xs:
        assert act(Permutation((1, 2, 3)), x) == x


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        act(Permutation((1, 2, 3)), DLocus(4, 1, 0b0001))


def test_nestedness_equivariance_exhaustive():
    battery = [
        point_components(2, n=3),
        point_components(1, n=4),
        point_components(1, n=3, space=Space.XD_UPPER),
        GeometryConfig(4, 2, (), Space.FM),
    ]
    for g in battery:
        divisors = list(divisors_for(g))
        perms = list(all_permutations(g.n))
        for r in (2, 3):
            for sub in itertools.combinations(divisors, r):
                base = is_nested(g, sub)
                for p in perms:
                    assert is_nested(g, [act(p, d) for d in sub]) == base


def test_tree_action_permutes_markings():
    g = point_components(1, n=3)
    ns = make_nested_set(g, [DLocus(3, 1, 0b011)])
    t = fiber_tree(ns)
    p = Permutation((3, 2, 1))  # (1 3)
    t2 = act(p, t)
    assert t2.marks_on(1) == (2, 3)  # the level now carries {2,3}
    assert t2.marks_on(0) == (1,)


def test_orbit_examples():
    g = point_components(1, n=2)
    out = orbits(g, "divisors")
    reps = [(str(o.representative), o.size) for o in out]
    assert reps == [("D:c1:{1}", 2), ("D:c1:{1,2}", 1), ("Delta:{1,2}", 1)]
    assert sum(o.size for o in out) == len(divisors_for(g))

    g_fm = GeometryConfig(3, 2, (), Space.FM)
    out_fm = orbits(g_fm, "divisors")
    assert [(str(o.representative), o.size) for o in out_fm] == [("Delta:{1,2}", 3), ("Delta:{1,2,3}", 1)]

    g1 = point_components(2, n=1)
    assert [(str(o.representative), o.size) for o in orbits(g1, "divisors")] == [
        ("D:c1:{1}", 1), ("D:c2:{1}", 1)
    ]


def test_orbit_sizes_divide_group_order():
    import math

    for g in [point_components(2, n=3), GeometryConfig(4, 2, (), Space.FM)]:
        for kind, size in [("divisors", None), ("nested", 1), ("nested", 2)]:
            total = 0
            for o in orbits(g, kind, size):
                assert math.factorial(g.n) % o.size == 0
                assert o.size * o.stabilizer_order == math.factorial(g.n)
                total += o.size
            if kind == "nested":
                expected = sum(1 for ns in enumerate_nested_sets(g, max_size=size) if len(ns) == size)
                assert total == expected


def test_orbits_cover_nested_sets():
    g = point_components(3, n=2)
    out = orbits(g, "nested", 2)
    assert sum(o.size for o in out) == 15
    with pytest.raises(ValueError):
        orbits(g, "nested")


def test_stabilizers_small_hence_solvable():
    # every stabilizer order arising at n <= 4 stays below 60, and groups of
    # order < 60 are solvable
    for g in [point_components(1, n=4), GeometryConfig(4, 2, (), Space.FM)]:
        for ns in enumerate_nested_sets(g, max_size=2):
            order = len(stabilizer(g, ns))
            assert 24 % order == 0
            assert order < 60


def test_equivariance_sampled_large_n():
    rng = random.Random(20260810)
    g = point_components(3, n=7)
    divisors = list(divisors_for(g))
    for _ in range(250):
        sub = rng.sample(divisors, rng.randint(2, 5))
        images = list(range(1, 8))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert is_nested(g, [act(p, d) for d in sub]) == is_nested(g, sub)


def test_stabilizer_order_counts_the_stabilizer():
    # size 3 on configurations of at most 40 divisors
    for g in every_space(4):
        for kind, size in ORBIT_KINDS:
            if size == 3 and count_divisors(g) > 40:
                continue
            for o in orbits(g, kind, size):
                assert o.stabilizer_order == len(stabilizer(g, o.representative)), (g, o)


def test_divisor_orbits_closed_forms():
    # one orbit per (component, |S|) and per diagonal size: k*n + n - 1 of them
    for k in (1, 2, 3):
        for n in range(1, 13):
            out = orbits(point_components(k, n=n), "divisors")
            assert len(out) == k * n + n - 1
            for o in out:
                s = o.representative.subset.bit_count()
                assert o.size == math.comb(n, s)
                assert o.stabilizer_order == math.factorial(s) * math.factorial(n - s)


def test_single_divisor_orbits_match_the_walk():
    # size 1 is read off the divisor orbits; grouping the walked faces by code is the oracle
    for g in every_space(6):
        groups: dict[tuple, list] = {}
        for ns in enumerate_nested_sets(g, max_size=1):
            if len(ns) == 1:
                groups.setdefault(symmetry._forest_code(g.n, ns.divisors), []).append(ns)
        whole = math.factorial(g.n)
        assert [(o.representative, o.size, o.stabilizer_order) for o in orbits(g, "nested", 1)] == [
            (xs[0], len(xs), whole // len(xs)) for xs in groups.values()], g


def test_orbits_list_no_permutation(monkeypatch):
    def refuse(*args):
        raise AssertionError("orbits moved an item by a permutation or listed the divisors")

    monkeypatch.setattr(symmetry, "all_permutations", refuse)
    monkeypatch.setattr(symmetry, "act", refuse)
    assert len(orbits(point_components(2, n=12), "divisors")) == 35
    with monkeypatch.context() as m:  # 2 * (2^40 - 1) + 2^40 - 41 divisors, never listed
        m.setattr(nested, "divisors_for", refuse)
        m.setattr(symmetry, "divisors_for", refuse, raising=False)  # a copy imported there escapes the first patch
        assert len(orbits(point_components(2, n=40), "divisors")) == 119
        assert [len(o.representative) for o in orbits(point_components(2, n=40), "nested", 0)] == [0]
        assert len(orbits(point_components(2, n=40), "nested", 1)) == 119
    assert sum(o.size for o in orbits(point_components(1, n=4), "nested", 3)) == sum(
        1 for ns in enumerate_nested_sets(point_components(1, n=4), max_size=3) if len(ns) == 3
    )
