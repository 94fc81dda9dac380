import itertools
from collections import Counter
from math import factorial

import pytest

from wonderful import nested
from wonderful.building import building_set_for
from wonderful.certify import _every_space
from wonderful.geometry import Component, GeometryConfig, Space, point_components
from wonderful.labels import subsets
from wonderful.loci import Diagonal, DLocus, SeparationCertificate, check_separation, divisor_labels, parse_center
from wonderful.nested import (
    BudgetError,
    NestedSet,
    count_divisors,
    divisor_sort_key,
    divisors_for,
    enumerate_nested_sets,
    f_vector,
    face_rows,
    is_nested,
    make_nested_set,
    maximal_nested_sets,
    pair_compatible,
)


def test_is_nested_pair_rules():
    g = point_components(2, n=3)
    assert is_nested(g, [DLocus(3, 1, 0b111), Diagonal.simple(3, 0b011)])  # I inside S
    assert not is_nested(g, [DLocus(3, 1, 0b001), Diagonal.simple(3, 0b011)])  # S meets I, I escapes
    assert is_nested(g, [DLocus(3, 1, 0b001), DLocus(3, 2, 0b010)])  # distinct components, disjoint
    assert not is_nested(g, [DLocus(3, 1, 0b001), DLocus(3, 2, 0b011)])
    assert is_nested(g, [DLocus(3, 1, 0b001), DLocus(3, 1, 0b011)])  # same component, chain
    assert not is_nested(g, [DLocus(3, 1, 0b001), DLocus(3, 1, 0b010)])
    assert is_nested(g, [Diagonal.simple(3, 0b011), Diagonal.simple(3, 0b111)])
    assert is_nested(g, [])


def test_divisor_validation():
    g = point_components(1, n=3, space=Space.XD_UPPER)
    with pytest.raises(ValueError):
        is_nested(g, [Diagonal.simple(3, 0b011)])  # no diagonal divisors in this space
    with pytest.raises(ValueError):
        is_nested(g, [DLocus(3, 2, 0b001)])  # missing component
    with pytest.raises(ValueError):
        Diagonal.simple(3, 0b001)  # diagonal divisors need two indices
    with pytest.raises(ValueError):  # a polydiagonal covers no boundary divisor
        is_nested(point_components(1, n=4), [Diagonal(4, (0b0011, 0b1100))])


def test_count_divisors_formulas():
    assert count_divisors(point_components(3, n=1)) == 3
    assert count_divisors(point_components(3, n=3)) == 25
    assert count_divisors(point_components(1, n=2, space=Space.XD_UPPER)) == 3
    for n in range(1, 7):
        assert count_divisors(GeometryConfig(n, 2, (), Space.FM)) == 2 ** n - n - 1
    for g in [
        point_components(2, n=3),
        point_components(1, n=4, space=Space.XD_UPPER),
        GeometryConfig(4, 2, (), Space.FM),
    ]:
        assert count_divisors(g) == len(divisors_for(g))
    # divisors_for lists the divisors in canonical order without sorting them
    for n in range(1, 7):
        spaces = [GeometryConfig(n, 2, (), Space.FM)]
        for k in range(4):
            spaces += [point_components(k, n=n), point_components(k, n=n, space=Space.XD_UPPER)]
        for g in spaces:
            divisors = divisors_for(g)
            assert len(divisors) == count_divisors(g)
            assert list(divisors) == sorted(set(divisors), key=divisor_sort_key), g


def test_divisor_graph_is_memoised_per_geometry():
    g = point_components(2, n=3)
    before = (hash(g), g.dumps())
    copy = GeometryConfig(g.n, g.dim_x, g.components, g.space)
    face_rows(g, str, max_size=2)  # keys and rows, built without a divisor
    assert set(g.divisor_graph) == {"keys", "rows"}
    assert divisors_for(g) is divisors_for(g)
    assert set(g.divisor_graph) == {"keys", "rows", "divisors"}
    assert copy.divisor_graph == {}  # a copy builds its own memo
    assert divisors_for(copy) is not divisors_for(g) and divisors_for(copy) == divisors_for(g)
    assert g == copy and (hash(g), g.dumps()) == before


def test_key_labels_are_the_divisor_labels():
    # every space, k <= 3, n <= 8: one formatter, from the keys alone
    for n in range(1, 9):
        spaces = [GeometryConfig(n, 2, (), Space.FM)]
        for k in range(1, 4):
            spaces += [point_components(k, n=n), point_components(k, n=n, space=Space.XD_UPPER)]
        for g in spaces:
            divisors = divisors_for(g)
            assert nested.divisor_keys(g) == tuple((d.component, d.subset) for d in divisors)
            assert divisor_labels(nested.divisor_keys(g)) == [str(d) for d in divisors], g


def test_a_configuration_without_divisors_builds_nothing(monkeypatch):
    # at n = 64 a subset table, or a list of the index sets, of 2^n entries cannot be built
    monkeypatch.setattr(nested, "subsets", None)
    monkeypatch.setattr(nested, "_compatibility_rows", None)
    g = GeometryConfig(64, 1, (), Space.XD_UPPER)
    assert nested.divisor_families(g) == () and nested.divisor_keys(g) == () and divisors_for(g) == ()
    assert enumerate_nested_sets(g) == enumerate_nested_sets(g, max_size=2) == maximal_nested_sets(g)
    assert [ns.divisors for ns in maximal_nested_sets(g)] == [()]
    assert face_rows(g, str) == face_rows(g, str, max_size=3) == face_rows(g, str, maximal=True) == ("",)
    assert f_vector(g) == (1,) and count_divisors(g) == 0


def test_five_point_moduli_complex():
    g = point_components(3, n=2)
    assert f_vector(g) == (1, 10, 15)
    facets = maximal_nested_sets(g)
    assert len(facets) == 15
    assert all(len(f) == 2 for f in facets)


def test_enumerate_small_cases():
    g_fm = GeometryConfig(3, 2, (), Space.FM)
    singles = enumerate_nested_sets(g_fm, max_size=1)
    assert len(singles) == 5  # empty set + 4 divisors
    g_none = GeometryConfig(1, 2, (), Space.FM)
    assert enumerate_nested_sets(g_none) == (NestedSet(g_none, ()),)
    assert maximal_nested_sets(g_none) == (NestedSet(g_none, ()),)


def test_maximal_examples():
    g = GeometryConfig(2, 2, (), Space.FM)
    facets = maximal_nested_sets(g)
    assert [f.labels() for f in facets] == [("Delta:{1,2}",)]
    g1 = point_components(1, n=1)
    assert [f.labels() for f in maximal_nested_sets(g1)] == [("D:c1:{1}",)]


def test_enumeration_is_downward_closed():
    for g in [point_components(2, n=3), GeometryConfig(4, 2, (), Space.FM)]:
        for ns in enumerate_nested_sets(g):
            for r in range(len(ns)):
                for sub in itertools.combinations(ns.divisors, r):
                    assert is_nested(g, sub)


def test_enumeration_deterministic():
    g = point_components(2, n=3)
    assert enumerate_nested_sets(g) == enumerate_nested_sets(g)


def test_budget_guard():
    g = point_components(1, n=7)  # 127 + 120 = 247 divisors, 1 320 064 faces
    assert count_divisors(g) == 247
    with pytest.raises(BudgetError) as err:
        enumerate_nested_sets(g)
    assert "1320064" in str(err.value) and "262144" in str(err.value)
    # 63 + 57 = 120 divisors, but 78 416 faces: within the bound
    g = point_components(1, n=6)
    assert len(enumerate_nested_sets(g)) == sum(f_vector(g)) == 78416
    # shallow queries stay allowed
    assert len(enumerate_nested_sets(g, max_size=1)) == count_divisors(g) + 1


def test_refused_listing_builds_nothing(monkeypatch):
    # k=1 n=18 has 524 268 divisors, so even the faces of size <= 1 are past the bound
    def never(*args):
        raise AssertionError("a refused listing built divisors")

    monkeypatch.setattr(nested, "divisors_for", never)
    monkeypatch.setattr(nested, "pair_compatible", never)
    with pytest.raises(BudgetError, match="refusing to walk 524269 nested sets"):
        enumerate_nested_sets(point_components(1, n=18), max_size=1)


def test_negative_max_size_is_refused():
    g = point_components(1, n=2)
    with pytest.raises(ValueError):
        enumerate_nested_sets(g, max_size=-1)
    assert enumerate_nested_sets(g, max_size=0) == (NestedSet(g, ()),)


def test_walks_make_no_pair_calls_and_never_revalidate(monkeypatch):
    pairs, checks = [], []
    original_pair, original_nested = nested.pair_compatible, nested.is_nested

    def counting_pair(a, b):
        pairs.append((a, b))
        return original_pair(a, b)

    def counting_nested(g, divisors):
        checks.append(divisors)
        return original_nested(g, divisors)

    monkeypatch.setattr(nested, "pair_compatible", counting_pair)
    monkeypatch.setattr(nested, "is_nested", counting_nested)
    g = point_components(2, n=3)
    for walk in (f_vector, enumerate_nested_sets, maximal_nested_sets):
        walk(g)
    enumerate_nested_sets(g, max_size=1)
    assert pairs == [] and checks == []
    # the public constructor still checks
    make_nested_set(g, [DLocus(3, 1, 0b011)])
    assert len(checks) == 1 and pairs == []


def test_face_rows_are_the_walked_faces_as_labels():
    # maximal rows under a size bound are the facets of at most that size
    for g in [point_components(2, n=3), point_components(1, n=4, space=Space.XD_UPPER),
              GeometryConfig(4, 2, (), Space.FM), GeometryConfig(1, 2, (), Space.FM),
              point_components(1, n=1, space=Space.XD_UPPER)]:
        for max_size in (0, 1, 2, 3, None):
            for maximal in (False, True):
                faces = enumerate_nested_sets(g, max_size=max_size)
                if maximal:
                    faces = [ns for ns in maximal_nested_sets(g) if max_size is None or len(ns) <= max_size]
                want = tuple(",".join("<%s>" % label for label in ns.labels()) for ns in faces)
                assert face_rows(g, "<{}>".format, max_size=max_size, maximal=maximal) == want


def test_shallow_and_refused_queries_test_no_pairs(monkeypatch):
    calls = []
    original = nested.pair_compatible

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(nested, "pair_compatible", counting)
    g = point_components(1, n=6)  # 120 divisors
    assert len(enumerate_nested_sets(g, max_size=1)) == count_divisors(g) + 1
    assert calls == []
    with pytest.raises(BudgetError) as err:
        enumerate_nested_sets(point_components(1, n=7))  # 1 320 064 faces
    assert "262144" in str(err.value)
    assert calls == []


SMALL_COMPLEXES = [
    point_components(2, n=3),
    point_components(1, n=4, space=Space.XD_UPPER),
    point_components(3, n=3),
    GeometryConfig(4, 2, (), Space.FM),
]


@pytest.mark.parametrize("g", SMALL_COMPLEXES, ids=["k2n3", "k1n4-upper", "k3n3", "fm4"])
def test_facets_and_f_vector_match_enumeration(g):
    # certify's facets row holds the facets against a rescan of the faces
    faces = enumerate_nested_sets(g)
    assert set(maximal_nested_sets(g)) <= set(faces)
    sizes = Counter(len(ns) for ns in faces)
    assert f_vector(g) == tuple(sizes[k] for k in range(max(sizes) + 1))


@pytest.mark.parametrize("g", SMALL_COMPLEXES, ids=["k2n3", "k1n4-upper", "k3n3", "fm4"])
def test_f_vector_up_to_a_size_is_a_prefix(g):
    whole = f_vector(g)
    for size in range(len(whole) + 1):
        assert f_vector(g, max_size=size) == whole[:size + 1]
    with pytest.raises(ValueError):
        f_vector(g, max_size=-1)


def test_capped_f_vector_is_the_prefix_on_every_small_space():
    # capped at s, the recursion runs modulo 2^(w(s+1)) with 2^w above each C(N, i), i <= s
    for g in _every_space(12):
        whole = f_vector(g)
        for size in range(5):
            assert f_vector(g, max_size=size) == whole[:size + 1], (g, size)


def test_f_vector_up_to_two_skips_the_budget():
    g = point_components(1, n=11)  # 2047 + 2036 = 4083 divisors
    with pytest.raises(BudgetError, match="739897"):
        enumerate_nested_sets(g, max_size=2)
    assert f_vector(g, max_size=2) == (1, 4083, 735813)


def _stirling2(n, k):
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def _reduced_euler(fv):
    return -sum((-1) ** s * f for s, f in enumerate(fv))


def test_f_vector_identities_up_to_thirty_points():
    fm = {n: f_vector(GeometryConfig(n, 2, (), Space.FM)) for n in range(2, 32)}
    bracket = {(k, n): f_vector(point_components(k, n=n)) for k in (1, 2, 3) for n in range(1, 31)}
    upper = {(k, n): f_vector(point_components(k, n=n, space=Space.XD_UPPER)) for k in (1, 2, 3) for n in range(1, 31)}
    # k=3 with n points is M_{0,n+3}; test_moduli_space_anchors checks its totals
    for n in range(1, 31):
        assert bracket[3, n][-1] == _double_factorial(2 * n + 1)
        assert bracket[1, n] == fm[n + 1]
        assert upper[2, n] == tuple(factorial(s + 1) * _stirling2(n + 1, s + 1) for s in range(n + 1))
        for k in (2, 3):
            assert _reduced_euler(bracket[k, n]) == (-1) ** (n - 1) * factorial(n + k - 2) // factorial(k - 2)
        for k in (1, 2, 3):
            assert _reduced_euler(upper[k, n]) == (-1) ** (n - 1) * (k - 1) ** n
    # the facet size that purity gives in closed form, on every space with k <= 3
    for n in range(1, 31):
        for g in (GeometryConfig(n, 2, (), Space.FM),
                  *(point_components(k, n=n, space=space) for space in (Space.XD_BRACKET, Space.XD_UPPER)
                    for k in range(4))):
            assert nested._facet_size(g) == len(f_vector(g)) - 1
    for n in range(2, 32):
        assert fm[n][-1] == _double_factorial(2 * n - 3)
        assert _reduced_euler(fm[n]) == 0
        if n >= 3:
            assert sum(fm[n]) == 2 * sum(bracket[3, n - 2])  # M_{0,n+1}


def _reduced_rank(g):
    """The rank of the one reduced homology group of the boundary complex at
    dim X = 1, in degree n - 1: (k-1)^n in XD_upper, (n+k-2)!/(k-2)! in
    XD_bracket with k >= 2, and 0 otherwise."""
    n, k = g.n, g.n_components
    if g.space is Space.XD_UPPER:
        return (k - 1) ** n
    return factorial(n + k - 2) // factorial(k - 2) if g.space is Space.XD_BRACKET and k >= 2 else 0


def test_reduced_euler_characteristic_of_the_boundary_complex():
    # the reduced Euler characteristic is -F(-1), F the face polynomial
    rows = [GeometryConfig(n, 1, (), Space.FM) for n in range(2, 41)]
    rows += [point_components(k, n=n, space=space) for space in (Space.XD_BRACKET, Space.XD_UPPER)
             for k in range(6) for n in range(2, 41)]
    assert len(rows) == 507
    for g in rows:
        euler = -nested._fiber_tree_count(g, -1)
        assert euler == (-1) ** (g.n - 1) * _reduced_rank(g), g
        if g.n <= 8:
            assert euler == _reduced_euler(f_vector(g)), g
    # one point and no divisor: the complex holds only the empty face
    for g in (GeometryConfig(1, 1, (), Space.FM), point_components(0, n=1)):
        assert f_vector(g) == (1,) and -nested._fiber_tree_count(g, -1) == -1


def test_every_divisor_is_compatible_with_itself():
    for g in SMALL_COMPLEXES:
        for d in divisors_for(g):
            assert pair_compatible(d, d), d
            assert is_nested(g, [d])


@pytest.mark.parametrize(
    "g, bound", [(g, None) for g in SMALL_COMPLEXES] + [(point_components(3, n=4), 200)],
    ids=["k2n3", "k1n4-upper", "k3n3", "fm4", "m07"],
)
def test_walked_faces_are_canonical_and_nested(g, bound):
    faces = enumerate_nested_sets(g, max_size=3, divisor_bound=bound)
    facets = maximal_nested_sets(g, divisor_bound=bound)
    for ns in faces + facets:
        assert list(ns.divisors) == sorted(set(ns.divisors), key=divisor_sort_key)
        assert is_nested(g, ns.divisors)
        assert make_nested_set(g, ns.divisors) == ns
        assert hash(ns) == hash(make_nested_set(g, ns.divisors))
        assert type(ns) is NestedSet
        assert not hasattr(ns, "__dict__")


def _double_factorial(k):
    return 1 if k <= 1 else k * _double_factorial(k - 2)


@pytest.mark.parametrize("n, total", [(5, 26), (6, 236), (7, 2752), (8, 39208)])
def test_moduli_space_anchors(n, total):
    g = point_components(3, n=n - 3)  # the model of M_{0,n}
    assert sum(f_vector(g, divisor_bound=200)) == total


@pytest.mark.parametrize("n, total", [(2, 2), (3, 8), (4, 52), (5, 472), (6, 5504)])
def test_fulton_macpherson_anchors(n, total):
    g = GeometryConfig(n, 2, (), Space.FM)
    assert sum(f_vector(g, divisor_bound=200)) == total
    assert len(maximal_nested_sets(g, divisor_bound=200)) == _double_factorial(2 * n - 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_one_point_component_is_fm_with_one_more_point(n):
    assert f_vector(point_components(1, n=n), divisor_bound=200) == f_vector(
        GeometryConfig(n + 1, 2, (), Space.FM), divisor_bound=200
    )


def test_nested_set_constructor_enforces_predicate():
    g = point_components(1, n=3)
    with pytest.raises(ValueError):
        make_nested_set(g, [DLocus(3, 1, 0b001), Diagonal.simple(3, 0b011)])
    ns = make_nested_set(g, [Diagonal.simple(3, 0b011), DLocus(3, 1, 0b111)])
    assert ns.labels() == ("D:c1:{1,2,3}", "Delta:{1,2}")


def test_public_nested_set_constructor_checks_its_input():
    g = point_components(1, n=3)
    with pytest.raises(ValueError):
        NestedSet(g, (DLocus(3, 1, 0b001), Diagonal.simple(3, 0b011)))  # sorted, not nested
    with pytest.raises(ValueError):
        NestedSet(g, (Diagonal.simple(3, 0b011), DLocus(3, 1, 0b111)))  # nested, not sorted
    with pytest.raises(ValueError):
        NestedSet(g, (DLocus(3, 1, 0b111), DLocus(3, 1, 0b111)))  # repeated
    ns = NestedSet(g, (DLocus(3, 1, 0b111), Diagonal.simple(3, 0b011)))
    assert ns.labels() == ("D:c1:{1,2,3}", "Delta:{1,2}")
    with pytest.raises(AttributeError):
        ns.divisors = ()
    assert ns.divisors == (DLocus(3, 1, 0b111), Diagonal.simple(3, 0b011))


def test_divisor_labels_round_trip():
    g = point_components(2, n=3)
    for d in divisors_for(g):
        assert parse_center(str(d), 3) == d


def test_mixed_pair_certificates_found_and_checked():
    # every non-nested mixed pair is separated by the blowup of D_{c, S u I},
    # a stage-one member
    for comps, dim_x in [([0], 1), ([0, 0], 1), ([1], 2), ([1, 0], 2)]:
        g = GeometryConfig(
            4, dim_x,
            tuple(Component("c%d" % (i + 1), d) for i, d in enumerate(comps)),
            Space.XD_BRACKET,
        )
        stage_one = set(building_set_for(g)[0].members)
        for c in range(1, g.n_components + 1):
            for s in subsets(4, min_size=1):
                for i in subsets(4, min_size=2):
                    if s & i and i & ~s:
                        cert = SeparationCertificate(DLocus(4, c, s), Diagonal.simple(4, i), DLocus(4, c, s | i))
                        assert check_separation(g, cert)
                        assert cert.center in stage_one


def test_make_nested_set_refuses_a_repeated_divisor():
    g = point_components(1, n=3)
    d, e = DLocus(3, 1, 0b011), Diagonal.simple(3, 0b011)
    with pytest.raises(ValueError, match=r"repeated divisor D:c1:\{1,2\}"):
        make_nested_set(g, [d, e, d])
