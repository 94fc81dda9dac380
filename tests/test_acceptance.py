"""Acceptance gate: one test per criterion, every assertion exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Where a criterion quantifies over a family too large to sweep
outright (all collections of up to 2^30 divisor subsets), the test states and
uses a finite logical decomposition that covers the same statement: the
predicates involved are downward closed, so pair agreement plus agreement on
every pairwise-nested collection decides every collection; small instances
are additionally swept outright as a cross-check of the decomposition.
"""

import itertools
import json
import random

from click.testing import CliRunner

from wonderful.building import building_set_for, is_nested_flag_oracle
from wonderful.cli import main
from wonderful.geometry import Component, GeometryConfig, Space, point_components
from wonderful.labels import elements, subsets
from wonderful.loci import (
    Diagonal,
    DLocus,
    center_to_locus,
    check_separation,
    codimension,
    contains_locus,
    intersect,
    pair_position,
    PairPosition,
)
from wonderful.nested import (
    DTilde,
    DeltaTilde,
    count_divisors,
    divisor_to_center,
    divisors_for,
    enumerate_nested_sets,
    f_vector,
    is_nested,
    make_nested_set,
    maximal_nested_sets,
    mixed_pair_certificate,
)
from wonderful.orders import (
    BlowupSequence,
    generate_order,
    swap_rewrite,
    two_block_order,
    validate_building_set_order,
    validate_inclusion_order,
)
from wonderful.symmetry import Permutation, act, all_permutations
from wonderful.trees import fiber_tree, is_stable, tree_to_nested, VertexKind
from oracles import laminar


def _ok(num: int, name: str):
    print("ACCEPTANCE %2d %s: PASS" % (num, name))


def test_criterion_01_moduli_divisor_counts():
    expected = {1: 3, 2: 10, 3: 25, 4: 56}
    for m, want in expected.items():
        g = point_components(3, n=m)
        n_marked = m + 3
        assert count_divisors(g) == want
        assert count_divisors(g) == (1 << (n_marked - 1)) - n_marked - 1
    _ok(1, "boundary divisor counts of the rational-curve moduli models")


def test_criterion_02_five_point_complex():
    g = point_components(3, n=2)
    assert f_vector(g) == (1, 10, 15)
    facets = maximal_nested_sets(g)
    assert len(facets) == 15 == 5 * 3 * 1  # (2*5-5)!!
    assert all(len(f) == 2 for f in facets)
    _ok(2, "five-point moduli model: f-vector (1,10,15), 15 facets of size 2")


def test_criterion_03_fm_specialization():
    for n in range(1, 7):
        g = GeometryConfig(n, 2, (), Space.FM)
        assert count_divisors(g) == (1 << n) - n - 1
    # nestedness == forest-of-subsets laminarity on ALL collections, n <= 5.
    # Both predicates are conjunctions of the same quantifier-free pair
    # conditions, so pair agreement decides every collection; n <= 4 is also
    # swept outright, and n = 5 sampled, as cross-checks.
    for n in (2, 3, 4, 5):
        g = GeometryConfig(n, 2, (), Space.FM)
        divisors = divisors_for(g)
        for a, b in itertools.combinations(divisors, 2):
            assert is_nested(g, [a, b]) == laminar([set(elements(d.subset)) for d in (a, b)])
    for n in (2, 3, 4):
        g = GeometryConfig(n, 2, (), Space.FM)
        divisors = divisors_for(g)
        for r in range(len(divisors) + 1):
            for sub in itertools.combinations(divisors, r):
                assert is_nested(g, sub) == laminar([set(elements(d.subset)) for d in sub])
    g5 = GeometryConfig(5, 2, (), Space.FM)
    divisors5 = divisors_for(g5)
    rng = random.Random(503)
    for _ in range(4000):
        sub = rng.sample(divisors5, rng.randint(0, 8))
        assert is_nested(g5, sub) == laminar([set(elements(d.subset)) for d in sub])
    _ok(3, "no components: divisor counts and laminarity, n <= 6 / n <= 5")


def test_criterion_04_closed_form_equals_flag_oracle():
    # all D-divisor collections, n <= 4, <= 2 components.  Cover: both
    # predicates are downward closed (a sub-collection of a flag-nested
    # collection is flag-nested with the same flag), hence equivalence on all
    # collections <=> equivalence on pairs + oracle truth on every
    # pairwise-nested collection.  n <= 3 is additionally swept outright,
    # and larger collections sampled.
    rng = random.Random(404)
    for k in (1, 2):
        for n in (2, 3, 4):
            g = point_components(k, n=n, space=Space.XD_UPPER)
            first, _ = building_set_for(g)
            members = list(first.members)
            as_div = {m: DTilde(g.n, m.component, m.subset) for m in members}
            for a, b in itertools.combinations(members, 2):
                assert is_nested_flag_oracle(first, [a, b]) == is_nested(g, [as_div[a], as_div[b]])
            for ns in enumerate_nested_sets(g):
                sub = [divisor_to_center(d) for d in ns.divisors]
                assert is_nested_flag_oracle(first, sub)
            if len(members) <= 14:
                for r in range(len(members) + 1):
                    for sub in itertools.combinations(members, r):
                        expected = is_nested(g, [as_div[m] for m in sub])
                        assert is_nested_flag_oracle(first, sub) == expected
            else:
                for _ in range(300):
                    sub = rng.sample(members, rng.randint(0, 6))
                    expected = is_nested(g, [as_div[m] for m in sub])
                    assert is_nested_flag_oracle(first, sub) == expected, [str(m) for m in sub]
    _ok(4, "closed-form nestedness == flag-search oracle on D-collections")


def test_criterion_05_mixed_pair_separation_certificates():
    batteries = [
        point_components(1, n=4),
        point_components(2, n=4),
        GeometryConfig(4, 2, (Component("q", 1),), Space.XD_BRACKET),
        GeometryConfig(4, 3, (Component("q", 1), Component("p", 0)), Space.XD_BRACKET),
    ]
    found = 0
    for g in batteries:
        for c in range(1, g.n_components + 1):
            for s in subsets(g.n, min_size=1):
                for i in subsets(g.n, min_size=2):
                    if s & i and i & ~s:
                        cert = mixed_pair_certificate(g, DTilde(g.n, c, s), DeltaTilde(g.n, i))
                        assert check_separation(g, cert)
                        lz = center_to_locus(g, cert.center)
                        l1 = center_to_locus(g, cert.v1)
                        l2 = center_to_locus(g, cert.v2)
                        assert contains_locus(g, lz, intersect(g, l1, l2))
                        assert contains_locus(g, l1, lz) and l1 != lz
                        found += 1
    assert found > 0
    _ok(5, "separation certificate found for every non-nested mixed pair, n <= 4")


def test_criterion_06_order_machinery():
    # reshuffled orders pass building-set-order validation
    for k in (1, 2):
        for n in (2, 3, 4):
            g_up = point_components(k, n=n, space=Space.XD_UPPER)
            assert validate_building_set_order(generate_order(g_up, "reshuffled"))
    # two-block rewrites to interleaved with certified swaps
    for k in (1, 2):
        for n in (2, 3, 4):
            g = point_components(k, n=n)
            src, tgt = two_block_order(g), generate_order(g, "interleaved")
            res = swap_rewrite(src, tgt)
            assert res.ok, (k, n, res.blocking)
            work = list(src.centers)
            for step in res.swaps:
                assert "transversal" in step.certificate or "disjoint" in step.certificate
                work[step.position], work[step.position + 1] = (
                    work[step.position + 1],
                    work[step.position],
                )
            assert tuple(work) == tgt.centers
    # inclusion validation rejects every adjacent inversion of a containment pair
    for g in [
        point_components(1, n=4),
        point_components(2, n=3),
        point_components(3, n=3),
        GeometryConfig(4, 2, (), Space.FM),
        GeometryConfig(3, 2, (Component("q", 1),), Space.XD_BRACKET),
    ]:
        seq = generate_order(g, "inclusion")
        assert validate_inclusion_order(seq).ok
        centers = list(seq.centers)
        inversions = 0
        for i in range(len(centers) - 1):
            li = center_to_locus(g, centers[i])
            lj = center_to_locus(g, centers[i + 1])
            contained = (
                contains_locus(g, li, lj) or contains_locus(g, lj, li)
            ) and li != lj
            if contained:
                swapped = centers.copy()
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                assert not validate_inclusion_order(BlowupSequence(g, tuple(swapped))).ok
                inversions += 1
        if g.components and g.components[0].dim == 0:
            assert inversions > 0
    _ok(6, "order generation, building-set-order validation, certified rewrites")


def test_criterion_07_transversality_closed_forms():
    from oracles import closed_form_pair_position

    for d, d_c in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        for n in (2, 3, 4):
            g = GeometryConfig(n, d, (Component("c1", d_c),), Space.XD_BRACKET)
            centers = [DLocus(n, 1, m) for m in subsets(n, min_size=1)]
            centers += [Diagonal.simple(n, m) for m in subsets(n, min_size=2)]
            for a, b in itertools.combinations_with_replacement(centers, 2):
                la, lb = center_to_locus(g, a), center_to_locus(g, b)
                li = intersect(g, la, lb)
                # brute force straight from intersect + dimension arithmetic
                if li.is_empty:
                    brute = PairPosition.DISJOINT
                elif contains_locus(g, la, lb) or contains_locus(g, lb, la):
                    brute = PairPosition.CLEAN_CONTAINMENT
                elif codimension(g, li) == codimension(g, la) + codimension(g, lb):
                    brute = PairPosition.TRANSVERSAL
                else:
                    brute = PairPosition.CLEAN_OVERLAP
                assert pair_position(g, a, b) is brute
                assert closed_form_pair_position(g, a, b) is brute, (str(a), str(b), d, d_c)
    _ok(7, "pair classification closed forms == codimension arithmetic")


def test_criterion_08_degeneration_fibers():
    batteries = [
        point_components(1, n=4),
        point_components(2, n=4),
        point_components(3, n=4),
        point_components(1, n=4, space=Space.XD_UPPER),
        GeometryConfig(4, 2, (), Space.FM),
        GeometryConfig(3, 2, (Component("q", 1), Component("p", 0)), Space.XD_BRACKET),
    ]
    for g in batteries:
        for ns in enumerate_nested_sets(g, divisor_bound=64):
            t = fiber_tree(g, ns)
            assert is_stable(t).ok
            assert tree_to_nested(t) == ns
            assert sorted(i for v in t.vertices for i in t.marks_on(v.vid)) == list(range(1, g.n + 1))
    # the two displayed generic fibers
    g = point_components(1, n=3)
    t = fiber_tree(g, make_nested_set(g, [DTilde(3, 1, 0b011)]))
    assert [v.kind for v in t.vertices] == [VertexKind.ROOT, VertexKind.DLEVEL]
    assert t.marks_on(1) == (1, 2) and t.marks_on(0) == (3,)
    g_fm = GeometryConfig(3, 2, (), Space.FM)
    t2 = fiber_tree(g_fm, make_nested_set(g_fm, [DeltaTilde(3, 0b011)]))
    assert [v.kind for v in t2.vertices] == [VertexKind.ROOT, VertexKind.SCREEN]
    assert t2.marks_on(1) == (1, 2) and t2.marks_on(0) == (3,)
    _ok(8, "fiber trees stable and round-tripping over every nested set, n <= 4")


def test_criterion_09_equivariance():
    for g in [
        point_components(2, n=3),
        point_components(3, n=4),
        point_components(1, n=4, space=Space.XD_UPPER),
        GeometryConfig(4, 2, (), Space.FM),
    ]:
        perms = list(all_permutations(g.n))
        for ns in enumerate_nested_sets(g, divisor_bound=64):
            for p in perms:
                assert is_nested(g, [act(p, d) for d in ns.divisors])
        divisors = divisors_for(g)
        for sub in itertools.combinations(divisors, 2):
            base = is_nested(g, sub)
            for p in perms:
                assert is_nested(g, [act(p, d) for d in sub]) == base
    rng = random.Random(909)
    g7 = point_components(3, n=7)
    divisors7 = divisors_for(g7)
    for _ in range(1000):
        sub = rng.sample(divisors7, rng.randint(2, 6))
        images = list(range(1, 8))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert is_nested(g7, [act(p, d) for d in sub]) == is_nested(g7, sub)
    _ok(9, "nestedness invariant under the symmetric group, exhaustive and sampled")


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    config = tmp_path / "m0n5.json"
    config.write_text(
        json.dumps(
            {
                "n": 2,
                "dim_X": 1,
                "components": [{"name": "c%d" % i, "dim": 0} for i in (1, 2, 3)],
                "space": "XD_bracket",
            }
        )
    )
    commands = [
        ["divisors", "--config", str(config), "--format", "json"],
        ["nested", "--config", str(config), "--format", "json"],
        ["nested", "--config", str(config), "--fvector"],
        ["facets", "--config", str(config), "--format", "json"],
        ["order", "--scheme", "interleaved", "--n", "3", "--components", "2"],
        ["rewrite", "--n", "3", "--components", "1", "--source", "two_block", "--target", "interleaved"],
        ["fiber", "--n", "3", "--components", "1", "--nested", "[D:c1:{1,2}]", "--format", "dot"],
        ["orbits", "--n", "3", "--components", "1", "--kind", "nested", "--size", "2", "--format", "json"],
    ]
    for argv in commands:
        runs = [runner.invoke(main, argv) for _ in range(3)]
        assert all(r.exit_code == 0 for r in runs)
        assert len({r.output for r in runs}) == 1
    _ok(10, "CLI output byte-identical across runs")
