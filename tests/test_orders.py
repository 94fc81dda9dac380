import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderful import building, certify, loci, nested, orders
from wonderful.geometry import Component, GeometryConfig, Space, point_components
from wonderful.loci import Diagonal, DLocus, parse_center
from wonderful.nested import BudgetError
from wonderful.orders import (
    SCHEMES,
    BlowupSequence,
    generate_order,
    swap_certificate,
    swap_rewrite,
    two_block_order,
    validate_building_set_order,
    validate_inclusion_order,
)


def test_interleaved_display_n2():
    g = point_components(1, n=2)
    assert generate_order(g, "interleaved").labels() == [
        "D:c1:{1}", "D:c1:{1,2}", "D:c1:{2}", "Delta:{1,2}"
    ]


def test_reshuffled_display_n3():
    g = point_components(1, n=3)
    assert generate_order(g, "reshuffled").labels() == [
        "D:c1:{1}",
        "D:c1:{1,2}", "D:c1:{2}",
        "D:c1:{1,2,3}", "D:c1:{1,3}", "D:c1:{2,3}", "D:c1:{3}",
    ]


def test_inclusion_fm_n2():
    g = GeometryConfig(2, 2, (), Space.FM)
    assert generate_order(g, "inclusion").labels() == ["Delta:{1,2}"]


# (scheme, geometry, labels); two_block is the order interleaved is rewritten from
GENERATED_ORDERS = [
    ("reshuffled", point_components(2, n=2, space=Space.XD_UPPER), [
        "D:c1:{1}", "D:c2:{1}",
        "D:c1:{1,2}", "D:c2:{1,2}", "D:c1:{2}", "D:c2:{2}",
    ]),
    # among diagonals of one size the larger least element comes first
    ("inclusion", point_components(1, n=3), [
        "D:c1:{1,2,3}", "Delta:{1,2,3}",
        "D:c1:{1,2}", "D:c1:{1,3}", "D:c1:{2,3}", "Delta:{2,3}", "Delta:{1,2}", "Delta:{1,3}",
        "D:c1:{1}", "D:c1:{2}", "D:c1:{3}",
    ]),
    ("two_block", point_components(1, n=3), [
        "D:c1:{1}", "D:c1:{1,2}", "D:c1:{2}", "D:c1:{1,2,3}", "D:c1:{1,3}", "D:c1:{2,3}", "D:c1:{3}",
        "Delta:{1,2}", "Delta:{1,2,3}", "Delta:{1,3}", "Delta:{2,3}",
    ]),
]


def test_generated_order_displays():
    for scheme, g, labels in GENERATED_ORDERS:
        seq = two_block_order(g) if scheme == "two_block" else generate_order(g, scheme)
        assert seq.labels() == labels, (scheme, g)


def test_scheme_space_mismatch():
    g_fm = GeometryConfig(3, 2, (), Space.FM)
    no_components = generate_order(GeometryConfig(3, 2), "reshuffled")
    assert generate_order(g_fm, "reshuffled").centers == no_components.centers == ()
    with pytest.raises(ValueError):
        generate_order(point_components(1, n=2, space=Space.XD_UPPER), "interleaved")
    with pytest.raises(ValueError):
        generate_order(point_components(1, n=2), "bogus")


def test_validate_inclusion_order_examples():
    g = GeometryConfig(3, 2, (), Space.FM)
    good = BlowupSequence(g, (Diagonal.simple(3, 0b111), Diagonal.simple(3, 0b011)))
    assert validate_inclusion_order(good).ok
    bad = BlowupSequence(g, (Diagonal.simple(3, 0b011), Diagonal.simple(3, 0b111)))
    report = validate_inclusion_order(bad)
    assert not report.ok
    assert report.violation[:2] == (0, 1)
    assert "Delta:{1,2,3}" in report.violation[2]


def test_point_component_containment_constrains_order():
    g = point_components(1, n=2)
    bad = BlowupSequence(g, (Diagonal.simple(2, 0b11), DLocus(2, 1, 0b11)))
    report = validate_inclusion_order(bad)
    assert not report.ok and "D:c1:{1,2}" in report.violation[2]
    # with a positive-dimensional component there is no containment
    g1 = GeometryConfig(2, 2, (Component("q", 1),), Space.XD_BRACKET)
    assert validate_inclusion_order(BlowupSequence(g1, (Diagonal.simple(2, 0b11), DLocus(2, 1, 0b11)))).ok


def test_building_set_order_rejects_missing_factor_prefix():
    g = GeometryConfig(3, 2, (), Space.FM)
    d = lambda m: Diagonal.simple(3, m)
    seq = BlowupSequence(g, (d(0b011), d(0b101), d(0b110), d(0b111)))
    assert not validate_building_set_order(seq)
    assert validate_building_set_order(BlowupSequence(g, (d(0b011),)))


def test_building_set_order_rejects_mixed_stage():
    g = point_components(1, n=2)
    seq = generate_order(g, "interleaved")
    with pytest.raises(ValueError):
        validate_building_set_order(seq)


def test_generated_orders_pass_the_checked_constructor():
    # generate_order and two_block_order build their sequences unchecked
    for g in certify._every_space(5) + certify._mixed_components((2, 3), 5):
        for scheme in SCHEMES + ("two_block",):
            try:
                seq = two_block_order(g) if scheme == "two_block" else generate_order(g, scheme)
            except ValueError:
                continue
            assert seq == BlowupSequence(g, seq.centers)


@st.composite
def d_orders(draw):
    """dim X <= 3, one to three components of any dimension below it, n <= 4,
    and a family of D-loci: half the time closed under the unions of
    overlapping pairs, half the time ordered by decreasing index set size."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    dim_x = rng.randint(1, 3)
    dims = [rng.choice((0, rng.randrange(dim_x))) for _ in range(rng.randint(1, 3))]
    g = GeometryConfig(rng.randint(1, 4), dim_x, tuple(Component("c%d" % (i + 1), d) for i, d in enumerate(dims)),
                       rng.choice((Space.XD_BRACKET, Space.XD_UPPER)))
    stage_one = building.building_set_for(g)[0].members
    family = set(rng.sample(stage_one, rng.randint(1, min(8, len(stage_one)))))
    if rng.random() < 0.5:
        family = {DLocus(g.n, c.component, c.subset | d.subset) for c in family for d in family
                  if c.component == d.component and c.subset & d.subset} | family
    centers = sorted(family, key=str)
    rng.shuffle(centers)
    if rng.random() < 0.5:
        centers.sort(key=lambda c: -c.subset.bit_count())
    return BlowupSequence(g, tuple(centers))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(seq=d_orders())
def test_union_closure_rule_equals_the_closure_check(seq):
    # the rule reads index sets only; the closure check intersects the loci
    assert validate_building_set_order(seq) == building.is_building_order(seq.geometry, seq.centers)


def test_union_closure_row_meets_both_answers():
    row = next(r for r in certify.ROWS if r.name == "union-closure")
    answers = [answer for g in row.configs for _, answer in row.fast(g)]
    assert 0 < answers.count(False) < len(answers)


def test_building_order_row_meets_both_answers():
    # the orders that certify's building-order row compares hold building
    # orders and orders that are not
    row = next(r for r in certify.ROWS if r.name == "building-order")
    answers = [answer for g in row.configs for _, answer in row.fast(g)]
    assert len(answers) >= 300
    assert 0 < answers.count(False) < len(answers)


def test_order_rows_meet_both_answers():
    # certify's rewrite-replay row holds rewrites that block and rewrites
    # that finish; its inclusion-order row holds orders that pass and
    # reports of the first violation
    rows = {r.name: r for r in certify.ROWS}
    row = rows["rewrite-replay"]
    blocking = [b for g in row.configs for label, b in row.fast(g) if label.endswith("blocking")]
    assert 0 < blocking.count(None) < len(blocking)
    row = rows["inclusion-order"]
    reports = [report for g in row.configs for _, report in row.fast(g)]
    assert 0 < sum(report.ok for report in reports) < len(reports)


def test_building_set_order_builds_one_table(monkeypatch):
    tables = []

    class Counted(building._MemberTable):
        def __init__(self, *args):
            tables.append(self)
            super().__init__(*args)

    def refuse(*args):
        raise AssertionError("is_building_set called")

    monkeypatch.setattr(building, "_MemberTable", Counted)
    monkeypatch.setattr(building, "is_building_set", refuse)
    # stage one goes by the union-closure rule and builds no table
    for k, n in ((1, 2), (2, 3), (1, 5)):
        g = point_components(k, n=n, space=Space.XD_UPPER)
        assert validate_building_set_order(generate_order(g, "reshuffled"))
        assert not tables
    # stage two goes by the closure check, which builds one
    for n in (2, 3, 4):
        tables.clear()
        assert validate_building_set_order(generate_order(GeometryConfig(n, 2, (), Space.FM), "inclusion"))
        assert len(tables) == 1


def test_order_checks_refuse_past_their_bound(monkeypatch):
    g = point_components(2, n=4, space=Space.XD_UPPER)
    seq = generate_order(g, "reshuffled")
    # the union-closure rule: two components of 15 centers, 2 * 105 pair tests
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", 210)
    assert validate_building_set_order(seq)
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", 209)
    with pytest.raises(BudgetError) as refused:
        validate_building_set_order(seq)
    assert str(refused.value) == "refusing a building-set check of more than 209 steps (30 D-loci need 210 pair tests)"
    # the closure check on the same order
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", len(seq.centers) ** 2 + 3036)
    assert building.is_building_order(g, seq.centers)
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", 1000)
    with pytest.raises(BudgetError, match="more than 1000 steps"):
        building.is_building_order(g, seq.centers)
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", 899)
    with pytest.raises(BudgetError, match="more than 899 steps"):
        building.is_building_order(g, seq.centers)  # 30 centers: 900 containment tests
    g = point_components(1, n=3)
    source, target = two_block_order(g), generate_order(g, "interleaved")
    swaps = len(swap_rewrite(source, target).swaps)
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", swaps)
    assert swap_rewrite(source, target).ok
    monkeypatch.setattr(nested, "ORDER_CHECK_BOUND", swaps - 1)
    with pytest.raises(BudgetError, match="more than %d swaps" % (swaps - 1)):
        swap_rewrite(source, target)


def test_plain_library_order_checks_refuse_past_the_check_bound():
    # no bound is passed anywhere: the library's own 2^16 applies
    assert nested.ORDER_CHECK_BOUND == 65536
    steps = ("refusing a building-set check of more than 65536 steps"
             " (containment tests between members, then intersections)")
    seq = generate_order(point_components(2, n=9), "inclusion")
    with pytest.raises(BudgetError) as refused:
        validate_inclusion_order(seq)
    assert str(refused.value) == ("refusing an inclusion check of more than 65536 containment tests"
                                  " (1524 centers need 1160526)")
    # k=2 n=7: 254 centers, 64 516 containment tests, refused by the closure
    # check among the intersections; k=3 n=7: 381 centers, refused before the
    # first intersection.  The union-closure rule answers both: 16 002 and
    # 24 003 pair tests
    for k in (2, 3):
        seq = generate_order(point_components(k, n=7, space=Space.XD_UPPER), "reshuffled")
        assert validate_building_set_order(seq)
        with pytest.raises(BudgetError) as refused:
            building.is_building_order(seq.geometry, seq.centers)
        assert str(refused.value) == steps
    seq = generate_order(point_components(1, n=9, space=Space.XD_UPPER), "reshuffled")
    with pytest.raises(BudgetError) as refused:
        validate_building_set_order(seq)
    assert str(refused.value) == ("refusing a building-set check of more than 65536 steps"
                                  " (511 D-loci need 130305 pair tests)")
    g = point_components(1, n=9)
    with pytest.raises(BudgetError) as refused:
        swap_rewrite(two_block_order(g), generate_order(g, "interleaved"))
    assert str(refused.value) == "refusing a rewrite of more than 65536 swaps"


def test_swap_rewrite_identity():
    g = point_components(1, n=3)
    seq = generate_order(g, "interleaved")
    res = swap_rewrite(seq, seq)
    assert res.ok and res.swaps == ()


def test_swap_rewrite_blocked_on_containment():
    g = GeometryConfig(3, 2, (), Space.FM)
    a = BlowupSequence(g, (Diagonal.simple(3, 0b011), Diagonal.simple(3, 0b111)))
    b = BlowupSequence(g, (Diagonal.simple(3, 0b111), Diagonal.simple(3, 0b011)))
    res = swap_rewrite(a, b)
    assert not res.ok
    assert set(res.blocking) == {"Delta:{1,2}", "Delta:{1,2,3}"}


def test_swap_rewrite_multiset_mismatch():
    g = point_components(1, n=2)
    with pytest.raises(ValueError):
        swap_rewrite(
            generate_order(g, "interleaved"),
            BlowupSequence(g, (DLocus(2, 1, 0b01),)),
        )


def test_two_block_rewrites_to_interleaved():
    mixed = GeometryConfig(4, 3, (Component("a", 1), Component("b", 0)), Space.XD_BRACKET)
    for g in [point_components(k, n=n) for n in (2, 3, 4, 5) for k in (1, 2)] + [mixed]:
        src = two_block_order(g)
        tgt = generate_order(g, "interleaved")
        res = swap_rewrite(src, tgt)
        assert res.ok, res.blocking
        # replaying the trace reproduces the target and each swap carries
        # a transversal-or-disjoint certificate
        work = list(src.centers)
        for step in res.swaps:
            assert step.certificate
            assert "transversal" in step.certificate or "disjoint" in step.certificate
            j = step.position
            assert str(work[j]) == step.left and str(work[j + 1]) == step.right
            work[j], work[j + 1] = work[j + 1], work[j]
        assert tuple(work) == tgt.centers
        assert sorted(map(str, work)) == sorted(src.labels())


def test_rewrite_position_map():
    # pairwise disjoint centers: reversing them takes every swap, and the
    # later pulls start from positions that earlier swaps have shifted
    g = point_components(3, n=1)
    centers = tuple(DLocus(1, c, 0b1) for c in (1, 2, 3))
    res = swap_rewrite(BlowupSequence(g, centers), BlowupSequence(g, centers[::-1]))
    assert res.ok and len(res.swaps) == 3
    # the left center of a swap is not yet blown up, so it certifies nothing
    g = point_components(1, n=2)
    pair = (DLocus(2, 1, 0b11), Diagonal.simple(2, 0b11))
    assert not swap_rewrite(BlowupSequence(g, pair), BlowupSequence(g, pair[::-1])).ok
    # certify's rewrite-replay row checks every swap against the certificate
    # rules as written, on a plain list of the centers already blown up


def _fm4(labels):
    return BlowupSequence(GeometryConfig(4, 2, (), Space.FM), tuple(parse_center(t, 4) for t in labels))


def test_rewrite_with_polydiagonals():
    # a polydiagonal takes the locus route and is never a prior center
    labels = ["Delta:{{1,2},{3,4}}", "Delta:{3,4}", "Delta:{1,2,3,4}", "Delta:{1,2}"]
    res = swap_rewrite(_fm4(labels), _fm4(labels[::-1]))
    assert (res.ok, res.swaps, res.blocking) == (False, (), ("Delta:{1,2,3,4}", "Delta:{1,2}"))
    labels = ["Delta:{1,2,3,4}", "Delta:{1,2,3}", "Delta:{{1,2},{3,4}}", "Delta:{2,3,4}", "Delta:{1,4}"]
    target = ["Delta:{1,2,3,4}", "Delta:{1,4}", "Delta:{2,3,4}", "Delta:{{1,2},{3,4}}", "Delta:{1,2,3}"]
    res = swap_rewrite(_fm4(labels), _fm4(target))
    assert not res.ok and res.blocking == ("Delta:{{1,2},{3,4}}", "Delta:{2,3,4}")
    assert [(s.position, s.left, s.right, s.certificate) for s in res.swaps] == [
        (3, "Delta:{2,3,4}", "Delta:{1,4}", "ambient-transversal"),
        (2, "Delta:{{1,2},{3,4}}", "Delta:{1,4}", "ambient-transversal"),
        (1, "Delta:{1,2,3}", "Delta:{1,4}", "ambient-transversal"),
    ]


def test_rewrite_validates_no_center_per_swap(monkeypatch):
    assert not hasattr(orders, "_Prefix")
    calls = []

    def counting(g, c):
        calls.append(c)
        return c

    runs = []
    for n in (3, 5):
        g = point_components(2, n=n)
        source, target = two_block_order(g), generate_order(g, "interleaved")
        monkeypatch.setattr(orders, "validate_center", counting)
        monkeypatch.setattr(loci, "validate_center", counting)
        calls.clear()
        res = swap_rewrite(source, target)
        monkeypatch.undo()
        runs.append((len(res.swaps), len(calls)))
    (few, first), (many, second) = runs
    assert few < many and first == second


def test_swap_certificate_tiers():
    g = point_components(1, n=3)
    d123, d12 = DLocus(3, 1, 0b111), DLocus(3, 1, 0b011)
    delta12 = Diagonal.simple(3, 0b011)
    # ambient tier
    assert swap_certificate(g, [], DLocus(3, 1, 0b100), delta12) == "ambient-transversal"
    # the mixed crossing needs the prior blowup of D_{c, S cap I}
    assert swap_certificate(g, [], d123, delta12) is None
    cert = swap_certificate(g, [DLocus(3, 1, 0b001), d12, DLocus(3, 1, 0b010)], d123, delta12)
    assert cert is not None and "transversal" in cert and "D:c1:{1,2}" in cert
    # D_{c,S} against its own diagonal never swaps: the only witness would be
    # the pair member itself, which cannot be prior
    assert swap_certificate(g, [DLocus(3, 1, 0b001)], d12, delta12) is None


def test_swap_certificate_union_disjointness_tier():
    g = point_components(1, n=4, space=Space.XD_UPPER)
    a, b = DLocus(4, 1, 0b0011), DLocus(4, 1, 0b0110)
    union = DLocus(4, 1, 0b0111)
    assert swap_certificate(g, [], a, b) is None
    cert = swap_certificate(g, [union], a, b)
    assert cert is not None and "disjoint" in cert
    g_fm = GeometryConfig(4, 2, (), Space.FM)
    i, j = Diagonal.simple(4, 0b0111), Diagonal.simple(4, 0b1110)  # share {2,3}
    assert swap_certificate(g_fm, [], i, j) is None
    cert = swap_certificate(g_fm, [Diagonal.simple(4, 0b1111)], i, j)
    assert cert is not None and "disjoint" in cert
    # D_{c,S} against Delta_I through more of its points: D_{c,S cap I} is the
    # pair member itself, so only the union D_{c, S cup I} separates them
    g = point_components(1, n=3)
    d12, delta123 = DLocus(3, 1, 0b011), Diagonal.simple(3, 0b111)
    assert swap_certificate(g, [DLocus(3, 1, 0b001)], d12, delta123) is None
    assert swap_certificate(g, [DLocus(3, 1, 0b111)], d12, delta123) == (
        "transform-disjoint after blowing up D:c1:{1,2,3}")


def test_inclusion_rejects_any_adjacent_containment_inversion():
    for g in [point_components(1, n=3), point_components(2, n=3), GeometryConfig(4, 2, (), Space.FM)]:
        seq = generate_order(g, "inclusion")
        centers = list(seq.centers)
        from wonderful.loci import center_to_locus, contains_locus

        for i in range(len(centers) - 1):
            li = center_to_locus(g, centers[i])
            lj = center_to_locus(g, centers[i + 1])
            related = (
                contains_locus(g, li, lj) or contains_locus(g, lj, li)
            ) and li != lj
            if related:
                swapped = centers.copy()
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                report = validate_inclusion_order(BlowupSequence(g, tuple(swapped)))
                assert not report.ok


def test_rewrite_swaps_are_ambient_or_staged():
    g = point_components(1, n=3)
    res = swap_rewrite(two_block_order(g), generate_order(g, "interleaved"))
    kinds = {s.certificate.split()[0] for s in res.swaps}
    assert "ambient-transversal" in kinds
    assert any(k.startswith("transform-transversal") for k in kinds)


def test_inclusion_goes_stage_by_stage_where_the_stages_are_not_one_building_set():
    # P^3 with a line at n = 2: D_{c,{1,2}} and Delta_{12} overlap without
    # meeting transversally, so every D-locus comes first
    g = GeometryConfig(2, 3, (Component("L", 1),), Space.XD_BRACKET)
    assert not orders.stages_form_one_building_set(g)
    assert generate_order(g, "inclusion").labels() == ["D:c1:{1,2}", "D:c1:{1}", "D:c1:{2}", "Delta:{1,2}"]
    union = BlowupSequence(g, tuple(parse_center(t, 2) for t in ["D:c1:{1,2}", "Delta:{1,2}", "D:c1:{1}", "D:c1:{2}"]))
    assert validate_inclusion_order(union).ok  # the containment rule alone accepts it
    assert "D:c1:{1} comes after Delta:{1,2}" in orders.check_order(union, "inclusion")
    # a point component keeps the one-stage order
    point = point_components(1, n=2)
    assert orders.stages_form_one_building_set(point)
    assert generate_order(point, "inclusion").centers == tuple(
        sorted(nested.divisors_for(point), key=orders.inclusion_key))


def test_column_inclusion_check_equals_the_pairwise_scan():
    # every space with k <= 3 components of dims 0 and 1 (n <= 4 at k = 3, else
    # n <= 5), a polydiagonal added, on shuffles and one-swap mutants of the
    # inclusion order
    rng = random.Random(37)
    failing = 0
    for space in (Space.XD_BRACKET, Space.XD_UPPER):
        for k in range(4):
            for n in range(1, 5 if k == 3 else 6):
                comps = tuple(Component("c%d" % (c + 1), c % 2) for c in range(k))
                g = GeometryConfig(n, 2, comps, space)
                centers = list(generate_order(g, "inclusion").centers)
                if not centers:
                    continue
                if n >= 4:
                    centers.insert(rng.randrange(len(centers) + 1), Diagonal(n, (0b0011, 0b1100)))
                mutants = [centers]
                for _ in range(4):
                    mutants.append(rng.sample(centers, len(centers)))
                    swapped = centers[:]
                    i, j = rng.randrange(len(centers)), rng.randrange(len(centers))
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    mutants.append(swapped)
                for mutant in mutants:
                    seq = BlowupSequence(g, tuple(mutant))
                    report = validate_inclusion_order(seq)
                    assert report == certify.inclusion_by_pairs(seq), (g, mutant)
                    failing += not report.ok
    assert failing > 100
