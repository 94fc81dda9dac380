import pytest

from wonderful.geometry import Component, GeometryConfig, Space, point_components
from wonderful.loci import Diagonal, DLocus
from wonderful.orders import (
    BlowupSequence,
    generate_order,
    swap_certificate,
    swap_rewrite,
    two_block_order,
    validate_building_set_order,
    validate_inclusion_order,
)


def configs_battery():
    out = []
    for n in (2, 3, 4, 5):
        for comps in ([0], [0, 0], [0, 0, 0], [1], [1, 0]):
            dim_x = 2 if any(comps) else 1
            out.append(
                GeometryConfig(
                    n, dim_x,
                    tuple(Component("c%d" % (i + 1), d) for i, d in enumerate(comps)),
                    Space.XD_BRACKET,
                )
            )
    return out


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


def test_scheme_space_mismatch():
    g_fm = GeometryConfig(3, 2, (), Space.FM)
    with pytest.raises(ValueError):
        generate_order(g_fm, "reshuffled")
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


def test_generated_inclusion_orders_always_validate():
    for g in configs_battery():
        assert validate_inclusion_order(generate_order(g, "inclusion")).ok


def test_reshuffled_passes_building_set_order():
    for n in (2, 3, 4):
        for k in (1, 2):
            g = point_components(k, n=n, space=Space.XD_UPPER)
            assert validate_building_set_order(generate_order(g, "reshuffled"))


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
    for n in (2, 3, 4):
        for k in (1, 2):
            g = point_components(k, n=n)
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
