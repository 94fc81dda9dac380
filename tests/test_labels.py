import itertools

import pytest
from hypothesis import given, strategies as st

from wonderful.labels import (
    Partition,
    SubsetRelation,
    elements,
    format_partition,
    format_subset,
    mask_of,
    parse_partition,
    parse_subset,
    subset_key,
    subset_relation,
    subsets,
)
from wonderful.certify import partitions_of


def test_meet_forces_transitive_closure():
    a = Partition.from_blocks(3, [[1, 2]])
    b = Partition.from_blocks(3, [[2, 3]])
    assert a.meet(b) == Partition.from_blocks(3, [[1, 2, 3]])


def test_meet_idempotent_on_samples():
    for p in partitions_of(4):
        assert p.meet(p) == p


def test_meet_disjoint_blocks_commute():
    a = Partition.from_blocks(4, [[1, 2]])
    b = Partition.from_blocks(4, [[3, 4]])
    expected = Partition.from_blocks(4, [[1, 2], [3, 4]])
    assert a.meet(b) == expected
    assert b.meet(a) == expected


def test_meet_identity_and_absorbing():
    for p in partitions_of(4):
        assert p.meet(Partition.discrete(4)) == p
        assert p.meet(Partition.one_block(4)) == Partition.one_block(4)


def test_meet_commutative_associative_exhaustive_small():
    parts = list(partitions_of(3))
    for a, b in itertools.product(parts, repeat=2):
        assert a.meet(b) == b.meet(a)
    for a, b, c in itertools.product(parts, repeat=3):
        assert a.meet(b).meet(c) == a.meet(b.meet(c))


@st.composite
def random_partition(draw, n):
    labels = [draw(st.integers(0, n - 1)) for _ in range(n)]
    blocks = {}
    for i, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(i)
    return Partition.from_blocks(n, blocks.values())


@given(random_partition(n=10), random_partition(n=10), random_partition(n=10))
def test_meet_laws_random_n10(a, b, c):
    assert a.meet(b) == b.meet(a)
    assert a.meet(b).meet(c) == a.meet(b.meet(c))
    assert a.meet(a) == a


def test_meet_population_mismatch():
    with pytest.raises(ValueError):
        Partition.discrete(3).meet(Partition.discrete(4))


def test_subset_relation_classification():
    assert subset_relation(mask_of([1]), mask_of([1, 2])) is SubsetRelation.A_IN_B
    assert subset_relation(mask_of([1, 2]), mask_of([3])) is SubsetRelation.DISJOINT
    assert subset_relation(mask_of([1, 2]), mask_of([2, 3])) is SubsetRelation.OVERLAPPING
    assert subset_relation(mask_of([2]), mask_of([2])) is SubsetRelation.EQUAL
    assert subset_relation(mask_of([1, 2]), mask_of([2])) is SubsetRelation.B_IN_A


def test_subset_relation_matches_set_arithmetic_exhaustive():
    for a in subsets(4):
        for b in subsets(4):
            sa, sb = set(elements(a)), set(elements(b))
            if sa == sb:
                want = SubsetRelation.EQUAL
            elif sa < sb:
                want = SubsetRelation.A_IN_B
            elif sb < sa:
                want = SubsetRelation.B_IN_A
            elif not sa & sb:
                want = SubsetRelation.DISJOINT
            else:
                want = SubsetRelation.OVERLAPPING
            assert subset_relation(a, b) is want


def test_canonical_subset_order():
    ordered = list(subsets(3))
    assert ordered == sorted(ordered, key=subset_key)
    assert [format_subset(m) for m in subsets(3, min_size=2)] == [
        "{1,2}", "{1,3}", "{2,3}", "{1,2,3}"
    ]


def test_subset_text_round_trip():
    for m in subsets(5):
        assert parse_subset(format_subset(m)) == m
    assert parse_subset(" {2,4} ") == mask_of([2, 4])
    with pytest.raises(ValueError):
        parse_subset("1,2")
    with pytest.raises(ValueError):
        format_subset(-1)


def test_partition_text_round_trip_omits_singletons():
    p = Partition.from_blocks(5, [[1, 3], [2]])
    assert format_partition(p) == "{{1,3}}"
    assert parse_partition("{{1,3}}", 5) == p
    assert format_partition(Partition.discrete(3)) == "{}"
    assert parse_partition("{}", 3) == Partition.discrete(3)


def test_population_bound_rejected():
    with pytest.raises(ValueError):
        Partition.discrete(65)
    assert elements(mask_of([64])) == (64,)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, (0b011, 0b110))  # overlap
    with pytest.raises(ValueError):
        Partition(3, (0b001,))  # no cover
    with pytest.raises(ValueError):
        Partition(2, (0b10, 0b01))  # not sorted by least element
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [-3])  # a negative mask
