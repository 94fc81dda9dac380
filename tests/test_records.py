"""The validated value classes behave as frozen records: equality needs the
same class and the same compared fields, the hash is that of the compared
fields' tuple, fields cannot be reassigned or deleted, ``repr`` names
every field, and pickle and copy give an equal object.  The plain records
are named tuples, hashed like their fields."""

import copy
import pickle

import pytest

from wonderful.building import BuildingSet
from wonderful.geometry import Component, GeometryConfig, Space, point_components
from wonderful.labels import Partition
from wonderful.loci import Diagonal, DLocus, Locus, center_to_locus
from wonderful.nested import NestedSet
from wonderful.orders import BlowupSequence, InclusionReport
from wonderful.symmetry import Orbit, Permutation
from wonderful.trees import DegenerationTree, Vertex, VertexKind, fiber_tree

G = point_components(1, n=2)
GEOMETRY = ("GeometryConfig(n=2, dim_x=1, components=(Component(name='c1', dim=0),),"
            " space=<Space.XD_BRACKET: 'XD_bracket'>)")
DIVISORS = (DLocus(2, 1, 0b11), Diagonal.simple(2, 0b11))
NESTED = NestedSet(G, DIVISORS)
LOCUS = center_to_locus(point_components(1, n=3), DLocus(3, 1, 0b011))

# each class: a builder of fresh equal instances, its fields, the fields
# equality and hashing read, and the repr
CASES = {
    Partition: (lambda: Partition(3, (0b011, 0b100)), ("n", "blocks"), ("n", "blocks"),
                "Partition(n=3, blocks=(3, 4))"),
    GeometryConfig: (lambda: GeometryConfig(2, 3, (Component("q", 1),), Space.XD_UPPER),
                     ("n", "dim_x", "components", "space"), ("n", "dim_x", "components", "space"),
                     "GeometryConfig(n=2, dim_x=3, components=(Component(name='q', dim=1),),"
                     " space=<Space.XD_UPPER: 'XD_upper'>)"),
    DLocus: (lambda: DLocus(3, 1, 1), ("n", "component", "subset"), ("n", "component", "subset"),
             "DLocus(n=3, component=1, subset=1)"),
    Diagonal: (lambda: Diagonal(4, (0b0011, 0b1100)), ("n", "blocks"), ("n", "blocks"),
               "Diagonal(n=4, blocks=(3, 12))"),
    Locus: (lambda: Locus(LOCUS.n, LOCUS.blocks, LOCUS.pins, LOCUS.code), ("n", "blocks", "pins", "code", "is_empty"),
            ("n", "code"), "Locus(n=3, blocks=(3, 4), pins=(1, None), code=1819, is_empty=False)"),
    BuildingSet: (lambda: BuildingSet(G, DIVISORS[:1]), ("geometry", "members"), ("geometry", "members"),
                  "BuildingSet(geometry=%s, members=(DLocus(n=2, component=1, subset=3),))" % GEOMETRY),
    NestedSet: (lambda: NestedSet(G, DIVISORS), ("geometry", "divisors"), ("geometry", "divisors"),
                "NestedSet(geometry=%s, divisors=(DLocus(n=2, component=1, subset=3), Diagonal(n=2, blocks=(3,))))"
                % GEOMETRY),
    BlowupSequence: (lambda: BlowupSequence(G, DIVISORS[1:]), ("geometry", "centers"), ("geometry", "centers"),
                     "BlowupSequence(geometry=%s, centers=(Diagonal(n=2, blocks=(3,)),))" % GEOMETRY),
    Permutation: (lambda: Permutation((2, 1, 3)), ("images",), ("images",), "Permutation(images=(2, 1, 3))"),
    DegenerationTree: (lambda: fiber_tree(NESTED), ("geometry", "vertices", "parents", "markings"),
                       ("geometry", "vertices", "parents", "markings"),
                       "DegenerationTree(geometry=%s, vertices=(Vertex(vid=0, kind=<VertexKind.ROOT: 'Root'>,"
                       " component=None, depth=None), Vertex(vid=1, kind=<VertexKind.DLEVEL: 'DLevel'>, component=1,"
                       " depth=1), Vertex(vid=2, kind=<VertexKind.SCREEN: 'Screen'>, component=None, depth=None)),"
                       " parents=(None, 0, 1), markings=(2, 2))" % GEOMETRY),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_validated_class_is_a_frozen_record(cls):
    build, fields, compared, text = CASES[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in compared))
    assert a != tuple(getattr(a, f) for f in compared)
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a and copy.copy(a) == a and copy.deepcopy(a) == a
    for f in fields:
        before = getattr(a, f)
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is before


def test_a_locus_compares_n_and_code_only():
    # the code fixes the other fields given n, so they take no part
    twin = Locus(LOCUS.n, (), (), LOCUS.code, True)
    assert twin == LOCUS and hash(twin) == hash(LOCUS)
    assert Locus(LOCUS.n + 1, LOCUS.blocks, LOCUS.pins, LOCUS.code) != LOCUS


@pytest.mark.parametrize("pair", [
    (Partition(2, (0b11,)), Diagonal(2, (0b11,))),
    (BuildingSet(G, DIVISORS), BlowupSequence(G, DIVISORS)),
    (NestedSet(G, DIVISORS), BuildingSet(G, DIVISORS)),
], ids=lambda pair: "-".join(type(x).__name__ for x in pair))
def test_two_classes_with_the_same_fields_differ(pair):
    a, b = pair
    assert hash(a) == hash(b)
    assert a != b and b != a and len({a, b}) == 2


def test_plain_records_hash_like_their_fields():
    for record in (Component("c1", 0), Vertex(1, VertexKind.DLEVEL, 1, 1), InclusionReport(True),
                   Orbit(DIVISORS[0], 2, 1)):
        assert hash(record) == hash(tuple(record))
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
