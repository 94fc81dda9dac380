"""Subsets of the index set {1, ..., n} and their text form.

Index subsets are plain int bitmasks (bit i-1 <-> element i), so membership
and the boolean operations cost one machine word each; populations above 64
are refused outright.  A population n accompanies a mask wherever it
matters.

Text forms: "{1,3}" for a subset; "{{1,2},{4,5}}", singletons optional, for
the merged blocks a ``loci.Diagonal`` keeps.  ``split_top_level`` splits
that literal and the command line's label arrays.  ``Partition`` (every
block, singletons included) stays only for ``meet``, which the benchmark's
tracer names.  ``Frozen`` is the base of the validated value classes.
"""

from __future__ import annotations

import itertools
from enum import Enum

# Masks are Python ints and could hold any n; the limit stays because every
# listing (divisors, faces, orders, subset tables) has at least 2^n entries,
# already far past any budget at n = 64, while ``nested.f_vector`` counts
# by recursion and needs no bound at all.
MAX_POINTS = 64


class SubsetRelation(Enum):
    EQUAL = "equal"
    A_IN_B = "a-in-b"
    B_IN_A = "b-in-a"
    DISJOINT = "disjoint"
    OVERLAPPING = "overlapping"


def check_population(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_POINTS:
        raise ValueError(
            "population must be an integer between 0 and %d, got %r" % (MAX_POINTS, n)
        )
    return n


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(members) -> int:
    m = 0
    for i in members:
        if not isinstance(i, int) or not 1 <= i <= MAX_POINTS:
            raise ValueError("subset elements are integers in [1, %d], got %r" % (MAX_POINTS, i))
        m |= 1 << (i - 1)
    return m


def elements(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError("a subset mask is nonnegative, got %d" % mask)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def subset_key(mask: int) -> tuple:
    """Canonical total order on subsets: by cardinality, then lexicographic."""
    return (mask.bit_count(), elements(mask))


def format_subset(mask: int) -> str:
    return "{" + ",".join(str(i) for i in elements(mask)) + "}"


def split_top_level(text: str) -> list[str]:
    """The comma-separated items of ``text`` that lie outside every brace,
    each stripped; an empty text is one empty item."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and not depth:
            items.append(text[start:i].strip())
            start = i + 1
    if depth:
        raise ValueError("unbalanced braces in %r" % text)
    items.append(text[start:].strip())
    return items


def parse_subset(text: str) -> int:
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ValueError("subset literal must look like '{1,3}', got %r" % text)
    body = t[1:-1].strip()
    if not body:
        return 0
    try:
        return mask_of(int(p) for p in body.split(","))
    except ValueError as exc:
        raise ValueError("bad subset literal %r: %s" % (text, exc)) from None


def subsets(n: int, min_size: int = 0):
    """All subsets of {1,...,n} of at least ``min_size`` elements, canonically ordered."""
    bits = [1 << i for i in range(check_population(n))]
    for k in range(min_size, n + 1):
        yield from map(sum, itertools.combinations(bits, k))


def subset_relation(a: int, b: int) -> SubsetRelation:
    """Classify the pair: exactly one of equal / a-in-b / b-in-a / disjoint / overlapping."""
    if a == b:
        return SubsetRelation.EQUAL
    inter = a & b
    if inter == a:
        return SubsetRelation.A_IN_B
    if inter == b:
        return SubsetRelation.B_IN_A
    if inter == 0:
        return SubsetRelation.DISJOINT
    return SubsetRelation.OVERLAPPING


def join_blocks(n: int, blocks) -> list[int]:
    """The blocks of the finest partition of {1..n} in which each given mask
    lies inside one block, sorted by least element.

    A path-halving union-find over the elements; the given masks may
    overlap, and elements no mask covers stay singletons.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in blocks:
        base = find((b & -b).bit_length() - 1)
        rest = b & (b - 1)
        while rest:
            low = rest & -rest
            r = find(low.bit_length() - 1)
            if r != base:
                parent[r] = base
            rest ^= low
    groups: dict[int, int] = {}
    for i in range(n):
        r = find(i)
        groups[r] = groups.get(r, 0) | (1 << i)
    # groups first appear at their least element, so they come out sorted
    return list(groups.values())


class Frozen:
    """Base of the validated value classes.  Assigning or deleting an
    attribute raises, so a subclass's ``__init__`` stores its fields, named
    in ``_fields``, in the instance ``__dict__`` or through its slots; each
    subclass writes out its own ``__eq__`` and ``__hash__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Partition(Frozen):
    """A partition of {1,...,n}: disjoint nonempty blocks covering everything,
    singletons included, sorted by least element."""

    _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[int, ...]):
        check_population(n)
        seen = 0
        prev_low = 0
        for b in blocks:
            if b <= 0:
                raise ValueError("empty block in partition")
            if b & seen:
                raise ValueError("overlapping blocks in partition")
            low = b & -b
            if low <= prev_low:
                raise ValueError("blocks must be sorted by least element")
            prev_low = low
            seen |= b
        if seen != full_mask(n):
            raise ValueError("blocks do not cover {1..%d}" % n)
        self.__dict__.update(n=n, blocks=blocks)

    def __eq__(self, other):
        return ((self.n, self.blocks) == (other.n, other.blocks)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def meet(self, other: "Partition") -> "Partition":
        """The partition I^J whose polydiagonal is the intersection of the two
        polydiagonals.

        As equivalence relations this is the join: the transitive closure of
        the union of the two block relations.  Commutative, associative,
        idempotent; the discrete partition is the identity and the one-block
        partition absorbs.
        """
        if self.n != other.n:
            raise ValueError("meet of partitions over different populations")
        return Partition(self.n, tuple(join_blocks(self.n, self.blocks + other.blocks)))


def parse_blocks(text: str, n: int) -> tuple[int, ...]:
    """The merged blocks of "{{1,2},{3,4}}": its blocks of two or more
    points, sorted by least element.  Singletons may be omitted; a given one
    is dropped from the result but still has to lie in {1..n} and to miss
    every other block."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ValueError("partition literal must look like '{{1,2},{3}}', got %r" % text)
    masks = [parse_subset(item) for item in split_top_level(t[1:-1]) if item]
    seen = 0
    for m in masks:
        if m & ~full_mask(n):
            raise ValueError("block %s exceeds population %d" % (format_subset(m), n))
        if m & seen:
            raise ValueError("overlapping blocks")
        seen |= m
    return tuple(sorted((m for m in masks if m.bit_count() >= 2), key=lambda m: m & -m))
