"""Subsets and partitions of the index set {1, ..., n}.

Index subsets are plain int bitmasks (bit i-1 <-> element i), so membership
and the boolean operations cost one machine word each; populations above 64
are refused outright.  A population n accompanies a mask wherever it
matters.  Partitions keep every block, singletons included, as a tuple of
masks sorted by least element; they are what partition literals parse to
and what ``Partition.meet`` joins.  A ``loci.Diagonal`` keeps only the
merged blocks, the ``support()`` of its partition.

Text forms: "{1,3}" for subsets and "{{1,2},{4,5}}" for partitions.
Singleton blocks may be omitted on input and are omitted on output, so the
discrete partition prints as "{}".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def subsets(n: int, min_size: int = 0, max_size: int | None = None):
    """All subsets of {1,...,n} with size in the given range, canonically ordered."""
    check_population(n)
    top = n if max_size is None else min(max_size, n)
    for k in range(min_size, top + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            yield mask_of(combo)


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


@dataclass(frozen=True)
class Partition:
    """A partition of {1,...,n}: disjoint nonempty blocks covering everything.

    Canonical form keeps singleton blocks and sorts blocks by least element;
    support() is the view listing only blocks of size >= 2.
    """

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        check_population(self.n)
        seen = 0
        prev_low = 0
        for b in self.blocks:
            if b <= 0:
                raise ValueError("empty block in partition")
            if b & seen:
                raise ValueError("overlapping blocks in partition")
            low = b & -b
            if low <= prev_low:
                raise ValueError("blocks must be sorted by least element")
            prev_low = low
            seen |= b
        if seen != full_mask(self.n):
            raise ValueError("blocks do not cover {1..%d}" % self.n)

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def one_block(cls, n: int) -> "Partition":
        return cls(n, (full_mask(n),) if n else ())

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        """Build from the given blocks (masks or member iterables); uncovered
        elements become singletons."""
        masks = []
        for b in blocks:
            m = b if isinstance(b, int) else mask_of(b)
            if m:
                masks.append(m)
        seen = 0
        for m in masks:
            if m & ~full_mask(n):
                raise ValueError(
                    "block %s exceeds population %d" % (format_subset(m), n)
                )
            if m & seen:
                raise ValueError("overlapping blocks")
            seen |= m
        masks.extend(1 << i for i in range(n) if not seen & (1 << i))
        masks.sort(key=lambda m: m & -m)
        return cls(n, tuple(masks))

    def support(self) -> tuple[int, ...]:
        return tuple(b for b in self.blocks if b.bit_count() >= 2)

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

    def __str__(self) -> str:
        return format_partition(self)


def format_partition(p: Partition) -> str:
    return "{" + ",".join(format_subset(b) for b in p.support()) + "}"


def parse_partition(text: str, n: int) -> Partition:
    """Parse "{{1,2},{3,4}}"; omitted singletons are filled in."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ValueError("partition literal must look like '{{1,2},{3}}', got %r" % text)
    body = t[1:-1].strip()
    blocks = []
    depth = 0
    token = ""
    for ch in body:
        if ch == "{":
            depth += 1
            token += ch
        elif ch == "}":
            depth -= 1
            token += ch
            if depth < 0:
                raise ValueError("unbalanced braces in %r" % text)
        elif ch == "," and depth == 0:
            if token.strip():
                blocks.append(parse_subset(token))
            token = ""
        else:
            token += ch
    if depth != 0:
        raise ValueError("unbalanced braces in %r" % text)
    if token.strip():
        blocks.append(parse_subset(token))
    return Partition.from_blocks(n, blocks)
