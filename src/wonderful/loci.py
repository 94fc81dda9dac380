"""Centers in X^n and the canonical form of their intersections.

Two families of centers occur.  D_{c,S} is the set of configurations whose
i-th point lies on the component D_c for every i in S; a (poly)diagonal
Delta_P merges the points within each block of the partition P.  Any finite
intersection of centers is cut out by equalities between points plus
membership of points in components, so it is determined by a partition of
{1..n} with, per block, at most one component pin:

* a block pinned to two distinct components is empty (components of a
  nonsingular D are disjoint);
* blocks pinned to one and the same point component (dim 0) describe points
  equal to that point, so they merge.

After those two reductions the form is canonical: two intersections agree as
subvarieties iff their canonical forms agree, and the dimension is the exact
integer sum over blocks (dim D_c if pinned to c, else dim X).  All predicates
below (containment, transversality, the pair classification) are decided on
canonical forms; no tolerances exist anywhere.

Each canonical locus also carries one integer ``code`` listing its
constraints, one bit each:

* bit i*n + j (0-based points) is set when points i+1 and j+1 are forced
  equal -- row i of an n-by-n bit matrix is the block holding point i+1, so
  the diagonal bits are always set;
* bit n*n + (c-1)*n + i is set when point i+1 is pinned to component c.

The empty locus has code 0.  A canonical form is closed under the
implications between constraints (an equality carries a pin across its
block, and two points pinned to one point component are already merged), so
a nonempty locus satisfies a constraint exactly when its code lists it.
Hence for nonempty loci, inner lies in outer iff every constraint of outer
holds on inner, i.e. ``outer.code & ~inner.code == 0``: containment is one
mask test, and equality and hashing go through the code alone.
Intersections are memoised per geometry on the pair of codes; the memo hangs
off the ``GeometryConfig`` because merging depends on component dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .geometry import GeometryConfig
from .labels import (
    Partition,
    elements,
    format_subset,
    full_mask,
    join_blocks,
    mask_of,
    parse_partition,
    parse_subset,
)

# Distinct intersections one geometry remembers before its memo starts over:
# about 2 MB at ~500 bytes an entry (n=7).  The flag oracle on the stage-one
# set of k=2, n=4 fills about 2000 entries.
INTERSECT_MEMO_LIMIT = 1 << 12


@dataclass(frozen=True)
class DLocus:
    """D_{c,S}: the points labeled by S sit on component number c (1-based)."""

    n: int
    component: int
    subset: int

    def __post_init__(self):
        if self.subset == 0:
            raise ValueError("D_{c,S} needs a nonempty S")
        if self.subset & ~full_mask(self.n):
            raise ValueError("subset exceeds population %d" % self.n)
        if self.component < 1:
            raise ValueError("component indices are 1-based")

    def __str__(self) -> str:
        return "D:c%d:%s" % (self.component, format_subset(self.subset))


@dataclass(frozen=True)
class Diagonal:
    """The polydiagonal of a partition; simple diagonals have one merged block."""

    partition: Partition

    def __post_init__(self):
        if not self.partition.support():
            raise ValueError("a diagonal needs at least one block of size >= 2")

    @classmethod
    def simple(cls, n: int, mask: int) -> "Diagonal":
        return cls(Partition.simple(n, mask))

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def is_simple(self) -> bool:
        return len(self.partition.support()) == 1

    @property
    def index_set(self) -> int:
        """The merged index set of a simple diagonal."""
        support = self.partition.support()
        if len(support) != 1:
            raise ValueError("not a simple diagonal: %s" % self)
        return support[0]

    def __str__(self) -> str:
        support = self.partition.support()
        if len(support) == 1:
            return "Delta:" + format_subset(support[0])
        return "Delta:" + str(self.partition)


Center = DLocus | Diagonal


def parse_center(text: str, n: int) -> Center:
    """Parse center labels: "D:c1:{1,2}", "Delta:{1,2}", "Delta:{{1,2},{3,4}}"."""
    t = text.strip()
    if t.startswith("D:"):
        rest = t[2:]
        head, sep, subset_text = rest.partition(":")
        if not sep or not head.startswith("c"):
            raise ValueError("bad D-locus label %r" % text)
        try:
            comp = int(head[1:])
        except ValueError:
            raise ValueError("bad component index in %r" % text) from None
        return DLocus(n, comp, parse_subset(subset_text))
    if t.startswith("Delta:"):
        body = t[len("Delta:"):].strip()
        if body.startswith("{{"):
            return Diagonal(parse_partition(body, n))
        return Diagonal.simple(n, parse_subset(body))
    raise ValueError("center label must start with 'D:' or 'Delta:', got %r" % text)


def validate_center(g: GeometryConfig, c: Center) -> Center:
    n = c.n if isinstance(c, DLocus) else c.partition.n
    if n != g.n:
        raise ValueError("center population %d does not match configuration n=%d" % (n, g.n))
    if isinstance(c, DLocus) and not 1 <= c.component <= g.n_components:
        raise ValueError("center %s references a missing component" % c)
    return c


@dataclass(frozen=True, slots=True)
class Locus:
    """Canonical form of an intersection of centers; see the module docstring.

    ``blocks`` is a full partition (singletons included) sorted by least
    element, ``pins[k]`` the component carrying block k or None.  The empty
    locus clears both fields and sets the flag.  ``code`` determines the
    other fields given n, so equality and hashing look at n and code only.
    """

    n: int
    blocks: tuple[int, ...] = field(compare=False)
    pins: tuple[int | None, ...] = field(compare=False)
    code: int
    is_empty: bool = field(default=False, compare=False)

    @classmethod
    def empty(cls, n: int) -> "Locus":
        return cls(n, (), (), 0, True)

    def __str__(self) -> str:
        if self.is_empty:
            return "<empty>"
        parts = []
        for b, p in zip(self.blocks, self.pins):
            parts.append(format_subset(b) + ("->c%d" % p if p else ""))
        return "[" + " ".join(parts) + "]"


def make_locus(g: GeometryConfig, block_pins) -> Locus:
    """Canonicalize a list of (block mask, set-of-pins) constraints.

    The blocks must be disjoint and cover {1..n}.  Conflicting pins give the
    empty locus; blocks pinned to a common point component merge.
    """
    blocks = []
    pins = []
    for mask, pinset in block_pins:
        pinset = set(pinset)
        if len(pinset) > 1:
            return Locus.empty(g.n)
        blocks.append(mask)
        pins.append(next(iter(pinset)) if pinset else None)
    # merge blocks pinned to one point component: they all equal that point
    merged: dict[int, int] = {}
    out = []
    for mask, pin in zip(blocks, pins):
        if pin is not None and g.component_dim(pin) == 0:
            merged[pin] = merged.get(pin, 0) | mask
        else:
            out.append((mask, pin))
    out.extend((mask, pin) for pin, mask in merged.items())
    out.sort(key=lambda bp: bp[0] & -bp[0])
    n = g.n
    code = 0
    for mask, pin in out:
        rest = mask
        while rest:
            low = rest & -rest
            code |= mask << (n * (low.bit_length() - 1))
            rest ^= low
        if pin is not None:
            code |= mask << (n * (n + pin - 1))
    return Locus(n, tuple(b for b, _ in out), tuple(p for _, p in out), code)


def everything_locus(g: GeometryConfig) -> Locus:
    return make_locus(g, [(1 << i, ()) for i in range(g.n)])


@lru_cache(maxsize=1 << 16)
def center_to_locus(g: GeometryConfig, c: Center) -> Locus:
    validate_center(g, c)
    if isinstance(c, DLocus):
        bps = []
        for i in range(1, g.n + 1):
            bit = 1 << (i - 1)
            bps.append((bit, {c.component} if c.subset & bit else set()))
        return make_locus(g, bps)
    return make_locus(g, [(b, set()) for b in c.partition.blocks])


def intersect(g: GeometryConfig, a: Locus, b: Locus) -> Locus:
    """Intersection of loci: meet of the partitions, pins accumulate.

    Commutative and associative; the result is canonical (possibly empty).
    Memoised in ``g.intersections`` on the sorted pair of codes.
    """
    if a.is_empty or b.is_empty:
        return Locus.empty(g.n)
    key = (a.code, b.code) if a.code <= b.code else (b.code, a.code)
    memo = g.intersections
    out = memo.get(key)
    if out is None:
        if len(memo) >= INTERSECT_MEMO_LIMIT:
            memo.clear()
        out = memo[key] = _intersect(g, a, b)
    return out


def _intersect(g: GeometryConfig, a: Locus, b: Locus) -> Locus:
    groups = join_blocks(g.n, a.blocks + b.blocks)
    group_pins: list[set[int]] = [set() for _ in groups]
    for lo in (a, b):
        for mask, pin in zip(lo.blocks, lo.pins):
            if pin is not None:
                group_pins[next(k for k, grp in enumerate(groups) if grp & mask)].add(pin)
    return make_locus(g, zip(groups, group_pins))


def intersect_all(g: GeometryConfig, loci) -> Locus:
    out = everything_locus(g)
    for lo in loci:
        out = intersect(g, out, lo)
    return out


def dimension(g: GeometryConfig, lo: Locus) -> int | None:
    """Sum over blocks of dim D_c (pinned) or dim X (free); None when empty."""
    if lo.is_empty:
        return None
    total = 0
    for _, pin in zip(lo.blocks, lo.pins):
        total += g.dim_x if pin is None else g.component_dim(pin)
    return total


def codimension(g: GeometryConfig, lo: Locus) -> int | None:
    dim = dimension(g, lo)
    return None if dim is None else g.n * g.dim_x - dim


def contains_locus(g: GeometryConfig, outer: Locus, inner: Locus) -> bool:
    """inner subseteq outer, decided on canonical forms.

    Every equality and every pin forced by the outer locus must be forced by
    the inner one: one mask test on the codes (see the module docstring).
    """
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    return not outer.code & ~inner.code


def contains(g: GeometryConfig, outer: Center, inner: Center) -> bool:
    """Center containment: the locus of ``inner`` sits inside the locus of ``outer``."""
    return contains_locus(g, center_to_locus(g, outer), center_to_locus(g, inner))


class PairPosition(Enum):
    DISJOINT = "disjoint"
    TRANSVERSAL = "transversal"
    CLEAN_CONTAINMENT = "clean-containment"
    CLEAN_OVERLAP = "clean-overlap"
    NOT_CLEAN = "not-clean"


def pair_position(g: GeometryConfig, a: Center, b: Center) -> PairPosition:
    """Classify a pair of centers by exact codimension arithmetic.

    disjoint: empty intersection.  transversal: codim(a cap b) equals
    codim(a) + codim(b).  Containment is reported separately, and anything
    else intersecting non-additively is a clean overlap.  Within these two
    families every pair is simultaneously linearizable, so NOT_CLEAN is never
    produced; the variant only keeps the geometric trichotomy honest.
    """
    la = center_to_locus(g, a)
    lb = center_to_locus(g, b)
    li = intersect(g, la, lb)
    if li.is_empty:
        return PairPosition.DISJOINT
    if contains_locus(g, la, lb) or contains_locus(g, lb, la):
        return PairPosition.CLEAN_CONTAINMENT
    if codimension(g, li) == codimension(g, la) + codimension(g, lb):
        return PairPosition.TRANSVERSAL
    return PairPosition.CLEAN_OVERLAP


def meets_transversally(g: GeometryConfig, loci) -> bool:
    """Collection transversality: for every pair of disjoint nonempty
    sub-collections, the two intersections meet transversally (disjoint is
    allowed)."""
    loci = list(loci)
    k = len(loci)
    for amask in range(1, 1 << k):
        rest = ((1 << k) - 1) & ~amask
        sub = rest
        while sub:
            if (amask & -amask) < (sub & -sub):  # count unordered pairs once
                la = intersect_all(g, [loci[i] for i in range(k) if amask >> i & 1])
                lb = intersect_all(g, [loci[i] for i in range(k) if sub >> i & 1])
                li = intersect(g, la, lb)
                if not li.is_empty and codimension(g, li) != codimension(g, la) + codimension(g, lb):
                    return False
            sub = (sub - 1) & rest
    return True


@dataclass(frozen=True)
class SeparationCertificate:
    """Witness that two transforms become disjoint: v1 and v2 intersect
    cleanly and v1 cap v2 sits inside the blowup center z, itself strictly
    inside v1; blowing up z then separates the transforms of v1 and v2."""

    v1: Center
    v2: Center
    center: Center


def check_separation(g: GeometryConfig, cert: SeparationCertificate) -> bool:
    l1 = center_to_locus(g, cert.v1)
    l2 = center_to_locus(g, cert.v2)
    lz = center_to_locus(g, cert.center)
    li = intersect(g, l1, l2)
    return (
        pair_position(g, cert.v1, cert.v2) is not PairPosition.NOT_CLEAN
        and contains_locus(g, lz, li)
        and contains_locus(g, l1, lz)
        and lz != l1
    )


__all__ = [
    "Center",
    "DLocus",
    "Diagonal",
    "Locus",
    "PairPosition",
    "SeparationCertificate",
    "center_to_locus",
    "check_separation",
    "codimension",
    "contains",
    "contains_locus",
    "dimension",
    "everything_locus",
    "intersect",
    "intersect_all",
    "make_locus",
    "meets_transversally",
    "pair_position",
    "parse_center",
    "validate_center",
    "elements",
    "mask_of",
]
