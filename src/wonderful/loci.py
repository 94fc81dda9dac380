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
A miss merges canonical blocks: starting from the blocks and pins of one
locus, each block of the other that has two points or a pin is OR'd with the
blocks it meets.  Two pins on one block give the empty locus, a
point-component pin that arrives this way also takes in the block already
pinned to that point, and the code is built once at the end.

Every pair of simple centers (D-loci and simple diagonals) is simultaneously
linearizable, so ``pair_position`` reads their position off the index sets
and the components, with r = dim X - dim D_c:

* D_{c,S}, D_{c',T} with c != c': disjoint iff S and T meet, else
  transversal;
* D_{c,S}, D_{c,T}: containment iff one set contains the other, transversal
  iff they are disjoint, else a clean overlap (codim r|S cup T| against
  r(|S| + |T|));
* Delta_I, Delta_J: containment iff one set contains the other, transversal
  iff |I cap J| <= 1, else a clean overlap;
* D_{c,S}, Delta_I: containment iff dim D_c = 0 and I lies in S (the points
  of I then all equal the point D_c), transversal iff |S cap I| <= 1, else a
  clean overlap.

The locus route (intersect, then compare codimensions) stays as the oracle
of these rules and still classifies every pair involving a polydiagonal.
``pair_position`` validates both centers and hands them to ``_position``,
which holds the rules and trusts centers already validated against the
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

from .geometry import GeometryConfig
from .labels import check_population, format_subset, full_mask, parse_blocks, parse_subset

# Distinct intersections one geometry remembers before its memo starts over:
# about 2 MB at ~500 bytes an entry (n=7).  The flag oracle on the stage-one
# set of k=2, n=4 fills about 1100 entries (450 random and nested
# sub-collections of up to 8 members).
INTERSECT_MEMO_LIMIT = 1 << 12

_NO_MERGED_BLOCK = "a diagonal needs at least one block of size >= 2"


@dataclass(frozen=True)
class DLocus:
    """D_{c,S}: the points labeled by S sit on component number c (1-based).

    Also the boundary divisor covering D_{c,S}; see ``nested``."""

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

    @cached_property
    def label(self) -> str:
        return "D:c%d:%s" % (self.component, format_subset(self.subset))

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Diagonal:
    """The polydiagonal Delta_P, stored as the merged blocks of P: the
    blocks of size >= 2, sorted by least element.  Points no block covers
    stay apart.  Simple diagonals have one block.

    A simple diagonal Delta_I also names the boundary divisor covering it
    (see ``nested``), so it reads like a D-locus: ``subset`` is I and
    ``component`` is 0, the code the pairwise criterion reads for a
    diagonal.  Neither is a field.  ``subset`` is set once, at
    construction; a polydiagonal covers no divisor and has ``subset`` 0.
    Every diagonal, simple or not, passes the checks of ``__post_init__``."""

    n: int
    blocks: tuple[int, ...]
    component = 0  # not a field

    # subset is stored on the instance rather than computed by a descriptor:
    # the pairwise criterion reads it for every pair of divisors
    def __post_init__(self):
        n, blocks = check_population(self.n), self.blocks
        if not blocks:
            raise ValueError(_NO_MERGED_BLOCK)
        seen = low = 0
        for b in blocks:
            if b < 0:
                raise ValueError("block masks are nonnegative, got %d" % b)
            if b.bit_count() < 2:
                if len(blocks) == 1:
                    raise ValueError(_NO_MERGED_BLOCK)
                raise ValueError("diagonal block %s has fewer than 2 points" % format_subset(b))
            if b >> n:
                raise ValueError("block %s exceeds population %d" % (format_subset(b), n))
            if b & seen:
                raise ValueError("overlapping blocks")
            if b & -b <= low:
                raise ValueError("blocks must be sorted by least element")
            low = b & -b
            seen |= b
        object.__setattr__(self, "subset", blocks[0] if len(blocks) == 1 else 0)

    @classmethod
    def simple(cls, n: int, mask: int) -> "Diagonal":
        """Delta_I for I = mask."""
        return cls(n, (mask,))

    @property
    def is_simple(self) -> bool:
        return bool(self.subset)

    @cached_property
    def label(self) -> str:
        if self.is_simple:
            return "Delta:" + format_subset(self.subset)
        return "Delta:{" + ",".join(map(format_subset, self.blocks)) + "}"

    def __str__(self) -> str:
        return self.label


Center = DLocus | Diagonal


def parse_center(text: str, n: int) -> Center:
    """Parse center labels: "D:c1:{1,2}", "Delta:{1,2}", "Delta:{{1,2},{3,4}}";
    ``labels.parse_blocks`` reads the last straight into the merged blocks,
    so "Delta:{{1,2},{3}}" is Delta:{1,2}."""
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
            return Diagonal(n, parse_blocks(body, n))
        return Diagonal.simple(n, parse_subset(body))
    raise ValueError("center label must start with 'D:' or 'Delta:', got %r" % text)


def validate_center(g: GeometryConfig, c: Center) -> Center:
    if c.n != g.n:
        raise ValueError("center population %d does not match configuration n=%d" % (c.n, g.n))
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
    return _locus_of(g.n, out)


def _locus_of(n: int, block_pins) -> Locus:
    """The locus of canonical (block, pin) pairs, sorted by least element;
    a 0 block is a slot merged away and is dropped.  Builds the code (see
    the module docstring) once."""
    code = 0
    out_blocks, out_pins = [], []
    for m, p in block_pins:
        if m:
            out_blocks.append(m)
            out_pins.append(p)
            rest = m
            while rest:
                low = rest & -rest
                code |= m << (n * (low.bit_length() - 1))
                rest ^= low
            if p is not None:
                code |= m << (n * (n + p - 1))
    return Locus(n, tuple(out_blocks), tuple(out_pins), code)


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
    apart = full_mask(g.n) & ~sum(c.blocks)  # the blocks are disjoint: their sum is their union
    return make_locus(g, [(b, ()) for b in c.blocks] + [(1 << i, ()) for i in range(g.n) if apart >> i & 1])


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
    """Fold the canonical blocks of b into those of a (see the module
    docstring).  A merged block takes the slot of the first block it meets,
    or of the pulled-in block when that comes earlier, so the blocks stay
    sorted by least element; merged-away slots are cleared and dropped at
    the end, where the code is built once."""
    blocks, pins = list(a.blocks), list(a.pins)
    for bb, pb in zip(b.blocks, b.pins):
        if pb is None and not bb & (bb - 1):
            continue  # a free singleton constrains nothing
        first, merged, pin = -1, bb, None
        for k, m in enumerate(blocks):
            if m & bb:
                p = pins[k]
                if p is not None:
                    if pin is None:
                        pin = p
                    elif pin != p:
                        return Locus.empty(g.n)
                merged |= m
                if first < 0:
                    first = k
                else:
                    blocks[k], pins[k] = 0, None
        if pb is not None:
            if pin is None:
                pin = pb
                if g.component_dim(pb) == 0:
                    for k, p in enumerate(pins):
                        if p == pb:
                            merged |= blocks[k]
                            blocks[k], pins[k] = 0, None
                            if k < first:
                                blocks[first], first = 0, k
                            break
            elif pin != pb:
                return Locus.empty(g.n)
        blocks[first], pins[first] = merged, pin
    return _locus_of(g.n, zip(blocks, pins))


def intersect_all(g: GeometryConfig, loci) -> Locus:
    """Fold ``intersect`` over the loci from the first one; the empty list
    gives the whole space."""
    loci = iter(loci)
    out = next(loci, None)
    if out is None:
        return everything_locus(g)
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


def pair_position(g: GeometryConfig, a: Center, b: Center) -> PairPosition:
    """Classify a pair of centers: disjoint, transversal (codim(a cap b)
    equals codim(a) + codim(b)), containment, or else a clean overlap.

    Two simple centers are classified in closed form from their components
    and index sets (see the module docstring); a polydiagonal takes the
    locus route, ``_pair_position_by_loci``, which is also the oracle the
    closed form is checked against on every pair of simple centers.
    """
    validate_center(g, a)
    validate_center(g, b)
    return _position(g, a, b)


def _position(g: GeometryConfig, a: Center, b: Center) -> PairPosition:
    """``pair_position`` without its checks: it trusts centers already
    validated against ``g``, such as those of a ``BlowupSequence``."""
    s, t = a.subset, b.subset
    if not (s and t):  # a polydiagonal
        return _pair_position_by_loci(g, a, b)
    ca, cb = a.component, b.component
    inter = s & t
    if ca and cb and ca != cb:
        return PairPosition.DISJOINT if inter else PairPosition.TRANSVERSAL
    if ca == cb:
        if inter == s or inter == t:
            return PairPosition.CLEAN_CONTAINMENT
        transversal = not inter if ca else inter.bit_count() <= 1
    else:  # D_{c,S} against Delta_I
        c, i_set = (ca, t) if ca else (cb, s)
        if inter == i_set and g.component_dim(c) == 0:
            return PairPosition.CLEAN_CONTAINMENT
        transversal = inter.bit_count() <= 1
    return PairPosition.TRANSVERSAL if transversal else PairPosition.CLEAN_OVERLAP


def _pair_position_by_loci(g: GeometryConfig, a: Center, b: Center) -> PairPosition:
    """``pair_position`` by exact codimension arithmetic on canonical loci.

    Containment is reported separately, and anything else intersecting
    non-additively is a clean overlap: within these two families every pair
    is simultaneously linearizable, so every intersection is clean.
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
    return contains_locus(g, lz, li) and contains_locus(g, l1, lz) and lz != l1


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
]
