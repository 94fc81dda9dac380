"""Building sets for the two-stage construction, G-factors, and the
flag characterization of nested sets.

Stage one lives in X^n and consists of all the D_{c,S}; stage two consists
of the proper transforms of the simple diagonals inside the blowup along
stage one.  Transforms of polydiagonals intersect in the transform of the
meet of their partitions, and containment and codimension match the ambient
diagonals, so both stages share the one locus calculus; the stage tag
records which space the members live in.  (With no components the stage-two
family is just the Fulton-MacPherson diagonal building set in X^n itself.)

A collection G is a building set when (1) its members pairwise intersect
cleanly and (2) for every sub-collection with nonempty intersection W, the
G-factors of W (the minimal members containing W) meet transversally and cut
out exactly W.  A sub-collection C of G is nested when some flag
W_1 <= ... <= W_k of nonempty intersections of members has every element of
C among the G-factors of some W_i.  The flag definition is implemented here
as a bounded search and kept strictly separate from the closed-form pairwise
criterion; the two are cross-validated in the test suite, never reconciled
silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .geometry import GeometryConfig, Space, extended_config
from .labels import subset_key, subsets
from .loci import (
    Center,
    Diagonal,
    DLocus,
    Locus,
    center_to_locus,
    contains_locus,
    intersect,
    intersect_all,
    meets_transversally,
    validate_center,
)


class Stage(Enum):
    AMBIENT = "ambient"
    TRANSFORM = "second-stage"


@dataclass(frozen=True)
class BuildingSet:
    geometry: GeometryConfig
    members: tuple[Center, ...]
    stage: Stage

    def __post_init__(self):
        seen = set()
        for m in self.members:
            validate_center(self.geometry, m)
            if m in seen:
                raise ValueError("duplicate building-set member %s" % m)
            seen.add(m)
            if self.stage is Stage.TRANSFORM and not isinstance(m, Diagonal):
                raise ValueError("second-stage members are diagonal transforms only")

    def member_loci(self) -> tuple[Locus, ...]:
        return self._table.loci

    @cached_property
    def _table(self) -> "_MemberTable":
        return _MemberTable(self.geometry, self.members)


class _MemberTable:
    """What the queries on a collection of members look up.  A building set
    builds its table on first use and keeps it, so the table is found
    without hashing the members.

    ``loci[k]`` is the locus of member k and ``index`` maps each member to k;
    ``below[k]`` is the bitmask of the members strictly contained in member
    k; ``factors`` maps a locus code to the bitmask of its G-factors.
    """

    def __init__(self, g: GeometryConfig, members):
        self.geometry = g
        self.loci = tuple(center_to_locus(g, m) for m in members)
        self.index = {m: k for k, m in enumerate(members)}
        self.below = tuple(
            sum(
                1 << j
                for j, mj in enumerate(self.loci)
                if j != k and contains_locus(g, mk, mj) and mk != mj
            )
            for k, mk in enumerate(self.loci)
        )
        self.factors: dict[int, int] = {}

    def indices(self, sub) -> list[int]:
        """Member indices of ``sub``; a non-member is an error."""
        out = []
        for c in sub:
            k = self.index.get(c)
            if k is None:
                raise ValueError("%s is not a member of the building set" % c)
            out.append(k)
        return out

    def factor_mask(self, lo: Locus) -> int:
        """The G-factors of a nonempty locus: the members containing it with
        no other member containing it strictly inside them."""
        out = self.factors.get(lo.code)
        if out is None:
            g = self.geometry
            containing = 0
            for k, ml in enumerate(self.loci):
                if contains_locus(g, ml, lo):
                    containing |= 1 << k
            out = 0
            for k, below in enumerate(self.below):
                if containing >> k & 1 and not below & containing:
                    out |= 1 << k
            self.factors[lo.code] = out
        return out


def building_set_for(g: GeometryConfig) -> tuple[BuildingSet, BuildingSet]:
    """The two stages of the construction for the configured space.

    First stage: every D_{c,S} with S nonempty (empty for FM).  Second
    stage: the transforms of every simple diagonal with |I| >= 2 (empty for
    the space where points may collide).
    """
    first_members: list[Center] = []
    if g.space is not Space.FM:
        for c in range(1, g.n_components + 1):
            for mask in subsets(g.n, min_size=1):
                first_members.append(DLocus(g.n, c, mask))
    second_members: list[Center] = []
    if g.space is not Space.XD_UPPER:
        for mask in subsets(g.n, min_size=2):
            second_members.append(Diagonal.simple(g.n, mask))
    return (
        BuildingSet(g, tuple(first_members), Stage.AMBIENT),
        BuildingSet(g, tuple(second_members), Stage.TRANSFORM),
    )


def inclusion_key(c: Center) -> tuple:
    """Sort key realizing an inclusion order: bigger index sets blow up first,
    D-loci before diagonals at equal size (a point component makes D_{c,S} a
    subvariety of Delta_I whenever I is contained in S)."""
    if isinstance(c, DLocus):
        size = c.subset.bit_count()
        return (-size, 0, subset_key(c.subset)[1], c.component)
    support = c.partition.support()
    size = max(b.bit_count() for b in support)
    return (-size, 1, c.partition.sort_key(), 0)


def universal_family_centers(g: GeometryConfig, *, include_base_center: bool = False) -> tuple[Center, ...]:
    """Blowup centers of the universal family, as labels over population n+1.

    For the space with colliding points the centers are D_{c,T+} with T a
    nonempty subset of {1..n} (T+ adjoins the moving point n+1); the locus
    D_{c,{n+1}} is by default only a boundary-divisor label and becomes a
    trailing center when ``include_base_center`` is set.  For the space of
    distinct points the D-group takes every S including the empty set, and
    the diagonal group takes every Delta_{I+} with |I| >= 1, the singleton
    entries being exactly the sections sigma_i; each group is arrayed in an
    inclusion order.
    """
    gp = extended_config(g)
    moving = 1 << g.n
    d_group: list[Center] = []
    delta_group: list[Center] = []
    if g.space is Space.XD_UPPER:
        for c in range(1, g.n_components + 1):
            for mask in subsets(g.n, min_size=1):
                d_group.append(DLocus(gp.n, c, mask | moving))
            if include_base_center:
                d_group.append(DLocus(gp.n, c, moving))
    elif g.space is Space.XD_BRACKET:
        for c in range(1, g.n_components + 1):
            for mask in subsets(g.n, min_size=0):
                d_group.append(DLocus(gp.n, c, mask | moving))
        for mask in subsets(g.n, min_size=1):
            delta_group.append(Diagonal.simple(gp.n, mask | moving))
    else:
        for mask in subsets(g.n, min_size=1):
            delta_group.append(Diagonal.simple(gp.n, mask | moving))
    d_group.sort(key=inclusion_key)
    delta_group.sort(key=inclusion_key)
    return tuple(d_group + delta_group)


def section_labels(g: GeometryConfig) -> tuple[Diagonal, ...]:
    """The section of point i is the diagonal merging i with the moving point."""
    gp = extended_config(g)
    moving = 1 << g.n
    return tuple(Diagonal.simple(gp.n, (1 << (i - 1)) | moving) for i in range(1, g.n + 1))


def factors_of_locus(bs: BuildingSet, lo: Locus) -> tuple[Center, ...]:
    """G-factors of a nonempty locus: the minimal members containing it."""
    if lo.is_empty:
        raise ValueError("G-factors are only defined for nonempty intersections")
    mask = bs._table.factor_mask(lo)
    return tuple(m for k, m in enumerate(bs.members) if mask >> k & 1)


def g_factors(bs: BuildingSet, sub) -> tuple[Center, ...]:
    """G-factors of the intersection of ``sub``: members V containing the
    intersection with no other member between them.  For the diagonal stage
    the factors of a polydiagonal transform are exactly the simple diagonals
    of its blocks of size >= 2."""
    table = bs._table
    g = bs.geometry
    lo = intersect_all(g, [table.loci[k] for k in table.indices(sub)])
    if lo.is_empty:
        raise ValueError("the collection has empty intersection")
    return factors_of_locus(bs, lo)


def _intersection_closure(g: GeometryConfig, loci) -> list[Locus]:
    """The distinct nonempty intersections of sub-collections of ``loci``, in
    discovery order: the loci themselves, then breadth-first, each new
    intersection met with every given locus."""
    loci = list(loci)
    closure: list[Locus] = []
    seen: set[int] = set()  # codes
    frontier: list[Locus] = []
    for lo in loci:
        if not lo.is_empty and lo.code not in seen:
            seen.add(lo.code)
            closure.append(lo)
            frontier.append(lo)
    while frontier:
        nxt = []
        for lo in frontier:
            for b in loci:
                li = intersect(g, lo, b)
                if not li.is_empty and li.code not in seen:
                    seen.add(li.code)
                    closure.append(li)
                    nxt.append(li)
        frontier = nxt
    return closure


def is_nested_flag_oracle(bs: BuildingSet, sub) -> bool:
    """Decide nestedness by searching for a witnessing flag.

    Candidate flag entries are the distinct nonempty intersections of
    sub-collections of ``sub``.  Nothing is lost by this bound: replacing a
    witnessing W_i by the intersection of the sub-elements containing W_i
    keeps the flag ordered and keeps every factor a factor, since a strictly
    smaller member squeezing between the new W_i and a factor would have done
    so for the old W_i already.
    """
    g = bs.geometry
    table = bs._table
    sub = table.indices(dict.fromkeys(sub))
    if not sub:
        return True
    candidates = _intersection_closure(g, [table.loci[k] for k in sub])

    want = (1 << len(sub)) - 1
    cover = []
    for lo in candidates:
        factors = table.factor_mask(lo)
        cover.append(sum(1 << i for i, k in enumerate(sub) if factors >> k & 1))
    if len(candidates) == 0:
        return False
    reachable = 0
    for m in cover:
        reachable |= m
    if reachable != want:
        return False

    # flags climb from smaller loci to bigger ones
    above = [
        [j for j in range(len(candidates))
         if j != i and contains_locus(g, candidates[j], candidates[i])]
        for i in range(len(candidates))
    ]
    visited: set[tuple[int, int]] = set()

    def climb(i: int, covered: int) -> bool:
        covered |= cover[i]
        if covered == want:
            return True
        if (i, covered) in visited:
            return False
        visited.add((i, covered))
        return any(climb(j, covered) for j in above[i])

    return any(climb(i, 0) for i in range(len(candidates)))


def is_building_set(g: GeometryConfig, members) -> bool:
    """Check the two building-set conditions for the collection itself.

    Condition (2) quantifies over sub-collections with nonempty intersection;
    the distinct intersections are generated by closing the member loci under
    pairwise intersection, which is the same family.
    """
    members = list(members)
    table = _MemberTable(g, members)
    loci = table.loci
    for w in _intersection_closure(g, loci):
        factors = table.factor_mask(w)
        factor_loci = [lo for k, lo in enumerate(loci) if factors >> k & 1]
        if intersect_all(g, factor_loci) != w:
            return False
        if not meets_transversally(g, factor_loci):
            return False
    return True


def is_building_set_prefix(bs: BuildingSet, k: int) -> bool:
    """Do the first k members satisfy both building-set conditions?"""
    if not 1 <= k <= len(bs.members):
        raise ValueError("prefix length %d out of range" % k)
    return is_building_set(bs.geometry, bs.members[:k])


__all__ = [
    "BuildingSet",
    "Stage",
    "building_set_for",
    "factors_of_locus",
    "g_factors",
    "inclusion_key",
    "is_building_set",
    "is_building_set_prefix",
    "is_nested_flag_oracle",
    "section_labels",
    "universal_family_centers",
]
