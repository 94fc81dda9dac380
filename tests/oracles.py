"""Independent ground truth used across the test suite.

Nothing here imports the predicates it is used to check.  The grid model
realizes X as a finite affine grid F^d with each component a translated
coordinate subspace, so membership questions become finite enumerations and
dimensions are exact logarithms of point counts (every locus in this model
is a product of q^dim points).  The laminar oracle and the Bell recurrence
are textbook one-liners, the closed-form pair table transcribes the
expected positions family by family, the facet rescan tests maximality
one divisor at a time over the full enumeration, and the block walk decides
containment from the blocks and pins instead of the locus codes.
"""

from __future__ import annotations

import itertools
import math

from wonderful.geometry import GeometryConfig
from wonderful.labels import elements
from wonderful.loci import Center, Diagonal, DLocus, Locus, PairPosition
from wonderful.nested import NestedSet, divisors_for, enumerate_nested_sets, pair_compatible


class GridModel:
    """X = {0..q-1}^d; component c pins coordinates dim_c..d-1 to the value c.

    q must exceed the number of components so the translates stay distinct
    and the components disjoint.  Configurations are n-tuples of points.
    """

    def __init__(self, g: GeometryConfig, q: int = 3):
        assert q > g.n_components, "need one spare value per component translate"
        self.g = g
        self.q = q
        self.points = list(itertools.product(range(q), repeat=g.dim_x))

    def in_component(self, point, c: int) -> bool:
        d_c = self.g.component_dim(c)
        return all(point[j] == c for j in range(d_c, self.g.dim_x))

    def configurations(self):
        return itertools.product(self.points, repeat=self.g.n)

    def center_points(self, center: Center) -> frozenset:
        if isinstance(center, DLocus):
            idx = elements(center.subset)
            return frozenset(
                x for x in self.configurations()
                if all(self.in_component(x[i - 1], center.component) for i in idx)
            )
        blocks = [elements(b) for b in center.partition.blocks]
        return frozenset(
            x for x in self.configurations()
            if all(x[b[0] - 1] == x[i - 1] for b in blocks for i in b)
        )

    def locus_points(self, lo: Locus) -> frozenset:
        if lo.is_empty:
            return frozenset()
        keep = []
        for x in self.configurations():
            ok = True
            for mask, pin in zip(lo.blocks, lo.pins):
                idx = elements(mask)
                if any(x[i - 1] != x[idx[0] - 1] for i in idx):
                    ok = False
                    break
                if pin is not None and not self.in_component(x[idx[0] - 1], pin):
                    ok = False
                    break
            if ok:
                keep.append(x)
        return frozenset(keep)

    def dimension_of(self, pts: frozenset) -> int | None:
        """Loci in this model have exactly q^dim points."""
        if not pts:
            return None
        dim = round(math.log(len(pts), self.q))
        assert self.q ** dim == len(pts), "point set is not a grid subspace"
        return dim


def contains_by_blocks(outer: Locus, inner: Locus) -> bool:
    """inner subseteq outer, walking the blocks of both canonical forms:
    each outer block must lie inside one inner block, pinned alike when the
    outer block is pinned."""
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    for mask, pin in zip(outer.blocks, outer.pins):
        inner_block = None
        inner_pin = None
        for m2, p2 in zip(inner.blocks, inner.pins):
            if m2 & mask:
                if inner_block is not None or (mask & ~m2):
                    return False  # outer block split across inner blocks
                inner_block, inner_pin = m2, p2
        if pin is not None and inner_pin != pin:
            return False
    return True


def laminar(sets) -> bool:
    """Forest-of-subsets test: every pair disjoint or nested."""
    fs = [frozenset(s) for s in sets]
    for a, b in itertools.combinations(fs, 2):
        if a & b and not (a <= b or b <= a):
            return False
    return True


def maximal_by_rescan(g: GeometryConfig) -> tuple[NestedSet, ...]:
    """Nested sets, in enumeration order, that no single further divisor
    stays compatible with: O(faces * divisors * size) pair tests."""
    divisors = divisors_for(g)
    out = []
    for ns in enumerate_nested_sets(g):
        chosen = set(ns.divisors)
        extendable = any(
            d not in chosen and all(pair_compatible(d, e) for e in ns.divisors)
            for d in divisors
        )
        if not extendable:
            out.append(ns)
    return tuple(out)


def bell_numbers(up_to: int) -> list[int]:
    """B(0..up_to) by the binomial recurrence."""
    bell = [1]
    for n in range(up_to):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    return bell


def closed_form_pair_position(g: GeometryConfig, a: Center, b: Center) -> PairPosition:
    """The expected classification, family by family:

    * two simple diagonals: transversal iff they share at most one index;
    * two D-loci, same component: transversal iff the index sets are
      disjoint, containment iff one contains the other;
    * two D-loci, different components: disjoint iff the index sets meet;
    * D-locus against a simple diagonal: transversal iff they share at most
      one index, with containment when a point component forces I inside S.
    """
    if a == b:
        return PairPosition.CLEAN_CONTAINMENT
    if isinstance(a, DLocus) and isinstance(b, DLocus):
        inter = a.subset & b.subset
        if a.component != b.component:
            return PairPosition.DISJOINT if inter else PairPosition.TRANSVERSAL
        if inter == a.subset or inter == b.subset:
            return PairPosition.CLEAN_CONTAINMENT
        return PairPosition.TRANSVERSAL if inter == 0 else PairPosition.CLEAN_OVERLAP
    if isinstance(a, Diagonal) and isinstance(b, Diagonal):
        i_set, j_set = a.index_set, b.index_set
        inter = i_set & j_set
        if inter in (i_set, j_set):
            return PairPosition.CLEAN_CONTAINMENT
        return PairPosition.TRANSVERSAL if inter.bit_count() <= 1 else PairPosition.CLEAN_OVERLAP
    if isinstance(a, Diagonal):
        a, b = b, a
    s_set, i_set = a.subset, b.index_set
    if g.component_dim(a.component) == 0 and i_set & ~s_set == 0:
        return PairPosition.CLEAN_CONTAINMENT
    if (s_set & i_set).bit_count() <= 1:
        return PairPosition.TRANSVERSAL
    return PairPosition.CLEAN_OVERLAP
