"""Independent ground truth used across the test suite.

Nothing here imports the predicates it is used to check.  The grid model
realizes X as a finite affine grid F^d with each component a translated
coordinate subspace, so membership questions become finite enumerations and
dimensions are exact logarithms of point counts (every locus in this model
is a product of q^dim points).  The laminar oracle and the Bell recurrence
are textbook one-liners, the facet rescan tests maximality one divisor at a
time over the full enumeration, the block walk decides containment from the
blocks and pins instead of the locus codes, and the orbit brute force
applies all n! relabelings to each representative.  The relation rule is
the pairwise nestedness criterion as first written, one subset relation per
pair.  The building-order rule checks each prefix of an order as a whole
collection, one ``is_building_set`` per prefix.
"""

from __future__ import annotations

import itertools
import math

from wonderful.building import is_building_set
from wonderful.geometry import GeometryConfig
from wonderful.labels import SubsetRelation, elements, subset_relation
from wonderful.loci import Center, Diagonal, DLocus, Locus
from wonderful.nested import (
    NestedSet,
    divisor_sort_key,
    divisors_for,
    enumerate_nested_sets,
    pair_compatible,
)
from wonderful.symmetry import Orbit, act, all_permutations


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


def pair_compatible_by_relation(a: Center, b: Center) -> bool:
    """The pairwise criterion by the subset relation of the two index sets.
    Equal index sets classify as EQUAL, which the D-D and Delta-Delta
    branches reject, so a divisor fails against itself here."""
    if isinstance(a, DLocus) and isinstance(b, DLocus):
        rel = subset_relation(a.subset, b.subset)
        if a.component != b.component:
            return rel is SubsetRelation.DISJOINT
        return rel in (SubsetRelation.A_IN_B, SubsetRelation.B_IN_A)
    if isinstance(a, Diagonal) and isinstance(b, Diagonal):
        return subset_relation(a.subset, b.subset) in (
            SubsetRelation.DISJOINT,
            SubsetRelation.A_IN_B,
            SubsetRelation.B_IN_A,
        )
    if isinstance(a, Diagonal):
        a, b = b, a
    rel = subset_relation(a.subset, b.subset)  # a = D-divisor, b = diagonal
    return rel in (SubsetRelation.DISJOINT, SubsetRelation.B_IN_A, SubsetRelation.EQUAL)


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


def orbits_by_brute_force(g: GeometryConfig, kind: str, size: int | None = None) -> tuple[Orbit, ...]:
    """The orbits of the divisors, or of the nested sets of one size: each item
    not yet seen, in canonical order, is moved by all n! permutations."""
    if kind == "divisors":
        items, key = divisors_for(g), divisor_sort_key
    else:
        items = [ns for ns in enumerate_nested_sets(g, max_size=size) if len(ns) == size]
        key = lambda ns: tuple(divisor_sort_key(d) for d in ns.divisors)  # noqa: E731
    items = sorted(items, key=key)
    index = {key(x): i for i, x in enumerate(items)}
    seen = [False] * len(items)
    perms = list(all_permutations(g.n))
    out = []
    for i, x in enumerate(items):
        if seen[i]:
            continue
        orbit_keys = {key(act(p, x)) for p in perms}
        for k in orbit_keys:
            seen[index[k]] = True
        out.append(Orbit(x, len(orbit_keys), len(perms) // len(orbit_keys)))
    return tuple(out)


def building_order_by_prefixes(g: GeometryConfig, members) -> bool:
    """Every prefix of ``members`` is a building set, each prefix checked
    from scratch: O(N) whole-set checks."""
    members = list(members)
    return all(is_building_set(g, members[:k]) for k in range(1, len(members) + 1))


def bell_numbers(up_to: int) -> list[int]:
    """B(0..up_to) by the binomial recurrence."""
    bell = [1]
    for n in range(up_to):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    return bell
