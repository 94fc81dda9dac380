"""Boundary divisors, the closed-form nestedness criterion, and the
nested-set complex.

The boundary of the compactified space is a union of divisors, in the
families of ``divisor_families``: the transforms of D_{c,S}, S nonempty, per
component c, then (with distinct points) of the simple diagonals, |I| >= 2.
Each divisor is named by the center it covers: a ``DLocus`` or a simple
``Diagonal``, whose labels and index sets it shares.  A collection of
boundary divisors has nonempty intersection exactly when it is nested, and
nestedness is a pairwise condition:

* two D-divisors with different components need disjoint index sets; with
  the same component one index set must contain the other;
* two diagonal divisors need disjoint or nested index sets;
* a D-divisor and a diagonal divisor need S and I disjoint, or I inside S.

The non-trivial half of the mixed case (S meets I but I escapes S implies
the transforms are disjoint) is certified constructively: the ambient
intersection sits inside the blowup center D_{c, S union I}, which is
strictly contained in D_{c,S}, and blowing up such a center separates the
transforms.

A simple diagonal reports component 0, so the rules are tests on the
``component`` and ``subset`` of the two divisors.  Disjoint sets are
compatible unless both are D-divisors of one component.  Sets that meet are
compatible when the two share the component and one set contains the
other, or when a diagonal's set lies inside a D-divisor's.  So every
divisor is compatible with itself.

Pairwise-ness makes the complex the clique complex of one compatibility
graph, an int bitmask row per divisor, walked by the pivot-free Bron-Kerbosch
recursion.  The rows are not built pair by pair.  Each family of divisors
(component c, or the diagonals as family 0) gets two subset-lattice tables,
sub[S] and sup[S]: the bitmask of its divisors with index set inside S and
containing S, filled by a zeta transform.  Writing ~S for the complement,
the rules above turn into unions of table entries:

* row of D_{c,S}: sub_c[S] | sup_c[S] | sub_c'[~S] for every c' != c |
  sub_Delta[S] | sub_Delta[~S];
* row of Delta_I: sub_Delta[I] | sup_Delta[I] | sub_Delta[~I] |
  sub_c[~I] | sup_c[I] for every c.

Every divisor is compatible with itself, so each union holds its own bit;
the row clears it, so the candidates below a face are the divisors outside
it compatible with all of it.  ``pair_compatible`` stays the one pairwise
rule (``is_nested`` uses it; the rows are checked against it).  The rows
read only the divisors' (component, index set) keys, listed family by family;
keys, rows and divisors are built once per geometry, in ``divisor_graph``.

A face the walk reports is a clique by construction: every chosen index is
drawn, in increasing order, from the candidates compatible with all earlier
ones, over the canonically sorted keys.  So walked faces need no sort and no
``is_nested``; the public ``NestedSet`` constructor, which takes outside
input, still checks both.

The complex is pure: every maximal nested set has the top size, n when
there are D-divisors and n - 1 when there are only diagonals (0 when there
are no divisors at all), as Feichtner and Kozlov show for nested-set
complexes of building sets.  In the fiber tree below, every object (a
point, or the screen of a chosen diagonal) hangs on exactly one vertex, so
with L levels and S screens the n + S objects are shared out among the
root, the levels and the screens.  A level holds at least one object and a
screen at least two.  A maximal nested set puts the minimum everywhere, as
any surplus lets one more divisor in, compatible with all the others:

* a level S_i holding two or more objects outside S_(i+1) takes a new
  level between them, S_(i+1) with all of those objects but one;
* a screen over three or more objects takes the diagonal of two of them;
* with D-divisors, a root object O takes D_{c, S_1 u O} above the top
  level S_1 of component c, or D_{c, O} when c has no level, so the root
  ends with none; with diagonals only, two root objects take the diagonal
  of their union, so the root ends with one.

Every object moved under a new divisor lies inside or outside any other
chosen set as a whole, which is what compatibility asks.  So a maximal set
has n + S = r + L + 2S, r = 0 or 1 the root's minimum, and |T| = L + S =
n - r.  ``maximal_nested_sets`` therefore lists the faces of size
top = n with D-divisors, n - 1 with diagonals only and 0 with no divisor at
all (``_facet_size``), and cuts every branch that can no longer reach it;
the ``facets`` row of ``certify`` holds this against a rescan of every face
for a divisor that would extend it.

``f_vector`` counts faces without walking.  A nested set is a fiber tree
(see ``trees``): a root holding the points and screens that lie in no D_c,
one chain of expansion levels D_{c,S_1} > D_{c,S_2} > ... per component,
each level holding the objects of S_i outside S_{i+1} (at least one), and
one screen per diagonal Delta_I, over its maximal sub-diagonals and the
other points of I (at least two objects).  So, as labelled species with x
marking a point and y a divisor,

    A = x + y (e^A - 1 - A)     a point or a screen (A = x without diagonals)
    B = e^A                     a set of those
    L = y (B - 1)               one expansion level
    F = B (1 - L)^-k            the root and the k chains of levels

and n! [x^n] F is the f-vector as a polynomial in y.  Each series is kept as
its labelled counts A_m, B_m, L_m, G_m on m points, and products are
binomial convolutions: B' = A' B gives A_m and B_m, and (1 - L) G' = k L' G
gives G = (1 - L)^-k in one pass whose step count does not grow with k.  A
count is a polynomial in y with nonnegative integer coefficients, held as
one integer, its value at y = 2^w; evaluation is a ring map, so the
recursion runs on plain integers.  Run at y = 1 it gives the number of
faces, which bounds every coefficient, so with 2^w above that number the
base-2^w digits of the value at y = 2^w are the face counts.  The count
needs only (n, k, space), because ``pair_compatible`` reads the components
and index sets of the divisors and nothing else (FM has k = 0; the
colliding-points space has no diagonals).  ``certify`` counts the walked
faces by size; that count is the oracle of the recursion.

The walk has three public consumers, and a face grows by one
concatenation per divisor, ``chosen + name[i]``.  ``enumerate_nested_sets``
and ``maximal_nested_sets`` name divisor i by the one-tuple (d,) and wrap
each face in a ``NestedSet``.  ``face_rows`` names it by its quoted label,
","-led past the first, so a face is the row the command line prints; the
labels come from the keys, so it builds no divisor.  The three share
``_faces``, so the budget, ``max_size``, the top size and the empty face
are handled once.  A size-0 listing, and any listing without divisors
(the facet size is 0), is the empty face and builds nothing.
Any other walks at most ``FACE_BOUND`` = 2^18 nested sets: past that many,
counted as ``sum(f_vector(g, max_size=top))`` with ``top`` the size cap or
the facet size (then it is every face: the recursion at y = 1 alone), it
raises ``BudgetError`` naming both before building a divisor.  The binomial
sum of the divisor count up to ``top`` bounds the count, so while that sum
is within the bound the recursion (20-55 us at n <= 6, against 1-2 us) is
skipped.  At 2^18 the largest admitted listings, on one thread of a 2-vCPU
Xeon, are size <= 1 at k=1 n=17 (0.27 s) and size-2 orbits at k=1 n=10
(1.5 s).  ``ORDER_CHECK_BOUND`` = 2^16 is the one budget of the order
checks in ``orders`` and ``building``.
Counting functions count nested sets; whether distinct nested sets can cut
out one and the same stratum is left open here, deliberately.
"""

from __future__ import annotations

from math import comb

from .geometry import GeometryConfig, Space
from .labels import Frozen, subset_key, subsets
from .loci import (
    Center,
    Diagonal,
    DLocus,
    divisor_labels,
    validate_center,
)

FACE_BOUND = 1 << 18
# Steps an order check may spend, read by ``orders`` and ``building`` at
# call time; times for one thread of a 2-vCPU Xeon.  Inclusion: charged a
# mask test per pair of centers, though its column check does far less; k=3
# n=6 is charged 30 135 and takes ~0.7 ms, k=2 n=9 1 160 526.  Reshuffled:
# one pair test per two centers of a component; k=2 n=7 takes 16 002 and
# ~1 ms, k=2 n=8 64 770 and ~4 ms, k=1 n=9 130 305.  Swaps from the
# two-block order: k=1 n=8 takes 20 052 and ~40 ms.
ORDER_CHECK_BOUND = 1 << 16


class BudgetError(RuntimeError):
    """Exhaustive enumeration or checking refused; the offending bound is named."""


def divisor_sort_key(d: Center) -> tuple:
    """D-divisors by component, then the diagonals; by index set within each."""
    return (not d.component, d.component, subset_key(d.subset))


def validate_divisor(g: GeometryConfig, d: Center) -> Center:
    """A center of ``g`` that covers a boundary divisor: any D_{c,S}, or a
    simple diagonal outside the colliding-points space."""
    validate_center(g, d)
    if not d.component:
        if not d.is_simple:
            raise ValueError("%s is a polydiagonal, not a boundary divisor" % d)
        if g.space is Space.XD_UPPER:
            raise ValueError("diagonal divisors do not exist in the colliding-points space")
    return d


def divisor_families(g: GeometryConfig) -> tuple[tuple[int, int], ...]:
    """(component, least index-set size) of each family of boundary divisors in
    canonical order: (c, 1) per component, then (0, 2) unless points may collide."""
    diagonals = () if g.space is Space.XD_UPPER else ((0, 2),)
    return tuple([(c, 1) for c in range(1, g.n_components + 1)]) + diagonals


def divisor_keys(g: GeometryConfig) -> tuple[tuple[int, int], ...]:
    """(component, index set) of every boundary divisor, 0 for a diagonal:
    per family of ``divisor_families(g)`` the index sets of its least size
    or more, from one ``subsets`` list (canonical, the n singletons first,
    and none without a family); memoised on ``g``."""
    memo = g.divisor_graph
    if "keys" not in memo:
        families = divisor_families(g)
        masks = list(subsets(g.n, min_size=1)) if families else []
        memo["keys"] = tuple([(c, s) for c, least in families for s in masks[(least - 1) * g.n:]])
    return memo["keys"]


def divisors_for(g: GeometryConfig) -> tuple[Center, ...]:
    """The divisor of each of ``divisor_keys(g)``, in its order, its cached
    label filled from one ``divisor_labels`` pass; memoised on ``g``."""
    memo = g.divisor_graph
    if "divisors" not in memo:
        n, keys = g.n, divisor_keys(g)
        memo["divisors"] = tuple(DLocus(n, c, s) if c else Diagonal.simple(n, s) for c, s in keys)
        for d, label in zip(memo["divisors"], divisor_labels(keys)):
            d.__dict__["label"] = label  # where the cached_property keeps its value
    return memo["divisors"]


def count_divisors(g: GeometryConfig) -> int:
    """#components * (2^n - 1) D-divisors plus, with distinct points, 2^n - n - 1
    diagonal divisors."""
    delta_part = (1 << g.n) - g.n - 1 if g.space is not Space.XD_UPPER else 0
    return g.n_components * ((1 << g.n) - 1) + delta_part


def pair_compatible(a: Center, b: Center) -> bool:
    """The pairwise nestedness criterion; see the module docstring."""
    ca, cb, s, t = a.component, b.component, a.subset, b.subset
    inter = s & t
    if not inter:
        return ca != cb or not ca
    if ca == cb:
        return inter == s or inter == t
    if ca and cb:
        return False
    return inter == (t if ca else s)  # the diagonal's index set inside S


def is_nested(g: GeometryConfig, divisors) -> bool:
    """Nonempty intersection criterion for a set of boundary divisors."""
    ds = list(dict.fromkeys(divisors))
    for d in ds:
        validate_divisor(g, d)
    return all(pair_compatible(ds[i], ds[j]) for i in range(len(ds)) for j in range(i + 1, len(ds)))


class NestedSet(Frozen):
    """A nested collection of boundary divisors in canonical order.

    The constructor enforces the order and the pairwise criterion, since it
    takes outside input (parsed labels, relabelings, fiber trees).  Faces of
    the clique walk skip both checks through ``_walked``: the walk only
    ever extends a face by a later divisor compatible with all of it.  The
    two fields are slots, so a walked face is one bare object and two slot
    stores, and holds no ``__dict__``."""

    __slots__ = _fields = ("geometry", "divisors")

    def __init__(self, geometry: GeometryConfig, divisors: tuple[Center, ...]):
        ordered = tuple(sorted(set(divisors), key=divisor_sort_key))
        if ordered != divisors:
            raise ValueError("divisors must be canonically sorted and distinct")
        if not is_nested(geometry, divisors):
            raise ValueError("collection is not nested")
        _set_geometry(self, geometry)
        _set_divisors(self, divisors)

    def __eq__(self, other):
        return ((self.geometry, self.divisors) == (other.geometry, other.divisors)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.geometry, self.divisors))

    @staticmethod
    def _walked(g: GeometryConfig, divisors: tuple[Center, ...]) -> "NestedSet":
        ns = _new_object(NestedSet)
        _set_geometry(ns, g)
        _set_divisors(ns, divisors)
        return ns

    def labels(self) -> tuple[str, ...]:
        return tuple(d.label for d in self.divisors)

    def __len__(self):
        return len(self.divisors)


# The slots' own member descriptors store a face's fields, past the frozen
# ``__setattr__``; bound once here, not looked up per face.
_new_object = object.__new__
_set_geometry = NestedSet.geometry.__set__
_set_divisors = NestedSet.divisors.__set__


def make_nested_set(g: GeometryConfig, divisors) -> NestedSet:
    """Read in order, so a repeat is refused before later divisors are read; sorted and checked once."""
    seen = set()
    for d in divisors:
        if d in seen:
            raise ValueError("repeated divisor %s in nested set" % d)
        seen.add(d)
    ordered = tuple(sorted(seen, key=divisor_sort_key))
    if not is_nested(g, ordered):
        raise ValueError("collection is not nested")
    return NestedSet._walked(g, ordered)


def _subset_tables(n: int, keys) -> dict[int, tuple[list[int], list[int]]]:
    """For each family of divisors (a component c, or 0 for the diagonals)
    the tables (sub, sup), bitmasks over positions in ``keys``: sub[S]
    holds the family's divisors whose index set lies inside S, sup[S] those
    whose index set contains S.  A zeta transform over the subset lattice
    fills each table with n * 2^n ORs."""
    size = 1 << n
    exact: dict[int, list[int]] = {}
    for j, (c, s) in enumerate(keys):
        exact.setdefault(c, [0] * size)[s] |= 1 << j
    tables = {}
    for c, sub in exact.items():
        sup = sub[:]
        for i in range(n):
            bit = 1 << i
            for s in range(size):
                if s & bit:
                    sub[s] |= sub[s ^ bit]
                    sup[s ^ bit] |= sup[s]
        tables[c] = sub, sup
    return tables


def _compatibility_rows(g: GeometryConfig) -> list[int]:
    """Row j is the bitmask of the divisors compatible with divisor j of
    ``divisor_keys(g)``, its own bit cleared, memoised beside them; rows
    equal ``pair_compatible`` on every pair, each read as a union of a few
    subset-table entries (see the module docstring)."""
    memo = g.divisor_graph
    if "rows" in memo:
        return memo["rows"]
    n, keys = g.n, divisor_keys(g)
    tables = _subset_tables(n, keys)
    empty = [0] * (1 << n)
    sub_delta, sup_delta = tables.pop(0, (empty, empty))
    full = (1 << n) - 1
    rows = []
    for j, (comp, s) in enumerate(keys):
        rest = full ^ s
        row = sub_delta[s] | sub_delta[rest]
        if comp:
            sub, sup = tables[comp]
            row |= sub[s] | sup[s]
            for c, (other, _) in tables.items():
                if c != comp:
                    row |= other[rest]
        else:
            row |= sup_delta[s]
            for sub, sup in tables.values():
                row |= sub[rest] | sup[s]
        rows.append(row & ~(1 << j))
    memo["rows"] = rows
    return rows


def _walk(rows, empty, first, names, low: int, high: int, append) -> None:
    """``append(face)`` for every nested set of ``low`` to ``high`` divisors
    (at least one), each before its extensions: a face is ``empty +
    first[i]`` and then ``+ names[j]`` per further divisor, in row order.  A
    branch stops where no candidate is left or too few to reach ``low``."""

    def extend(chosen, cand, depth, names_here):
        while cand:
            bit = cand & -cand
            cand ^= bit
            i = bit.bit_length() - 1
            face = chosen + names_here[i]
            if depth >= low:
                append(face)
            if depth < high:
                nxt = cand & rows[i]
                if nxt and depth + nxt.bit_count() >= low:
                    extend(face, nxt, depth + 1, names)

    extend(empty, (1 << len(first)) - 1, 1, first)


def _facet_size(g: GeometryConfig) -> int:
    """The size of every maximal nested set: n - r (module docstring), or 0 with no divisor."""
    return g.n if g.n_components else 0 if g.space is Space.XD_UPPER else g.n - 1


def _faces(g: GeometryConfig, max_size, maximal, bound, empty, names) -> list:
    """Every nested set of at most ``max_size`` divisors, the empty one
    included, or with ``maximal`` only those of the top size, which are the
    maximal ones as the complex is pure (module docstring); in walk order.
    ``names(g)``, called past the ``bound``, gives the (first, rest) names
    of the divisors that ``_walk`` builds each face from, which starts as
    ``empty`` (module docstring).  Faces come out bare.  The empty listing
    and the ``bound`` are as in the module docstring."""
    if max_size is not None and max_size < 0:
        raise ValueError("max_size must be >= 0, got %d" % max_size)
    top = _facet_size(g)
    high = top if max_size is None else min(max_size, top)
    low = top if maximal else 0
    if high < low:
        return []
    if high == 0:
        return [empty]
    if bound is not None:
        count = count_divisors(g)
        if sum([comb(count, s) for s in range(high + 1)]) > bound:
            predicted = _fiber_tree_count(g, 1) if high == top else sum(f_vector(g, max_size=high))
            if predicted > bound:
                raise BudgetError("refusing to walk %d nested sets (bound %d)" % (predicted, bound))
    first, rest = names(g)
    out = [empty] if low == 0 else []
    if high > 1:
        _walk(_compatibility_rows(g), empty, first, rest, low, high, out.append)
    else:
        out += first
    return out


def _singletons(g: GeometryConfig) -> tuple[list, list]:
    """Names for ``_faces`` that make a face the tuple of its divisors."""
    ones = [(d,) for d in divisors_for(g)]
    return ones, ones


def enumerate_nested_sets(
    g: GeometryConfig, max_size: int | None = None, divisor_bound: int | None = None
) -> tuple[NestedSet, ...]:
    """Every nested set (the empty one included) up to ``max_size``, in a
    deterministic order.

    The nested sets are the cliques of the compatibility graph, listed depth
    first in canonical divisor order; with max_size <= 1 no graph is built,
    with max_size 0 no divisor either, and a negative max_size is a
    ValueError.  Past ``FACE_BOUND`` nested sets, as ``f_vector`` predicts
    them, it raises ``BudgetError``; ``divisor_bound`` is ignored.
    """
    walked = NestedSet._walked
    return tuple([walked(g, face) for face in _faces(g, max_size, False, FACE_BOUND, (), _singletons)])


def maximal_nested_sets(g: GeometryConfig, divisor_bound: int | None = None) -> tuple[NestedSet, ...]:
    """Nested sets maximal under inclusion: the complex is pure, so they are
    the faces of the top size (module docstring), listed in walk order, under
    ``FACE_BOUND`` on all faces; ``divisor_bound`` is ignored."""
    walked = NestedSet._walked
    return tuple([walked(g, face) for face in _faces(g, None, True, FACE_BOUND, (), _singletons)])


def face_rows(g: GeometryConfig, quote, max_size: int | None = None, maximal: bool = False) -> tuple[str, ...]:
    """The faces of ``enumerate_nested_sets`` (of ``maximal_nested_sets``
    when ``maximal`` is set), in the same order and under the same
    ``FACE_BOUND``, each as the labels of its divisors passed through
    ``quote`` (once each) and joined by commas; no divisor is built."""

    def quoted(g):
        first = [quote(t) for t in divisor_labels(divisor_keys(g))]
        return first, ["," + t for t in first]

    return tuple(_faces(g, max_size, maximal, FACE_BOUND, "", quoted))


def f_vector(
    g: GeometryConfig, divisor_bound: int | None = None, max_size: int | None = None
) -> tuple[int, ...]:
    """Face counts of the nested-set complex by cardinality, starting with the
    empty set; only faces of at most ``max_size`` divisors are counted, and a
    negative ``max_size`` is a ValueError.

    The counts come from the fiber-tree recursion of the module docstring,
    not from a walk, so no size is refused (the listings' ``FACE_BOUND``
    reads these counts) and ``divisor_bound`` is ignored.  They depend on
    (n, number of components, space) only: ``pair_compatible`` reads
    components and index sets, never dimensions.  The counts are read off
    as the base-2^w digits of the recursion's value at y = 2^w, where 2^w
    exceeds every count: the number of faces or, capped at s, each C(N, i)
    with i <= s and N divisors, and then the recursion keeps only digits 0..s
    by running modulo 2^(w(s+1)); ``certify``'s count of the walked faces is
    the oracle."""
    if max_size is None:
        w, keep = _fiber_tree_count(g, 1).bit_length(), -1
    elif max_size < 0:
        raise ValueError("max_size must be >= 0, got %d" % max_size)
    else:
        s, count = min(max_size, _facet_size(g)), count_divisors(g)
        w = comb(count, min(s, count // 2)).bit_length()  # the largest C(N, i) with i <= s
        keep = (1 << w * (s + 1)) - 1
    value = _fiber_tree_count(g, 1 << w, keep)
    mask = (1 << w) - 1
    counts = []
    while value:
        counts.append(value & mask)
        value >>= w
    return tuple(counts)


def _fiber_tree_count(g: GeometryConfig, y: int, keep: int = -1) -> int:
    """n! [x^n] of B (1 - L)^-k at the given y, modulo keep + 1 (a power of
    two, or no modulus for keep = -1), for the n points and k components of
    ``g`` (module docstring).  A[m], B[m], L[m] and G[m] are the labelled
    counts on m points of a point or screen, a set of those, one level and
    the k chains of levels; a product of series is a binomial convolution."""
    n, k, diagonals = g.n, g.n_components, g.space is not Space.XD_UPPER
    A, B = [0, 1], [1, 1]
    for m in range(2, n + 1):  # B' = A' B, and A_m = y (B_m - A_m) for m >= 2
        s = sum([comb(m - 1, j - 1) * A[j] * B[m - j] for j in range(1, m)]) & keep
        A.append(y * s & keep if diagonals else 0)
        B.append(s + A[m] & keep)
    L = [0] + [y * b & keep for b in B[1:]]
    G = [1]
    for m in range(n):  # G' = k L' G + L G', and L_0 = 0
        G.append(k * L[1] * G[m] + sum(
            [comb(m, j) * (k * L[j + 1] * G[m - j] + L[j] * G[m + 1 - j]) for j in range(1, m + 1)]) & keep)
    return sum([comb(n, j) * B[j] * G[n - j] for j in range(n + 1)]) & keep


__all__ = [
    "BudgetError",
    "FACE_BOUND",
    "NestedSet",
    "ORDER_CHECK_BOUND",
    "count_divisors",
    "divisor_families",
    "divisor_keys",
    "divisor_sort_key",
    "divisors_for",
    "enumerate_nested_sets",
    "f_vector",
    "face_rows",
    "is_nested",
    "make_nested_set",
    "maximal_nested_sets",
    "pair_compatible",
    "validate_divisor",
]
