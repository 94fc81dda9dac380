"""Boundary divisors, the closed-form nestedness criterion, and the
nested-set complex.

The boundary of the compactified space is a union of divisors: a transform
of D_{c,S} for every component c and nonempty S, plus (in the space of
distinct points) a transform of every simple diagonal, |I| >= 2.  Each
divisor is named by the center it covers: a ``DLocus`` or a simple
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
rule (``is_nested`` uses it; the rows are checked against it).  Divisors
and rows are built once per geometry, in ``GeometryConfig.divisor_graph``.

A face the walk reports is a clique by construction: every chosen index is
drawn, in increasing order, from the candidates compatible with all earlier
ones, over the canonically sorted ``divisors_for(g)``.  So walked faces are
built without re-sorting and without re-running ``is_nested``; the public
``NestedSet`` constructor, which takes outside input, still checks both.

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
and index sets of the divisors and nothing else (FM is k = 0; the
colliding-points space has no diagonals).  ``_f_vector_by_walk`` counts the
walked faces by size; it is the oracle of the recursion.

The walk has three public consumers.  ``enumerate_nested_sets`` and
``maximal_nested_sets`` wrap each face in a ``NestedSet``.  ``face_rows``
walks over the divisors' labels, each quoted once, and returns every face
as its joined label string, which is all the command line prints; it
builds no ``NestedSet``.  The three share one helper, ``_faces``, so the
budget, ``max_size``, the top size and the empty face are handled once.
Counting functions count nested sets; whether distinct nested sets can cut
out one and the same stratum is left open here, deliberately.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .geometry import GeometryConfig, Space
from .labels import subset_key, subsets
from .loci import (
    Center,
    Diagonal,
    DLocus,
    validate_center,
)

ENUMERATION_DIVISOR_BOUND = 40


class BudgetError(RuntimeError):
    """Exhaustive enumeration or checking refused; the offending bound is named."""


def divisor_sort_key(d: Center) -> tuple:
    """D-divisors by component, then the diagonals; by index set within each."""
    return (not d.component, d.component, subset_key(d.subset))


def validate_divisor(g: GeometryConfig, d: Center) -> Center:
    """A center of ``g`` that covers a boundary divisor: any D_{c,S}, or a
    simple diagonal outside the colliding-points space."""
    validate_center(g, d)
    if isinstance(d, Diagonal):
        if not d.is_simple:
            raise ValueError("%s is a polydiagonal, not a boundary divisor" % d)
        if g.space is Space.XD_UPPER:
            raise ValueError("diagonal divisors do not exist in the colliding-points space")
    return d


def divisors_for(g: GeometryConfig) -> tuple[Center, ...]:
    """All boundary divisors of the configured space, canonically ordered:
    ``subsets`` lists the index sets by ``subset_key``; memoised on ``g``."""
    memo = g.divisor_graph
    if "divisors" not in memo:
        out: list[Center] = []
        if g.space is not Space.FM:
            for c in range(1, g.n_components + 1):
                out.extend(DLocus(g.n, c, mask) for mask in subsets(g.n, min_size=1))
        if g.space is not Space.XD_UPPER:
            out.extend(Diagonal.simple(g.n, mask) for mask in subsets(g.n, min_size=2))
        memo["divisors"] = tuple(out)
    return memo["divisors"]


def count_divisors(g: GeometryConfig) -> int:
    """#components * (2^n - 1) D-divisors plus, with distinct points, 2^n - n - 1
    diagonal divisors."""
    d_part = g.n_components * ((1 << g.n) - 1) if g.space is not Space.FM else 0
    delta_part = (1 << g.n) - g.n - 1 if g.space is not Space.XD_UPPER else 0
    return d_part + delta_part


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


@dataclass(frozen=True)
class NestedSet:
    """A nested collection of boundary divisors in canonical order.

    The constructor enforces the order and the pairwise criterion, since it
    takes outside input (parsed labels, relabelings, fiber trees).  Faces of
    the clique walk skip both checks through ``_walked``: the walk only
    ever extends a face by a later divisor compatible with all of it."""

    geometry: GeometryConfig
    divisors: tuple[Center, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.divisors), key=divisor_sort_key))
        if ordered != self.divisors:
            raise ValueError("divisors must be canonically sorted and distinct")
        if not is_nested(self.geometry, self.divisors):
            raise ValueError("collection is not nested")

    @classmethod
    def _walked(cls, g: GeometryConfig, divisors: tuple[Center, ...]) -> "NestedSet":
        ns = object.__new__(cls)
        object.__setattr__(ns, "geometry", g)
        object.__setattr__(ns, "divisors", divisors)
        return ns

    def labels(self) -> tuple[str, ...]:
        return tuple(d.label for d in self.divisors)

    def __len__(self):
        return len(self.divisors)


def make_nested_set(g: GeometryConfig, divisors) -> NestedSet:
    return NestedSet(g, tuple(sorted(set(divisors), key=divisor_sort_key)))


def _budgeted_divisors(g: GeometryConfig, max_size: int | None, divisor_bound: int | None):
    if max_size is not None and max_size < 0:
        raise ValueError("max_size must be >= 0, got %d" % max_size)
    count = count_divisors(g)
    bound = ENUMERATION_DIVISOR_BOUND if divisor_bound is None else divisor_bound
    if count > bound and (max_size is None or max_size > 2):
        raise BudgetError(
            "refusing exhaustive enumeration over %d divisors"
            " (bound %d exceeded and max_size not <= 2)" % (count, bound)
        )
    return divisors_for(g)


def _subset_tables(n: int, divisors) -> dict[int, tuple[list[int], list[int]]]:
    """For each family of divisors (a component c, or 0 for the diagonals)
    the tables (sub, sup), bitmasks over positions in ``divisors``: sub[S]
    holds the family's divisors whose index set lies inside S, sup[S] those
    whose index set contains S.  A zeta transform over the subset lattice
    fills each table with n * 2^n ORs."""
    size = 1 << n
    exact: dict[int, list[int]] = {}
    for j, d in enumerate(divisors):
        exact.setdefault(d.component, [0] * size)[d.subset] |= 1 << j
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
    ``divisors_for(g)``, its own bit cleared, memoised beside them; rows equal
    ``pair_compatible`` on every pair, each read as a union of a few
    subset-table entries (see the module docstring)."""
    memo = g.divisor_graph
    if "rows" in memo:
        return memo["rows"]
    n, divisors = g.n, divisors_for(g)
    tables = _subset_tables(n, divisors)
    empty = [0] * (1 << n)
    sub_delta, sup_delta = tables.pop(0, (empty, empty))
    full = (1 << n) - 1
    rows = []
    for j, d in enumerate(divisors):
        s = d.subset
        rest = full ^ s
        row = sub_delta[s] | sub_delta[rest]
        if d.component:
            sub, sup = tables[d.component]
            row |= sub[s] | sup[s]
            for c, (other, _) in tables.items():
                if c != d.component:
                    row |= other[rest]
        else:
            row |= sup_delta[s]
            for sub, sup in tables.values():
                row |= sub[rest] | sup[s]
        rows.append(row & ~(1 << j))
    memo["rows"] = rows
    return rows


def _walk(rows, names, low: int, high: int, emit, arg, append) -> None:
    """``append(emit(arg, face))`` for every nested set of ``low`` to ``high``
    divisors (at least one), each before its extensions: ``face`` holds the
    ``names`` of its divisors in the order of the rows.  A branch is cut
    where the face and all its candidates together fall short of ``low``."""

    def extend(chosen, cand):
        depth = len(chosen) + 1
        while cand:
            bit = cand & -cand
            cand ^= bit
            i = bit.bit_length() - 1
            face = chosen + (names[i],)
            if depth >= low:
                append(emit(arg, face))
            if depth < high:
                nxt = cand & rows[i]
                if depth + nxt.bit_count() >= low:
                    extend(face, nxt)

    extend((), (1 << len(names)) - 1)


def _facet_size(g: GeometryConfig) -> int:
    """The size of every maximal nested set: n - r (module docstring), or 0 with no divisor."""
    if g.space is not Space.FM and g.n_components and g.n:
        return g.n
    return 0 if g.space is Space.XD_UPPER else max(g.n - 1, 0)


def _faces(g: GeometryConfig, max_size, maximal, divisor_bound, emit, arg, quote=None) -> tuple:
    """Every nested set of at most ``max_size`` divisors, the empty one
    included, or with ``maximal`` only those of the top size, which are the
    maximal ones as the complex is pure (module docstring); in walk order.
    Each face is the tuple of its divisors, or of their labels through
    ``quote`` when one is given (each label is quoted once, before the
    walk), and goes out as ``emit(arg, face)``: ``NestedSet._walked`` with
    the geometry, or ``str.join`` with a comma.  Both are called directly; a
    ``functools.partial`` per face cost 3-4% on small enumerations."""
    divisors = _budgeted_divisors(g, max_size, divisor_bound)
    names = divisors if quote is None else [quote(d.label) for d in divisors]
    low, high = 0, max_size
    if maximal:
        low = high = _facet_size(g)
        if max_size is not None and max_size < low:
            return ()
    out = [emit(arg, ())] if low == 0 else []
    if high is None or high > 1:
        _walk(_compatibility_rows(g), names, low, len(names) if high is None else high, emit, arg, out.append)
    elif high == 1:
        out += [emit(arg, (x,)) for x in names]
    return tuple(out)


def enumerate_nested_sets(
    g: GeometryConfig, max_size: int | None = None, divisor_bound: int | None = None
) -> tuple[NestedSet, ...]:
    """Every nested set (the empty one included) up to ``max_size``, in a
    deterministic order.

    The nested sets are the cliques of the compatibility graph, listed depth
    first in canonical divisor order; with max_size <= 1 no graph is built,
    and a negative max_size is a ValueError.  Exhaustive enumeration over
    more than ENUMERATION_DIVISOR_BOUND divisors is refused unless
    max_size <= 2; a caller that knows better may raise ``divisor_bound``
    explicitly (the command line interface never does).
    """
    return _faces(g, max_size, False, divisor_bound, NestedSet._walked, g)


def maximal_nested_sets(g: GeometryConfig, divisor_bound: int | None = None) -> tuple[NestedSet, ...]:
    """Nested sets maximal under inclusion: the complex is pure, so they are
    the faces of the top size (module docstring), listed in walk order."""
    return _faces(g, None, True, divisor_bound, NestedSet._walked, g)


def face_rows(g: GeometryConfig, quote, max_size: int | None = None, maximal: bool = False) -> tuple[str, ...]:
    """The faces of ``enumerate_nested_sets`` (of ``maximal_nested_sets``
    when ``maximal`` is set), in the same order and under the same budget,
    each as the labels of its divisors passed through ``quote`` and joined by
    commas; no ``NestedSet`` is built."""
    return _faces(g, max_size, maximal, None, str.join, ",", quote)


def f_vector(
    g: GeometryConfig, divisor_bound: int | None = None, max_size: int | None = None
) -> tuple[int, ...]:
    """Face counts of the nested-set complex by cardinality, starting with the
    empty set; only faces of at most ``max_size`` divisors are counted, and a
    negative ``max_size`` is a ValueError.

    The counts come from the fiber-tree recursion of the module docstring,
    not from a walk, so no size is refused and ``divisor_bound`` is ignored
    (it is accepted for callers that lift the listing budget).  They depend
    on (n, number of components, space) only: ``pair_compatible`` reads
    components and index sets, never dimensions.  The counts are read off
    as the base-2^w digits of the recursion's value at y = 2^w, where 2^w
    exceeds its value at y = 1, the number of faces.  ``_f_vector_by_walk``
    is the oracle."""
    if max_size is not None and max_size < 0:
        raise ValueError("max_size must be >= 0, got %d" % max_size)
    k = 0 if g.space is Space.FM else g.n_components
    diagonals = g.space is not Space.XD_UPPER
    w = _fiber_tree_count(g.n, k, diagonals, 1).bit_length()
    value = _fiber_tree_count(g.n, k, diagonals, 1 << w)
    mask = (1 << w) - 1
    counts = []
    while value and (max_size is None or len(counts) <= max_size):
        counts.append(value & mask)
        value >>= w
    return tuple(counts)


def _fiber_tree_count(n: int, k: int, diagonals: bool, y: int) -> int:
    """n! [x^n] of B (1 - L)^-k at the given y (module docstring).  A[m],
    B[m], L[m] and G[m] are the labelled counts on m points of a point or
    screen, a set of those, one level and the k chains of levels; a product
    of series is a binomial convolution of these counts."""
    A, B = [0, 1], [1, 1]
    for m in range(2, n + 1):  # B' = A' B, and A_m = y (B_m - A_m) for m >= 2
        s = sum([comb(m - 1, j - 1) * A[j] * B[m - j] for j in range(1, m)])
        A.append(y * s if diagonals else 0)
        B.append(s + A[m])
    L = [0] + [y * b for b in B[1:]]
    G = [1]
    for m in range(n):  # G' = k L' G + L G', and L_0 = 0
        G.append(k * L[1] * G[m] + sum(
            [comb(m, j) * (k * L[j + 1] * G[m - j] + L[j] * G[m + 1 - j]) for j in range(1, m + 1)]))
    return sum([comb(n, j) * B[j] * G[n - j] for j in range(n + 1)])


def _f_vector_by_walk(g: GeometryConfig, max_size: int | None = None) -> tuple[int, ...]:
    """The f-vector counted face by face on the clique walk, with no budget:
    the oracle of ``f_vector``."""
    sizes = Counter(_faces(g, max_size, False, count_divisors(g), lambda _, face: len(face), None))
    return tuple(sizes[s] for s in range(len(sizes)))  # downward closed: sizes 0.. all occur


__all__ = [
    "BudgetError",
    "ENUMERATION_DIVISOR_BOUND",
    "NestedSet",
    "count_divisors",
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
