"""Cross-validation: every fast route against a slow route, in one table.

A row of ``ROWS`` is ``Row(name, configs, fast, slow)``.  On a configuration
g, ``fast(g)`` and ``slow(g)`` each return a sequence of ``(item label,
answer)`` pairs, and ``run_all`` compares the two on every configuration of
every row.  The contract of a row:

* the routes differ in provenance: a recursion or closed form against an
  enumeration, the pairwise rule against a flag search or a grid model, a
  one-pass check against a per-prefix one, a bitset table against pairwise
  calls.  A slow route may be a closed form, such as 2^(n-1)-n-1, or "valid";
* one comparison is made on one configuration, so a mismatch names the
  first differing item and its configuration; it is reported, not reconciled;
* the sizes are fixed in the table: ``wonderful certify`` and the test suite
  run the same rows at the same sizes.

The slow routes no other module calls live here: the grid model (X is the
grid {0..q-1}^d, each component a translated coordinate subspace, so a
dimension is the exact logarithm of a point count), the union-find
intersection, the block walk for containment, the relation rule (the
pairwise criterion as first written), the facet rescan, the orbit brute
force over all n! relabelings, the per-prefix building-order rule, the
rewrite bubble on plain lists with the swap-certificate rules as first
written, and the pairwise inclusion scan.  ``partitions_of`` lives here
too: only the ``partitions`` row and the tests list partitions.  So does
``_f_vector_by_walk``, the recursion's oracle, which no fast route calls.
``loci._pair_position_by_loci`` stays beside the fast route that calls it.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from functools import partial
from typing import Callable, NamedTuple

from .building import (_intersection_closure, building_set_for, is_building_order, is_building_set,
                       is_nested_flag_oracle)
from .geometry import Component, GeometryConfig, Space, point_components
from .labels import Partition, SubsetRelation, check_population, elements, join_blocks, subset_relation
from .loci import (Center, Diagonal, DLocus, Locus, PairPosition, _intersect, _pair_position_by_loci,
                   center_to_locus, contains, contains_locus, dimension, intersect, intersect_all, make_locus,
                   pair_position, parse_center)
from .nested import (NestedSet, _compatibility_rows, _faces, _singletons, count_divisors,
                     divisor_sort_key, divisors_for, enumerate_nested_sets, f_vector, is_nested,
                     maximal_nested_sets, pair_compatible)
from .orders import (BlowupSequence, InclusionReport, check_order, generate_order, stages_form_one_building_set,
                     swap_rewrite, two_block_order, validate_building_set_order, validate_inclusion_order)
from .symmetry import Orbit, act, all_permutations, orbits, stabilizer
from .trees import DegenerationTree, Vertex, VertexKind, fiber_tree, is_stable


class GridModel:
    """X = {0..q-1}^d; component c pins coordinates dim_c..d-1 to the value c.

    q must exceed the number of components so the translates stay distinct
    and the components disjoint.  Configurations are n-tuples of points.
    """

    def __init__(self, g: GeometryConfig, q: int = 3):
        assert q > g.n_components, "need one spare value per component translate"
        self.g, self.q = g, q
        self.configurations = frozenset(itertools.product(itertools.product(range(q), repeat=g.dim_x), repeat=g.n))
        self._points: dict[Center, frozenset] = {}

    def center_points(self, center: Center) -> frozenset:
        if center not in self._points:
            if isinstance(center, DLocus):
                idx, c = elements(center.subset), center.component
                pinned = range(self.g.component_dim(c), self.g.dim_x)
                pts = (x for x in self.configurations if all(x[i - 1][j] == c for i in idx for j in pinned))
            else:
                blocks = [elements(b) for b in center.blocks]
                pts = (x for x in self.configurations if all(x[b[0] - 1] == x[i - 1] for b in blocks for i in b))
            self._points[center] = frozenset(pts)
        return self._points[center]

    def locus_points(self, lo: Locus) -> frozenset:
        """The configurations meeting every block equality and pin of the
        canonical form, each the point set of one center."""
        pts = frozenset() if lo.is_empty else self.configurations
        for mask, pin in zip(lo.blocks, lo.pins):
            if mask & (mask - 1):
                pts &= self.center_points(Diagonal.simple(self.g.n, mask))
            if pin is not None:
                pts &= self.center_points(DLocus(self.g.n, pin, mask & -mask))
        return pts

    def dimension_of(self, pts: frozenset) -> int | None:
        """Loci in this model have exactly q^dim points."""
        if not pts:
            return None
        dim = round(math.log(len(pts), self.q))
        assert self.q ** dim == len(pts), "point set is not a grid subspace"
        return dim


def intersect_by_union_find(g: GeometryConfig, a: Locus, b: Locus) -> Locus:
    """Two nonempty loci met by a union-find: join the blocks of both, gather
    the pins of each joined group in a set, and let ``make_locus`` reject
    conflicting pins and merge the groups pinned to one point component."""
    groups = join_blocks(g.n, a.blocks + b.blocks)
    group_pins: list[set[int]] = [set() for _ in groups]
    for lo in (a, b):
        for mask, pin in zip(lo.blocks, lo.pins):
            if pin is not None:
                group_pins[next(k for k, grp in enumerate(groups) if grp & mask)].add(pin)
    return make_locus(g, zip(groups, group_pins))


def contains_by_blocks(outer: Locus, inner: Locus) -> bool:
    """inner subseteq outer, walking the blocks of both canonical forms:
    each outer block must lie inside one inner block, pinned alike when the
    outer block is pinned."""
    if inner.is_empty or outer.is_empty:
        return inner.is_empty
    for mask, pin in zip(outer.blocks, outer.pins):
        met = [(m2, p2) for m2, p2 in zip(inner.blocks, inner.pins) if m2 & mask]
        if len(met) > 1 or mask & ~met[0][0] or pin not in (None, met[0][1]):
            return False  # split across inner blocks, or pinned elsewhere
    return True


def laminar(sets) -> bool:
    """Forest-of-subsets test: every pair disjoint or nested."""
    fs = [frozenset(s) for s in sets]
    return all(not a & b or a <= b or b <= a for a, b in itertools.combinations(fs, 2))


def pair_compatible_by_relation(a: Center, b: Center) -> bool:
    """The pairwise criterion by the subset relation of the two index sets.
    Equal index sets classify as EQUAL, which the D-D and Delta-Delta
    branches reject, so a divisor fails against itself here."""
    if isinstance(a, Diagonal) and isinstance(b, DLocus):
        a, b = b, a
    rel = subset_relation(a.subset, b.subset)
    if isinstance(a, DLocus) and isinstance(b, DLocus):
        if a.component != b.component:
            return rel is SubsetRelation.DISJOINT
        return rel in (SubsetRelation.A_IN_B, SubsetRelation.B_IN_A)
    if isinstance(a, Diagonal):
        return rel in (SubsetRelation.DISJOINT, SubsetRelation.A_IN_B, SubsetRelation.B_IN_A)
    return rel in (SubsetRelation.DISJOINT, SubsetRelation.B_IN_A, SubsetRelation.EQUAL)  # a D-divisor, b diagonal


def maximal_by_rescan(g: GeometryConfig) -> tuple[NestedSet, ...]:
    """Nested sets, in enumeration order, that no single further divisor
    stays compatible with: O(faces * divisors * size) pair tests."""
    divisors = divisors_for(g)
    return tuple(ns for ns in enumerate_nested_sets(g) if not any(
        d not in ns.divisors and all(pair_compatible(d, e) for e in ns.divisors) for d in divisors))


def orbits_by_brute_force(g: GeometryConfig, kind: str, size: int | None = None) -> tuple[Orbit, ...]:
    """The orbits of the divisors, or of the nested sets of one size: each item
    not yet seen, in canonical order, is moved by all n! permutations (an item
    is known by the sorted keys of its divisors)."""
    if kind == "divisors":
        items, parts = divisors_for(g), lambda d: (d,)
    else:
        items = [ns for ns in enumerate_nested_sets(g, max_size=size) if len(ns) == size]
        parts = lambda ns: ns.divisors  # noqa: E731
    perms = list(all_permutations(g.n))
    seen: set = set()
    out = []
    for x in sorted(items, key=lambda x: tuple(map(divisor_sort_key, parts(x)))):
        if tuple(map(divisor_sort_key, parts(x))) not in seen:
            orbit_keys = {tuple(sorted(divisor_sort_key(act(p, d)) for d in parts(x))) for p in perms}
            seen |= orbit_keys
            out.append(Orbit(x, len(orbit_keys), len(perms) // len(orbit_keys)))
    return tuple(out)


def fiber_tree_by_placement(ns: NestedSet) -> DegenerationTree:
    """``trees.fiber_tree`` by the placement rules as first written, one
    scan per kind of vertex and per point.

    The D-divisors of one component form a chain by nestedness; each chain
    set becomes an expansion level, the smallest set deepest, and a marking
    sits at the deepest level whose set contains it (the root if none).
    Diagonal divisors form a forest; each becomes a screen attached to the
    vertex owning its markings (the level of the smallest containing S, or
    the root), nested index sets giving nested screens, and each marking
    moves to its minimal screen.
    """
    g = ns.geometry
    d_sets: dict[int, list[int]] = {}
    delta_sets: list[int] = []
    for d in ns.divisors:
        if d.component:
            d_sets.setdefault(d.component, []).append(d.subset)
        else:
            delta_sets.append(d.subset)

    vertices = [Vertex(0, VertexKind.ROOT)]
    parents: list[int | None] = [None]
    level_of: dict[tuple[int, int], int] = {}  # (component, chain set) -> vid
    for c in sorted(d_sets):
        chain = sorted(d_sets[c], key=lambda m: -m.bit_count())  # largest = depth 1
        prev = 0
        for depth, mask in enumerate(chain, start=1):
            vid = len(vertices)
            vertices.append(Vertex(vid, VertexKind.DLEVEL, component=c, depth=depth))
            parents.append(prev)
            level_of[(c, mask)] = vid
            prev = vid

    def d_anchor(i_mask: int) -> int:
        best = None
        for (c, mask), vid in level_of.items():
            if i_mask & mask == i_mask and (best is None or mask.bit_count() < best[0]):
                best = (mask.bit_count(), vid)
        return 0 if best is None else best[1]

    screen_of: dict[int, int] = {}
    for i_mask in sorted(delta_sets, key=lambda m: (-m.bit_count(), elements(m))):
        enclosing = [j for j in delta_sets if j != i_mask and i_mask & j == i_mask]
        if enclosing:
            parent = screen_of[min(enclosing, key=lambda m: m.bit_count())]
        else:
            parent = d_anchor(i_mask)
        vid = len(vertices)
        vertices.append(Vertex(vid, VertexKind.SCREEN))
        parents.append(parent)
        screen_of[i_mask] = vid

    markings = []
    for i in range(1, g.n + 1):
        bit = 1 << (i - 1)
        screens = [m for m in delta_sets if m & bit]
        if screens:
            markings.append(screen_of[min(screens, key=lambda m: m.bit_count())])
            continue
        d_hits = [(mask.bit_count(), vid) for (c, mask), vid in level_of.items() if mask & bit]
        markings.append(min(d_hits)[1] if d_hits else 0)

    tree = DegenerationTree(g, tuple(vertices), tuple(parents), tuple(markings))
    report = is_stable(tree)
    if not report.ok:
        raise AssertionError("placement rules produced an unstable tree at vertex %d" % report.violating_vertex)
    return tree


def building_order_by_prefixes(g: GeometryConfig, members) -> bool:
    """Every prefix of ``members`` is a building set, each prefix checked
    anew as a whole collection: O(N) whole-set checks."""
    members = list(members)
    return all(is_building_set(g, members[:k]) for k in range(1, len(members) + 1))


def certificate_by_rules(g: GeometryConfig, prefix, a: Center, b: Center) -> str | None:
    """``orders.swap_certificate``'s rules as written, on one swap: the
    ambient position, else a staged rule whose witness is looked up in a
    dict of the simple centers of ``prefix``, each guard spelled out."""
    pos = pair_position(g, a, b)
    if pos in (PairPosition.DISJOINT, PairPosition.TRANSVERSAL):
        return "ambient-" + pos.value
    prior = {(c.component, c.subset): c.label for c in prefix if c.subset}.get
    ca, cb, s, t = a.component, b.component, a.subset, b.subset
    if not (s and t):  # no staged rule names a polydiagonal
        return None
    union = s | t
    if ca == cb:  # one family: two D-loci of one component, or two diagonals
        z = prior((ca, union)) if union not in (s, t) else None
        return None if z is None else "transform-disjoint after blowing up %s" % z
    # D_{c,S} against Delta_I: D-loci of two components are disjoint or
    # transversal, so exactly one of ca, cb is 0
    c, d_set = (ca, s) if ca else (cb, t)
    meet = s & t
    if meet.bit_count() >= 2:
        z = prior((c, meet))
        if z is not None:
            return "transform-transversal after blowing up %s" % z
    z = prior((c, union)) if union != d_set else None
    return None if z is None else "transform-disjoint after blowing up %s" % z


def rewrite_by_prefixes(source: BlowupSequence, target: BlowupSequence) -> tuple[list, tuple[str, str] | None]:
    """The greedy bubble of ``swap_rewrite`` on a plain list of centers:
    each swap is certified by ``certificate_by_rules`` on the list of the
    centers before it.  Gives the swaps as (position, left, right,
    certificate) and the blocking pair, or None."""
    g = source.geometry
    work = list(source.centers)
    steps = []
    for p, want in enumerate(target.centers):
        for j in range(work.index(want), p, -1):
            left, right = work[j - 1], work[j]
            cert = certificate_by_rules(g, work[:j - 1], left, right)
            if cert is None:
                return steps, (str(left), str(right))
            steps.append((j - 1, str(left), str(right), cert))
            work[j - 1], work[j] = right, left
    return steps, None


def inclusion_by_pairs(seq: BlowupSequence) -> InclusionReport:
    """``validate_inclusion_order`` by one ``contains_locus`` call per pair
    of centers, the first pair (i, j) in order that breaks the rule."""
    g = seq.geometry
    loci = [center_to_locus(g, c) for c in seq.centers]
    for i, j in itertools.combinations(range(len(loci)), 2):
        if contains_locus(g, loci[i], loci[j]) and loci[i] != loci[j]:
            witness = "%s is strictly contained in %s but comes later" % (seq.centers[j], seq.centers[i])
            return InclusionReport(False, (i, j, witness))
    return InclusionReport(True)


def partitions_of(n: int):
    """All partitions of {1,...,n}, in a deterministic (restricted-growth) order."""
    check_population(n)
    if n == 0:
        yield Partition(0, ())
        return

    def rec(i: int, blocks: list[int]):
        if i > n:
            yield Partition(n, tuple(sorted(blocks, key=lambda m: m & -m)))
            return
        bit = 1 << (i - 1)
        for k in range(len(blocks)):
            blocks[k] |= bit
            yield from rec(i + 1, blocks)
            blocks[k] &= ~bit
        blocks.append(bit)
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def bell_numbers(up_to: int) -> list[int]:
    """B(0..up_to) by the binomial recurrence."""
    bell = [1]
    for n in range(up_to):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    return bell


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class Row(NamedTuple):
    name: str
    configs: tuple
    fast: Callable
    slow: Callable


def _run(row: Row) -> CheckResult:
    start = time.perf_counter()
    items = 0
    for g in row.configs:
        fast, slow = list(row.fast(g)), list(row.slow(g))
        for (label, got), (slow_label, want) in itertools.zip_longest(fast, slow, fillvalue=("(none)", None)):
            if (label, got) != (slow_label, want):
                item = label if label == slow_label else "%s / %s" % (label, slow_label)
                where = g.dumps() if isinstance(g, GeometryConfig) else g
                return CheckResult(row.name, False, "%s on %s: fast %.200r, slow %.200r" % (item, where, got, want))
        items += len(fast)
    detail = "%d configs, %d items in %.2f s" % (len(row.configs), items, time.perf_counter() - start)
    return CheckResult(row.name, True, detail)


def run_all() -> list[CheckResult]:
    return [_run(row) for row in ROWS]


def _every_space(n_max: int) -> tuple[GeometryConfig, ...]:
    """FM and both spaces with k = 0..3 point components, n = 1..n_max."""
    return tuple(g for n in range(1, n_max + 1) for g in [GeometryConfig(n, 2, (), Space.FM)] + [
        point_components(k, n=n, space=space) for k in range(4) for space in (Space.XD_BRACKET, Space.XD_UPPER)])


def _config(n: int, dims, dim_x: int = 2, space: Space = Space.XD_BRACKET) -> GeometryConfig:
    return GeometryConfig(n, dim_x, tuple(Component("c%d" % (i + 1), d) for i, d in enumerate(dims)), space)


def _mixed_components(dims_x, n_max: int) -> tuple[GeometryConfig, ...]:
    """Every space with k = 0..3 components of dims 0 and 1 both ways round,
    for each dim X given and n = 1..n_max."""
    return tuple(_config(n, [(i + first) % 2 for i in range(k)], dim_x, space) for space in Space
                 for k in range(1 if space is Space.FM else 4) for first in range(1 if k == 0 else 2)
                 for dim_x in dims_x for n in range(1, n_max + 1))


def _text(centers) -> str:
    return "[%s]" % ",".join(map(str, centers))


def _collections(items) -> list[tuple]:
    return [sub for r in range(len(items) + 1) for sub in itertools.combinations(items, r)]


def _divisors_and_facets(g: GeometryConfig) -> list:
    return [("divisors", count_divisors(g)), ("facets", len(maximal_nested_sets(g)))]


def _moduli_closed_forms(g: GeometryConfig) -> list:
    """2^(N-1) - N - 1 divisors and (2N-5)!! facets of M_{0,N}, N = n + 3."""
    marked = g.n + 3
    return [("divisors", 2 ** (marked - 1) - marked - 1), ("facets", math.prod(range(2 * marked - 5, 0, -2)))]


def _fm_closed_forms(g: GeometryConfig) -> list:
    """2^n - n - 1 divisors and (2n-3)!! facets of FM(X)[n]."""
    return [("divisors", 2 ** g.n - g.n - 1), ("facets", math.prod(range(2 * g.n - 3, 0, -2)))]


def _f_vectors(g: GeometryConfig, whole, upto, cut) -> list:
    """The whole f-vector, then the one up to each size s; for n <= 4 once
    more for the walk cut off at s."""
    sizes = range(len(whole) + 1)
    items = [("whole", whole)] + [("max_size=%d" % s, upto(s)) for s in sizes]
    return items + [("walk cut at %d" % s, cut(s)) for s in sizes if g.n <= 4]


def _f_vector_fast(g: GeometryConfig) -> list:
    upto = lambda s: f_vector(g, max_size=s)  # noqa: E731
    return _f_vectors(g, f_vector(g), upto, upto)


def _f_vector_by_walk(g: GeometryConfig, max_size: int | None = None) -> tuple[int, ...]:
    """The f-vector counted face by face on the clique walk, with no budget:
    the oracle of ``nested.f_vector``."""
    sizes = Counter(map(len, _faces(g, max_size, False, None, (), _singletons)))
    return tuple(sizes[s] for s in range(len(sizes)))  # downward closed: sizes 0.. all occur


def _f_vector_slow(g: GeometryConfig) -> list:
    walked = _f_vector_by_walk(g)
    return _f_vectors(g, walked, lambda s: walked[:s + 1], lambda s: _f_vector_by_walk(g, max_size=s))


def _pairs(g: GeometryConfig, route, distinct: bool = True) -> list:
    """``route`` on every ordered pair of divisors, distinct ones if asked."""
    ds = divisors_for(g)
    pairs = itertools.permutations(ds, 2) if distinct else itertools.product(ds, ds)
    return [("%s, %s" % p, route(*p)) for p in pairs]


def _pairwise_rows(g: GeometryConfig) -> list:
    ds = divisors_for(g)
    return [(str(a), sum(1 << j for j, b in enumerate(ds) if i != j and pair_compatible(a, b)))
            for i, a in enumerate(ds)]


def _first_stage(g: GeometryConfig, nested) -> list:
    """Every collection of first-stage members, up to 12 members; past that
    the pairs and the nested sets.  Both predicates are downward closed, so
    agreement on pairs and yes on every nested set decide every collection."""
    first, _ = building_set_for(g)
    subs = _collections(first.members) if len(first.members) <= 12 else (
        list(itertools.combinations(first.members, 2)) + [ns.divisors for ns in enumerate_nested_sets(g)])
    return [(_text(sub), nested(first, sub)) for sub in subs]


def _fm_collections(g: GeometryConfig, nested, flag) -> list:
    _, diagonals = building_set_for(g)
    return [(_text(sub), (nested(g, sub), flag(diagonals, sub))) for sub in _collections(diagonals.members)]


def _is_face(g: GeometryConfig) -> list:
    faces = {frozenset(ns.divisors) for ns in enumerate_nested_sets(g)}
    return [(_text(sub), frozenset(sub) in faces) for sub in _collections(divisors_for(g))]


def _laminar(_, sub) -> bool:
    return laminar(elements(d.subset) for d in sub)


def _orders_to_check(g: GeometryConfig) -> list[BlowupSequence]:
    """Seeded prefixes of 2..8 members of shuffled building-set stages, and
    the reshuffled order on up to three points."""
    rng = random.Random(g.dumps())
    out = [generate_order(g, "reshuffled")] if g.n <= 3 else []
    for members in (list(stage.members) for stage in building_set_for(g) if len(stage.members) >= 2):
        for _ in range(9):
            rng.shuffle(members)
            out.append(BlowupSequence(g, tuple(members[:rng.randint(2, min(8, len(members)))])))
    return out


def _stage_one_orders(g: GeometryConfig) -> list[tuple[str, BlowupSequence]]:
    """The reshuffled order, four seeded one-swap mutants of it, and four
    seeded prefixes of 2..12 shuffled stage-one members."""
    rng = random.Random(g.dumps())
    seq = generate_order(g, "reshuffled")
    centers = list(seq.centers)
    out = [("reshuffled", seq)]
    for i in sorted(rng.sample(range(len(centers) - 1), min(4, len(centers) - 1))):
        mutant = centers[:i] + [centers[i + 1], centers[i]] + centers[i + 2:]
        out.append(("reshuffled, swap at %d" % i, BlowupSequence(g, tuple(mutant))))
    for _ in range(4):
        rng.shuffle(centers)
        prefix = tuple(centers[:rng.randint(2, min(12, len(centers)))])
        out.append((_text(prefix), BlowupSequence(g, prefix)))
    return out


def _generated_orders(g: GeometryConfig) -> list:
    """(item name, scheme) of each generated order of g that must pass
    ``check_order``: inclusion always; on up to four points and two
    components also the reshuffled order and, where points are distinct,
    the interleaved one, reached from the two-block order."""
    small = g.n <= 4 and g.n_components <= 2
    out = [("inclusion", "inclusion")]
    if small:
        out.append(("reshuffled", "reshuffled"))
    if small and g.space is not Space.XD_UPPER:
        out.append(("two_block -> interleaved", "interleaved"))
    return out


def _rewrites(g: GeometryConfig) -> list:
    """The rewrites the ``rewrite-replay`` row runs: the inclusion order into
    the one with each run of equal-size centers reversed, where overlapping
    centers swap once their union is blown up; where points are distinct
    the inclusion order into the one with all D-loci first, the two-block
    order into the interleaved one, and the interleaved into the inclusion
    order, which blocks; in FM on four points also two sequences with a
    polydiagonal."""
    inclusion = generate_order(g, "inclusion")
    ties = sorted(inclusion.centers[::-1], key=lambda c: -c.subset.bit_count())
    out = [("inclusion -> ties reversed", inclusion, BlowupSequence(g, tuple(ties)))]
    if g.space is not Space.XD_UPPER:
        inter = generate_order(g, "interleaved")
        d_first = sorted(inclusion.centers, key=lambda c: not c.component)
        out += [("inclusion -> D-loci first", inclusion, BlowupSequence(g, tuple(d_first))),
                ("two_block -> interleaved", two_block_order(g), inter),
                ("interleaved -> inclusion", inter, inclusion)]
    if g.space is Space.FM and g.n == 4:
        fm4 = lambda labels: BlowupSequence(g, tuple(parse_center(t, g.n) for t in labels))  # noqa: E731
        first = ["Delta:{{1,2},{3,4}}", "Delta:{3,4}", "Delta:{1,2,3,4}", "Delta:{1,2}"]
        second = ["Delta:{1,2,3,4}", "Delta:{1,2,3}", "Delta:{{1,2},{3,4}}", "Delta:{2,3,4}", "Delta:{1,4}"]
        out += [("polydiagonal first", fm4(first), fm4(first[::-1])),
                ("polydiagonal inside", fm4(second), fm4(second[:1] + second[:0:-1]))]
    return out


def _rewrite_items(g: GeometryConfig, route) -> list:
    out = []
    for name, source, target in _rewrites(g):
        steps, blocking = route(source, target)
        out += [("%s swap %d" % (name, i), tuple(step)) for i, step in enumerate(steps)]
        out.append(("%s blocking" % name, blocking))
    return out


def _rewrite_steps(source: BlowupSequence, target: BlowupSequence) -> tuple:
    res = swap_rewrite(source, target)
    return res.swaps, res.blocking


def _inclusion_items(g: GeometryConfig, route) -> list:
    """The generated inclusion order, every order one adjacent swap away from
    it, and the reversal of each."""
    centers = generate_order(g, "inclusion").centers
    orders = [("inclusion", centers)] + [
        ("swap at %d" % i, centers[:i] + (centers[i + 1], centers[i]) + centers[i + 2:])
        for i in range(len(centers) - 1)]
    orders += [(name + " reversed", order[::-1]) for name, order in orders]
    return [(name, route(BlowupSequence(g, order))) for name, order in orders]


def _orbit_items(g: GeometryConfig, route) -> list:
    """The divisor orbits and the orbits of nested sets of sizes 1 and 2,
    and of size 3 on configurations of at most 40 divisors: the brute force
    moves every face by all n! permutations."""
    out = []
    sizes = (1, 2, 3) if count_divisors(g) <= 40 else (1, 2)
    for kind, size in [("divisors", None)] + [("nested", s) for s in sizes]:
        label = kind if size is None else "nested sets of size %d" % size
        out += [("%s #%d" % (label, i), o) for i, o in enumerate(route(g, kind, size))]
    return out


def _fiber_trees(g: GeometryConfig, route) -> list:
    """Every face of g, the empty one included, and the vertices, parents
    and markings of its fiber tree by ``route``."""
    return [(_text(ns.divisors), (t.vertices, t.parents, t.markings))
            for ns in enumerate_nested_sets(g) for t in [route(ns)]]


def _containments(g: GeometryConfig, route) -> list:
    """Every ordered pair from the intersection closure of the divisors (of
    the first-stage members past three points) and the empty locus."""
    centers = divisors_for(g) if g.n <= 3 else building_set_for(g)[0].members
    loci = _intersection_closure(g, [center_to_locus(g, c) for c in centers]) + [Locus.empty(g.n)]
    names = [str(lo) for lo in loci]
    return [(names[j] + " in " + names[i], route(outer, inner))
            for i, outer in enumerate(loci) for j, inner in enumerate(loci)]


def _kernel_pairs(g: GeometryConfig, route) -> list:
    """Five seeded divisors (members of either stage), and each element of
    their intersection closure met with each of the five, in both orders:
    the kernel folds its second locus into its first, so the order matters.
    Gives emptiness, code, blocks and pins."""
    divisors = divisors_for(g)
    sample = [center_to_locus(g, c) for c in random.Random(g.dumps()).sample(divisors, min(5, len(divisors)))]
    closure = _intersection_closure(g, sample)
    name = {lo.code: str(lo) for lo in closure}
    out = []
    for w in closure:
        for m in sample:
            for a, b in ((w, m), (m, w)):
                lo = route(g, a, b)
                out.append((name[a.code] + " & " + name[b.code], (lo.is_empty, lo.code, lo.blocks, lo.pins)))
    return out


def _grid_items(g: GeometryConfig, dim, meet, inside, locus_inside) -> list:
    """Per center the dimension; per pair the intersection and containment;
    per pair of pairwise intersections the containment; per triple the
    intersection.  The routes are the caller's."""
    centers = divisors_for(g)
    pairs = list(itertools.combinations_with_replacement(centers, 2))
    loci = {}
    for a, b in pairs:
        loci.setdefault(intersect(g, center_to_locus(g, a), center_to_locus(g, b)), "%s & %s" % (a, b))
    return ([("dim %s" % c, dim(c)) for c in centers] + [("%s & %s" % p, meet(*p)) for p in pairs]
            + [("%s in %s" % (b, a), inside(a, b)) for a, b in itertools.product(centers, repeat=2)]
            + [("%s in %s" % (loci[i], loci[o]), locus_inside(o, i)) for o, i in itertools.product(loci, repeat=2)]
            + [("%s & %s & %s" % trio, meet(*trio)) for trio in itertools.combinations(centers, 3)])


def _grid_fast(g: GeometryConfig) -> list:
    model = GridModel(g)

    def meet(*centers):
        loci = [center_to_locus(g, c) for c in centers]
        lo = intersect(g, *loci) if len(loci) == 2 else intersect_all(g, loci)
        return model.locus_points(lo), dimension(g, lo)

    return _grid_items(g, lambda c: dimension(g, center_to_locus(g, c)), meet,
                       lambda a, b: contains(g, a, b), lambda outer, inner: contains_locus(g, outer, inner))


def _grid_slow(g: GeometryConfig) -> list:
    model = GridModel(g)
    points = model.center_points

    def meet(*centers):
        pts = frozenset.intersection(*map(points, centers))
        return pts, model.dimension_of(pts)

    return _grid_items(g, lambda c: model.dimension_of(points(c)), meet, lambda a, b: points(b) <= points(a),
                       lambda outer, inner: model.locus_points(inner) <= model.locus_points(outer))


ROWS = (
    Row("divisor-counts", _every_space(4),
        lambda g: [("divisors", count_divisors(g))],
        lambda g: [("divisors", len(enumerate_nested_sets(g, max_size=1)) - 1)]),
    Row("moduli-anchors", tuple(point_components(3, n=n) for n in range(1, 6)),  # M_{0,4..8}
        _divisors_and_facets, _moduli_closed_forms),
    Row("fm-anchors", tuple(GeometryConfig(n, 2, (), Space.FM) for n in range(1, 7)),
        _divisors_and_facets, _fm_closed_forms),
    Row("f-vector",  # every space, k = 0..3, n <= 6 but M_{0,9} (k=3 n=6), and mixed components
        tuple(g for g in _every_space(6) if g != point_components(3, n=6))
        + tuple(_config(n, (1, 0), 3, space) for n in (3, 4) for space in (Space.XD_BRACKET, Space.XD_UPPER)),
        _f_vector_fast, _f_vector_slow),
    Row("enumeration", (point_components(2, n=2), point_components(1, n=3), GeometryConfig(3, 2, (), Space.FM)),
        _is_face,
        lambda g: [(_text(sub), is_nested(g, sub)) for sub in _collections(divisors_for(g))]),
    Row("facets", _every_space(4),  # the top-size faces are every maximal face: the complex is pure
        lambda g: list(enumerate(ns.labels() for ns in maximal_nested_sets(g))),
        lambda g: list(enumerate(ns.labels() for ns in maximal_by_rescan(g)))),
    Row("pair-rule", _every_space(5),
        lambda g: _pairs(g, pair_compatible),
        lambda g: _pairs(g, pair_compatible_by_relation)),
    Row("compatibility-rows", _every_space(6),
        lambda g: list(zip(map(str, divisors_for(g)), _compatibility_rows(g))),
        _pairwise_rows),
    Row("pair-position",  # every space, k = 0..3 components of dims 0 and 1, dim X = 2, 3, n <= 5 (4 at k = 3)
        tuple(_config(n, [(i + dim_x) % 2 for i in range(k)], dim_x, space) for space in Space
              for k in range(1 if space is Space.FM else 4) for dim_x in (2, 3) for n in range(1, 5 if k == 3 else 6)),
        lambda g: _pairs(g, partial(pair_position, g), distinct=False),
        lambda g: _pairs(g, partial(_pair_position_by_loci, g), distinct=False)),
    Row("flag-oracle",
        tuple(point_components(k, n=n, space=Space.XD_UPPER) for k, n in ((1, 2), (1, 3), (2, 2), (2, 3))),
        lambda g: _first_stage(g, lambda first, sub: is_nested(g, sub)),
        lambda g: _first_stage(g, is_nested_flag_oracle)),
    Row("fm-forest", tuple(GeometryConfig(n, 2, (), Space.FM) for n in (2, 3, 4)),
        lambda g: _fm_collections(g, is_nested, is_nested_flag_oracle),
        lambda g: _fm_collections(g, _laminar, _laminar)),
    Row("building-order",
        tuple(point_components(k, n=n, space=space) for space in Space
              for k in range(1 if space is Space.FM else 4) for n in range(1, 5))
        + (_config(2, (1, 0)), _config(3, (1, 0))),
        lambda g: [(_text(seq.centers), validate_building_set_order(seq)) for seq in _orders_to_check(g)],
        lambda g: [(_text(seq.centers), building_order_by_prefixes(g, seq.centers)) for seq in _orders_to_check(g)]),
    Row("union-closure",  # both spaces, k = 1..3 components of dims 0 and 1 both ways round, n = 2..4
        tuple(g for g in _mixed_components((2,), 4) if g.n_components and g.n > 1),
        lambda g: [(name, validate_building_set_order(seq)) for name, seq in _stage_one_orders(g)],
        lambda g: [(name, is_building_order(g, seq.centers)) for name, seq in _stage_one_orders(g)]),
    Row("generated-orders",
        tuple(_config(n, dims, 2 if any(dims) else 1) for n in (2, 3, 4, 5)
              for dims in ((0,), (0, 0), (0, 0, 0), (1,), (1, 0)))
        + tuple(point_components(k, n=n, space=Space.XD_UPPER) for k in (1, 2) for n in (2, 3, 4))
        + tuple(GeometryConfig(n, 2, (), Space.FM) for n in (2, 3, 4, 5)),
        lambda g: [(name, check_order(generate_order(g, scheme), scheme) is None)
                   for name, scheme in _generated_orders(g)],
        lambda g: [(name, True) for name, _ in _generated_orders(g)]),
    Row("rewrite-replay",
        tuple(point_components(k, n=n, space=space) for space in (Space.XD_BRACKET, Space.XD_UPPER)
              for k in (1, 2) for n in range(1, 6)) + (_config(4, (1, 0), 3),)
        + tuple(GeometryConfig(n, 2, (), Space.FM) for n in range(2, 6)),
        lambda g: _rewrite_items(g, _rewrite_steps),
        lambda g: _rewrite_items(g, rewrite_by_prefixes)),
    Row("inclusion-order", _mixed_components((2,), 4),
        lambda g: _inclusion_items(g, validate_inclusion_order),
        lambda g: _inclusion_items(g, inclusion_by_pairs)),
    Row("stages-building-set", _mixed_components((2, 3), 4),
        lambda g: [("one building set", stages_form_one_building_set(g))],
        lambda g: [("one building set", is_building_set(g, divisors_for(g)))]),
    Row("orbits", _every_space(5),
        lambda g: _orbit_items(g, orbits),
        lambda g: _orbit_items(g, orbits_by_brute_force)),
    Row("stabilizer-order", _every_space(4),  # the closed form n!/|orbit| against the n! scan
        lambda g: _orbit_items(g, lambda g, kind, size: [o.stabilizer_order for o in orbits(g, kind, size)]),
        lambda g: _orbit_items(g, lambda g, kind, size: [len(stabilizer(g, o.representative))
                                                      for o in orbits(g, kind, size)])),
    Row("fiber-tree", _every_space(4),
        lambda g: _fiber_trees(g, fiber_tree),
        lambda g: _fiber_trees(g, fiber_tree_by_placement)),
    Row("intersect-kernel", _mixed_components((2, 3), 4),
        lambda g: _kernel_pairs(g, _intersect),
        lambda g: _kernel_pairs(g, intersect_by_union_find)),
    Row("contains-locus", (point_components(2, n=4), _config(3, (0, 1))),
        lambda g: _containments(g, lambda outer, inner: contains_locus(g, outer, inner)),
        lambda g: _containments(g, contains_by_blocks)),
    Row("grid-model", tuple(_config(n, dims) for n in (2, 3) for dims in ((), (0,), (1,), (0, 1))),
        _grid_fast, _grid_slow),
    Row("partitions", tuple(range(1, 7)),
        lambda n: [("partitions of %d" % n, sum(1 for _ in partitions_of(n)))],
        lambda n: [("partitions of %d" % n, bell_numbers(n)[n])]),
)


__all__ = ["CheckResult", "GridModel", "ROWS", "Row", "bell_numbers", "building_order_by_prefixes",
           "certificate_by_rules", "contains_by_blocks", "fiber_tree_by_placement", "inclusion_by_pairs", "laminar",
           "maximal_by_rescan", "orbits_by_brute_force", "pair_compatible_by_relation", "partitions_of",
           "rewrite_by_prefixes", "run_all"]
