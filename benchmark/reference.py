"""Independent answers for the benchmark's checks.

Nothing here imports ``wonderful``.  A boundary divisor (or a stage-one
center) is a pair ``(component, mask)``: component c >= 1 names D_{c,S}, and
component 0 names the diagonal Delta_I.  Index sets are int bitmasks, bit
i-1 for point i.  Every configuration uses point components (dim 0).

The face counts come from a clique count of the pairwise rule below, and
that count is itself held to the literature anchors in ``ANCHORS`` by
``anchor_failures``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

FM, UPPER, BRACKET = "FM", "XD_upper", "XD_bracket"


def divisors(k: int, n: int, space: str) -> tuple[tuple[int, int], ...]:
    """All boundary divisors: D_{c,S} unless FM, Delta_I unless XD_upper."""
    out = []
    if space != FM:
        out += [(c, m) for c in range(1, k + 1) for m in range(1, 1 << n)]
    if space != UPPER:
        out += [(0, m) for m in range(1, 1 << n) if m.bit_count() >= 2]
    return tuple(sorted(out, key=sort_key))


def sort_key(d: tuple[int, int]) -> tuple:
    c, m = d
    return (0 if c else 1, c, m.bit_count(), elements(m))


def compatible(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """The pairwise nestedness rule over (component, subset)."""
    (c1, s1), (c2, s2) = a, b
    meet = s1 & s2
    if c1 and c2:  # two D-divisors: a chain on one component, disjoint across
        return meet in (s1, s2) if c1 == c2 else meet == 0
    if not c1 and not c2:  # two diagonals: laminar
        return meet in (0, s1, s2)
    diag = s2 if c1 else s1  # D_{c,S} with Delta_I: disjoint, or I inside S
    return meet in (0, diag)


def is_nested(sub) -> bool:
    return all(compatible(a, b) for a, b in itertools.combinations(sub, 2))


def elements(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def label(d: tuple[int, int]) -> str:
    c, m = d
    body = "{" + ",".join(map(str, elements(m))) + "}"
    return "D:c%d:%s" % (c, body) if c else "Delta:" + body


def parse_label(text: str) -> tuple[int, int]:
    head, _, body = text.rpartition(":")
    mask = 0
    for tok in body.strip("{}").split(","):
        if tok:
            mask |= 1 << (int(tok) - 1)
    return (int(head[3:]) if head.startswith("D:c") else 0, mask)


@lru_cache(maxsize=None)
def complex_of(k: int, n: int, space: str, keep_upto: int = -1, keep_facets: bool = False,
               max_size: int | None = None):
    """(f-vector, facets, faces) of the clique complex of ``compatible``,
    through faces of ``max_size`` divisors when it is given.

    Faces are frozensets of divisors; only those of size <= ``keep_upto`` are
    kept, and the maximal faces only when ``keep_facets`` is set, so that
    counting the big complexes stays small.  Each face is extended only by
    later compatible divisors, and the divisors compatible with all of it
    decide maximality.
    """
    divs = divisors(k, n, space)
    size = len(divs)
    adj = [sum(1 << j for j in range(size) if j != i and compatible(divs[i], divs[j]))
           for i in range(size)]
    counts = [0] * (size + 1)
    faces, facets = [], []

    def grow(face, cand, common):
        counts[len(face)] += 1
        if len(face) <= keep_upto:
            faces.append(frozenset(face))
        if keep_facets and not common:
            facets.append(frozenset(face))
        if len(face) == max_size:
            return
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            face.append(divs[j])
            grow(face, cand & adj[j], common & adj[j])
            face.pop()

    every = (1 << size) - 1
    grow([], every, every)
    while len(counts) > 1 and not counts[-1]:
        counts.pop()
    return tuple(counts), frozenset(facets), frozenset(faces)


def f_vector(k: int, n: int, space: str) -> tuple[int, ...]:
    return complex_of(k, n, space)[0]


def divisor_count(k: int, n: int, space: str) -> int:
    d_part = k * ((1 << n) - 1) if space != FM else 0
    delta_part = (1 << n) - n - 1 if space != UPPER else 0
    return d_part + delta_part


# -- literature anchors ------------------------------------------------------

# Schroeder's fourth problem, OEIS A000311, offset 0.
A000311 = (0, 1, 1, 4, 26, 236, 2752, 39208)


def double_factorial(m: int) -> int:
    return 1 if m <= 1 else m * double_factorial(m - 2)


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * factorial(k) // (factorial(j) * factorial(k - j)) * (k - j) ** n
               for j in range(k + 1)) // factorial(k)


def chain_f_vector(n: int) -> tuple[int, ...]:
    """One component, colliding points: nested sets are chains of nonempty
    subsets, i.e. ordered set partitions with a possibly empty last block."""
    return tuple(factorial(j) * stirling2(n, j) + factorial(j + 1) * stirling2(n, j + 1)
                 if j else 1 for j in range(n + 1))


# (what, configuration, expected).  M0,n is three point components with n-3
# points (Feichtner-Sturmfels, math/0411260); FM(n) is the minimal building
# set of the braid arrangement (Postnikov, math/0507163).
ANCHORS = (
    [("M0,%d total" % (n + 3), (3, n, BRACKET), A000311[n + 2]) for n in (2, 3, 4, 5)]
    + [("M0,%d facets" % (n + 3), (3, n, BRACKET), double_factorial(2 * (n + 3) - 5))
       for n in (2, 3, 4, 5)]
    + [("FM(%d) total" % n, (0, n, FM), 2 * A000311[n]) for n in (2, 3, 4, 5, 6)]
    + [("FM(%d) facets" % n, (0, n, FM), double_factorial(2 * n - 3)) for n in (2, 3, 4, 5, 6)]
    + [("k=2 n=%d total" % n, (2, n, BRACKET), t) for n, t in ((2, 16), (3, 126), (4, 1316))]
    + [("k=1 XD_upper n=%d chains" % n, (1, n, UPPER), chain_f_vector(n)) for n in (3, 4, 5, 6)]
)


def anchor_failures() -> list[str]:
    """Every anchor the clique count misses; empty when all agree.  Also
    checks that one component with n points has the f-vector of FM(n+1)."""
    bad = []
    for what, cfg, want in ANCHORS:
        fv = f_vector(*cfg)
        got = fv if isinstance(want, tuple) else sum(fv) if "total" in what else fv[-1]
        if got != want:
            bad.append("%s: expected %s, counted %s" % (what, want, got))
    for n in (1, 2, 3, 4, 5):
        if f_vector(1, n, BRACKET) != f_vector(0, n + 1, FM):
            bad.append("k=1 n=%d differs from FM(%d)" % (n, n + 1))
    return bad


# -- stage-one building sets (oracle workload) --------------------------------

def g_factors(sub) -> tuple[tuple[int, int], ...] | None:
    """G-factors of the intersection of D-centers on point components, or None
    when it is empty: D_{c,S} pins S to the point c, so the intersection pins
    the union P_c per component, is empty when two P_c meet, and its minimal
    containing members are the D_{c,P_c}."""
    pinned: dict[int, int] = {}
    for c, m in sub:
        pinned[c] = pinned.get(c, 0) | m
    if any(a & b for a, b in itertools.combinations(pinned.values(), 2)):
        return None
    return tuple(sorted(pinned.items()))


# -- blowup orders (session workload) ----------------------------------------

def _d_round(k: int, r: int) -> list[tuple[int, int]]:
    masks = range(1 << (r - 1), 1 << r)  # the subsets of {1..r} holding r
    return sorted(((c, m) for m in masks for c in range(1, k + 1)),
                  key=lambda d: (-d[1].bit_count(), elements(d[1]), d[0]))


def _delta_round(r: int) -> list[tuple[int, int]]:
    masks = [m for m in range(1 << (r - 1), 1 << r) if m.bit_count() >= 2]
    return [(0, m) for m in sorted(masks, key=lambda m: (-m.bit_count(), elements(m)))]


def two_block_order(k: int, n: int) -> list[str]:
    rounds = [d for r in range(1, n + 1) for d in _d_round(k, r)]
    rounds += [d for r in range(1, n + 1) for d in _delta_round(r)]
    return [label(d) for d in rounds]


def interleaved_order(k: int, n: int) -> list[str]:
    return [label(d) for r in range(1, n + 1) for d in _d_round(k, r) + _delta_round(r)]


def replay_swaps(source: list[str], swaps) -> list[str] | None:
    """Apply the rewrite's adjacent swaps; None if one does not match."""
    work = list(source)
    for s in swaps:
        p = s["position"]
        if work[p:p + 2] != [s["left"], s["right"]]:
            return None
        work[p], work[p + 1] = work[p + 1], work[p]
    return work


def contained_in(inner: tuple[int, int], outer: tuple[int, int]) -> bool:
    """Center containment with point components: D_{c,S} sits inside D_{c,T}
    for T in S and inside Delta_I for I in S; Delta_I inside Delta_J for J
    in I; a diagonal pins nothing, so it is never inside a D-center."""
    (ci, si), (co, so) = inner, outer
    if co:
        return ci == co and so & si == so
    return so & si == so


def inclusion_order_ok(labels: list[str]) -> bool:
    """A center strictly inside another is blown up before it."""
    centers = [parse_label(t) for t in labels]
    return all(not (contained_in(centers[j], centers[i]) and centers[i] != centers[j])
               for i in range(len(centers)) for j in range(i + 1, len(centers)))
