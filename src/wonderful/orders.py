"""Blowup sequences: the explicit construction orders, their validation, and
rewriting between orders by commuting adjacent centers.

Three generated schemes:

* ``inclusion``  -- all centers of the configured space sorted so that a
  center contained in another comes first (bigger index sets first; D-loci
  before diagonals at equal size, which matters once a point component makes
  D_{c,S} a subvariety of a diagonal).
* ``reshuffled`` -- the D-centers in rounds k = 1..n, round k holding the
  D_{c,S} with max(S) = k by decreasing size; every prefix of this order is
  itself a building set.
* ``interleaved`` -- for the space of distinct points: each round lists its
  D-centers and then its diagonals Delta_I with max(I) = k, decreasing size.

``two_block_order`` is the concatenation that the interleaved order is
rearranged from: all D-rounds, then all diagonal rounds.

Two adjacent centers may swap when their blowups commute.  That holds when
they are disjoint or transversal in the ambient product (all these centers
are simultaneously linearizable, so the ambient classification survives the
earlier blowups), and in two transform situations certified against the
prefix already blown up: a prior center D_{c, S cap I} straightens the
excess directions between D_{c,S} and Delta_I, making their transforms
transversal, and a prior center equal to the whole intersection of an
overlapping same-family pair separates the transforms outright.

``swap_rewrite`` is one kernel on indices into the source sequence, whose
centers ``BlowupSequence`` has validated once.  Each center's component,
index set and label sit in lists, and the work order is a list of center
indices with the position of each index beside it.  A pair is classified
by ``loci._position``; the staged rules read the lists.  A prior center is
looked up by its (component, index set) key, which gives its index; it
counts as blown up when that index sits before the swap position.
Polydiagonals have index set 0, so no staged rule finds one.  The
certificate strings naming a witness are built once per center, so a swap
allocates only its ``SwapStep`` tuple.  ``swap_certificate`` is the same
kernel on one swap after any prefix of centers, validated;
``certify.certificate_by_rules`` states the rules apart, one swap at a
time, and ``certify``'s ``rewrite-replay`` row holds the kernel to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .building import inclusion_key, is_building_order
from .geometry import GeometryConfig, Space
from .labels import subset_key, subsets
from .loci import (
    Center,
    Diagonal,
    DLocus,
    PairPosition,
    _position,
    center_to_locus,
    validate_center,
)
from .nested import BudgetError

SCHEMES = ("inclusion", "reshuffled", "interleaved")


@dataclass(frozen=True)
class BlowupSequence:
    geometry: GeometryConfig
    centers: tuple[Center, ...]

    def __post_init__(self):
        seen = set()
        for c in self.centers:
            validate_center(self.geometry, c)
            if c in seen:
                raise ValueError("repeated center %s in blowup sequence" % c)
            seen.add(c)

    def labels(self) -> list[str]:
        return [str(c) for c in self.centers]


def _d_round(g: GeometryConfig, k: int) -> list[Center]:
    top = 1 << (k - 1)
    out = []
    for mask in subsets(k, min_size=1):
        if mask & top:
            for c in range(1, g.n_components + 1):
                out.append(DLocus(g.n, c, mask))
    out.sort(key=lambda c: (-c.subset.bit_count(), subset_key(c.subset)[1], c.component))
    return out


def _delta_round(g: GeometryConfig, k: int) -> list[Center]:
    top = 1 << (k - 1)
    masks = [m for m in subsets(k, min_size=2) if m & top]
    masks.sort(key=lambda m: (-m.bit_count(), subset_key(m)[1]))
    return [Diagonal.simple(g.n, m) for m in masks]


def generate_order(g: GeometryConfig, scheme: str) -> BlowupSequence:
    """Generate the named construction order; see the module docstring.

    Ties inside rounds are broken by decreasing size, then lexicographic
    index set, then component index; the displayed one-component orders fix
    everything up to these conventions.
    """
    if scheme == "inclusion":
        centers: list[Center] = []
        if g.space is not Space.FM:
            for c in range(1, g.n_components + 1):
                for mask in subsets(g.n, min_size=1):
                    centers.append(DLocus(g.n, c, mask))
        if g.space is not Space.XD_UPPER:
            for mask in subsets(g.n, min_size=2):
                centers.append(Diagonal.simple(g.n, mask))
        centers.sort(key=inclusion_key)
        return BlowupSequence(g, tuple(centers))
    if scheme == "reshuffled":
        if g.space is Space.FM:
            raise ValueError("the reshuffled scheme orders D-centers; space FM has none")
        centers = []
        for k in range(1, g.n + 1):
            centers.extend(_d_round(g, k))
        return BlowupSequence(g, tuple(centers))
    if scheme == "interleaved":
        if g.space is not Space.XD_BRACKET:
            raise ValueError("the interleaved scheme requires the space of distinct points")
        centers = []
        for k in range(1, g.n + 1):
            centers.extend(_d_round(g, k))
            centers.extend(_delta_round(g, k))
        return BlowupSequence(g, tuple(centers))
    raise ValueError("unknown scheme %r; expected one of %s" % (scheme, ", ".join(SCHEMES)))


def two_block_order(g: GeometryConfig) -> BlowupSequence:
    """All D-rounds first, then all diagonal rounds: the order the interleaved
    sequence is reachable from by commuting swaps."""
    if g.space is not Space.XD_BRACKET:
        raise ValueError("the two-block order requires the space of distinct points")
    centers: list[Center] = []
    for k in range(1, g.n + 1):
        centers.extend(_d_round(g, k))
    for k in range(1, g.n + 1):
        centers.extend(_delta_round(g, k))
    return BlowupSequence(g, tuple(centers))


@dataclass(frozen=True)
class InclusionReport:
    ok: bool
    violation: tuple[int, int, str] | None = None


def validate_inclusion_order(seq: BlowupSequence, bound: int | None = None) -> InclusionReport:
    """A center strictly contained in another must be blown up first.

    Containment is decided on the locus codes, so point components
    contribute the extra constraints D_{c,S} before Delta_I for I inside S.
    A center's locus is never empty, so center j lies strictly inside center
    i when every constraint of i holds on j and the codes differ.  The first
    violating pair (i, j) is reported.  The check makes at most N(N-1)/2
    containment tests on N centers; when that is more than ``bound`` it
    raises ``nested.BudgetError`` before testing any.
    """
    g = seq.geometry
    tests = len(seq.centers) * (len(seq.centers) - 1) // 2
    if bound is not None and tests > bound:
        raise BudgetError(
            "refusing an inclusion check of more than %d containment tests"
            " (%d centers need %d)" % (bound, len(seq.centers), tests)
        )
    codes = [center_to_locus(g, c).code for c in seq.centers]
    lacks = [~code for code in codes]  # the constraints each locus lacks
    for i, outer in enumerate(codes):
        for j in range(i + 1, len(codes)):
            if not outer & lacks[j] and outer != codes[j]:
                witness = "%s is strictly contained in %s but comes later" % (seq.centers[j], seq.centers[i])
                return InclusionReport(False, (i, j, witness))
    return InclusionReport(True)


def validate_building_set_order(seq: BlowupSequence, bound: int | None = None) -> bool:
    """Is every prefix of the sequence a building set?

    One pass over the order (``building.is_building_order``): a new center
    re-checks only the intersections that lie inside it.  Past ``bound``
    steps (containment tests between the centers, then intersections) the
    pass raises ``nested.BudgetError``.  Only single-stage
    sequences are meaningful here (the D-family in the ambient product, or
    the diagonal transforms of stage two); a sequence holding both D-loci
    and diagonals is a ValueError, and interleaved mixed orders are
    justified by ``swap_rewrite`` instead.
    """
    if {type(c) for c in seq.centers} == {DLocus, Diagonal}:
        raise ValueError(
            "mixed-stage sequence; validate per stage or justify via swap_rewrite"
        )
    return is_building_order(seq.geometry, seq.centers, bound)


class SwapStep(NamedTuple):
    position: int
    left: str
    right: str
    certificate: str


@dataclass(frozen=True)
class RewriteResult:
    ok: bool
    swaps: tuple[SwapStep, ...]
    blocking: tuple[str, str] | None = None


def swap_certificate(g: GeometryConfig, prefix, a: Center, b: Center) -> str | None:
    """Why the adjacent centers a, b may trade places after ``prefix``, the
    distinct centers already blown up (any iterable of centers), or None.

    Ambient disjointness or transversality always suffices.  Otherwise the
    pair may still commute at this stage of the construction:

    * D_{c,S} against Delta_I with |S cap I| >= 2: once D_{c, S cap I} is
      blown up, the offending directions are projectivized away and the two
      transforms meet transversally;
    * an overlapping same-family pair whose full intersection (D_{c,S cup S'}
      or Delta_{I cup J}) was already a blowup center: the transforms are
      then disjoint (the intersection sits inside that center, strictly
      inside each member).

    The rules are the rewrite kernel's, run on one swap of ``prefix + [a, b]``.
    """
    seq = BlowupSequence(g, (*prefix, a, b))
    m = len(seq.centers) - 2
    res = _rewrite(seq, [*range(m), m + 1, m])
    return res.swaps[0].certificate if res.ok else None


def swap_rewrite(seq: BlowupSequence, target: BlowupSequence, bound: int | None = None) -> RewriteResult:
    """Transform ``seq`` into ``target`` by adjacent certified swaps.

    Greedy bubble toward the target: the commutation relation is a partial
    commutation, so when the target is reachable the greedy order reaches it,
    and a blocked mandatory swap names the offending pair.  A rewrite that
    needs more than ``bound`` swaps raises ``nested.BudgetError``.
    """
    labels, wanted = seq.labels(), target.labels()
    if sorted(labels) != sorted(wanted):
        raise ValueError("sequences do not hold the same centers")
    index = {t: i for i, t in enumerate(labels)}  # a label names one center
    return _rewrite(seq, [index[t] for t in wanted], bound)


def _rewrite(seq: BlowupSequence, goal: list[int], bound: int | None = None) -> RewriteResult:
    """``swap_rewrite`` toward ``goal``, the target as indices into ``seq``."""
    g = seq.geometry
    centers = seq.centers
    labels = seq.labels()
    comp = [c.component for c in centers]
    sub = [c.subset for c in centers]
    keyed = {key: i for i, key in enumerate(zip(comp, sub)) if key[1]}
    crossing = ["transform-transversal after blowing up " + t for t in labels]
    apart = ["transform-disjoint after blowing up " + t for t in labels]
    work = list(range(len(centers)))  # center indices in their current order
    # where[i]: the current position of center i; the extra entry is the
    # position of a missing witness, behind every swap
    missing = len(centers)
    where = work + [missing]
    disjoint, transversal = PairPosition.DISJOINT, PairPosition.TRANSVERSAL
    steps: list[SwapStep] = []
    for p, want in enumerate(goal):
        for j in range(where[want], p, -1):
            left, right = work[j - 1], work[j]
            limit = j - 1  # the centers before the swap are blown up
            if len(steps) == bound:
                raise BudgetError("refusing a rewrite of more than %d swaps" % bound)
            pos = _position(g, centers[left], centers[right])
            if pos is disjoint:
                cert = "ambient-disjoint"
            elif pos is transversal:
                cert = "ambient-transversal"
            else:  # a staged rule; neither a polydiagonal (index set 0) nor a
                # member of the pair, which sits at the swap, is ever a witness
                ca, cb, s, t = comp[left], comp[right], sub[left], sub[right]
                union = s | t
                if ca == cb:  # one family: two D-loci of one component, or two diagonals
                    w = keyed.get((ca, union), missing)
                    cert = apart[w] if where[w] < limit else None
                else:  # D_{c,S} against Delta_I with |S cap I| >= 2: one of ca, cb is 0
                    w = keyed.get((ca or cb, s & t), missing)
                    cert = crossing[w] if where[w] < limit else None
                    if cert is None:
                        w = keyed.get((ca or cb, union), missing)
                        cert = apart[w] if where[w] < limit else None
                if cert is None:
                    return RewriteResult(False, tuple(steps), (labels[left], labels[right]))
            steps.append(SwapStep(limit, labels[left], labels[right], cert))
            work[limit], work[j] = right, left
            where[right], where[left] = limit, j
    return RewriteResult(True, tuple(steps))


__all__ = [
    "SCHEMES",
    "BlowupSequence",
    "InclusionReport",
    "RewriteResult",
    "SwapStep",
    "generate_order",
    "swap_certificate",
    "swap_rewrite",
    "two_block_order",
    "validate_building_set_order",
    "validate_inclusion_order",
]
