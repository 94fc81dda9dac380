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
"""

from __future__ import annotations

from dataclasses import dataclass

from .building import BuildingSet, Stage, inclusion_key, is_building_set
from .geometry import GeometryConfig, Space
from .labels import subset_key, subsets
from .loci import (
    Center,
    Diagonal,
    DLocus,
    PairPosition,
    center_to_locus,
    contains_locus,
    pair_position,
    validate_center,
)

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


def validate_inclusion_order(seq: BlowupSequence) -> InclusionReport:
    """A center strictly contained in another must be blown up first.

    The containment test runs through the locus calculus, so point
    components contribute the extra constraints D_{c,S} before Delta_I for
    I inside S.  The first violating pair (i, j) is reported.
    """
    g = seq.geometry
    loci = [center_to_locus(g, c) for c in seq.centers]
    for i in range(len(loci)):
        for j in range(i + 1, len(loci)):
            if contains_locus(g, loci[i], loci[j]) and loci[i] != loci[j]:
                witness = "%s is strictly contained in %s but comes later" % (
                    seq.centers[j],
                    seq.centers[i],
                )
                return InclusionReport(False, (i, j, witness))
    return InclusionReport(True)


def validate_building_set_order(seq: BlowupSequence) -> bool:
    """Every prefix must satisfy the two building-set conditions.

    Only single-stage sequences are meaningful here (the D-family in the
    ambient product, or the diagonal transforms of stage two); interleaved
    mixed orders are justified by swap_rewrite instead.
    """
    kinds = {type(c) for c in seq.centers}
    if kinds == {DLocus, Diagonal}:
        raise ValueError(
            "mixed-stage sequence; validate per stage or justify via swap_rewrite"
        )
    stage = Stage.TRANSFORM if kinds == {Diagonal} else Stage.AMBIENT
    bs = BuildingSet(seq.geometry, seq.centers, stage)
    return all(
        is_building_set(seq.geometry, seq.centers[:k])
        for k in range(1, len(seq.centers) + 1)
    )


@dataclass(frozen=True)
class SwapStep:
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
    """Why the adjacent centers a, b may trade places after ``prefix``.

    Ambient disjointness or transversality always suffices.  Otherwise the
    pair may still commute at this stage of the construction:

    * D_{c,S} against Delta_I with |S cap I| >= 2: once D_{c, S cap I} is
      blown up, the offending directions are projectivized away and the two
      transforms meet transversally;
    * an overlapping same-family pair whose full intersection (D_{c,S cup S'}
      or Delta_{I cup J}) was already a blowup center: the transforms are
      then disjoint (the intersection sits inside that center, strictly
      inside each member).
    """
    pos = pair_position(g, a, b)
    if pos in (PairPosition.DISJOINT, PairPosition.TRANSVERSAL):
        return "ambient-" + pos.value
    prefix_set = set(prefix)
    d, delta = None, None
    if isinstance(a, DLocus) and isinstance(b, Diagonal) and b.is_simple:
        d, delta = a, b
    elif isinstance(b, DLocus) and isinstance(a, Diagonal) and a.is_simple:
        d, delta = b, a
    if d is not None:
        meet = d.subset & delta.index_set
        if meet.bit_count() >= 2 and DLocus(g.n, d.component, meet) in prefix_set:
            return "transform-transversal after blowing up %s" % DLocus(g.n, d.component, meet)
        union = d.subset | delta.index_set
        if union != d.subset and DLocus(g.n, d.component, union) in prefix_set:
            return "transform-disjoint after blowing up %s" % DLocus(g.n, d.component, union)
        return None
    if isinstance(a, DLocus) and isinstance(b, DLocus) and a.component == b.component:
        union = a.subset | b.subset
        if union not in (a.subset, b.subset):
            z = DLocus(g.n, a.component, union)
            if z in prefix_set:
                return "transform-disjoint after blowing up %s" % z
    if isinstance(a, Diagonal) and isinstance(b, Diagonal) and a.is_simple and b.is_simple:
        union = a.index_set | b.index_set
        if union not in (a.index_set, b.index_set):
            z = Diagonal.simple(g.n, union)
            if z in prefix_set:
                return "transform-disjoint after blowing up %s" % z
    return None


def swap_rewrite(seq: BlowupSequence, target: BlowupSequence) -> RewriteResult:
    """Transform ``seq`` into ``target`` by adjacent certified swaps.

    Greedy bubble toward the target: the commutation relation is a partial
    commutation, so when the target is reachable the greedy order reaches it,
    and a blocked mandatory swap names the offending pair.
    """
    g = seq.geometry
    if sorted(map(str, seq.centers)) != sorted(map(str, target.centers)):
        raise ValueError("sequences do not hold the same centers")
    work = list(seq.centers)
    steps: list[SwapStep] = []
    for p, want in enumerate(target.centers):
        q = work.index(want, p)
        for j in range(q, p, -1):
            left, right = work[j - 1], work[j]
            cert = swap_certificate(g, work[: j - 1], left, right)
            if cert is None:
                return RewriteResult(False, tuple(steps), (str(left), str(right)))
            steps.append(SwapStep(j - 1, str(left), str(right), cert))
            work[j - 1], work[j] = work[j], work[j - 1]
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
