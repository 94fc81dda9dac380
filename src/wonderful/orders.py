"""Blowup sequences: the explicit construction orders, their validation, and
rewriting between orders by commuting adjacent centers.

Every generated order is a sort of ``nested.divisors_for(g)``; round k
holds the centers with max(S) = k, the index set's largest point.

* ``inclusion``  -- every divisor by ``inclusion_key``: bigger index
  sets first, D-loci before diagonals at equal size (which matters once a
  point component makes D_{c,S} a subvariety of a diagonal).  Where the
  two stages do not form one building set (below), stage by stage: the
  D-divisors by ``inclusion_key``, then the diagonals by it.
* ``reshuffled`` -- the D-divisors by round; every prefix of this order is
  itself a building set.  Without components it is the empty order.
* ``interleaved`` -- where points are distinct (``XD_bracket``, and FM, which
  is ``XD_bracket`` with D empty): every divisor by round, each round
  listing its D-divisors and then its diagonals.

``two_block_order`` is the concatenation that the interleaved order is
rearranged from, and runs where it does: the reshuffled D-divisors, then
the diagonals by round.  Inside a round ``_round_key`` orders by decreasing
size, then lexicographic index set, then component.

An order by inclusion builds the model of G when G is a building set (Li,
math/0611412).  The D-divisors and the diagonals together form one, except
in the space of distinct points with n >= 2 and a component D_c of positive
dimension e < d = dim X: there D_{c,{1,2}} and Delta_{12} meet in the
points x_1 = x_2 on D_c, of codimension d + (d - e), not the sum
2(d - e) + d, and neither contains the other (a point component puts
D_{c,{1,2}} inside Delta_{12}).  ``stages_form_one_building_set`` is that
closed form; where it is False, ``check_order`` also asks every D-locus to
come before every diagonal.

A stage-one order is checked by the union-closure rule.  Within a component
D_{c,S} cap D_{c,T} = D_{c,S cup T}, a Boolean lattice, and D-loci of two
components are disjoint or transversal.  So a family of D-loci is a building
set exactly when any two members of one component whose index sets overlap
without nesting have D_{c,S cup T} in it (Postnikov, math/0507163), and
every prefix of an order is one when each center finds that union with each
such earlier partner before itself.  The rule fails for diagonals, whose
lattice is the partition lattice: {Delta_12, Delta_13} is a building set
(they meet transversally in Delta_123), {Delta_12, Delta_13, Delta_23}, also
meeting in Delta_123, is not.  It fails for mixed families too: at n = 2,
D_{c,{1}} and D_{c,{2}} of a point component meet inside Delta_12.  Stage
two keeps the intersection closure, ``building.is_building_order``, which
is also the rule's slow route in ``certify``.

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
Each check refuses past ``nested.ORDER_CHECK_BOUND`` steps, read when called.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import nested
from .building import is_building_order
from .geometry import GeometryConfig, Space
from .labels import Frozen, elements, subset_key
from .loci import (
    Center,
    PairPosition,
    _containment_bits,
    _position,
    center_to_locus,
    validate_center,
)

SCHEMES = ("inclusion", "reshuffled", "interleaved")


class BlowupSequence(Frozen):
    _fields = ("geometry", "centers")

    def __init__(self, geometry: GeometryConfig, centers: tuple[Center, ...]):
        seen = set()
        for c in centers:
            validate_center(geometry, c)
            if c in seen:
                raise ValueError("repeated center %s in blowup sequence" % c)
            seen.add(c)
        self.__dict__.update(geometry=geometry, centers=centers)

    def __eq__(self, other):
        return ((self.geometry, self.centers) == (other.geometry, other.centers)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.geometry, self.centers))

    @staticmethod
    def _generated(g: GeometryConfig, centers: tuple[Center, ...]) -> "BlowupSequence":
        """A sort of ``divisors_for(g)``: valid, distinct centers, stored past ``__init__``'s checks."""
        seq = object.__new__(BlowupSequence)
        seq.__dict__.update(geometry=g, centers=centers)
        return seq

    def labels(self) -> list[str]:
        return [str(c) for c in self.centers]


def _round_key(c: Center) -> tuple:
    """Round, D-divisors first, decreasing size, index set, component."""
    s = c.subset
    return (s.bit_length(), not c.component, -s.bit_count(), subset_key(s)[1], c.component)


def inclusion_key(c: Center) -> tuple:
    """The ``inclusion`` scheme's key (module docstring).  D-loci of one size
    go lexicographically; diagonals of one size put the larger least element
    first, then go lexicographically: Delta:{2,3}, then {1,2}, then {1,3}."""
    s = c.subset
    if c.component:
        return (-s.bit_count(), 0, elements(s), c.component)
    return (-s.bit_count(), 1, (-(s & -s), elements(s)), 0)


def stages_form_one_building_set(g: GeometryConfig) -> bool:
    """Do the D-divisors and the diagonals of g form one building set of X^n?
    They do not where points are distinct, n >= 2 and a component has
    positive dimension (module docstring)."""
    return g.space is Space.XD_UPPER or g.n < 2 or not any(c.dim for c in g.components)


def generate_order(g: GeometryConfig, scheme: str) -> BlowupSequence:
    """``divisors_for(g)``, or its D-divisors for ``reshuffled``, sorted by
    the scheme's key; see the module docstring."""
    divisors = nested.divisors_for(g)
    if scheme == "inclusion":
        key = inclusion_key if stages_form_one_building_set(g) else lambda c: (not c.component, inclusion_key(c))
        return BlowupSequence._generated(g, tuple(sorted(divisors, key=key)))
    if scheme == "reshuffled":
        return BlowupSequence._generated(g, tuple(sorted((c for c in divisors if c.component), key=_round_key)))
    if scheme == "interleaved":
        if g.space is Space.XD_UPPER:
            raise ValueError("the interleaved scheme requires the space of distinct points")
        return BlowupSequence._generated(g, tuple(sorted(divisors, key=_round_key)))
    raise ValueError("unknown scheme %r; expected one of %s" % (scheme, ", ".join(SCHEMES)))


def two_block_order(g: GeometryConfig) -> BlowupSequence:
    """``divisors_for(g)``, D-divisors first, each block by the round key:
    the order the interleaved sequence is reachable from by commuting swaps."""
    if g.space is Space.XD_UPPER:
        raise ValueError("the two-block order requires the space of distinct points")
    return BlowupSequence._generated(
        g, tuple(sorted(nested.divisors_for(g), key=lambda c: (not c.component, _round_key(c)))))


class InclusionReport(NamedTuple):
    ok: bool
    violation: tuple[int, int, str] | None = None


def validate_inclusion_order(seq: BlowupSequence) -> InclusionReport:
    """A center strictly contained in another must be blown up first.

    Containment is decided on the locus codes, so point components
    contribute the extra constraints D_{c,S} before Delta_I for I inside S.
    A center's locus is never empty, so center j lies strictly inside center
    i when every constraint of i holds on j and the codes differ.  Column b
    is the bitmask of the centers whose code has bit b, so the centers
    inside center i are the AND of the columns of i's bits (those that
    decide containment, ``loci._containment_bits``); distinct centers
    have distinct codes, so those after i are the violations.  The first
    violating pair (i, j), smallest i and then smallest j, is reported.  It
    is charged the N(N-1)/2 containment tests of a pairwise scan of N
    centers, and past ``nested.ORDER_CHECK_BOUND`` raises ``BudgetError``
    before any work.
    """
    g = seq.geometry
    bound = nested.ORDER_CHECK_BOUND
    tests = len(seq.centers) * (len(seq.centers) - 1) // 2
    if tests > bound:
        raise nested.BudgetError(
            "refusing an inclusion check of more than %d containment tests"
            " (%d centers need %d)" % (bound, len(seq.centers), tests)
        )
    kept = _containment_bits(g.n)
    bits = [elements(center_to_locus(g, c).code & kept) for c in seq.centers]
    columns: dict[int, int] = {}  # a constraint bit -> the centers whose code has it
    for j, held in enumerate(bits):
        for b in held:
            columns[b] = columns.get(b, 0) | 1 << j
    for i, held in enumerate(bits):
        inside = -1 << i + 1  # the centers after i
        for b in held:
            inside &= columns[b]
        if inside:
            j = (inside & -inside).bit_length() - 1
            witness = "%s is strictly contained in %s but comes later" % (seq.centers[j], seq.centers[i])
            return InclusionReport(False, (i, j, witness))
    return InclusionReport(True)


def validate_building_set_order(seq: BlowupSequence) -> bool:
    """Is every prefix of the sequence a building set?

    D-loci (stage one) go by the union-closure rule (module docstring): each
    center is tested once against each earlier center of its component, and
    builds no locus.  Past ``nested.ORDER_CHECK_BOUND`` pair tests,
    sum_c m_c(m_c - 1)/2 with m_c the centers of component c, it raises
    ``BudgetError`` before the first.  Diagonals (stage two) go to the
    budgeted closure check, ``building.is_building_order``.  A sequence
    holding both is a ValueError; interleaved mixed orders are justified by
    ``swap_rewrite`` instead.
    """
    centers = seq.centers
    if len({not c.component for c in centers}) > 1:
        raise ValueError(
            "mixed-stage sequence; validate per stage or justify via swap_rewrite"
        )
    if centers and not centers[0].component:
        return is_building_order(seq.geometry, centers)
    bound = nested.ORDER_CHECK_BOUND
    tests = sum(m * (m - 1) // 2 for m in Counter(c.component for c in centers).values())
    if tests > bound:
        raise nested.BudgetError("refusing a building-set check of more than %d steps (%d D-loci need %d pair tests)"
                                 % (bound, len(centers), tests))
    earlier: dict[int, set[int]] = {}  # component -> index sets blown up so far
    for c in centers:
        s = c.subset
        seen = earlier.setdefault(c.component, set())
        for t in seen:
            union = s | t
            if s & t and union != s and union != t and union not in seen:
                return False
        seen.add(s)
    return True


def check_order(seq: BlowupSequence, scheme: str) -> str | None:
    """Why ``seq``, the order generated for ``scheme``, fails the check that
    justifies the scheme, or None when it passes.  Past
    ``nested.ORDER_CHECK_BOUND`` steps each check raises ``BudgetError``.

    * ``inclusion``: where the stages do not form one building set, no
      D-locus after a diagonal; then the containment rule,
      ``validate_inclusion_order``;
    * ``reshuffled``: every prefix is a building set, ``validate_building_set_order``;
    * ``interleaved``: certified swaps reach it from the two-block order, ``swap_rewrite``.
    """
    if scheme == "inclusion":
        diagonal = [] if stages_form_one_building_set(seq.geometry) else [not c.component for c in seq.centers]
        if diagonal != sorted(diagonal):  # a D-locus after a diagonal
            i = diagonal.index(True)
            return ("generated inclusion order failed validation: %s comes after %s, but the two stages"
                    " do not form one building set" % (seq.centers[diagonal.index(False, i)], seq.centers[i]))
        report = validate_inclusion_order(seq)
        return None if report.ok else "generated inclusion order failed validation: " + report.violation[2]
    if scheme == "reshuffled":
        return None if validate_building_set_order(seq) else (
            "generated reshuffled order failed validation: a prefix is not a building set")
    res = swap_rewrite(two_block_order(seq.geometry), seq)
    return None if res.ok else ("generated interleaved order failed validation: %s and %s do not commute"
                                " on the way from the two-block order" % res.blocking)


class SwapStep(NamedTuple):
    position: int
    left: str
    right: str
    certificate: str


class RewriteResult(NamedTuple):
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


def swap_rewrite(seq: BlowupSequence, target: BlowupSequence) -> RewriteResult:
    """Transform ``seq`` into ``target`` by adjacent certified swaps.

    Greedy bubble toward the target: the commutation relation is a partial
    commutation, so when the target is reachable the greedy order reaches it,
    and a blocked mandatory swap names the offending pair.  A rewrite that
    needs more than ``nested.ORDER_CHECK_BOUND`` swaps raises ``BudgetError``.
    """
    index = {c: i for i, c in enumerate(seq.centers)}  # both hold distinct centers
    if len(target.centers) != len(index) or not all(c in index for c in target.centers):
        raise ValueError("sequences do not hold the same centers")
    return _rewrite(seq, [index[c] for c in target.centers])


def _rewrite(seq: BlowupSequence, goal: list[int]) -> RewriteResult:
    """``swap_rewrite`` toward ``goal``, the target as indices into ``seq``."""
    g = seq.geometry
    bound = nested.ORDER_CHECK_BOUND
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
                raise nested.BudgetError("refusing a rewrite of more than %d swaps" % bound)
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
    "check_order",
    "generate_order",
    "inclusion_key",
    "stages_form_one_building_set",
    "swap_certificate",
    "swap_rewrite",
    "two_block_order",
    "validate_building_set_order",
    "validate_inclusion_order",
]
