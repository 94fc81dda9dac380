"""Building sets for the two-stage construction, G-factors, and the
flag characterization of nested sets.

Stage one lives in X^n and consists of all the D_{c,S}; stage two consists
of the proper transforms of the simple diagonals inside the blowup along
stage one.  Transforms of polydiagonals intersect in the transform of the
meet of their partitions, and containment and codimension match the ambient
diagonals, so both stages share the one locus calculus.  A member's stage is
read off its component, 0 exactly for a diagonal; ``building_set_for``
returns the two stages as a pair, and no tag records them.  (With no
components the stage-two family is just the Fulton-MacPherson diagonal
building set in X^n itself.)

A collection G is a building set when (1) its members pairwise intersect
cleanly and (2) for every sub-collection with nonempty intersection W, the
G-factors of W (the minimal members containing W) meet transversally and cut
out exactly W.  A sub-collection C of G is nested when some flag
W_1 <= ... <= W_k of nonempty intersections of members has every element of
C among the G-factors of some W_i.  Every such element contains W_1, so a
nested collection meets: when the meet of C is empty no flag can witness it,
and the oracle answers False there, as the full search would, without
building anything.  Otherwise the flag definition is implemented here
as one forward pass over the candidate flag entries, smallest locus first,
which keeps for each candidate the masks of C covered by the flags ending
there: at most 2^|C| masks per candidate.  It is kept strictly separate from
the closed-form pairwise criterion; the two are cross-validated in the test
suite, never reconciled silently.

Condition (2) and the flag search read an intersection closure: the
distinct nonempty intersections of sub-collections.  It is built by the prefix
recurrence closure(k) = closure(k-1) + {V_k} + {w cap V_k : w in
closure(k-1)}, which is exact because intersection is associative,
commutative and idempotent.  The same recurrence checks a blowup order, in
which every prefix must be a building set, in one pass: the G-factors of w
in prefix k are the minimal ones among the first k members containing w,
so member k changes them only for the w that lie inside V_k, and those are
exactly the elements w cap V_k that its step yields.  Only they are checked
again; ``is_building_set`` stays the check of one whole collection.  Only
the order check is budgeted, always, by ``nested.ORDER_CHECK_BOUND``.  It
checks stage-two orders; stage-one orders go by the union-closure rule in
``orders``, and this check is that rule's oracle.

The order check decides condition (2) by arithmetic, on two facts.  At an
element w of the closure the G-factors always cut out w: w is the meet of
some members, and each of them contains a minimal member containing w.
Codimension is subadditive on loci that meet, so the factors, which all
contain w, meet transversally exactly when their codimensions add up to
codim w.  ``is_building_set`` checks the definition as written; it is the
order check's slow route in ``certify``.
"""

from __future__ import annotations

from functools import cached_property

from . import nested
from .geometry import GeometryConfig
from .labels import Frozen, elements
from .loci import (
    Center,
    Locus,
    center_to_locus,
    codimension,
    intersect,
    intersect_all,
    meets_transversally,
    validate_center,
)


class BuildingSet(Frozen):
    _fields = ("geometry", "members")

    def __init__(self, geometry: GeometryConfig, members: tuple[Center, ...]):
        seen = set()
        for m in members:
            validate_center(geometry, m)
            if m in seen:
                raise ValueError("duplicate building-set member %s" % m)
            seen.add(m)
        self.__dict__.update(geometry=geometry, members=members)

    def __eq__(self, other):
        return ((self.geometry, self.members) == (other.geometry, other.members)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.geometry, self.members))

    @cached_property
    def _table(self) -> "_MemberTable":
        return _MemberTable(self.geometry, self.members)


class _MemberTable:
    """What the queries on a collection of members look up.  A building set
    builds its table on first use and keeps it, so the table is found
    without hashing the members.

    ``loci[k]`` is the locus of member k and ``index`` maps each member to k;
    ``below[k]`` is the bitmask of the members strictly contained in member
    k; ``above`` maps a locus code to the bitmask of the members containing
    that locus, and ``factors`` to the bitmask of its G-factors.
    """

    def __init__(self, g: GeometryConfig, members):
        self.loci = tuple(center_to_locus(g, m) for m in members)
        self.index = {m: k for k, m in enumerate(members)}
        # member loci are nonempty, so strict containment is the mask test on codes
        self.below = tuple(
            sum(1 << j for j, mj in enumerate(self.loci) if not mk.code & ~mj.code and mk.code != mj.code)
            for mk in self.loci
        )
        self.above: dict[int, int] = {}
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

    def factor_mask(self, lo: Locus, within: int = -1) -> int:
        """The G-factors of a nonempty locus among the members in the bitmask
        ``within`` (all of them by default, and then remembered): the
        members containing it with no other such member strictly inside
        them."""
        whole = within == -1
        code = lo.code
        if whole and code in self.factors:
            return self.factors[code]
        containing = self.above.get(code)
        if containing is None:
            # every member locus is nonempty, so containment is the mask test
            containing = self.above[code] = sum(1 << k for k, ml in enumerate(self.loci) if not ml.code & ~code)
        containing &= within
        out = 0
        rest = containing
        while rest:
            low = rest & -rest
            rest ^= low
            if not self.below[low.bit_length() - 1] & containing:
                out |= low
        if whole:
            self.factors[code] = out
        return out


def building_set_for(g: GeometryConfig) -> tuple[BuildingSet, BuildingSet]:
    """The two stages of the construction for the configured space.

    ``nested.divisors_for(g)`` split on the component: the first stage
    holds every D_{c,S} with S nonempty (empty for FM), the second the
    transforms of every simple diagonal with |I| >= 2 (empty for the space
    where points may collide), each in the canonical divisor order.
    """
    divisors = nested.divisors_for(g)
    return (
        BuildingSet(g, tuple(c for c in divisors if c.component)),
        BuildingSet(g, tuple(c for c in divisors if not c.component)),
    )


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


def _closure_steps(g: GeometryConfig, loci, bound: int | None = None, spent: int = 0):
    """For each locus in turn, yield the elements of the intersection
    closure of the loci so far that lie inside it, as a dict from code to
    locus: the locus itself (when nonempty) and its nonempty intersections
    with the closure of the earlier loci.  An earlier element w lies inside
    the new locus exactly when w meets it in w, so it is among them.

    Each locus costs one ``intersect`` per element of the closure so far;
    when ``spent`` plus those calls would pass ``bound``, the walk raises a
    BudgetError instead."""
    closure: dict[int, Locus] = {}
    for lo in loci:
        inside: dict[int, Locus] = {}
        if not lo.is_empty:
            spent += len(closure)
            if bound is not None and spent > bound:
                raise _over_budget(bound)
            inside[lo.code] = lo
            for w in closure.values():
                li = intersect(g, w, lo)
                if not li.is_empty:
                    inside[li.code] = li
            closure.update(inside)
        yield inside


def _over_budget(bound: int) -> nested.BudgetError:
    return nested.BudgetError(
        "refusing a building-set check of more than %d steps"
        " (containment tests between members, then intersections)" % bound
    )


def _intersection_closure(g: GeometryConfig, loci) -> list[Locus]:
    """The distinct nonempty intersections of sub-collections of ``loci``, by
    the prefix recurrence: closure(k) is closure(k-1), locus k, and locus k
    met with each element of closure(k-1).  Intersection is associative,
    commutative and idempotent, so nothing is missed."""
    closure: dict[int, Locus] = {}
    for inside in _closure_steps(g, loci):
        closure.update(inside)
    return list(closure.values())


def is_nested_flag_oracle(bs: BuildingSet, sub) -> bool:
    """Decide nestedness by searching for a witnessing flag.

    A witnessing flag starts at a nonempty W_1 lying inside every member of
    ``sub``, so a collection whose members do not meet is not nested; it is
    refused on its meet, with the answer the search below would give, before
    any candidate is built.

    Candidate flag entries are the distinct nonempty intersections of
    sub-collections of ``sub``.  Nothing is lost by this bound: replacing a
    witnessing W_i by the intersection of the sub-elements containing W_i
    keeps the flag ordered and keeps every factor a factor, since a strictly
    smaller member squeezing between the new W_i and a factor would have done
    so for the old W_i already.

    The search is one forward pass.  The cover of a candidate is the mask of
    the members of ``sub`` among its G-factors.  Candidates are visited by
    decreasing number of code bits, so every candidate strictly inside
    another comes first.  Each keeps the set of covered masks of the flags
    ending at it: its own cover, and its cover OR'd onto every mask kept by
    a visited candidate inside it.  ``sub`` is nested as soon as a set holds
    the full mask.  The sets have at most 2^|sub| masks each, and the pass
    never reads ``pair_compatible``.
    """
    g = bs.geometry
    table = bs._table
    sub = table.indices(dict.fromkeys(sub))
    if not sub:
        return True
    loci = [table.loci[k] for k in sub]
    if intersect_all(g, loci).is_empty:
        return False
    candidates = _intersection_closure(g, loci)

    want = (1 << len(sub)) - 1
    bits = [(k, 1 << i) for i, k in enumerate(sub)]
    cover = {}
    for lo in candidates:
        factors = table.factor_mask(lo)
        mask = 0
        for k, bit in bits:
            if factors >> k & 1:
                mask |= bit
        cover[lo.code] = mask

    # flags climb from smaller loci to bigger ones, and a strictly smaller
    # locus has strictly more constraint bits; every candidate is nonempty,
    # so W_i <= W_j is the mask test on the codes
    ending: list[tuple[int, set[int]]] = []
    for code in sorted(cover, key=int.bit_count, reverse=True):
        mine = cover[code]
        covered = {mine}
        for inner, flags in ending:
            if not code & ~inner:
                covered.update([f | mine for f in flags])
        if want in covered:
            return True
        ending.append((code, covered))
    return False


def is_building_set(g: GeometryConfig, members) -> bool:
    """Check the two building-set conditions for the collection itself.

    Condition (2) quantifies over sub-collections with nonempty intersection;
    their distinct intersections are the intersection closure of the member
    loci.  Condition (1) holds throughout these families: every pair of
    centers is simultaneously linearizable, so it intersects cleanly.
    """
    table = _MemberTable(g, list(members))
    for w in _intersection_closure(g, table.loci):
        factors = table.factor_mask(w)
        factor_loci = [lo for k, lo in enumerate(table.loci) if factors >> k & 1]
        if intersect_all(g, factor_loci) != w or not meets_transversally(g, factor_loci):
            return False
    return True


def is_building_order(g: GeometryConfig, members) -> bool:
    """Is every prefix of ``members`` a building set?  One pass over the
    order, which builds the intersection closure by the prefix recurrence.

    The G-factors of w in prefix k are the minimal ones among the first k
    members containing w, so they differ from those in prefix k-1 only when
    member k contains w.  Those w, the new elements included, are what
    ``_closure_steps`` yields for member k, and only they are checked again,
    by adding the factors' codimensions (module docstring).

    The work is the containment tests between members, then one
    intersection per closure element and member; past
    ``nested.ORDER_CHECK_BOUND`` such steps the pass raises a BudgetError.
    """
    bound = nested.ORDER_CHECK_BOUND
    members = list(members)
    spent = len(members) ** 2
    if spent > bound:
        raise _over_budget(bound)
    table = _MemberTable(g, members)
    codims = [codimension(g, lo) for lo in table.loci]
    for k, inside in enumerate(_closure_steps(g, table.loci, bound, spent)):
        prefix = (2 << k) - 1
        for w in inside.values():
            if sum(codims[j - 1] for j in elements(table.factor_mask(w, prefix))) != codimension(g, w):
                return False
    return True


__all__ = [
    "BuildingSet",
    "building_set_for",
    "factors_of_locus",
    "g_factors",
    "is_building_order",
    "is_building_set",
    "is_nested_flag_oracle",
]
