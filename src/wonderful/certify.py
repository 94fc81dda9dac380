"""Cross-validation suite: the independent routes through the combinatorics
must agree.

Each check pits two computations of different provenance against each other:
closed-form counting against exhaustive enumeration, the pairwise nestedness
criterion against the flag-search oracle, the specialized moduli counts
(rational curves with marked points) against the general machinery, and the
order generators against the order validators.  A mismatch is reported, not
reconciled.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .building import building_set_for, is_building_set, is_nested_flag_oracle
from .geometry import Component, GeometryConfig, Space, point_components
from .labels import subset_relation, SubsetRelation
from .loci import _pair_position_by_loci, pair_position
from .nested import (
    _compatibility_rows,
    _f_vector_by_walk,
    count_divisors,
    divisors_for,
    enumerate_nested_sets,
    f_vector,
    is_nested,
    maximal_nested_sets,
    pair_compatible,
)
from .orders import (
    BlowupSequence,
    generate_order,
    swap_rewrite,
    two_block_order,
    validate_building_set_order,
    validate_inclusion_order,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_divisor_counts() -> CheckResult:
    for space in (Space.XD_UPPER, Space.XD_BRACKET, Space.FM):
        for k in (0, 1, 2, 3):
            if space is Space.FM and k:
                continue
            for n in (1, 2, 3):
                g = point_components(k, space=space, n=n)
                formula = count_divisors(g)
                enumerated = len(enumerate_nested_sets(g, max_size=1)) - 1
                if formula != enumerated:
                    return CheckResult(
                        "divisor-count-formula", False,
                        "space=%s k=%d n=%d: formula %d vs enumerated %d"
                        % (space.value, k, n, formula, enumerated),
                    )
    return CheckResult("divisor-count-formula", True, "formulas match enumeration")


def _check_moduli_counts() -> CheckResult:
    expected = {1: 3, 2: 10, 3: 25, 4: 56}
    for m, want in expected.items():
        g = point_components(3, n=m)
        got = count_divisors(g)
        n_pts = m + 3
        closed = (1 << (n_pts - 1)) - n_pts - 1
        if got != want or closed != want:
            return CheckResult(
                "moduli-divisor-counts", False,
                "m=%d: got %d, closed form %d, expected %d" % (m, got, closed, want),
            )
    g5 = point_components(3, n=2)
    fv = f_vector(g5)
    facets = maximal_nested_sets(g5)
    if fv != (1, 10, 15) or len(facets) != 15 or any(len(f) != 2 for f in facets):
        return CheckResult("moduli-complex", False, "five-point moduli complex mismatch: f=%r" % (fv,))
    # the fiber-tree recursion against the walk: M_{0,5..8}, FM(3..6), k=2 n<=5
    for g in ([point_components(3, n=m) for m in range(2, 6)]
              + [GeometryConfig(n, 1, (), Space.FM) for n in range(3, 7)]
              + [point_components(2, n=n) for n in range(1, 6)]):
        fast, slow = f_vector(g), _f_vector_by_walk(g)
        if fast != slow:
            return CheckResult("moduli-complex", False, "f-vector %r, walk %r (%r)" % (fast, slow, g))
    return CheckResult(
        "moduli-divisor-counts", True,
        "3, 10, 25, 56 and f=(1,10,15) with 15 facets; f-vector recursion == walk on 13 configurations",
    )


def _check_oracle_agreement() -> CheckResult:
    # small configurations: every collection outright
    for k, n in [(1, 2), (2, 2), (1, 3)]:
        g = point_components(k, space=Space.XD_UPPER, n=n)
        first, _ = building_set_for(g)
        members = first.members
        for picks in itertools.product((0, 1), repeat=len(members)):
            sub = [members[i] for i in range(len(members)) if picks[i]]
            if is_nested(g, sub) != is_nested_flag_oracle(first, sub):
                return CheckResult(
                    "nested-oracle-agreement", False,
                    "k=%d n=%d disagreement on %s" % (k, n, [str(d) for d in sub]),
                )
    # larger configuration: both predicates are downward closed, so agreement
    # on pairs plus oracle truth on every pairwise-nested collection covers
    # all collections
    g = point_components(2, space=Space.XD_UPPER, n=3)
    first, _ = building_set_for(g)
    members = first.members
    for pair in itertools.combinations(members, 2):
        if is_nested(g, pair) != is_nested_flag_oracle(first, pair):
            return CheckResult("nested-oracle-agreement", False, "pair disagreement %s" % [str(d) for d in pair])
    for ns in enumerate_nested_sets(g):
        if not is_nested_flag_oracle(first, ns.divisors):
            return CheckResult("nested-oracle-agreement", False, "oracle rejects nested %s" % list(ns.labels()))
    return CheckResult("nested-oracle-agreement", True, "closed form == flag oracle on all small D-collections")


def _laminar(masks) -> bool:
    return all(
        subset_relation(a, b) is not SubsetRelation.OVERLAPPING
        for a, b in itertools.combinations(masks, 2)
    )


def _check_fm_forest() -> CheckResult:
    for n in (2, 3, 4):
        g = GeometryConfig(n, 1, (), Space.FM)
        divisors = divisors_for(g)
        for picks in itertools.product((0, 1), repeat=len(divisors)):
            ds = [divisors[i] for i in range(len(divisors)) if picks[i]]
            if is_nested(g, ds) != _laminar([d.subset for d in ds]):
                return CheckResult(
                    "fm-forest-oracle", False,
                    "n=%d disagreement on %s" % (n, [str(d) for d in ds]),
                )
    return CheckResult("fm-forest-oracle", True, "nestedness == laminarity with no components")


def _every_prefix_by_definition(seq: BlowupSequence) -> bool:
    """The building-set order condition as stated: one ``is_building_set``
    per prefix, against the one-pass ``validate_building_set_order``."""
    return all(is_building_set(seq.geometry, seq.centers[:k]) for k in range(1, len(seq.centers) + 1))


def _check_orders() -> CheckResult:
    rng = random.Random(0)
    shuffled = rejected = 0
    for k in (1, 2):
        for n in (2, 3):
            g = point_components(k, n=n)
            if not validate_inclusion_order(generate_order(g, "inclusion")).ok:
                return CheckResult("order-machinery", False, "inclusion order invalid (k=%d n=%d)" % (k, n))
            reshuffled = generate_order(g, "reshuffled")
            if not validate_building_set_order(reshuffled) or not _every_prefix_by_definition(reshuffled):
                return CheckResult("order-machinery", False, "reshuffled order invalid (k=%d n=%d)" % (k, n))
            # seeded shuffles of both stages: the one pass against every prefix
            for stage in building_set_for(g):
                for _ in range(4):
                    members = list(stage.members)
                    rng.shuffle(members)
                    seq = BlowupSequence(g, tuple(members[:8]))
                    fast = validate_building_set_order(seq)
                    if fast != _every_prefix_by_definition(seq):
                        return CheckResult(
                            "order-machinery", False,
                            "one-pass order check says %s on %s (k=%d n=%d)" % (fast, seq.labels(), k, n),
                        )
                    shuffled += 1
                    rejected += not fast
            res = swap_rewrite(two_block_order(g), generate_order(g, "interleaved"))
            if not res.ok:
                return CheckResult(
                    "order-machinery", False,
                    "two-block order not rewritable (k=%d n=%d), blocked at %r" % (k, n, res.blocking),
                )
    g_mixed = GeometryConfig(3, 2, (Component("q", 1),), Space.XD_BRACKET)
    if not validate_inclusion_order(generate_order(g_mixed, "inclusion")).ok:
        return CheckResult("order-machinery", False, "inclusion order invalid for a positive-dimensional component")
    return CheckResult(
        "order-machinery", True,
        "generated orders validate; two-block rewrites to interleaved; one-pass == per-prefix"
        " building-set check on %d shuffled orders (%d not building orders)" % (shuffled, rejected),
    )


def _check_fast_pair_rules() -> CheckResult:
    """Closed-form pair positions against the locus route, and subset-table
    compatibility rows against pairwise rows, on every pair."""
    pairs = 0
    for space in Space:
        for k in range(1 if space is Space.FM else 4):
            comps = tuple(Component("c%d" % (i + 1), i % 2) for i in range(k))
            for n in range(1, 5):
                g = GeometryConfig(n, 2, comps, space)
                ds = divisors_for(g)
                rows = _compatibility_rows(n, ds)
                for i, a in enumerate(ds):
                    row = 0
                    for j, b in enumerate(ds):
                        if pair_position(g, a, b) is not _pair_position_by_loci(g, a, b):
                            return CheckResult("fast-pair-rules", False, "position of %s, %s (%r)" % (a, b, g))
                        row |= (i != j and pair_compatible(a, b)) << j
                    if rows[i] != row:
                        return CheckResult("fast-pair-rules", False, "compatibility row of %s (%r)" % (a, g))
                pairs += len(ds) ** 2
    return CheckResult("fast-pair-rules", True, "closed forms == locus route and pairwise rows on %d pairs" % pairs)


def run_all() -> list[CheckResult]:
    return [
        _check_divisor_counts(),
        _check_moduli_counts(),
        _check_oracle_agreement(),
        _check_fm_forest(),
        _check_orders(),
        _check_fast_pair_rules(),
    ]


__all__ = ["CheckResult", "run_all"]
