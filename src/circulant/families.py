"""Parametric families of Type-2 isomorphic circulant graphs.

Two generators emit family instances, each an ordered list of graphs of
a common order n = (something) * m^3 together with the rotation steps that
are claimed to map each set onto the next: family_m2 (the m = 2 pair) and
family_general_p (the p-cycle of order n*p^3), of which family_m3 (the
m = 3 triple, declared at step n alone) is the case p = 3.  anchor_swapped
widens any of them with extra jumps m*p_i, and KINDS names the
combinations the command line offers.  family_verify
re-derives every claimed relation via the verifier
(oracle.verify_theta_witness, jump by jump on the m residue classes) and
computes the Type-2 set and group of the family, so generator bugs cannot
slip through as silent claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .core import CirculantGraph, fold, gcd_profile, make_circulant
from .errors import (
    DegenerateFamily,
    InvalidFamilyParams,
    InvalidJump,
    VerificationFailure,
)
from .groups import t2_group, t2_set
from .oracle import verify_theta_witness
from .theta import ThetaParams, theta_reasons
from .type1 import type1_witnesses


class FamilyClaim(Enum):
    TYPE2 = "type2"
    TYPE1_OR_TYPE2 = "type1-or-type2"


@dataclass(frozen=True)
class ThetaRelation:
    """theta at step t maps sets[source] onto sets[target]."""

    t: int
    source: int
    target: int


@dataclass
class FamilyInstance:
    order: int
    m: int
    sets: tuple[CirculantGraph, ...]
    relations: tuple[ThetaRelation, ...]
    claim: FamilyClaim

    def __post_init__(self):
        for i, s in enumerate(self.sets):
            if s.n != self.order:
                raise InvalidFamilyParams(f"member {s} has order {s.n}, not {self.order}")
            if s in self.sets[:i]:
                raise InvalidFamilyParams(f"member {s} appears more than once")
        sizes = {len(s.jumps) for s in self.sets}
        if len(sizes) != 1:
            raise InvalidFamilyParams(f"member sizes differ: {sorted(sizes)}")
        if len({gcd_profile(s) for s in self.sets}) != 1:
            raise InvalidFamilyParams("gcd signatures differ across members")
        for s in self.sets:
            reasons = theta_reasons(self.order, self.m, s)
            if reasons:
                raise InvalidFamilyParams(
                    f"member {s.jumps} of order {self.order} inadmissible for m={self.m}: "
                    f"{', '.join(reasons)}"
                )


@dataclass
class FamilyVerification:
    """Outcome of re-deriving a family's claims.

    resolved is "type2" when no pair of members is multiplier-related,
    "type1" when every pair is; either way all claimed rotation relations
    held exactly.
    """

    resolved: str
    t1_witness_pairs: dict[tuple[int, int], tuple[int, ...]]
    t2_members: tuple[CirculantGraph, ...]
    group_order: int | None


def _member(order: int, values) -> CirculantGraph:
    """The family member C_order(values), its jump errors as family errors."""
    try:
        return make_circulant(order, values)
    except InvalidJump as exc:
        raise InvalidFamilyParams(str(exc)) from exc


def anchor_swapped(base: FamilyInstance, p_list: tuple[int, ...]) -> FamilyInstance:
    """base with its anchor jump m replaced by the jumps m*p_i in every member.

    p_list holds at least one positive multiplier, and several must be
    coprime.  The anchor is the only jump of a base member divisible by m,
    so the other jumps stay as they are; the extra jumps may make members
    multiplier-related, so the claim weakens to type1-or-type2.
    """
    if not p_list:
        raise InvalidFamilyParams("at least one extra jump multiplier is required")
    if any(p < 1 for p in p_list):
        raise InvalidFamilyParams(f"multipliers must be positive, got {p_list}")
    # a single extra multiplier is unconstrained; several must be coprime
    if len(p_list) > 1 and gcd(*p_list) != 1:
        raise InvalidFamilyParams(f"multipliers {p_list} share a factor {gcd(*p_list)}")
    extra = [base.m * p for p in p_list]
    sets = tuple(
        _member(base.order, [j for j in s.jumps if j != base.m] + extra) for s in base.sets
    )
    return FamilyInstance(
        base.order, base.m, sets, base.relations, FamilyClaim.TYPE1_OR_TYPE2
    )


def family_m2(n: int, s: int) -> FamilyInstance:
    """Order 8n pair swapped by theta at steps n and 3n (m = 2)."""
    if n < 2:
        raise InvalidFamilyParams(f"n must be at least 2, got {n}")
    if not 1 <= 2 * s - 1 <= 2 * n - 1:
        raise InvalidFamilyParams(f"odd jump 2s-1={2 * s - 1} outside [1, {2 * n - 1}]")
    if n == 2 * s - 1:
        raise DegenerateFamily(f"n = 2s-1 = {n} makes both sets equal")
    order = 8 * n
    r = _member(order, [2, 2 * s - 1, 4 * n - (2 * s - 1)])
    t = _member(order, [2, 2 * n - (2 * s - 1), 2 * n + 2 * s - 1])
    relations = (
        ThetaRelation(n, 0, 1),
        ThetaRelation(3 * n, 0, 1),
        ThetaRelation(n, 1, 0),
        ThetaRelation(3 * n, 1, 0),
        ThetaRelation(2 * n, 0, 0),
        ThetaRelation(2 * n, 1, 1),
    )
    return FamilyInstance(order, 2, (r, t), relations, FamilyClaim.TYPE2)


def family_m2_general(n: int, s: int, p_list: tuple[int, ...], y: int) -> FamilyInstance:
    """family_m2 with the anchor jump 2 replaced by extra even jumps 2*p_i.

    Requires a common even jump 2y of both sets with y a unit mod 4n; the
    pair is then multiplier- or rotation-isomorphic, resolved by
    family_verify.
    """
    base = family_m2(n, s)
    instance = anchor_swapped(base, p_list)
    r, t = instance.sets
    common = set(r.jumps) & set(t.jumps)
    if fold(base.order, 2 * y) not in common or gcd(4 * n, y) != 1:
        raise InvalidFamilyParams(
            f"2y={2 * y} must be a common jump with y a unit mod {4 * n}"
        )
    return instance


def family_m3(n: int) -> FamilyInstance:
    """Order 27n triple cycled by theta at step n (m = 3).

    family_general_p(3, n, 1, 0) with only its 3-cycle at step n declared,
    not the inverse at step 2n.
    """
    base = family_general_p(3, n, 1, 0)
    relations = tuple(r for r in base.relations if r.t == n)
    return FamilyInstance(base.order, 3, base.sets, relations, FamilyClaim.TYPE2)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(p ** 0.5) + 1, 2))


def family_general_p(p: int, n: int, x: int, y: int) -> FamilyInstance:
    """Order n*p^3 p-cycle for any odd prime p.

    The i-th member is built around d_i = (i-1)*x*p*n + x + y*p; theta at
    step jn shifts member i to member i+j mod p.  Every member keeps the
    anchor jump p.
    """
    if not _is_odd_prime(p):
        raise InvalidFamilyParams(f"p must be an odd prime, got {p}")
    if n < 1:
        raise InvalidFamilyParams(f"n must be positive, got {n}")
    if not 1 <= x <= p - 1:
        raise InvalidFamilyParams(f"x={x} outside [1, {p - 1}]")
    if not 0 <= y <= n * p - 1:
        raise InvalidFamilyParams(f"y={y} outside [0, {n * p - 1}]")
    if not 1 <= x + y * p <= n * p * p - 1:
        raise InvalidFamilyParams(f"x + y*p = {x + y * p} outside [1, {n * p * p - 1}]")
    order = n * p ** 3
    sets = []
    for i in range(1, p + 1):
        d = (i - 1) * x * p * n + x + y * p
        raw = [p, d]
        for j in range(1, p):
            raw += [j * n * p * p - d, j * n * p * p + d]
        raw += [order - d, order - p]
        sets.append(_member(order, raw))
    relations = tuple(
        ThetaRelation(j * n, i, (i + j) % p) for i in range(p) for j in range(1, p)
    )
    return FamilyInstance(order, p, tuple(sets), relations, FamilyClaim.TYPE2)


# family kind -> (builder, the flags it takes, in its argument order)
KINDS = {
    "m2": (family_m2, ("n", "s")),
    "m2-general": (family_m2_general, ("n", "s", "p-list", "y")),
    "m3": (family_m3, ("n",)),
    "m3-general": (lambda n, p_list: anchor_swapped(family_m3(n), p_list), ("n", "p-list")),
    "m5": (lambda n: family_general_p(5, n, 1, 0), ("n",)),
    "m5-general": (
        lambda n, p_list: anchor_swapped(family_general_p(5, n, 1, 0), p_list),
        ("n", "p-list"),
    ),
    "m7": (lambda n: family_general_p(7, n, 1, 0), ("n",)),
    "m7-general": (
        lambda n, p_list: anchor_swapped(family_general_p(7, n, 1, 0), p_list),
        ("n", "p-list"),
    ),
    "general-p": (family_general_p, ("p", "n", "x", "y")),
}


def family_verify(instance: FamilyInstance) -> FamilyVerification:
    """Re-derive every claim of a family instance from scratch.

    Checks, in order: every declared rotation relation maps its source
    onto its target exactly, confirmed jump by jump by
    oracle.verify_theta_witness, whose failure names t and both graphs;
    pairwise multiplier witnesses decide the type1/type2 resolution; for a
    type2 resolution, the Type-2 set of the first member is exactly the
    family and its group order is the family size.  Any failed check
    raises VerificationFailure.
    """
    graphs = instance.sets
    for rel in instance.relations:
        params = ThetaParams(instance.order, instance.m, rel.t % (instance.order // instance.m))
        verify_theta_witness(params, graphs[rel.source], graphs[rel.target])
    pairs: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            pairs[(i, j)] = type1_witnesses(graphs[i], graphs[j])
    witnessed = [ij for ij, w in pairs.items() if w]
    if instance.claim == FamilyClaim.TYPE2 and witnessed:
        raise VerificationFailure(
            f"claimed Type-2 family has multiplier witnesses on pairs {witnessed}"
        )
    if witnessed and len(witnessed) != len(pairs):
        raise VerificationFailure(
            f"only pairs {witnessed} are multiplier-related; family is neither "
            "uniformly type1 nor type2"
        )
    s = t2_set(graphs[0], instance.m)
    if witnessed:
        return FamilyVerification("type1", pairs, s.members, t2_group(s).quotient_order)

    if set(s.members) != set(graphs):
        raise VerificationFailure(
            f"Type-2 set of {graphs[0]} is {[str(g) for g in s.members]}, "
            "not the family"
        )
    group = t2_group(s)
    if group.quotient_order != len(graphs):
        raise VerificationFailure(
            f"Type-2 group order {group.quotient_order} != family size {len(graphs)}"
        )
    return FamilyVerification("type2", pairs, s.members, group.quotient_order)
