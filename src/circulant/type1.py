"""Multiplier (Type-1) isomorphisms of circulant graphs.

Multiplying every vertex by a unit x of Z_n is a graph isomorphism
C_n(R) -> C_n(xR).  The distinct images form the Type-1 set of the graph,
the units witnessing each image partition the unit group, and composition
of multipliers makes the Type-1 set an Abelian group.

Witnesses come from two places.  type1_set applies all phi(n) units to R,
buckets them by the jumps they give and builds one graph per bucket; it
serves callers that need the whole orbit (t1set, type1_group,
type1_set_equality).  type1_group reads each cell of its table from a
list that maps every unit to its member, under a budget of the unit
products, stabilizer pairs and table cells it costs.
witness_lookup pins one jump of R and solves for the units that can move
it into the target set, at most 2*|S|*gcd(r0, n) candidates, for
callers that ask about single images (single sweeps, type1_witnesses).
multiply, the one multiplier image of a jump tuple and phi_apply's core,
serves type1_set and census, which sweeps one member of each multiplier
orbit, takes that sweep's witnesses from the orbit's products, and
multiplies its Type-2 set for the others (groups.t2_set).
"""

from __future__ import annotations

from math import gcd
from typing import Callable, NamedTuple

from .core import (
    CirculantGraph,
    check_abelian_group,
    check_equal_or_disjoint,
    fold,
    gcd_profile,
    symmetric_closure,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CirculantError,
    NotAUnit,
    OrderMismatch,
    VerificationFailure,
)


class Type1Set(NamedTuple):
    """All multiplier images of a base graph, with their witnesses.

    members are ordered lexicographically on jump sequences; witness maps
    each member to the sorted units producing it.
    """

    base: CirculantGraph
    members: tuple[CirculantGraph, ...]
    witness: dict[CirculantGraph, tuple[int, ...]]


class Type1Group(NamedTuple):
    """Group structure on a Type-1 set under multiplier composition.

    representatives[i] is the smallest unit mapping the base onto
    members[i]; table[i][j] is the member index of the composed image.
    """

    carrier: Type1Set
    representatives: tuple[int, ...]
    stabilizer: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.carrier.members)


def units(n: int) -> tuple[int, ...]:
    """Units of Z_n, ascending."""
    if n < 2:
        raise ValueError(f"unit group needs n >= 2, got {n}")
    return tuple(x for x in range(1, n) if gcd(n, x) == 1)


def multiply(n: int, x: int, jumps: tuple[int, ...]) -> tuple[int, ...]:
    """The folded products x*j, sorted: the jumps of xR, distinct when x is a unit."""
    return tuple(sorted([fold(n, x * j) for j in jumps]))


def phi_apply(g: CirculantGraph, x: int) -> CirculantGraph:
    """Image of g under multiplication by the unit x."""
    n = g.n
    if gcd(n, x % n) != 1:
        raise NotAUnit(f"{x} is not a unit mod {n}")
    jumps = multiply(n, x, g.jumps)
    if len(set(jumps)) != len(g.jumps):
        raise VerificationFailure(f"unit {x} collapsed jumps of {g.jumps} mod {n}")
    return CirculantGraph(n, jumps)


def type1_set(g: CirculantGraph) -> Type1Set:
    """Sweep every unit and collect the distinct multiplier images.

    The units are bucketed by multiply's jump tuple, and one graph is
    built per member rather than per unit.  A unit permutes Z_n and
    commutes with negation, so no bucket's tuple can collapse jumps;
    that is still checked, once per bucket, naming the bucket's least
    unit, which is the least unit to collapse.
    """
    return _orbit(g, units(g.n))


def _orbit(g: CirculantGraph, group: tuple[int, ...]) -> Type1Set:
    """type1_set(g), given the units of its order."""
    n = g.n
    buckets: dict[tuple[int, ...], list[int]] = {}
    for x in group:
        buckets.setdefault(multiply(n, x, g.jumps), []).append(x)
    for jumps, xs in buckets.items():
        if len(set(jumps)) != len(g.jumps):
            raise VerificationFailure(f"unit {xs[0]} collapsed jumps of {g.jumps} mod {n}")
    keys = sorted(buckets)
    members = tuple(CirculantGraph(n, jumps) for jumps in keys)
    witness = {m: tuple(buckets[jumps]) for m, jumps in zip(members, keys)}
    return Type1Set(base=g, members=members, witness=witness)


def witness_lookup(g: CirculantGraph) -> Callable[[CirculantGraph], tuple[int, ...]]:
    """Lookup C_n(S) -> the ascending units x with xR = S, for R the jumps of g.

    It pins the jump r0 of R with the least d = gcd(r0, n) (the smallest
    such jump) instead of applying all phi(n) units, and returns the same
    tuple as type1_set(g).witness for a member, () for any other S.

    A unit x keeps gcd(j, n) for every j, so a multiplier image of R has
    R's gcd profile (core.gcd_profile); an S without it, in particular
    one with |S| != |R|, gets () at once.

    Every witness is a candidate.  A unit x with xR = S maps the closure
    +-R onto +-S, so x*r0 = w (mod n) for some w in {s, n - s} with s in S,
    and gcd(w, n) = gcd(x*r0, n) = d: only the s with gcd(s, n) = d can be
    hit.  d divides r0, w and n, so the congruence reads
    (r0/d)*x = w/d (mod n/d), where r0/d is a unit mod n/d; hence
    x = (w/d)*(r0/d)^-1 (mod n/d), which holds for exactly the d residues
    x0 + k*n/d mod n, 0 <= k < d.  The units among them, at most 2*|S|*d,
    include every witness.

    The test is exact.  For a unit x, j -> x*j permutes Z_n and commutes
    with negation, so it maps the |R| jumps of R into |R| distinct pairs
    {v, n - v}; when every x*j lies in +-S and |R| = |S|, xR = S, and
    every witness passes.  x*r0 = w is in +-S by construction, so only the
    other jumps are tested.  Each candidate that passes is confirmed with
    phi_apply, and a disagreement raises VerificationFailure.
    """
    n = g.n
    d, r0 = min((gcd(j, n), j) for j in g.jumps)
    q = n // d
    inverse = pow(r0 // d, -1, q)
    profile = gcd_profile(g)
    others = tuple(j for j in g.jumps if j != r0)

    def lookup(s: CirculantGraph) -> tuple[int, ...]:
        if s.n != n:
            raise OrderMismatch(f"graph has order {s.n}, not {n}")
        if gcd_profile(s) != profile:
            return ()
        pinned = {w for j in s.jumps if gcd(j, n) == d for w in (j, n - j)}
        closure = symmetric_closure(s)
        found = [
            x
            for w in pinned
            for x in range(w // d * inverse % q, n, q)
            if gcd(x, n) == 1 and all(x * j % n in closure for j in others)
        ]
        for x in found:
            image = phi_apply(g, x)
            if image != s:
                raise VerificationFailure(
                    f"unit {x} passed the pinned-jump test for {g} -> {s.jumps} "
                    f"but maps it to {image.jumps}"
                )
        return tuple(sorted(found))

    return lookup


def type1_witnesses(g: CirculantGraph, h: CirculantGraph) -> tuple[int, ...]:
    """The ascending units x with xR = S: witnesses that h is a multiplier image of g."""
    return witness_lookup(g)(h)


def type1_group(g: CirculantGraph, *, budget: int = DEFAULT_BUDGET) -> Type1Group:
    """Composition group on the Type-1 set of g.

    Well-definedness comes from the witness sets being cosets of the
    stabilizer, which is re-checked here rather than assumed.

    The budget, which may not be below 0, counts the steps that grow
    faster than n: the phi(n)*|R| unit products that find the orbit,
    the |stabilizer|^2 pairs of the closure check and the k*k cells of
    the table of k members.  The products are counted before the orbit
    is built and the sum once it is known, before the closure check;
    either over budget raises BudgetExceeded.

    The witness sets partition the units, so the member whose set holds
    a*b mod n is the image of the base under a*b; a list indexed by unit
    gives that member's index, so each cell is one product and one list
    read.
    """
    if budget < 0:
        raise CirculantError(f"multiplier group budget {budget} is below 0")
    n = g.n
    group = units(n)
    products = len(group) * len(g.jumps)
    if products > budget:
        raise BudgetExceeded(
            f"{products} unit products of the multiplier orbit of {g} "
            f"exceed the budget of {budget}"
        )
    ts = _orbit(g, group)
    stabilizer = ts.witness[g]
    k = len(ts.members)
    steps = products + len(stabilizer) ** 2 + k * k
    if steps > budget:
        raise BudgetExceeded(
            f"{steps} steps of the multiplier group of {g} (unit products, "
            f"stabilizer pairs, table cells) exceed the budget of {budget}"
        )
    stab_set = set(stabilizer)
    # the stabilizer must be a subgroup of the units ...
    if 1 not in stab_set:
        raise VerificationFailure(f"stabilizer of {g} lacks the unit 1")
    for a in stabilizer:
        for b in stabilizer:
            if a * b % n not in stab_set:
                raise VerificationFailure(f"stabilizer of {g} is not closed: {a}*{b}")
    # ... and every witness set one of its cosets
    witnesses = [ts.witness[m] for m in ts.members]
    reps = tuple(min(w) for w in witnesses)
    member_of = [0] * n
    for i, (m, w, rep) in enumerate(zip(ts.members, witnesses, reps)):
        if set(w) != {rep * s % n for s in stabilizer}:
            raise VerificationFailure(f"witness set of {m} is not a coset of the stabilizer")
        for x in w:
            member_of[x] = i
    table = tuple(tuple([member_of[a * b % n] for b in reps]) for a in reps)
    # the unit 1 maps g onto itself
    check_abelian_group(table, member_of[1])
    return Type1Group(carrier=ts, representatives=reps, stabilizer=stabilizer, table=table)


def type1_set_equality(g: CirculantGraph, h: CirculantGraph) -> bool:
    """Whether g and h generate the same Type-1 set.

    Membership of h in the Type-1 set of g, equality of the two sets, and
    membership of g in the Type-1 set of h are equivalent; the equivalence
    is re-checked on every call.
    """
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    return check_equal_or_disjoint(g, type1_set(g).members, h, type1_set(h).members)
