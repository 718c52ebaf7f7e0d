"""Multiplier (Type-1) isomorphisms of circulant graphs.

Multiplying every vertex by a unit x of Z_n is a graph isomorphism
C_n(R) -> C_n(xR).  The distinct images form the Type-1 set of the graph,
the units witnessing each image partition the unit group, and composition
of multipliers makes the Type-1 set an Abelian group, the quotient of the
units by the stabilizer of R (the proof is in type1_group's docstring).

Witnesses come from two places.  UnitProducts.orbit maps the jumps of
each multiple u*R, u a unit up to n/2, to the units giving them, reading
each product from a column of fold(n, u*j) per jump value j that is built
once per UnitProducts; n - u gives what u gives, so each list mirrors into
the witness tuple.  type1_set builds that table for its graph, then one
graph per member; it serves callers that need the whole orbit (t1set,
type1_group, type1_set_equality).  type1_group reads each cell of its
table from a list that maps every unit to its member, under a budget of
the unit products, stabilizer pairs and table cells it costs.  census
reads its witnesses from one UnitProducts per call (see groups.census).
witness_lookup pins one jump of R and solves for the units that can move
it into the target set, at most 2*|S|*gcd(r0, n) candidates, for
callers that ask about single images (single sweeps, type1_witnesses).
multiply, the one multiplier image of a jump tuple, is phi_apply's core;
census also multiplies each orbit's Type-2 set by it for the orbit's
other members (groups.census).
"""

from __future__ import annotations

from math import gcd
from typing import Callable, NamedTuple

from .core import (
    CirculantGraph,
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


def totient(n: int) -> int:
    """phi(n), the number of units of Z_n, from n's factorisation by trial
    division: O(sqrt(n)) steps where units(n) takes n."""
    phi, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


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


class UnitProducts(dict):
    """The folded unit products of one order n, in columns.

    self[j] is the column of the jump value j: fold(n, u*j) for each unit
    u <= n/2 of Z_n, ascending in u, built the first time j is read and
    kept.
    """

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        group = units(n)
        # x and n - x are units together and n/2 is none for n >= 3, so
        # the units below n/2 are the first half
        self.half = group[: len(group) // 2]

    def __missing__(self, j: int) -> list[int]:
        n = self.n
        column = self[j] = [fold(n, u * j) for u in self.half]
        return column

    def orbit(self, jumps: tuple[int, ...]) -> dict[tuple[int, ...], list[int]]:
        """The multiplier orbit of R = jumps: the jumps of each multiple
        u*R, u a unit up to n/2 -> those u, ascending.  Each row is read
        from the columns of R's values, one sorted tuple per unit.

        Why a key's list gives its witnesses exactly (see witnesses).
        fold(n, x) = fold(n, -x), so u and n - u give the same jumps, and
        for n >= 3 every unit is u or n - u for exactly one u <= n/2
        (u = n - u makes u = n/2, a unit only for n = 2).  So for S a key,
        its list us together with the n - u for u in us is exactly the
        set of units x with x*R = S; an S that is no key is no x*R and has
        no witness.  Every entry is a computed product, so there is no
        candidate for phi_apply to confirm.
        """
        table: dict[tuple[int, ...], list[int]] = {}
        for u, row in zip(self.half, zip(*[self[j] for j in jumps])):
            table.setdefault(tuple(sorted(row)), []).append(u)
        return table

    def witnesses(self, us: list[int]) -> tuple[int, ...]:
        """The ascending units x with x*R = S, from S's list us in orbit(R):
        us, then n - u for each u in reverse, all above n/2."""
        n = self.n
        return tuple(us + [n - u for u in reversed(us)])


def type1_set(g: CirculantGraph) -> Type1Set:
    """Collect the distinct multiplier images of g with their witnesses.

    The units are grouped by the jumps they give (UnitProducts.orbit), and
    one graph is built per member rather than per unit.  A unit permutes
    Z_n and commutes with negation, so no member's jumps can collapse;
    that is still checked, once per member, naming its least unit, which
    is the least unit to collapse.
    """
    n = g.n
    products = UnitProducts(n)
    table = products.orbit(g.jumps)
    for jumps, us in table.items():
        if len(set(jumps)) != len(g.jumps):
            raise VerificationFailure(f"unit {us[0]} collapsed jumps of {g.jumps} mod {n}")
    keys = sorted(table)
    members = tuple(CirculantGraph(n, jumps) for jumps in keys)
    witness = {m: products.witnesses(table[jumps]) for m, jumps in zip(members, keys)}
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
    """Composition group on the Type-1 set of g: the units of Z_n modulo
    the stabilizer of R.

    The budget, which may not be below 0, counts the steps that grow
    faster than n: phi(n)*|R| for the unit products that find the orbit
    (a bound: the orbit makes the half of them with u <= n/2), the
    |stabilizer|^2 pairs of the closure check and the k*k cells of the
    table of k members.  The products are counted from totient(n) before
    any unit is listed, and the sum once the orbit is known, before the
    closure check; either over budget raises BudgetExceeded.  An n above
    2*budget^2 is refused before it is factored: phi(n) >= sqrt(n/2)
    for every n, so its products already exceed the budget.  Between the
    two, before any product is made, a bound on the table refuses an
    orbit too large to tabulate: with d the least gcd(j, n) over the
    jumps and c the number of jumps with that gcd, witness_lookup's
    candidates for S = R hold the stabilizer, so |Stab| <= 2*c*d and the
    orbit has k >= ceil(phi(n)/(2*c*d)) members; the products, one
    stabilizer pair (the unit 1) and k*k cells over budget raise
    BudgetExceeded.

    Why the table is a group, so that no axiom is tested on it.  Two
    facts about the orbit's data are checked, each raising
    VerificationFailure: the stabilizer Stab = W(R -> R) holds 1 and is
    closed under products mod n, so it is a subgroup of the finite group
    Z_n^*; and each witness set W(R -> S) is rep*Stab, rep its least
    unit.  The witness sets partition Z_n^*, so they are exactly the
    cosets of Stab, one per member.  Z_n^* is Abelian, so the coset of
    a*b depends only on the cosets of a and b, and member_of[a*b mod n]
    is their product in Z_n^*/Stab, which is the composition of the
    multipliers: xR = S and yR = T give (x*y)R = xT.  So table[i][j] = member_of[rep_i*rep_j mod n] is the Cayley table of
    Z_n^*/Stab, an Abelian group whose identity is member_of[1], the
    base.  Each cell is one product and one list read.
    """
    if budget < 0:
        raise CirculantError(f"multiplier group budget {budget} is below 0")
    n = g.n
    if n > 2 * budget * budget:
        raise BudgetExceeded(
            f"more than {budget} unit products of the multiplier orbit of {g} "
            f"exceed the budget of {budget}"
        )
    phi = totient(n)
    products = phi * len(g.jumps)
    if products > budget:
        raise BudgetExceeded(
            f"{products} unit products of the multiplier orbit of {g} "
            f"exceed the budget of {budget}"
        )
    # |Stab| <= 2*c*d, witness_lookup's candidates for S = R
    profile = gcd_profile(g)
    least = -(-phi // (2 * profile.count(profile[0]) * profile[0]))
    if products + 1 + least * least > budget:
        raise BudgetExceeded(
            f"more than {budget} steps of the multiplier group of {g} (unit products, "
            f"stabilizer pairs, table cells) exceed the budget of {budget}"
        )
    ts = type1_set(g)
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
