"""Orbit sets and groups of the rotation transform.

The V set of a graph is its rotation images at the steps t in [0, n/m).
They repeat with the graph period (t2_group), so a sweep builds only the
steps below it and copies each later row (theta.classify_steps).
A VSet keeps its sweep length and the rows of its circulant steps alone,
as theta.classify_steps returns them; v_set's checks and the Type-2 set
read only those rows, and the full row per step, NS rows filled in, is
built only for output (VSet.full_rows, v_group's labels).  A Type2Set
keeps no rows: its members, its partner steps, the sweep length and the
graph period are all its group and census read.  The steps whose images
are circulant partners of the base (identity or Type-2) form a subgroup
of Z_{n/m}; quotienting by the period at which the image graph repeats
gives the Type-2 group, whose order is the number of distinct Type-2
partners plus the base.  Both index groups are cyclic: _orbit_group
checks the indices as one set against the multiples of their step d and
the period against d, and the quotient is then Z_{period/d}, so no table
is built.  census sweeps one member of each multiplier orbit and takes
every other member's Type-2 set as a unit multiple of that one (see
census).
"""

from __future__ import annotations

import itertools
from math import comb, gcd
from typing import Callable, Iterable, NamedTuple

from .core import (
    CirculantGraph,
    check_equal_or_disjoint,
    check_order,
    fold,
    make_circulant,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CirculantError,
    OrderMismatch,
    VerificationFailure,
)
from .theta import (
    NO_ANCHOR_JUMP,
    TClassification,
    Verdict,
    circulant_stride,
    classify_steps,
    fill_steps,
    sweep_length,
    theta_reasons,
)
from .type1 import UnitProducts, multiply


class SweepOrbits:
    """census state for one call of order n: the unit products of Z_n
    and the jumps of each multiplier-orbit member -> (the Type-2 set of
    the orbit's first member g0, the least unit u with u*g0 = the
    member); see census."""

    def __init__(self, n: int):
        self.products = UnitProducts(n)
        self.members: dict[tuple[int, ...], tuple[Type2Set, int]] = {}


class VSet(NamedTuple):
    """Full rotation sweep of a base graph.

    steps is the sweep length n/m.  rows classify the circulant steps
    alone, in t order; every other step is NS, and full_rows gives one row
    per step.  graph_period is the smallest positive t whose image equals
    the base again, or n/m when none does; the Identity steps are exactly
    its multiples, which v_set checks.
    """

    base: CirculantGraph
    m: int
    steps: int
    rows: tuple[TClassification, ...]
    distinct: tuple[CirculantGraph, ...]
    graph_period: int

    @property
    def n(self) -> int:
        return self.base.n

    def full_rows(self) -> tuple[TClassification, ...]:
        """One row per step t in [0, n/m), NS rows filled in."""
        return fill_steps(self.rows, range(self.steps))


class Type2Set(NamedTuple):
    """The base graph together with its distinct Type-2 partners.

    t2_indices are the steps of the base's sweep classified Identity or
    Type2; members keep the base first, then partners in order of first
    appearance.  steps is the sweep length n/m and graph_period the
    sweep's (see VSet); callers that want the rows call v_set.  A step
    whose image carries a multiplier witness (verdict Type1) is never a
    partner, even though a rotation reaches it: C_48(4, 11, 13) is the
    image of C_48(1, 4, 23) at t = 6 with m = 2, but also 11 * (1, 4, 23).
    """

    members: tuple[CirculantGraph, ...]
    t2_indices: tuple[int, ...]
    steps: int
    graph_period: int


class OrbitGroup(NamedTuple):
    """Cyclic additive group on sweep indices with graph-valued labels.

    indices are the subgroup <generator> = <d> of Z_modulus, with
    d = gcd(generator, modulus); labels give the image graph at each index
    (None when not circulant) and repeat with the period, a multiple of d
    dividing the modulus.  The quotient of <d> by the period is cyclic,
    Z_{period/d}, so quotient_order is period/d and no table is kept.
    """

    modulus: int
    generator: int
    indices: tuple[int, ...]
    period: int
    labels: dict[int, CirculantGraph | None]

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def quotient_order(self) -> int:
        return self.period // gcd(self.generator, self.modulus)


class AppendedJumpReport(NamedTuple):
    """Evidence that a base without an m-divisible jump has no Type-2 partner."""

    applicable: bool
    reason: str
    base: CirculantGraph | None = None
    appended: CirculantGraph | None = None
    verdicts: tuple[TClassification, ...] = ()
    passed: bool = False


class CensusRecord(NamedTuple):
    """One discovered Type-2 class, keyed by its least member."""

    base: CirculantGraph
    members: tuple[CirculantGraph, ...]
    group_order: int
    t2_equals_v: bool


class CensusSummary(NamedTuple):
    n: int
    m: int
    sizes: tuple[int, ...]
    examined: int
    classes: int
    t2_equals_v: int


class CensusResult(NamedTuple):
    records: tuple[CensusRecord, ...]
    summary: CensusSummary


def v_set(
    g: CirculantGraph,
    m: int,
    *,
    lookup: Callable[[CirculantGraph], tuple[int, ...]] | None = None,
) -> VSet:
    """Classify every rotation step of g for the divisor m; g carries the order n.

    classify_steps returns the circulant steps alone, with the multiplier
    witnesses from lookup (see classify_steps).  Step 0 must be Identity,
    and the Identity steps must be the multiples of the least positive
    one, the graph period.  V must be cyclic of order period/q*, q* the
    stride of the circulant steps (lemma D, proved in classify_steps):
    the sweep meets exactly that many distinct images.
    """
    steps = sweep_length(g.n, m, g)
    rows = classify_steps(g, m, range(steps), lookup=lookup)
    # rows hold the circulant steps alone, so a missing step 0 is NS
    step0 = rows[0].verdict if rows and rows[0].t == 0 else Verdict.NON_CIRCULANT
    if step0 != Verdict.IDENTITY:
        raise VerificationFailure(f"step 0 of {g} is {step0.value}, not Identity")

    distinct = tuple(dict.fromkeys(row.image for row in rows))

    # theta composes additively in t, so the steps fixing g are a subgroup
    # of Z_{n/m}: the multiples of its least positive element
    identity_ts = [row.t for row in rows if row.verdict == Verdict.IDENTITY]
    period = identity_ts[1] if len(identity_ts) > 1 else steps
    if identity_ts != list(range(0, steps, period)):
        raise VerificationFailure(
            f"identity steps {identity_ts} of {g} are not the multiples of {period}"
        )
    q = circulant_stride(g, m)
    if len(distinct) * q != period:
        raise VerificationFailure(
            f"{len(distinct)} distinct images of {g} at stride {q}, "
            f"for the graph period {period}"
        )
    return VSet(g, m, steps, rows, distinct, period)


def v_group(v: VSet) -> OrbitGroup:
    """The full sweep as a group on Z_{n/m} with graph labels, None at NS steps."""
    images = {row.t: row.image for row in v.rows}
    labels = {t: images.get(t) for t in range(v.steps)}
    return _orbit_group(v.steps, v.graph_period, tuple(range(v.steps)), labels)


def t2_set(g: CirculantGraph, m: int, *, orbits: SweepOrbits | None = None) -> Type2Set:
    """Base plus distinct Type-2 partners from the full sweep.

    Images with verdict Type1 are left out although a rotation reaches
    them; see Type2Set for the C_48(1, 4, 23) example.  Without orbits, g
    is swept with v_set and its witnesses come from type1.witness_lookup.
    With census's SweepOrbits, only the first member g0 of each
    multiplier orbit is swept, and a later member g = u*g0 gets u times
    g0's set, with g first (see census).

    Why that is g's own Type-2 set (lemma B).  Let u be a unit, R the
    jumps of g0 and M = m*m*t.  For x with r = x mod m, m | n gives
    u*x = u*r (mod m), so theta_t(u*x) = u*theta_t(x) - c*M with
    c = floor(u*r/m), a function of r alone; theta_t keeps residues mod m,
    so theta_t(mu_u(x)) = tau(mu_u(theta_t(x))), where
    tau(y) = y - c(y mod m)*M moves each residue class within itself.  As
    mu_u maps C_n(R) onto C_n(uR), the image of C_n(uR) is tau of u times
    the image of C_n(R).  Suppose that image is C_n(S).  Then vertex 0's
    image neighbourhood N = theta_t(+-R) is +-S, closed under negation,
    and theta_t(-v) = M - theta_t(v) for v mod m != 0, so N's part off
    residue 0 is closed under -M: a union of <M>-cosets, and so is that
    part of +-uS, as u<M> = <M>.  tau moves an edge difference d of
    C_n(uS) by a multiple of M, and not at all when m | d, so tau is an
    automorphism of C_n(uS) and the image of C_n(uR) is C_n(uS).  With
    u^-1 for u, a circulant image of C_n(uR) gives one of C_n(R), so both
    sweeps have the same length and the same NS steps.  Multiplication by
    u is injective on jump sets, so uS = uR exactly when S = R (Identity,
    hence the same period), and x*uR = uS exactly when x*R = S: the
    witnesses, hence Type1, carry over as they are.  Type2 against
    Unclassified depends on |R| and on a jump divisible by m, both kept by
    u.  So the partner steps are the same, the image at each is u times
    g0's, and the members, in order of first appearance, are u times g0's.
    """
    n = g.n
    if orbits is None:
        v = v_set(g, m)
    else:
        known = orbits.members.get(g.jumps)
        if known is not None:
            s0, u = known
            members = (g,)
            if len(s0.members) > 1:
                members += tuple(CirculantGraph(n, multiply(n, u, x.jumps)) for x in s0.members[1:])
            return Type2Set(members, s0.t2_indices, s0.steps, s0.graph_period)
        table = orbits.products.orbit(g.jumps)
        witnesses = orbits.products.witnesses

        def lookup(image: CirculantGraph) -> tuple[int, ...]:
            us = table.get(image.jumps)
            return () if us is None else witnesses(us)

        v = v_set(g, m, lookup=lookup)
    # an Identity row's image is g and step 0 is one, so the base comes first
    partners = [row for row in v.rows if row.verdict in (Verdict.IDENTITY, Verdict.TYPE2)]
    members = tuple(dict.fromkeys(row.image for row in partners))
    s = Type2Set(members, tuple(row.t for row in partners), v.steps, v.graph_period)
    if orbits is not None:
        for jumps, us in table.items():
            orbits.members[jumps] = (s, us[0])
    return s


def t2_group(s: Type2Set) -> OrbitGroup:
    """Group structure on the Type-2 step indices, quotiented by the period.

    The labels come from the members: the partner steps below the period
    carry the members in order, and a step i carries the label of
    i mod period.  theta composes additively in t, theta_b = theta_a o
    theta_{b-a}, and theta_a is a bijection of the vertices, so
    theta_a(g) = theta_b(g) with 0 <= a < b forces theta_{b-a}(g) = g: b - a
    is an Identity step, a multiple of the period (v_set checks this).  So
    the images at the steps below the period are distinct, and the image
    at i is the one at i mod period, a partner step too.  Each member thus
    first appears at one partner step below the period, in the order of
    those steps.

    Raises VerificationFailure (from _orbit_group) when the indices are not
    the multiples of their least positive element, i.e. not a subgroup of
    Z_{n/m}, step 0 included, or when the period is not a positive
    multiple of that element dividing n/m: that would falsify the
    structure this library is built on, so it is reported rather than
    repaired.  It also raises when the quotient order is not the number
    of members.
    """
    period = s.graph_period
    first = dict(zip((i for i in s.t2_indices if i < period), s.members))
    labels = {i: first.get(i % period) for i in s.t2_indices}
    group = _orbit_group(s.steps, period, s.t2_indices, labels)
    if group.quotient_order != len(s.members):
        raise VerificationFailure(
            f"quotient of order {group.quotient_order} for {len(s.members)} partners "
            f"of {s.members[0]}"
        )
    return group


def _orbit_group(
    modulus: int,
    period: int,
    indices: tuple[int, ...],
    labels: dict[int, CirculantGraph | None],
) -> OrbitGroup:
    """The indices as a subgroup of Z_modulus, and its quotient by the period.

    The subgroup generated by g in Z_modulus is the multiples of
    d = gcd(g, modulus), so the indices must be exactly those (g = 0
    gives d = modulus, the subgroup {0}).  The period must be a positive
    multiple of d that divides the modulus, and the labels must repeat
    with it; any failing check raises VerificationFailure.  No table is
    needed for the quotient: the representatives below the period are
    0, d, ..., (k - 1)*d with k = period/d, and since the period divides
    the modulus, (i*d + j*d) mod modulus mod period is ((i + j) mod k)*d,
    so the quotient of <d> by the period is Z_k, cyclic and Abelian by
    construction.
    """
    generator = indices[1] if len(indices) > 1 else 0
    d = gcd(generator, modulus)
    if set(indices) != set(range(0, modulus, d)):
        raise VerificationFailure(f"{generator} does not generate the indices mod {modulus}")
    if period < 1 or period % d or modulus % period:
        raise VerificationFailure(
            f"period {period} is not a positive multiple of {d} dividing the modulus {modulus}"
        )
    for i in indices:
        j = (i + period) % modulus
        if j in labels and labels[i] != labels[j]:
            raise VerificationFailure(f"label period broken at {i}")
    return OrbitGroup(modulus, generator, tuple(indices), period, labels)


def t2_set_equality(g: CirculantGraph, h: CirculantGraph, m: int) -> bool:
    """Whether g and h have the same Type-2 set w.r.t. m.

    Type-2 sets of a fixed (n, m) are equal or disjoint; both directions
    are re-checked on every call.
    """
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    return check_equal_or_disjoint(g, t2_set(g, m).members, h, t2_set(h, m).members)


def appended_jump_check(base: CirculantGraph, m: int, jump: int) -> AppendedJumpReport:
    """No-anchor bases admit no Type-2 partner even when base + jump does.

    The order n is the base's.  Applicable when jump is not 0 mod n (a
    loop) but is divisible by m, is absent from the base, none of the base
    jumps is divisible by m, and the augmented graph has a non-trivial
    Type-2 set.  The sweep of the bare base is returned as evidence: every
    circulant image must be the base itself or carry a multiplier witness,
    so nothing resembling a Type-2 partner appears.
    """
    n = base.n
    reasons = theta_reasons(n, m)
    if reasons:
        return AppendedJumpReport(
            False, f"(n={n}, m={m}) fails m > 1 with m^3 | n: {', '.join(reasons)}"
        )
    folded = fold(n, jump)
    if folded == 0:
        return AppendedJumpReport(False, f"appended jump {jump} is 0 mod {n} (a loop)")
    if folded % m != 0:
        return AppendedJumpReport(False, f"appended jump {jump} is not divisible by {m}")
    if folded in base.jumps:
        return AppendedJumpReport(False, f"jump {jump} already present in {base}")
    if NO_ANCHOR_JUMP not in theta_reasons(n, m, base):
        return AppendedJumpReport(False, f"base {base} already has a jump divisible by {m}")
    augmented = make_circulant(n, base.jumps + (jump,))
    aug_t2 = t2_set(augmented, m)
    if len(aug_t2.members) < 2:
        return AppendedJumpReport(
            False, f"augmented graph {augmented} has no Type-2 partner"
        )
    verdicts = fill_steps(classify_steps(base, m, range(n // m)), range(n // m))
    # the base has no jump divisible by m, so classify_steps can never say
    # Type2 outright; an unexplained circulant image surfaces as
    # Unclassified and counts as a failure here
    passed = all(
        row.verdict not in (Verdict.TYPE2, Verdict.UNCLASSIFIED)
        for row in verdicts
    )
    return AppendedJumpReport(
        True, "", base=base, appended=augmented, verdicts=verdicts, passed=passed
    )


def census(
    n: int,
    m: int,
    sizes: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> CensusResult:
    """Enumerate canonical graphs and collect their Type-2 classes.

    The candidates are the sets of each size holding a jump divisible by
    m, visited in CirculantGraph order.  A size below 1 or above n//2 is
    refused, the sizes are read once, up to the first refused one, and
    the enumeration space is bounded upfront by budget, which may not be
    below 0.

    Each class with more than one member is recorded once, at its least
    member, which is its base; no table of the classes found is kept.
    theta_t keeps |+-R| and fixes every value divisible by m, n/2 among
    them when n is even, as m^3 | n; so every member of T2(g) has as many
    jumps as g, one of them divisible by m, and is a candidate of the
    same size.  Type-2 sets are equal or disjoint, so the least member of
    a class is the first one visited, and the records come out in the
    order their classes are first met.

    A unit multiple of a candidate keeps its size and its jump divisible
    by m, so candidates come in whole multiplier orbits, and by lemma B
    (proved in t2_set) T2(uR) = u*T2(R), with the same partner steps,
    sweep length and period.  One SweepOrbits, alive for this call only,
    holds the unit products of Z_n in one column per jump value
    (type1.UnitProducts), built the first time a swept set holds that
    value, so each product is made at most once per call.  Every
    candidate gets its own t2_set call against it.  For the first member
    g0 of an orbit, the orbit table of its jumps R0 (UnitProducts.orbit)
    maps the jumps of each u*g0, u <= n/2, to its list of u, and g0 is
    swept with v_set and its step-0 and period checks.  The sweep asks,
    for each distinct image C_n(S), which units x have x*R0 = S:
    UnitProducts.witnesses of S's list, the tuple witness_lookup(g0)
    returns for S (proof in UnitProducts.orbit), or () when S is no key;
    the lemma E gate (theta.classify_steps) skips the lookups that would
    find none, and no witness_lookup is built.  g0's Type-2 set is then
    registered under every member of the table, and a later member
    g = u*g0 gets, without a sweep, g followed by u times g0's other
    members, with g0's partner steps, sweep length and period.
    """
    check_order(n)
    sweep_length(n, m)
    half = n // 2
    wanted = set()
    for k in sizes:
        if k < 1:
            raise CirculantError(f"census size {k} is below 1")
        if k > half:
            raise CirculantError(f"census size {k} is above {half}, the most jumps of order {n}")
        wanted.add(k)
    sizes = tuple(sorted(wanted))
    if budget < 0:
        raise CirculantError(f"census budget {budget} is below 0")
    space = sum(comb(half, k) for k in sizes)
    if space > budget:
        raise BudgetExceeded(f"{space} candidate sets exceed the budget of {budget}")
    orbits = SweepOrbits(n)
    # the anchor half of theta_reasons, as a set test: it runs once per combination
    anchors = frozenset(range(m, half + 1, m))
    records: list[CensusRecord] = []
    examined = 0
    coincidences = 0
    for k in sizes:
        for combo in itertools.combinations(range(1, half + 1), k):
            if anchors.isdisjoint(combo):
                continue
            g = CirculantGraph(n, combo)
            s = t2_set(g, m, orbits=orbits)
            examined += 1
            all_partner = len(s.t2_indices) == s.steps
            if all_partner:
                coincidences += 1
            if len(s.members) < 2 or min(s.members) != g:
                continue
            group = t2_group(s)
            records.append(
                CensusRecord(
                    base=g,
                    members=tuple(sorted(s.members)),
                    group_order=group.quotient_order,
                    t2_equals_v=all_partner,
                )
            )
    summary = CensusSummary(
        n=n, m=m, sizes=sizes, examined=examined, classes=len(records), t2_equals_v=coincidences
    )
    return CensusResult(tuple(records), summary)
