"""Orbit sets and groups of the rotation transform.

Sweeping every rotation step t in [0, n/m) produces the V set of a graph.
The steps whose images are circulant partners of the base (identity or
Type-2) form a subgroup of Z_{n/m}; quotienting by the period at which the
image graph repeats gives the Type-2 group, whose order is the number of
distinct Type-2 partners plus the base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable

from .core import (
    CirculantGraph,
    check_abelian_group,
    check_equal_or_disjoint,
    check_order,
    fold,
    make_circulant,
)
from .errors import (
    BudgetExceeded,
    CirculantError,
    OrderMismatch,
    VerificationFailure,
)
from .theta import (
    NO_ANCHOR_JUMP,
    TClassification,
    Verdict,
    classify_steps,
    sweep_length,
    theta_reasons,
)
from .type1 import multiply, units

DEFAULT_CENSUS_BUDGET = 10_000_000

# census state: the jumps of each multiplier-orbit member -> (the sweep of
# the orbit's first member g0, a unit u with u*g0 = the member)
SweepOrbits = dict[tuple[int, ...], tuple[tuple[TClassification, ...], int]]


@dataclass
class VSet:
    """Full rotation sweep of a base graph.

    rows[t] classifies the image at step t.  graph_period is the smallest
    positive t whose image equals the base again, or n/m when none does;
    the Identity steps are exactly its multiples, which v_set checks.
    """

    base: CirculantGraph
    m: int
    rows: tuple[TClassification, ...]
    distinct: tuple[CirculantGraph, ...]
    graph_period: int

    @property
    def n(self) -> int:
        return self.base.n


@dataclass
class Type2Set:
    """The base graph together with its distinct Type-2 partners.

    The sweep vset holds the base and the divisor m.  t2_indices are its
    steps classified Identity or Type2; members keep the base first, then
    partners in order of first appearance.  A step whose image carries a
    multiplier witness (verdict Type1) is never a partner, even though a
    rotation reaches it: C_48(4, 11, 13) is the image of C_48(1, 4, 23) at
    t = 6 with m = 2, but also 11 * (1, 4, 23).
    """

    members: tuple[CirculantGraph, ...]
    t2_indices: tuple[int, ...]
    vset: VSet


@dataclass
class OrbitGroup:
    """Additive group on sweep indices with graph-valued labels.

    indices form a subgroup of Z_modulus generated by generator; labels
    give the image graph at each index (None when not circulant).
    Quotienting the indices by the label period yields quotient_table over
    the representatives below the period; quotient_order is its size.
    """

    modulus: int
    generator: int
    indices: tuple[int, ...]
    period: int
    labels: dict[int, CirculantGraph | None]
    quotient_reps: tuple[int, ...]
    quotient_table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def quotient_order(self) -> int:
        return len(self.quotient_reps)


@dataclass
class AppendedJumpReport:
    """Evidence that a base without an m-divisible jump has no Type-2 partner."""

    applicable: bool
    reason: str
    base: CirculantGraph | None = None
    appended: CirculantGraph | None = None
    verdicts: tuple[TClassification, ...] = ()
    passed: bool = False


@dataclass(frozen=True)
class CensusRecord:
    """One discovered Type-2 class, keyed by its least member."""

    base: CirculantGraph
    members: tuple[CirculantGraph, ...]
    group_order: int
    t2_equals_v: bool


@dataclass
class CensusSummary:
    n: int
    m: int
    sizes: tuple[int, ...]
    examined: int
    classes: int
    t2_equals_v: int


@dataclass
class CensusResult:
    records: tuple[CensusRecord, ...]
    summary: CensusSummary


def v_set(g: CirculantGraph, m: int, *, orbits: SweepOrbits | None = None) -> VSet:
    """Classify every rotation step of g for the divisor m; g carries the order n.

    A single sweep leaves orbits None and runs classify_steps.  census
    passes one orbits dict for its whole run and sweeps each multiplier
    orbit once: the first member g0 it meets is swept, every unit multiple
    u*g0 is recorded with that sweep and u, and a later member u*g0 gets
    g0's rows with each image multiplied by u.

    Why those rows are the member's own sweep (lemma B).  Let u be a unit,
    R the jumps of g0 and M = m*m*t.  For x with r = x mod m, m | n gives
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
    sweeps have the same NS steps.  Multiplication by u is injective on
    jump sets, so uS = uR exactly when S = R (Identity), and x*uR = uS
    exactly when x*R = S: the witnesses, hence Type1, carry over as they
    are.  Type2 against Unclassified depends on |R| and on a jump divisible
    by m, both kept by u.  NS rows carry only t, so they are reused whole;
    N alone decides them (lemma A, proved in theta.classify_steps).
    """
    steps = sweep_length(g.n, m, g)
    if orbits is None:
        rows = classify_steps(g, m, range(steps))
    else:
        rows = _orbit_rows(g, m, orbits, steps)
    if rows[0].verdict != Verdict.IDENTITY:
        raise VerificationFailure(f"step 0 of {g} is {rows[0].verdict.value}, not Identity")

    distinct = tuple(dict.fromkeys(row.image for row in rows if row.image is not None))

    # theta composes additively in t, so the steps fixing g are a subgroup
    # of Z_{n/m}: the multiples of its least positive element
    identity_ts = [row.t for row in rows if row.verdict == Verdict.IDENTITY]
    period = identity_ts[1] if len(identity_ts) > 1 else steps
    if identity_ts != list(range(0, steps, period)):
        raise VerificationFailure(
            f"identity steps {identity_ts} of {g} are not the multiples of {period}"
        )
    return VSet(g, m, rows, distinct, period)


def _orbit_rows(
    g: CirculantGraph, m: int, orbits: SweepOrbits, steps: int
) -> tuple[TClassification, ...]:
    """g's sweep of the given length, swept once per multiplier orbit; see v_set."""
    known = orbits.get(g.jumps)
    if known is None:
        rows = classify_steps(g, m, range(steps))
        for u in units(g.n):
            orbits.setdefault(multiply(g.n, u, g.jumps), (rows, u))
        return rows
    rows, u = known
    images: dict[CirculantGraph, CirculantGraph] = {}
    relabelled = []
    for row in rows:
        if row.image is None:
            relabelled.append(row)
            continue
        image = images.get(row.image)
        if image is None:
            image = images[row.image] = CirculantGraph(g.n, multiply(g.n, u, row.image.jumps))
        if row.verdict is Verdict.IDENTITY and image != g:
            raise VerificationFailure(
                f"{u} * {row.image.jumps} is {image.jumps}, not the jumps of {g}"
            )
        relabelled.append(TClassification(row.t, row.verdict, image, row.witnesses))
    return tuple(relabelled)


def v_group(v: VSet) -> OrbitGroup:
    """The full sweep as a group on Z_{n/m} with graph labels."""
    return _orbit_group(v.rows, tuple(row.t for row in v.rows), v.graph_period)


def t2_set(g: CirculantGraph, m: int, *, orbits: SweepOrbits | None = None) -> Type2Set:
    """Base plus distinct Type-2 partners from the full sweep.

    Images with verdict Type1 are left out although a rotation reaches
    them; see Type2Set for the C_48(1, 4, 23) example.  orbits is passed
    to v_set.
    """
    v = v_set(g, m, orbits=orbits)
    # an Identity row's image is g and step 0 is one, so the base comes first
    partners = [row for row in v.rows if row.verdict in (Verdict.IDENTITY, Verdict.TYPE2)]
    members = tuple(dict.fromkeys(row.image for row in partners))
    return Type2Set(members, tuple(row.t for row in partners), v)


def t2_group(s: Type2Set) -> OrbitGroup:
    """Group structure on the Type-2 step indices, quotiented by the period.

    Raises VerificationFailure (from _orbit_group) when the indices are not
    the multiples of their least positive element, i.e. not a subgroup of
    Z_{n/m}, step 0 included: that would falsify the structure this
    library is built on, so it is reported rather than repaired.
    """
    group = _orbit_group(s.vset.rows, s.t2_indices, s.vset.graph_period)
    if group.quotient_order != len(s.members):
        raise VerificationFailure(
            f"quotient of order {group.quotient_order} for {len(s.members)} partners "
            f"of {s.vset.base}"
        )
    return group


def _orbit_group(
    rows: tuple[TClassification, ...], indices: tuple[int, ...], period: int
) -> OrbitGroup:
    modulus = len(rows)
    # a set equal to <generator> is a subgroup of Z_modulus
    generator = indices[1] if len(indices) > 1 else 0
    generated = set()
    k = 0
    while k not in generated:
        generated.add(k)
        k = (k + generator) % modulus
    if generated != set(indices):
        raise VerificationFailure(f"{generator} does not generate the indices mod {modulus}")
    # read only now: an index outside Z_modulus has been refused above
    labels = {i: rows[i].image for i in indices}
    reps = tuple(i for i in indices if i < period)
    table = []
    rep_pos = {r: i for i, r in enumerate(reps)}
    for a in reps:
        row = []
        for b in reps:
            c = (a + b) % modulus % period
            if c not in rep_pos:
                raise VerificationFailure(f"{a}+{b} escapes the representatives mod {period}")
            row.append(rep_pos[c])
        table.append(tuple(row))
    check_abelian_group(tuple(table), 0)
    # labels must repeat with the period
    for i in indices:
        j = (i + period) % modulus
        if j in labels and labels[i] != labels[j]:
            raise VerificationFailure(f"label period broken at {i}")
    return OrbitGroup(
        modulus=modulus,
        generator=generator,
        indices=tuple(indices),
        period=period,
        labels=labels,
        quotient_reps=reps,
        quotient_table=tuple(table),
    )


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
    verdicts = classify_steps(base, m, range(n // m))
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
    budget: int = DEFAULT_CENSUS_BUDGET,
) -> CensusResult:
    """Enumerate canonical graphs and collect their Type-2 classes.

    Only sets holding a jump divisible by m are swept.  Classes with more
    than one member are reported once each, keyed by the lexicographically
    least member.  A size below 1 or above n//2 is refused, the sizes are
    read once, up to the first refused one, and the enumeration space is
    bounded upfront by budget, which may not be below 0.
    A unit multiple of a candidate keeps its size and its jump divisible
    by m, so candidates come in whole multiplier orbits; one orbits dict,
    alive for this call only, sweeps each orbit once, and every other
    member relabels that sweep (lemma B, proved in v_set).  Each candidate
    still gets its own t2_set, with v_set's step-0 and period checks.
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
    orbits: SweepOrbits = {}
    records: list[CensusRecord] = []
    seen: set[tuple[CirculantGraph, ...]] = set()
    examined = 0
    coincidences = 0
    for k in sizes:
        for combo in itertools.combinations(range(1, half + 1), k):
            # the anchor half of theta_reasons, inline: this runs once per combination
            if not any(j % m == 0 for j in combo):
                continue
            g = CirculantGraph(n, combo)
            s = t2_set(g, m, orbits=orbits)
            examined += 1
            all_partner = len(s.t2_indices) == len(s.vset.rows)
            if all_partner:
                coincidences += 1
            if len(s.members) < 2:
                continue
            ordered = tuple(sorted(s.members))
            if ordered in seen:
                continue
            seen.add(ordered)
            group = t2_group(s)
            records.append(
                CensusRecord(
                    base=ordered[0],
                    members=ordered,
                    group_order=group.quotient_order,
                    t2_equals_v=all_partner,
                )
            )
    summary = CensusSummary(
        n=n, m=m, sizes=sizes, examined=examined, classes=len(records), t2_equals_v=coincidences
    )
    return CensusResult(tuple(records), summary)
