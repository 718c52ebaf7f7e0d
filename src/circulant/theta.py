"""Rotation (Type-2) transform and per-step classification.

For a divisor m of n, the vertex map theta_{n,m,t} sends x = qm + j
(0 <= j < m) to x + j*t*m (mod n): vertices are rotated by an amount
proportional to their residue class mod m.  The map is a bijection, it
composes additively in t, and edges along jumps divisible by m are fixed.

Applying the map to a circulant graph gives a labeled graph that may or
may not be circulant again; when it is, the image's relation to the base
graph is classified per step t.  classify_steps does this for a whole
sweep from vertex 0's image neighbourhood alone, O(|R|) per step it
builds (lemma A), and returns rows for the circulant steps only, one
TClassification named tuple per row.  The circulant steps are exactly
the multiples of circulant_stride(g, m) (lemma D): every other step is
NS without building it, and step 0, or every step when each jump of g
is a multiple of m, is Identity without building it.  The steps
with a multiplier image form a subgroup of Z_{n/m} (lemma E), so the
kernel's own witness search runs only at the divisor steps of n/m and
at the Type1 steps; any other image has no witness.  fill_steps
puts an NS row back at every other step, for the callers that list
them: classify_t, one step, and
classification_table, which renders each step's row with the kernel's
per-step shifts.  theta_image and detect_circulant build the whole image
edge set.  No library module calls them: they are the reference the
tests compare classify_steps against, and theta_vertex, the vertex map,
is the tests' reference for table rows and theta_image's map.  The
library's one certificate of a rotation is oracle.verify_theta_witness,
which builds the vertex map of one step once, checks its bijection and
period m once, and then checks each (g, h) pair's jumps on the m residue
classes; it builds no edge set.

The Type-2 admissibility rule lives here alone: theta_reasons states it,
sweep_length raises InvalidThetaParams on it, and admissible_m lists the
m that pass it for a graph.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import gcd
from typing import Callable, Iterable, NamedTuple

from .core import CirculantGraph, edge_set, make_circulant, symmetric_closure
from .errors import InvalidThetaParams, OrderMismatch, VerificationFailure
from .type1 import witness_lookup

MIN_TYPE2_JUMPS = 3

M_TOO_SMALL = "MTooSmall"
NO_DIVISOR_CUBED = "NoDivisorCubed"
NO_ANCHOR_JUMP = "NoAnchorJump"


class _ThetaParams(NamedTuple):
    n: int
    m: int
    t: int


class ThetaParams(_ThetaParams):
    """Validated rotation parameters: m > 1, m^3 | n, 0 <= t < n/m."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, t: int):
        _check_step(t, sweep_length(n, m))
        return tuple.__new__(cls, (n, m, t))


class LabeledGraph(NamedTuple):
    """A labeled graph on Z_n, edges as (low, high) pairs; test reference."""

    n: int
    edges: frozenset[tuple[int, int]]


class Verdict(Enum):
    NON_CIRCULANT = "NS"
    IDENTITY = "Identity"
    TYPE1 = "Type1"
    TYPE2 = "Type2"
    # circulant image, no multiplier witness, but Type-2 prerequisites
    # (at least three jumps and a jump divisible by m) not met
    UNCLASSIFIED = "Unclassified"


class TClassification(NamedTuple):
    """Outcome of one rotation step.

    image is the image graph when circulant; witnesses are the multiplier
    units when the image is a Type-1 partner.  A sweep builds one per
    circulant step; like every record of the package it is a named
    tuple, so its fields cannot be assigned.
    """

    t: int
    verdict: Verdict
    image: CirculantGraph | None = None
    witnesses: tuple[int, ...] = ()


class TableRow(NamedTuple):
    """One rendered sweep row: transformed directed jumps plus the verdict."""

    t: int
    transformed: tuple[int, ...]
    classification: TClassification


def theta_reasons(n: int, m: int, g: CirculantGraph | None = None) -> tuple[str, ...]:
    """Why (n, m) is inadmissible for Type-2 analysis; () when it is not.

    The one statement of the rule: m > 1, m^3 divides n, and, when g is
    given, some jump of g is divisible by m.
    """
    if m < 2:
        return (M_TOO_SMALL,)
    reasons = () if n % (m ** 3) == 0 else (NO_DIVISOR_CUBED,)
    if g is not None and not any(j % m == 0 for j in g.jumps):
        reasons += (NO_ANCHOR_JUMP,)
    return reasons


def sweep_length(n: int, m: int, g: CirculantGraph | None = None) -> int:
    """n/m, the number of rotation steps, for an admissible (n, m, g).

    Otherwise raises InvalidThetaParams naming each of theta_reasons(n, m, g).
    """
    reasons = theta_reasons(n, m, g)
    if reasons:
        jumps = "" if g is None else f", jumps {g.jumps}"
        raise InvalidThetaParams(
            f"invalid rotation parameters n={n}, m={m}{jumps}: {', '.join(reasons)}",
            reasons,
        )
    return n // m


def admissible_m(g: CirculantGraph) -> tuple[int, ...]:
    """Every m admissible for Type-2 analysis of g, ascending.

    m^3 | n bounds the candidates by the cube root of n.
    """
    return tuple(
        c
        for c in itertools.takewhile(lambda c: c ** 3 <= g.n, itertools.count(2))
        if not theta_reasons(g.n, c, g)
    )


def _check_step(t: int, steps: int) -> None:
    if not 0 <= t < steps:
        raise InvalidThetaParams(f"step t={t} outside [0, {steps - 1}]", ())


def theta_vertex(p: ThetaParams, x: int) -> int:
    """Image of vertex x under the rotation map; the tests' reference."""
    x %= p.n
    return (x + (x % p.m) * p.t * p.m) % p.n


def theta_image(p: ThetaParams, g: CirculantGraph) -> LabeledGraph:
    """Push the whole edge set of g through the vertex map.

    The slow, independent test reference for classify_steps; the library
    certifies a rotation with oracle.verify_theta_witness instead.
    """
    if p.n != g.n:
        raise OrderMismatch(f"params are for order {p.n}, graph has {g.n}")
    vmap = [theta_vertex(p, x) for x in range(p.n)]
    base = edge_set(g)
    edges = set()
    for a, b in base:
        u, v = vmap[a], vmap[b]
        edges.add((u, v) if u < v else (v, u))
    if len(edges) != len(base):
        raise VerificationFailure(
            f"rotation map {p} sent {len(base)} edges of {g} to {len(edges)}"
        )
    return LabeledGraph(p.n, frozenset(edges))


def detect_circulant(h: LabeledGraph) -> CirculantGraph | None:
    """h as a circulant graph if it is one, else None.

    The candidate directed set is vertex 0's neighborhood.  If it is not
    closed under v -> n - v the graph cannot be circulant; otherwise the
    graph of the folded candidate is built and compared with h edge for
    edge.  This works for any labeled graph, at O(n * |R|) cost; it is
    the tests' reference, and rotation images are classified by
    classify_steps.
    """
    n = h.n
    nbrs = {b for a, b in h.edges if a == 0} | {a for a, b in h.edges if b == 0}
    if not nbrs or any((n - v) % n not in nbrs for v in nbrs):
        return None
    candidate = make_circulant(n, nbrs)
    if edge_set(candidate) != h.edges:
        return None
    return candidate


def circulant_stride(g: CirculantGraph, m: int) -> int:
    """q* = d/gcd(d, m*m): the circulant steps of g are its multiples (lemma D).

    dZ_n is the stabiliser of R', the translations x with R' + x = R', for
    R' the c values of +-R not divisible by m; the proof is in
    classify_steps.  R' is a union of cosets of dZ_n, so n/d, the order
    of dZ_n, divides c as well as n, and the subgroup (n/k)Z_n of order k
    lies in dZ_n exactly when k divides n/d.  So n/d is the greatest k
    dividing gcd(c, n) with R' + n/k = R', k = 1 (d = n) when no greater
    one does; d = 1 when R' is empty.  A jump j off the multiples of m gives j and
    n - j, both off them as m | n, one value when j = n/2.
    """
    n = g.n
    moving = {x for j in g.jumps if j % m for x in (j, n - j)}
    top = gcd(len(moving), n)
    d = n
    for k in range(top, 1, -1):
        if top % k == 0 and {(v + n // k) % n for v in moving} == moving:
            d = n // k
            break
    return d // gcd(d, m * m)


def classify_steps(
    g: CirculantGraph,
    m: int,
    t_values: Iterable[int],
    *,
    lookup: Callable[[CirculantGraph], tuple[int, ...]] | None = None,
) -> tuple[TClassification, ...]:
    """Classify the image of g at each circulant step in t_values.

    Only circulant steps get a row, in the order walked: Identity when the
    image is g itself, Type1 when a multiplier unit witnesses the image,
    Type2 when the image has no such witness and g has at least three
    jumps including one divisible by m, and Unclassified for the remaining
    circulant images.  Every other step is NS (non-circulant) and gets no
    row; fill_steps restores one row per step where output lists them.
    t_values is walked lazily and the first step outside [0, n/m) raises.

    Why vertex 0 decides (lemma A).  theta_t fixes 0, so vertex 0's image
    neighbourhood is N = theta_t(+-R), and |N| = |+-R| as theta_t is
    injective on +-R: it keeps each residue mod m and shifts a whole
    residue class by one amount, so two values of +-R meet only if they
    share a residue and then stay apart by their own difference.  The
    image is circulant iff N = -N, and then it is C_n(fold N).  If the
    image is C_n(S), then N = +-S, closed under negation.  Conversely let
    N = -N and M = m*m*t.  The edge (x, x + v), v in +-R, goes to an edge
    with difference v + (((x + v) mod m) - (x mod m))*t*m.  When m | v
    this is v = theta_t(v); otherwise it is theta_t(v) or theta_t(v) - M,
    and theta_t(-v) = -v + (m - v mod m)*t*m = M - theta_t(v), so
    theta_t(v) - M = -theta_t(-v) lies in -N = N.  Every image edge is
    thus an edge of C_n(fold N), which has n*|N|/2 = n*|+-R|/2 edges, as
    many as C_n(R) and so as the image: the image is all of C_n(fold N).

    Which steps are circulant (lemma D).  Let R' be the values of +-R not
    divisible by m, and N' = theta_t(R') their images, the part of N off
    residue 0 mod m.  The part of N on residue 0 is that of +-R, which
    theta_t fixes and which is closed under negation, so N = -N exactly
    when N' = -N'.  R' = -R' and theta_t(-v) = M - theta_t(v) for v in R',
    so -N' = N' - M, and the image is circulant exactly when
    N' + M = N'.  M is 0 mod m, so theta_t(v + M) = theta_t(v) + M and
    N' + M = theta_t(R' + M); theta_t is a bijection of Z_n, so that is
    N' exactly when R' + M = R'.  The translations fixing R' are a
    subgroup dZ_n of Z_n, d as circulant_stride computes it, so step t is
    circulant exactly when d divides m*m*t, that is when
    q* = d/gcd(d, m*m) divides t.  Every step off the multiples of q* is
    NS without building its neighbourhood, and a built step whose N is
    not closed under negation raises VerificationFailure.  Two cases
    build nothing and are Identity: step 0, as theta_0 is the identity
    map, and every step when R' is empty, as theta_t fixes every multiple
    of m.  The images at 0, q*, 2q*, ... repeat with the graph period and
    are distinct below it (groups.t2_group), so the sweep's distinct
    images number period/q*: (V, o) is cyclic, generated by the image at
    step q*, which groups.v_set checks.

    Which steps have a multiplier image (lemma E).  Let H be the steps t
    of Z_{n/m} with theta_t(C_n(R)) = C_n(xR) for some unit x, the
    Identity steps (x = 1) included.  0 is in H, and theta_{t+n/m} =
    theta_t, so H lies in Z_{n/m}.  For a and b in H with images C_n(xR)
    and C_n(yR), theta_{a+b}(C_n(R)) = theta_a(C_n(yR)), which is
    C_n(y*xR) by lemma B (proved in groups.t2_set): H is closed under
    addition.  A finite set holding 0 and closed under addition is a
    subgroup, so H = <h> with h | n/m, and t is in H exactly when
    gcd(t, n/m) is: h divides t exactly when it divides gcd(t, n/m).
    Every step of H is circulant, so H lies among the multiples of q*.

    Any Identity step P is a period of the images: the image at t is the
    one at t mod P (groups.t2_group).  The first step t > 0 whose built
    image is g is such a P, and each later step whose t mod P was walked
    gets that row under its own t, with nothing built or looked up, so a
    full sweep builds only the circulant steps below the graph period.
    A built step costs O(|R|), and its |N| = |+-R| is still checked;
    each distinct image is validated as a CirculantGraph once.  lookup
    maps an image to its ascending witness units, () for none, and is
    asked about each distinct image once.  census passes the
    multiplier orbit of g it has already computed (groups.t2_set), and
    cli's iso a lookup of its b alone.  By default the kernel searches
    with type1.witness_lookup(g), which pins one jump of g and tries at
    most 2*|S|*gcd(r0, n) units; by lemma E it searches an image at step
    t only when t divides n/m or step gcd(t, n/m) is Type1, and gives ()
    without a search otherwise (_divisor_gated_search).  Every Type1 image is still searched in full,
    so its witnesses are listed and each is confirmed with phi_apply.
    """
    n = g.n
    steps = sweep_length(n, m)
    # (v, v's shift per unit step) for each v of the closure
    closure = tuple((v, v % m * m) for v in symmetric_closure(g))
    q = circulant_stride(g, m)
    # whether theta moves any value of the closure; if not, every step is g
    moving = any(s for _, s in closure)
    anchored = len(g.jumps) >= MIN_TYPE2_JUMPS and NO_ANCHOR_JUMP not in theta_reasons(n, m, g)
    # each circulant step walked -> its row
    walked: dict[int, TClassification] = {}
    # the kernel's own lookup is gated by lemma E; a caller's is asked about
    # every new image
    search = _divisor_gated_search(g, m, steps, walked) if lookup is None else None
    # folded jumps of each distinct non-identity image -> (image, witnesses)
    images: dict[tuple[int, ...], tuple[CirculantGraph, tuple[int, ...]]] = {}
    rows = []
    # the first Identity step built, once there is one
    period = 0
    for t in t_values:
        if not 0 <= t < steps:
            _check_step(t, steps)
        if t % q:
            continue
        row = walked.get(t % period) if period else None
        if row is not None:
            row = TClassification(t, row.verdict, row.image, row.witnesses)
        elif not t or not moving:
            row = TClassification(t, Verdict.IDENTITY, image=g)
        else:
            nbrs = {(v + s * t) % n for v, s in closure}
            if len(nbrs) != len(closure):
                raise VerificationFailure(
                    f"step t={t} of {g} sent {len(closure)} neighbours of 0 "
                    f"to {len(nbrs)}"
                )
            if any((n - v) % n not in nbrs for v in nbrs):
                raise VerificationFailure(
                    f"step t={t} of {g} is a multiple of the stride {q} "
                    f"but its image is not circulant"
                )
            # nbrs is closed under negation: its lower half is the folded set
            key = tuple(sorted(v for v in nbrs if 2 * v <= n))
            if key == g.jumps:
                period = period or t
                row = TClassification(t, Verdict.IDENTITY, image=g)
            else:
                known = images.get(key)
                if known is None:
                    image = CirculantGraph(n, key)
                    known = images[key] = (image, lookup(image) if search is None else search(t, image))
                image, witnesses = known
                if witnesses:
                    verdict = Verdict.TYPE1
                elif anchored:
                    verdict = Verdict.TYPE2
                else:
                    verdict = Verdict.UNCLASSIFIED
                row = TClassification(t, verdict, image=image, witnesses=witnesses)
        walked[t] = row
        rows.append(row)
    return tuple(rows)


def _divisor_gated_search(
    g: CirculantGraph, m: int, steps: int, walked: dict[int, TClassification]
) -> Callable[[int, CirculantGraph], tuple[int, ...]]:
    """search(t, image): the witnesses of the image of g at step t, for classify_steps.

    The image is searched with type1.witness_lookup(g) when t divides
    steps = n/m, or when step d = gcd(t, n/m) is in the subgroup H of
    lemma E (proved in classify_steps).  Otherwise t is not in H, and the
    answer is () without a search.  Whether d is in H is read off step
    d's own row, once per d: the sweep's row in walked when it has walked
    d, else a one-step sweep's.  d is in H when that row is Type1.  It is not
    Identity, since d divides t and the image at t is not g.  Each image
    is searched at most once per sweep.
    """
    lookup = witness_lookup(g)
    # image -> its witnesses, for every image searched
    found: dict[CirculantGraph, tuple[int, ...]] = {}
    # divisor d of n/m -> whether step d is in H
    in_h: dict[int, bool] = {}

    def witnesses(image: CirculantGraph) -> tuple[int, ...]:
        if image not in found:
            found[image] = lookup(image)
        return found[image]

    def search(t: int, image: CirculantGraph) -> tuple[int, ...]:
        d = gcd(t, steps)
        if d != t:
            if d not in in_h:
                rows = (walked[d],) if d in walked else classify_steps(g, m, (d,), lookup=witnesses)
                in_h[d] = bool(rows) and rows[0].verdict is Verdict.TYPE1
            if not in_h[d]:
                return ()
        return witnesses(image)

    return search


def fill_steps(
    rows: Iterable[TClassification], t_values: Iterable[int]
) -> tuple[TClassification, ...]:
    """One row per t in t_values: the circulant row at t from rows, else NS."""
    circulant = {row.t: row for row in rows}
    return tuple(circulant.get(t) or TClassification(t, Verdict.NON_CIRCULANT) for t in t_values)


def classify_t(p: ThetaParams, g: CirculantGraph) -> TClassification:
    """Classify the image of g at the single step p.t; see classify_steps."""
    if p.n != g.n:
        raise OrderMismatch(f"params are for order {p.n}, graph has {g.n}")
    return fill_steps(classify_steps(g, p.m, (p.t,)), (p.t,))[0]


def classification_table(
    g: CirculantGraph, m: int, *, t_values: Iterable[int] | None = None
) -> tuple[TableRow, ...]:
    """Sweep rotation steps and render one row per t.

    Transformed values are listed in the order of the sorted base closure,
    so columns line up across rows.
    """
    if t_values is None:
        t_values = range(sweep_length(g.n, m))
    # the steps the kernel walked, kept as it walks them: a bad step stops
    # the walk, so a long range is never built
    walked: list[int] = []
    circulant = classify_steps(g, m, (walked.append(t) or t for t in t_values))
    rows = fill_steps(circulant, walked)
    # (v, v's shift per unit step), as in classify_steps
    columns = [(v, v % m * m) for v in sorted(symmetric_closure(g))]
    return tuple(
        TableRow(row.t, tuple([(v + s * row.t) % g.n for v, s in columns]), row) for row in rows
    )
