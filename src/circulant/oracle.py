"""Independent certification oracles.

Everything here uses the core graph representation and theta's validated
parameter record (ThetaParams), nothing of the rotation kernel or the
groups, so it can serve as trusted evidence against those modules.  The
brute-force search is exact: a returned witness is re-verified jump by
jump at every vertex (_maps_jumps), and a None is a definitive
refutation, not a timeout; it tries each vertex only on the vertices
with its colour (adjacency to 0 and common neighbours with 0), which
every isomorphism fixing 0 keeps.  verify_theta_witness certifies one
rotation step for any number of (g, h) pairs: it checks the map's
bijection and period m once, O(n), and then each pair's jumps on the m
residue classes, O(m·|R|).
"""

from __future__ import annotations

from math import cos, pi
from operator import sub
from typing import Iterable, NamedTuple

from .core import CirculantGraph, gcd_profile, symmetric_closure
from .errors import BudgetExceeded, OrderMismatch, VerificationFailure
from .theta import ThetaParams

BRUTE_FORCE_CAP = 24
SPECTRAL_DIGITS = 9
SPECTRAL_TOLERANCE = 1e-6


class IsoWitness(NamedTuple):
    """An explicit vertex bijection that was checked on every jump of every vertex."""

    mapping: tuple[int, ...]
    verified: bool


def gcd_signature_check(g: CirculantGraph, h: CirculantGraph) -> bool:
    """Necessary condition: isomorphic circulants share the gcd profile."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    return gcd_profile(g) == gcd_profile(h)


def spectral_fingerprint(g: CirculantGraph) -> tuple[float, ...]:
    """Sorted adjacency eigenvalues, rounded for stable comparison.

    Eigenvalue j is the sum of cos(2*pi*j*s/n) over the symmetric closure;
    isomorphic graphs agree, so a mismatch refutes isomorphism while a
    match proves nothing.  Each term is the expression the package's
    earlier array code evaluated, left to right in doubles, so it has the
    same bits; terms are added in order of s, as that code did for
    closures below 8.  For larger ones it kept 8 partial sums, so an
    eigenvalue may differ by an ulp and, at a rounding boundary, in its
    last digit; same_spectrum's tolerance absorbs both.
    """
    n = g.n
    closure = sorted(symmetric_closure(g))
    eigs = []
    for j in range(n):
        a = 2.0 * pi * j
        eigs.append(sum([cos(a * s / n) for s in closure]))
    return tuple(sorted(round(v, SPECTRAL_DIGITS) + 0.0 for v in eigs))


def same_spectrum(g: CirculantGraph, h: CirculantGraph) -> bool:
    """Whether the sorted spectra of g and h agree within SPECTRAL_TOLERANCE.

    Equal spectra can round to different fingerprints when an eigenvalue
    sits near a rounding boundary, so fingerprints are compared entry by
    entry with a tolerance, not for equality.  A false match only passes
    the pair on to a stronger check; a mismatch refutes isomorphism.
    """
    a, b = spectral_fingerprint(g), spectral_fingerprint(h)
    return len(a) == len(b) and all(abs(x - y) <= SPECTRAL_TOLERANCE for x, y in zip(a, b))


def brute_force_isomorphic(
    g: CirculantGraph, h: CirculantGraph, cap: int = BRUTE_FORCE_CAP
) -> IsoWitness | None:
    """Exhaustive isomorphism search with adjacency-consistency pruning.

    Returns the first witness in deterministic order or None after
    exhausting the search space.  Orders above cap raise BudgetExceeded
    instead of answering slowly.

    Vertex 0 is only ever mapped to 0, which loses no isomorphism: h is
    circulant, so every rotation x -> x + c is an automorphism of h, and
    any isomorphism f composed with x -> x - f(0) is one that fixes 0.
    Vertex 0 is placed first and images are tried in ascending order, so
    the witness found is the one a search over all images of 0 would find
    first; a refutation skips only the n - 1 subtrees that hold nothing.

    The colour of a vertex v is the pair (whether v is adjacent to 0,
    |N(v) ∩ N(0)|).  An isomorphism f with f(0) = 0 keeps it: f maps edges
    onto edges both ways, so v ~ 0 exactly when f(v) ~ f(0) = 0, and f is a
    bijection with f(N(x)) = N(f(x)) for every x, so f(N(v) ∩ N(0)) =
    N(f(v)) ∩ N(0), a set of the same size.  Hence g and h with different
    colour multisets have no such f (and so, by the above, no isomorphism
    at all), and every vertex is tried only on the vertices of h with its
    colour.  A cut image is one no isomorphism fixing 0 gives that vertex,
    so the subtree under it holds no witness.  The visiting order and the
    ascending order of images are those of the uncut search, so the
    surviving nodes are visited in the same order: the first witness and
    every refutation are the same.
    """
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    n = g.n
    if n > cap:
        raise BudgetExceeded(f"order {n} above brute-force cap {cap}")

    # every vertex of a circulant has degree |±R|; x's neighbours are x + ±R,
    # so row x is row 0 rotated x places
    closure_g, closure_h = symmetric_closure(g), symmetric_closure(h)
    if len(closure_g) != len(closure_h):
        return None
    adj_g, adj_h = _rows(n, closure_g), _rows(n, closure_h)

    # each vertex may go only to a vertex of h with its colour
    colours_g, colours_h = _colours(adj_g), _colours(adj_h)
    if sorted(colours_g) != sorted(colours_h):
        return None
    classes: dict[int, int] = {}
    for y, c in enumerate(colours_h):
        classes[c] = classes.get(c, 0) | 1 << y
    allowed = [classes[c] for c in colours_g]

    # visit g's vertices most-constrained first: each next vertex is the one
    # with the most already-placed neighbours (ties to the lowest index);
    # links[v] counts them, and a placed vertex sits below 0 for good
    order = [0]
    links = [0] * n
    while len(order) < n:
        v = order[-1]
        links[v] = -n
        for s in closure_g:
            links[(v + s) % n] += 1
        order.append(links.index(max(links)))

    mapping = [-1] * n
    mapping[0] = 0
    used = 1 << 0

    def candidates(depth: int) -> int:
        """The free images of order[depth]'s colour that keep every placed
        adjacency and non-adjacency, as a bitmask.

        The neighbours of y in h are the w with adj_h[w] >> y & 1, and h is
        undirected, so they are the bits of adj_h[y].
        """
        v = order[depth]
        cand = allowed[v] & ~used
        mask = adj_g[v]
        for u in order[:depth]:
            if mask >> u & 1:
                cand &= adj_h[mapping[u]]
            else:
                cand &= ~adj_h[mapping[u]]
        return cand

    # depth-first with an explicit stack, so the order is not bounded by the
    # recursion limit: frames[d - 1] holds the images left for order[d],
    # tried lowest first, and order[d] keeps its current image until the
    # next is tried
    frames = [candidates(1)]
    while frames:
        v = order[len(frames)]
        if mapping[v] != -1:
            used &= ~(1 << mapping[v])
            mapping[v] = -1
        cand = frames[-1]
        if not cand:
            frames.pop()
            continue
        low = cand & -cand
        frames[-1] = cand ^ low
        mapping[v] = low.bit_length() - 1
        used |= low
        if len(frames) == n - 1:
            break
        frames.append(candidates(len(frames) + 1))
    else:
        return None
    if not _maps_jumps(n, mapping, g, h):
        raise VerificationFailure(f"search returned a mapping that does not take {g} onto {h}")
    return IsoWitness(tuple(mapping), True)


def _rows(n: int, closure: frozenset[int]) -> list[int]:
    """The adjacency bitmasks of C_n(R) from ±R: row x is row 0 rotated left x places."""
    full = (1 << n) - 1
    a0 = sum(1 << s for s in closure)
    return [(a0 << x | a0 >> (n - x)) & full for x in range(n)]


def _colours(adj: list[int]) -> list[int]:
    """Each vertex's colour, whether it is adjacent to 0 and |N(v) ∩ N(0)|, as one int."""
    a0 = adj[0]
    return [(row & a0).bit_count() << 1 | row & 1 for row in adj]


def verify_theta_witness(
    p: ThetaParams, pairs: Iterable[tuple[CirculantGraph, CirculantGraph]]
) -> IsoWitness:
    """Check the rotation map of p as an isomorphism g -> h for each (g, h) in pairs.

    The permutation is rebuilt from the definition once (_rotation_map)
    and its part of the certificate checked once: it is a bijection with
    period m (_is_periodic_bijection).  Each pair then pays only for its
    own part, |±R| = |±S| and the m·|R| jump differences on the residues
    x < m (_maps_pair), with each distinct graph's closure ±R built once
    per call.  Together these are _maps_jumps with period m, so
    the check is exact at any order; a failure raises VerificationFailure
    naming p, and for a pair both graphs, rather than returning a wrong
    witness.
    """
    n, m = p.n, p.m
    mapping = _rotation_map(p)
    if not _is_periodic_bijection(n, mapping, m):
        raise VerificationFailure(f"rotation map is not a bijection of period {m} for {p}")
    closures: dict[CirculantGraph, frozenset[int]] = {}
    for g, h in pairs:
        if g.n != n or h.n != n:
            raise OrderMismatch(f"orders differ: {g.n}, {h.n}, params {n}")
        for x in (g, h):
            if x not in closures:
                closures[x] = symmetric_closure(x)
        if not _maps_pair(n, mapping, g, h, m, closures):
            raise VerificationFailure(f"{p} does not map {g} onto {h}")
    return IsoWitness(tuple(mapping), True)


def _rotation_map(p: ThetaParams) -> list[int]:
    """The vertex map of p from its definition: x = q*m + j gains j*t*m,
    so residue class j shifts j*t places along itself."""
    n, m = p.n, p.m
    mapping = [0] * n
    for j in range(m):
        cls = range(j, n, m)
        k = j * p.t % len(cls)
        mapping[j::m] = [*cls[k:], *cls[:k]]
    return mapping


def _maps_jumps(
    n: int, mapping, g: CirculantGraph, h: CirculantGraph, period: int | None = None
) -> bool:
    """Whether the vertex map x -> mapping[x] is an isomorphism g -> h.

    Write g = C_n(R) and h = C_n(S).  The map is one exactly when three
    checks hold: it is a bijection of Z_n; |±R| = |±S|, so the half jump
    n/2 counts once on either side; and for every x in Z_n and every jump
    r of R, d_r(x) = (mapping[x + r] - mapping[x]) mod n lies in ±S.

    Why that is enough: the edges of g are the pairs {x, x + r} for x in
    Z_n and r in R, and the last check puts the image of each into h.  A
    bijection of the vertices sends distinct edges to distinct pairs, so
    the n·|±R|/2 edges of g land injectively in the n·|±S|/2 edges of h.
    The counts are equal, so the image is all of h, and the inverse map
    sends edges to edges too.  Conversely an isomorphism passes all
    three.

    The last check runs on x < period alone, after a fourth: mapping[x +
    period] ≡ mapping[x] + period (mod n) for every x in Z_n.  By induction
    mapping[y + k·period] ≡ mapping[y] + k·period, so d_r(x + k·period) =
    d_r(x), and every x in [0, n) is its residue mod period plus a multiple
    of period.  A rotation map passes with period m; period n, the
    default, checks every x.  So the cost is O(n) list operations plus
    O(period·|R|) differences, on the concrete mapping whatever built it,
    with no edge set, lemma A or rotation kernel.

    The O(n) part depends on the map alone (_is_periodic_bijection) and
    the rest on the pair (_maps_pair), so a map shared by several pairs
    is checked once.
    """
    period = n if period is None else period
    if not _is_periodic_bijection(n, mapping, period):
        return False
    closures = {g: symmetric_closure(g), h: symmetric_closure(h)}
    return _maps_pair(n, mapping, g, h, period, closures)


def _is_periodic_bijection(n: int, mapping, period: int) -> bool:
    """The map's part of _maps_jumps: a bijection of Z_n with
    mapping[x + period] ≡ mapping[x] + period (mod n) for every x."""
    if not _is_bijection(n, mapping):
        return False
    # a difference of two vertices lies in (-n, n): it is c mod n exactly
    # when it is c or c - n, for 0 < c <= n
    return set(map(sub, mapping[period:] + mapping[:period], mapping)) <= {period, period - n}


def _maps_pair(
    n: int,
    mapping,
    g: CirculantGraph,
    h: CirculantGraph,
    period: int,
    closures: dict[CirculantGraph, frozenset[int]],
) -> bool:
    """The pair's part of _maps_jumps: |±R| = |±S|, and every jump of g
    lands in ±S from each x < period; closures holds ±R and ±S."""
    closure_h = closures[h]
    if len(closures[g]) != len(closure_h):
        return False
    allowed = closure_h | {s - n for s in closure_h}
    return all(
        mapping[(x + r) % n] - mapping[x] in allowed for r in g.jumps for x in range(period)
    )


def _is_bijection(n: int, mapping) -> bool:
    """Whether mapping takes every vertex of Z_n to a distinct vertex of Z_n.

    A negative label would index the hit table from its end, so it is
    refused before the pass; a label of n or more stops the pass.
    """
    if len(mapping) != n or min(mapping, default=0) < 0:
        return False
    hit = bytearray(n)
    try:
        for y in mapping:
            hit[y] = 1
    except IndexError:
        return False
    return 0 not in hit
