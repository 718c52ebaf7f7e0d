"""Circulant graphs with canonical connection sets.

A circulant graph of order n is determined by a set of jumps: vertex x is
adjacent to x +/- j (mod n) for every jump j.  Jumps are stored folded into
[1, n//2], sorted, without duplicates, so two graphs are equal exactly when
their (n, jumps) pairs are equal.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple

from .errors import EmptyConnectionSet, InvalidJump, VerificationFailure


def check_order(n: int) -> None:
    """Raise InvalidJump unless n is the order of some graph, i.e. n >= 3."""
    if n < 3:
        raise InvalidJump(f"graph order must be at least 3, got {n}")


class _CirculantGraph(NamedTuple):
    n: int
    jumps: tuple[int, ...]


class CirculantGraph(_CirculantGraph):
    """A circulant graph C_n(R) with its canonical jumps R.

    R is sorted, distinct and folded into [1, n//2]; make_circulant folds
    raw values into that form, and any other jumps are refused here, on
    every construction.  A named tuple: it hashes, orders and compares as
    the pair (n, jumps).
    """

    __slots__ = ()

    def __new__(cls, n: int, jumps: tuple[int, ...]):
        check_order(n)
        if not jumps:
            raise EmptyConnectionSet("connection set is empty")
        prev = 0
        for j in jumps:
            if not isinstance(j, int) or not 1 <= j <= n // 2:
                raise InvalidJump(f"jump {j} outside [1, {n // 2}] for order {n}")
            if j <= prev:
                raise InvalidJump(f"jumps must be strictly increasing, got {jumps}")
            prev = j
        return tuple.__new__(cls, (n, jumps))

    def __str__(self):
        return f"C_{self.n}({','.join(map(str, self.jumps))})"


class CycleStats(NamedTuple):
    """Cycle decomposition of the edges contributed by a single jump."""

    jump: int
    gcd: int
    cycle_length: int
    cycle_count: int


def fold(n: int, v: int) -> int:
    """The one fold of a raw value into [0, n//2]: v mod n, or n minus that when smaller."""
    r = v % n
    return n - r if 2 * r > n else r


def reflexive_reduce(n: int, raw: Iterable[int]) -> tuple[int, ...]:
    """Fold raw jump values into canonical jumps.

    Each value is folded, duplicates collapse, and the result is sorted.
    A value congruent to 0 would be a loop and is rejected.
    """
    check_order(n)
    values = list(raw)
    if not values:
        raise EmptyConnectionSet("connection set is empty")
    folded = set()
    for v in values:
        r = fold(n, v)
        if r == 0:
            raise InvalidJump(f"jump {v} is 0 mod {n} (a loop)")
        folded.add(r)
    return tuple(sorted(folded))


def make_circulant(n: int, raw: Iterable[int]) -> CirculantGraph:
    """Build C_n(raw) with the jump values folded to canonical form."""
    return CirculantGraph(n, reflexive_reduce(n, raw))


def symmetric_closure(g: CirculantGraph) -> frozenset[int]:
    """All directed jump values of g: each jump j yields j and n - j."""
    values = set()
    for j in g.jumps:
        values.add(j)
        values.add(g.n - j)
    return frozenset(values)


def gcd_profile(g: CirculantGraph) -> tuple[int, ...]:
    """The sorted gcd(j, n) over the jumps j of g, which a multiplier keeps."""
    return tuple(sorted(gcd(j, g.n) for j in g.jumps))


def edge_set(g: CirculantGraph) -> frozenset[tuple[int, int]]:
    """The whole edge set of g as (low, high) vertex pairs."""
    n = g.n
    edges = set()
    for j in g.jumps:
        for x in range(n):
            y = (x + j) % n
            edges.add((x, y) if x < y else (y, x))
    return frozenset(edges)


def period_cycle_stats(n: int, jump: int) -> CycleStats:
    """Cycle structure of the subgraph of a single jump.

    Jump j splits the vertices into gcd(n, j) cycles, each of length
    n / gcd(n, j).
    """
    check_order(n)
    if not 1 <= jump <= n - 1:
        raise InvalidJump(f"jump {jump} outside [1, {n - 1}] for order {n}")
    g = gcd(n, jump)
    return CycleStats(jump=jump, gcd=g, cycle_length=n // g, cycle_count=g)


def check_equal_or_disjoint(
    g: CirculantGraph,
    g_class: Iterable[CirculantGraph],
    h: CirculantGraph,
    h_class: Iterable[CirculantGraph],
) -> bool:
    """Whether h lies in g's class, given the classes of g and h.

    Classes of one equivalence are equal or disjoint: h in g's class must
    go with equal classes and g in h's class, and h outside it with
    disjoint classes and g outside h's.  Raises VerificationFailure when
    neither holds.
    """
    mine, theirs = set(g_class), set(h_class)
    member = h in mine
    if member:
        holds = mine == theirs and g in theirs
    else:
        holds = not mine & theirs and g not in theirs
    if not holds:
        raise VerificationFailure(f"the classes of {g} and {h} are neither equal nor disjoint")
    return member
