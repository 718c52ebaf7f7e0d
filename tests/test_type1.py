"""Multiplier action on connection sets and the resulting Abelian group."""

import itertools
import math

import pytest

from circulant import make_circulant
from circulant.core import CirculantGraph
from circulant.errors import NotAUnit, OrderMismatch
from circulant.type1 import (
    phi_apply,
    type1_group,
    type1_set,
    type1_set_equality,
    type1_witnesses,
    units,
    witness_lookup,
)


def test_units_of_a_power_of_two():
    u = units(16)
    assert u == (1, 3, 5, 7, 9, 11, 13, 15)


def test_units_of_54():
    u = units(54)
    assert len(u) == 18
    assert 53 in u
    assert all(math.gcd(x, 54) == 1 for x in u)


def test_units_of_a_prime():
    assert units(7) == (1, 2, 3, 4, 5, 6)


def test_units_rejects_tiny_orders():
    with pytest.raises(ValueError):
        units(1)


def test_phi_apply_folds_products():
    g = make_circulant(54, [1, 17, 18, 19])
    assert phi_apply(54, 5, g).jumps == (5, 13, 18, 23)
    assert phi_apply(16, 3, make_circulant(16, [1, 2, 7])).jumps == (3, 5, 6)


def test_phi_apply_by_one_is_identity():
    g = make_circulant(16, [1, 2, 7])
    assert phi_apply(16, 1, g) == g


def test_phi_apply_rejects_non_units():
    with pytest.raises(NotAUnit):
        phi_apply(16, 4, make_circulant(16, [1, 2, 7]))


def test_phi_apply_rejects_mismatched_orders():
    with pytest.raises(OrderMismatch):
        phi_apply(54, 5, make_circulant(16, [1, 2, 7]))


def test_orbit_of_16_127_has_two_members():
    t1 = type1_set(make_circulant(16, [1, 2, 7]))
    assert sorted(m.jumps for m in t1.members) == [(1, 2, 7), (3, 5, 6)]


def test_orbit_of_54_sweep_base_has_three_members():
    t1 = type1_set(make_circulant(54, [2, 3, 16, 20]))
    assert sorted(m.jumps for m in t1.members) == [
        (2, 3, 16, 20),
        (4, 14, 21, 22),
        (8, 10, 15, 26),
    ]


def test_witnesses_partition_the_units():
    g = make_circulant(48, [1, 4, 23])
    t1 = type1_set(g)
    assert sorted(m.jumps for m in t1.members) == [
        (1, 4, 23),
        (4, 11, 13),
        (5, 19, 20),
        (7, 17, 20),
    ]
    cells = [set(t1.witness[m]) for m in t1.members]
    assert all(len(c) == 4 for c in cells)
    combined = set().union(*cells)
    assert combined == set(units(48))
    for a in cells:
        for b in cells:
            assert a == b or not (a & b)


def test_witnesses_between_two_graphs():
    g = make_circulant(16, [1, 2, 7])
    h = make_circulant(16, [3, 5, 6])
    w = type1_witnesses(g, h)
    assert 3 in w
    assert all(phi_apply(16, x, g) == h for x in w)


def test_no_witness_for_a_theta_partner():
    g = make_circulant(16, [1, 2, 7])
    assert type1_witnesses(g, make_circulant(16, [2, 3, 5])) == ()


def test_self_witnesses_form_the_stabilizer():
    g = make_circulant(16, [1, 2, 7])
    assert 1 in type1_witnesses(g, g)


def test_group_of_order_two():
    grp = type1_group(make_circulant(16, [1, 2, 7]))
    assert len(grp.representatives) == 2
    assert grp.stabilizer == (1, 7, 9, 15)
    assert grp.table == ((0, 1), (1, 0))


def test_group_of_order_nine():
    grp = type1_group(make_circulant(81, [3, 7, 20, 34]))
    assert len(grp.representatives) == 9
    assert set(grp.representatives) == {1, 2, 4, 5, 7, 8, 10, 11, 13}
    assert grp.stabilizer == (1, 26, 28, 53, 55, 80)
    # orbit-stabilizer: |orbit| * |stabilizer| = phi(81)
    assert len(grp.representatives) * len(grp.stabilizer) == 54
    # closure of the multiplication table
    size = len(grp.representatives)
    for row in grp.table:
        assert sorted(row) == list(range(size)) or all(0 <= v < size for v in row)


def test_complete_graph_orbit_is_trivial():
    grp = type1_group(make_circulant(8, [1, 2, 3, 4]))
    assert grp.representatives == (1,)
    assert grp.stabilizer == (1, 3, 5, 7)


def test_set_equality_goldens():
    g = make_circulant(16, [1, 2, 7])
    assert type1_set_equality(g, make_circulant(16, [3, 5, 6]))
    assert not type1_set_equality(g, make_circulant(16, [2, 3, 5]))
    assert type1_set_equality(g, g)


def test_pinned_lookup_equals_the_full_scan():
    # every pair of jump sets of equal size up to three, and one pair of
    # different sizes per base
    for n in (16, 18, 24, 27, 32):
        by_size = [
            [CirculantGraph(n, combo) for combo in itertools.combinations(range(1, n // 2 + 1), k)]
            for k in (1, 2, 3)
        ]
        for k, graphs in enumerate(by_size):
            other = by_size[k - 1][0]
            for g in graphs:
                fresh = type1_set(g).witness
                lookup = witness_lookup(g)
                assert lookup(other) == (), (g, other)
                for s in graphs:
                    assert lookup(s) == fresh.get(s, ()), (g, s)
    # every jump of C_16(2, 4, 6) shares a factor with 16, and all eight
    # units fix it: 9 is found only as the lift 1 + 16/2
    g = make_circulant(16, [2, 4, 6])
    assert witness_lookup(g)(g) == units(16)


def test_group_table_matches_the_multiplier_action():
    for n in (16, 24, 27):
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                g = CirculantGraph(n, combo)
                group = type1_group(g)
                index = {m: i for i, m in enumerate(group.carrier.members)}
                reps = group.representatives
                expected = tuple(
                    tuple(index[phi_apply(n, a * b % n, g)] for b in reps) for a in reps
                )
                assert group.table == expected, g
