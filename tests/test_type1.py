"""Multiplier action on connection sets and the resulting Abelian group."""

import itertools
import math
import random

import pytest

import circulant.type1
from circulant import make_circulant
from circulant.core import CirculantGraph
from circulant.errors import BudgetExceeded, NotAUnit
from circulant.type1 import (
    UnitProducts,
    multiply,
    phi_apply,
    totient,
    type1_group,
    type1_set,
    type1_set_equality,
    type1_witnesses,
    units,
    witness_lookup,
)
from reference import check_abelian_group


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


def test_totient_counts_the_units():
    assert all(totient(n) == len(units(n)) for n in range(3, 3000))


def test_totient_is_at_least_the_root_of_half_the_order():
    # type1_group refuses an n above 2*budget^2 unfactored on this bound
    assert all(2 * totient(n) ** 2 >= n for n in range(1, 30000))


def test_units_rejects_tiny_orders():
    with pytest.raises(ValueError):
        units(1)


def test_phi_apply_folds_products():
    g = make_circulant(54, [1, 17, 18, 19])
    assert phi_apply(g, 5).jumps == (5, 13, 18, 23)
    assert phi_apply(make_circulant(16, [1, 2, 7]), 3).jumps == (3, 5, 6)


def test_phi_apply_by_one_is_identity():
    g = make_circulant(16, [1, 2, 7])
    assert phi_apply(g, 1) == g


def test_phi_apply_rejects_non_units():
    with pytest.raises(NotAUnit):
        phi_apply(make_circulant(16, [1, 2, 7]), 4)


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
    assert all(phi_apply(g, x) == h for x in w)


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
    # the paper's claim, held against the reference: each table is an
    # Abelian group whose identity is the base; the unit groups of 16 and
    # 24 are not cyclic
    for n in (16, 24, 27):
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                g = CirculantGraph(n, combo)
                group = type1_group(g)
                index = {m: i for i, m in enumerate(group.carrier.members)}
                reps = group.representatives
                expected = tuple(
                    tuple(index[phi_apply(g, a * b % n)] for b in reps) for a in reps
                )
                assert group.table == expected, g
                check_abelian_group(group.table, index[g])


def _bucket_reference(g):
    """type1_set and type1_group as phi_apply per unit and a dict per cell
    built them before: (members, witness, stabilizer, reps, table)."""
    n = g.n
    buckets = {}
    for x in units(n):
        buckets.setdefault(phi_apply(g, x), []).append(x)
    members = tuple(sorted(buckets))
    witness = {m: tuple(buckets[m]) for m in members}
    reps = tuple(min(witness[m]) for m in members)
    member_of = {x: i for i, m in enumerate(members) for x in witness[m]}
    table = tuple(tuple(member_of[a * b % n] for b in reps) for a in reps)
    return members, witness, witness[g], reps, table


# the smallest orders, primes, powers of two, and 54, 81 and 250
ORACLE_ORDERS = (3, 4, 5, 6, 7, 8, 13, 16, 31, 32, 54, 64, 81, 97, 128, 211, 250)


def _sampled_bases(seed, count):
    """The bases of ORACLE_ORDERS at every size from 1 to 6 the order admits,
    then count bases at random orders 3-250 and sizes 1-6."""
    rng = random.Random(seed)
    orders = [(n, k) for n in ORACLE_ORDERS for k in range(1, min(6, n // 2) + 1)]
    for _ in range(count):
        n = rng.randint(3, 250)
        orders.append((n, rng.randint(1, min(6, n // 2))))
    return [
        CirculantGraph(n, tuple(sorted(rng.sample(range(1, n // 2 + 1), k)))) for n, k in orders
    ]


def test_orbit_table_equals_multiply_over_every_unit():
    # one UnitProducts per order serves all of that order's bases, met
    # interleaved with other orders, so a column read for the wrong base
    # or order would show; each table, its lists mirrored, must be
    # multiply's bucketing of all phi(n) units
    products = {}
    for g in _sampled_bases(30, 200):
        n = g.n
        reference = {}
        for x in units(n):
            reference.setdefault(multiply(n, x, g.jumps), []).append(x)
        shared = products.setdefault(n, UnitProducts(n))
        table = shared.orbit(g.jumps)
        assert all(2 * u < n for us in table.values() for u in us), g
        got = {jumps: shared.witnesses(us) for jumps, us in table.items()}
        assert got == {jumps: tuple(xs) for jumps, xs in reference.items()}, g


def test_orbit_and_group_equal_the_per_unit_reference():
    for g in _sampled_bases(27, 300):
        group = type1_group(g)
        ts = group.carrier
        assert ts.base == g
        got = (ts.members, ts.witness, group.stabilizer, group.representatives, group.table)
        assert got == _bucket_reference(g), g


def test_type1_group_counts_the_stabilizer_pairs_in_its_budget():
    # the complete graph of order 13: 12 units times 6 jumps are 72 unit
    # products, the orbit is the graph alone (1 table cell), and all 12
    # units fix it, 144 stabilizer pairs: 217 steps, most of them the pairs
    g = make_circulant(13, range(1, 7))
    with pytest.raises(BudgetExceeded) as info:
        type1_group(g, budget=216)
    assert str(info.value).startswith("217 steps of the multiplier group of C_13(1,2,3,4,5,6)")
    assert type1_group(g, budget=217).stabilizer == units(13)


def test_type1_group_factors_no_order_above_twice_the_budget_squared(monkeypatch):
    # 2*3^2 = 18: C_18(1) is counted, 6 unit products; C_19(1) is refused
    # before 19 is factored
    with pytest.raises(BudgetExceeded, match="^6 unit products of the multiplier orbit of C_18"):
        type1_group(make_circulant(18, [1]), budget=3)

    def no_totient(n):
        raise AssertionError("the order was factored")

    monkeypatch.setattr(circulant.type1, "totient", no_totient)
    with pytest.raises(BudgetExceeded) as info:
        type1_group(make_circulant(19, [1]), budget=3)
    assert str(info.value) == (
        "more than 3 unit products of the multiplier orbit of C_19(1) exceed the budget of 3"
    )


def test_type1_group_refuses_a_large_complete_graph_by_default(monkeypatch):
    # 20010 units times 10005 jumps are 2*10^8 unit products, above the
    # default budget, so no unit is multiplied
    def no_orbit(n):
        raise AssertionError("the orbit was built")

    monkeypatch.setattr(circulant.type1, "UnitProducts", no_orbit)
    with pytest.raises(BudgetExceeded, match="^200200050 unit products "):
        type1_group(make_circulant(20011, range(1, 10006)))
