"""Randomized and exhaustive invariant checks.

Every hypothesis suite here is also driven directly by the acceptance
tests, so keep them self-contained module-level functions.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circulant import CirculantGraph, make_circulant, reflexive_reduce
from circulant.errors import InvalidJump
from circulant.groups import census, t2_set, v_set
from circulant.oracle import (
    brute_force_isomorphic,
    gcd_signature_check,
    same_spectrum,
)
from circulant.theta import ThetaParams, theta_vertex
from circulant.type1 import phi_apply, type1_set, units

# orders with a cube divisor, paired with that divisor
POOL = [
    (8, 2),
    (16, 2),
    (24, 2),
    (32, 2),
    (40, 2),
    (48, 2),
    (27, 3),
    (54, 3),
    (81, 3),
]

SETTINGS = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)


@st.composite
def pool_step(draw):
    n, m = draw(st.sampled_from(POOL))
    t = draw(st.integers(0, n // m - 1))
    return n, m, t


@st.composite
def anchored_graph(draw):
    # at least one jump divisible by m, as the rotation map requires
    n, m = draw(st.sampled_from(POOL))
    half = n // 2
    anchor = draw(st.integers(1, half // m)) * m
    extras = draw(
        st.sets(st.integers(1, half), min_size=0, max_size=3).map(
            lambda s: s - {anchor}
        )
    )
    return n, m, make_circulant(n, [anchor, *extras])


@st.composite
def any_graph(draw):
    n = draw(st.sampled_from([8, 12, 16, 20, 24, 27, 30, 36, 48, 54]))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    return make_circulant(n, jumps)


@SETTINGS
@given(pool_step())
def test_rotation_map_is_a_bijection(params):
    n, m, t = params
    p = ThetaParams(n, m, t)
    assert sorted(theta_vertex(p, x) for x in range(n)) == list(range(n))


@SETTINGS
@given(st.sampled_from(POOL), st.data())
def test_rotation_maps_compose_additively(pool, data):
    n, m = pool
    steps = n // m
    t1 = data.draw(st.integers(0, steps - 1))
    t2 = data.draw(st.integers(0, steps - 1))
    x = data.draw(st.integers(0, n - 1))
    once = theta_vertex(ThetaParams(n, m, t2), x)
    twice = theta_vertex(ThetaParams(n, m, t1), once)
    assert twice == theta_vertex(ThetaParams(n, m, (t1 + t2) % steps), x)


@SETTINGS
@given(pool_step(), st.data())
def test_rotation_map_inverts_at_the_complementary_step(params, data):
    n, m, t = params
    steps = n // m
    x = data.draw(st.integers(0, n - 1))
    forward = theta_vertex(ThetaParams(n, m, t), x)
    assert theta_vertex(ThetaParams(n, m, (steps - t) % steps), forward) == x


@SETTINGS
@given(pool_step(), st.data())
def test_rotation_map_translates_by_anchored_jumps(params, data):
    # adding a jump divisible by m commutes with the rotation map
    n, m, t = params
    p = ThetaParams(n, m, t)
    x = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(1, n // m - 1)) * m
    assert theta_vertex(p, (x + j) % n) == (theta_vertex(p, x) + j) % n


@SETTINGS
@given(st.integers(3, 100), st.data())
def test_reduce_is_canonical_idempotent_and_negation_blind(n, data):
    values = data.draw(
        st.lists(
            st.integers(1, 10 * n).filter(lambda v: v % n != 0),
            min_size=1,
            max_size=6,
        )
    )
    r = reflexive_reduce(n, values)
    assert all(1 <= j <= n // 2 for j in r)
    assert list(r) == sorted(set(r))
    assert reflexive_reduce(n, r) == r
    assert reflexive_reduce(n, [n - (v % n) for v in values]) == r
    # the validator accepts the fold's output, and exactly the canonical tuples
    assert CirculantGraph(n, reflexive_reduce(n, values)) == make_circulant(n, values)
    drawn = tuple(
        data.draw(
            st.one_of(
                st.sets(st.integers(1, n // 2), min_size=1, max_size=6).map(sorted),
                st.lists(st.integers(-1, n), min_size=1, max_size=6),
            )
        )
    )
    canonical = all(1 <= j <= n // 2 for j in drawn) and list(drawn) == sorted(set(drawn))
    try:
        CirculantGraph(n, drawn)
    except InvalidJump:
        assert not canonical, drawn
    else:
        assert canonical, drawn
        assert reflexive_reduce(n, drawn) == drawn


@SETTINGS
@given(any_graph())
def test_multiplier_orbit_respects_orbit_stabilizer(g):
    t1 = type1_set(g)
    all_units = set(units(g.n))
    assert len(all_units) % len(t1.members) == 0
    cells = [set(t1.witness[m]) for m in t1.members]
    assert set().union(*cells) == all_units
    assert sum(len(c) for c in cells) == len(all_units)
    sizes = {len(c) for c in cells}
    assert len(sizes) == 1  # cosets of the stabilizer share one size
    assert len(t1.members) * sizes.pop() == len(all_units)


@SETTINGS
@given(anchored_graph())
def test_partner_indices_form_a_subgroup(params):
    n, m, g = params
    steps = n // m
    s = t2_set(g, m)
    indices = set(s.t2_indices)
    assert 0 in indices
    for a in indices:
        assert (steps - a) % steps in indices
        for b in indices:
            assert (a + b) % steps in indices
    if len(indices) > 1:
        gen = min(i for i in indices if i)
        assert indices == set(range(0, steps, gen))
    v = v_set(g, m)
    assert s.graph_period == v.graph_period
    identity_steps = {
        row.t for row in v.rows if row.verdict.value == "Identity"
    }
    assert identity_steps == set(range(0, steps, s.graph_period))


@SETTINGS
@given(anchored_graph(), st.data())
def test_certified_pairs_pass_the_invariants(params, data):
    n, m, g = params
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(units(n)))
        h = make_circulant(n, phi_apply(g, x).jumps)
    else:
        members = t2_set(g, m).members
        h = data.draw(st.sampled_from(members))
    assert gcd_signature_check(g, h)
    # the tolerance iso relies on: exact fingerprints of isomorphic graphs
    # can round one eigenvalue to different ninth digits
    assert same_spectrum(g, h)


def test_census_classes_are_equal_or_disjoint():
    # exhaustive: no jump set may sit in two partner classes
    for n, m, size in ((16, 2, 3), (24, 2, 3), (27, 3, 4), (54, 3, 4)):
        owner = {}
        for record in census(n, m, [size]).records:
            key = record.base.jumps
            for member in record.members:
                assert owner.setdefault(member.jumps, key) == key, (
                    n,
                    m,
                    member.jumps,
                )
            # recomputing from any member must reproduce the class
            for member in record.members:
                again = t2_set(member, m)
                assert {x.jumps for x in again.members} == {
                    x.jumps for x in record.members
                }


def test_census_members_are_honest_partners():
    # small enough to brute force every claimed partner
    for record in census(16, 2, [3]).records:
        base = record.base
        for member in record.members:
            if member == base:
                continue
            assert gcd_signature_check(base, member)
            witness = brute_force_isomorphic(base, member)
            assert witness is not None and witness.verified


def test_multiplier_composition_is_multiplication():
    for n in range(3, 31):
        half = n // 2
        sets = [(1,), tuple(range(1, min(4, half) + 1)), (half,)]
        ring = units(n)
        for jumps in sets:
            g = make_circulant(n, jumps)
            for x in ring:
                inner = phi_apply(g, x)
                for y in ring:
                    assert phi_apply(inner, y) == phi_apply(g, (x * y) % n)


def test_unit_counts_match_the_totient():
    for n in range(3, 200):
        assert len(units(n)) == sum(1 for k in range(1, n) if math.gcd(k, n) == 1)
