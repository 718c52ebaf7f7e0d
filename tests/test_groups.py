"""Rotation sweeps, Type-2 partner sets, their index groups, and the census."""

import dataclasses
import itertools
import time

import pytest

import circulant.groups
from circulant import make_circulant
from circulant.core import CirculantGraph
from circulant.errors import (
    BudgetExceeded,
    CirculantError,
    InvalidJump,
    InvalidThetaParams,
    VerificationFailure,
)
from circulant.groups import (
    appended_jump_check,
    census,
    t2_group,
    t2_set,
    t2_set_equality,
    v_group,
    v_set,
)
from circulant.theta import TClassification, Verdict, classify_steps
from circulant.type1 import phi_apply, type1_set, units


def test_vset_of_the_order54_base():
    g = make_circulant(54, [2, 3, 16, 20])
    vs = v_set(54, 3, g)
    assert vs.n == 54
    assert len(vs.rows) == 18
    assert vs.graph_period == 6
    assert sorted(d.jumps for d in vs.distinct) == [
        (2, 3, 16, 20),
        (3, 4, 14, 22),
        (3, 8, 10, 26),
    ]
    assert vs.rows[0].verdict is Verdict.IDENTITY


def test_vset_rejects_identity_steps_off_the_period(monkeypatch):
    original = circulant.groups.classify_steps

    def stray(n, m, g, t_values):
        rows = list(original(n, m, g, t_values))
        rows[7] = TClassification(7, Verdict.IDENTITY, image=g)
        return tuple(rows)

    monkeypatch.setattr(circulant.groups, "classify_steps", stray)
    # the period of this sweep is 6, so an Identity step at 7 is impossible
    with pytest.raises(VerificationFailure, match="not the multiples of 6"):
        v_set(54, 3, make_circulant(54, [2, 3, 16, 20]))


def test_vset_of_the_order81_base():
    vs = v_set(81, 3, make_circulant(81, [3, 7, 20, 34]))
    assert vs.graph_period == 9
    assert len(vs.distinct) == 3


def test_vset_with_every_step_circulant():
    vs = v_set(27, 3, make_circulant(27, [1, 3, 8, 10]))
    assert vs.graph_period == 3
    assert len(vs.distinct) == 3
    assert all(row.verdict is not Verdict.NON_CIRCULANT for row in vs.rows)


def test_vset_rejects_inadmissible_parameters():
    with pytest.raises(InvalidThetaParams):
        v_set(16, 4, make_circulant(16, [1, 2, 7]))


def test_vgroup_is_the_full_step_group():
    vg = v_group(v_set(54, 3, make_circulant(54, [2, 3, 16, 20])))
    assert vg.modulus == 18
    assert vg.order == 18
    assert vg.period == 6
    assert vg.quotient_order == 6
    assert vg.indices == tuple(range(18))


def test_t2_members_and_indices_of_16():
    s = t2_set(16, 2, make_circulant(16, [1, 2, 7]))
    assert sorted(m.jumps for m in s.members) == [(1, 2, 7), (2, 3, 5)]
    assert s.t2_indices == (0, 2, 4, 6)


def test_t2_singleton():
    s = t2_set(54, 3, make_circulant(54, [1, 17, 18, 19]))
    assert [m.jumps for m in s.members] == [(1, 17, 18, 19)]
    assert s.t2_indices == (0, 6, 12)


def test_t2_three_members_at_order_108():
    s = t2_set(108, 3, make_circulant(108, [3, 5, 31, 41]))
    assert sorted(m.jumps for m in s.members) == [
        (3, 5, 31, 41),
        (3, 7, 29, 43),
        (3, 17, 19, 53),
    ]
    assert s.t2_indices == tuple(range(0, 36, 4))


def test_t2_indices_of_the_reference_sweeps():
    assert t2_set(54, 3, make_circulant(54, [2, 3, 16, 20])).t2_indices == tuple(
        range(0, 18, 2)
    )
    assert t2_set(81, 3, make_circulant(81, [3, 7, 20, 34])).t2_indices == tuple(
        range(0, 27, 3)
    )


def test_t2_group_of_16():
    gr = t2_group(t2_set(16, 2, make_circulant(16, [1, 2, 7])))
    assert gr.modulus == 8
    assert gr.generator == 2
    assert gr.period == 4
    assert gr.indices == (0, 2, 4, 6)
    assert gr.order == 4
    assert gr.quotient_reps == (0, 2)
    assert gr.quotient_order == 2
    assert gr.quotient_table == ((0, 1), (1, 0))
    assert gr.labels[0].jumps == (1, 2, 7)
    assert gr.labels[2].jumps == (2, 3, 5)


@pytest.mark.parametrize("indices", [(0, 2, 3), (3, 0), (0, 2, 9), (0, 2, 4, 6, 8)])
def test_t2_group_rejects_indices_that_are_not_a_subgroup(indices):
    # 0 is there, but neither set is closed under addition mod 8
    s = t2_set(16, 2, make_circulant(16, [1, 2, 7]))
    broken = dataclasses.replace(s, t2_indices=indices)
    with pytest.raises(VerificationFailure, match="does not generate the indices mod 8"):
        t2_group(broken)


def test_t2_group_quotient_order_counts_the_members():
    gr54 = t2_group(t2_set(54, 3, make_circulant(54, [2, 3, 16, 20])))
    assert (gr54.order, gr54.quotient_order, gr54.generator) == (9, 3, 2)
    gr81 = t2_group(t2_set(81, 3, make_circulant(81, [3, 7, 20, 34])))
    assert (gr81.order, gr81.quotient_order) == (9, 3)
    grs = t2_group(t2_set(54, 3, make_circulant(54, [1, 17, 18, 19])))
    assert (grs.order, grs.quotient_order, grs.generator) == (3, 1, 6)


def test_t2_equality_goldens():
    assert t2_set_equality(
        make_circulant(54, [2, 3, 16, 20]), make_circulant(54, [3, 4, 14, 22]), 3
    )
    assert not t2_set_equality(
        make_circulant(16, [1, 2, 7]), make_circulant(16, [3, 5, 6]), 2
    )
    g = make_circulant(16, [1, 2, 7])
    assert t2_set_equality(g, g, 2)


def test_appended_jump_applicable_cases_pass():
    rep = appended_jump_check(16, 2, 2, make_circulant(16, [1, 7]))
    assert rep.applicable
    assert rep.appended.jumps == (1, 2, 7)
    assert rep.passed
    assert {row.verdict for row in rep.verdicts} == {
        Verdict.IDENTITY,
        Verdict.TYPE1,
        Verdict.NON_CIRCULANT,
    }

    rep2 = appended_jump_check(54, 3, 3, make_circulant(54, [1, 17, 19]))
    assert rep2.applicable
    assert rep2.appended.jumps == (1, 3, 17, 19)
    assert rep2.passed


def test_appended_jump_inapplicability_gates():
    cases = [
        (16, 2, 2, make_circulant(8, [1, 3]), "order"),
        (16, 4, 4, make_circulant(16, [1, 7]), "m > 1 with m^3 | n: NoDivisorCubed"),
        (16, 2, 3, make_circulant(16, [1, 7]), "not divisible"),
        (16, 2, 2, make_circulant(16, [1, 2, 7]), "already present"),
        (16, 2, 4, make_circulant(16, [1, 2, 7]), "jump divisible by 2"),
        (16, 2, 4, make_circulant(16, [1, 7]), "no Type-2 partner"),
    ]
    for n, m, jump, base, fragment in cases:
        rep = appended_jump_check(n, m, jump, base)
        assert not rep.applicable, (n, m, jump, base)
        assert fragment in rep.reason, rep.reason


def test_census_of_order_16():
    res = census(16, 2, [3])
    assert [
        (r.base.jumps, [m.jumps for m in r.members], r.group_order, r.t2_equals_v)
        for r in res.records
    ] == [
        ((1, 2, 7), [(1, 2, 7), (2, 3, 5)], 2, False),
        ((1, 6, 7), [(1, 6, 7), (3, 5, 6)], 2, False),
    ]
    s = res.summary
    assert (s.n, s.m, s.sizes) == (16, 2, (3,))
    assert s.examined == 52
    assert s.classes == 2
    assert s.t2_equals_v == 4


def test_census_of_order_8_finds_nothing():
    res = census(8, 2, [3])
    assert res.records == ()
    assert res.summary.examined == 4
    assert res.summary.classes == 0


def test_census_of_order_27():
    res = census(27, 3, [4])
    bases = [r.base.jumps for r in res.records]
    assert bases == [(1, 3, 8, 10), (1, 6, 8, 10), (1, 8, 10, 12)]
    assert all(r.group_order == 3 and r.t2_equals_v for r in res.records)
    first = res.records[0]
    assert sorted(m.jumps for m in first.members) == [
        (1, 3, 8, 10),
        (2, 3, 7, 11),
        (3, 4, 5, 13),
    ]
    assert res.summary.examined == 589


def test_census_skips_sizes_no_jump_set_reaches():
    start = time.perf_counter()
    wide = census(16, 2, range(3, 200001))
    elapsed = time.perf_counter() - start
    narrow = census(16, 2, range(3, 9))
    assert wide.records == narrow.records
    counts = [(r.summary.examined, r.summary.classes, r.summary.t2_equals_v) for r in (wide, narrow)]
    assert counts[0] == counts[1]
    # the echoed sizes stay as asked
    assert wide.summary.sizes == tuple(range(3, 200001))
    assert elapsed < 1.0


def test_census_enforces_the_budget():
    with pytest.raises(BudgetExceeded):
        census(16, 2, [3], budget=10)


@pytest.mark.parametrize("sizes, low", [([-1], -1), ([3, -1], -1), ([0], 0), ([0, 3], 0)])
def test_census_rejects_sizes_below_one(sizes, low):
    with pytest.raises(CirculantError) as info:
        census(16, 2, sizes)
    assert type(info.value) is CirculantError
    assert str(info.value) == f"census size {low} is below 1"
    # the order and (n, m) are checked first
    with pytest.raises(InvalidJump):
        census(2, 2, sizes)
    with pytest.raises(InvalidThetaParams):
        census(16, 3, sizes)


def test_census_accepts_an_empty_size_range():
    summary = census(16, 2, range(3, 3)).summary
    assert (summary.sizes, summary.examined, summary.classes) == ((), 0, 0)


def test_census_rejects_inadmissible_parameters():
    cases = ((12, 2, "NoDivisorCubed"), (16, 3, "NoDivisorCubed"), (16, 1, "MTooSmall"))
    for n, m, reason in cases:
        with pytest.raises(InvalidThetaParams, match=reason) as info:
            census(n, m, [3])
        assert info.value.reasons == (reason,)


def test_census_builds_each_multiplier_orbit_once(monkeypatch):
    original = circulant.groups.classify_steps
    swept = []

    def counting(n, m, g, t_values):
        swept.append(g)
        return original(n, m, g, t_values)

    monkeypatch.setattr(circulant.groups, "classify_steps", counting)
    result = census(54, 3, [3])
    assert 0 < len(swept) < result.summary.examined
    covered = set()
    for g in swept:
        assert g not in covered, g
        covered.update(type1_set(g).members)
    # no orbit is swept twice and every candidate's orbit is swept: one
    # sweep per orbit
    candidates = {
        CirculantGraph(54, combo)
        for combo in itertools.combinations(range(1, 28), 3)
        if any(j % 3 == 0 for j in combo)
    }
    assert covered == candidates
    assert len(candidates) == result.summary.examined
    # the orbits live for one call: a second census sweeps again
    first = len(swept)
    census(54, 3, [3])
    assert swept[first:] == swept[:first]


def test_relabelled_sweeps_equal_fresh_sweeps():
    # lemma B: the sweep of u*R relabelled from R's is u*R's own sweep,
    # and its Type-2 set is the u-multiple of R's
    for n, m in ((16, 2), (24, 2), (27, 3), (32, 2)):
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                if not any(j % m == 0 for j in combo):
                    continue
                g = CirculantGraph(n, combo)
                orbits = {}
                base = t2_set(n, m, g, orbits=orbits)
                fresh = {}
                for u in units(n):
                    h = phi_apply(n, u, g)
                    assert h.jumps in orbits
                    s = t2_set(n, m, h, orbits=orbits)
                    if h not in fresh:
                        fresh[h] = classify_steps(n, m, h, range(n // m))
                    assert s.vset.rows == fresh[h], (n, m, combo, u)
                    assert s.members == tuple(
                        phi_apply(n, u, x) for x in base.members
                    ), (n, m, combo, u)


def test_census_equals_a_fresh_t2_set_per_candidate(monkeypatch):
    cases = ((16, 2, [3, 4, 5]), (24, 2, [3, 4]), (27, 3, [3, 4]))
    shared = [census(*case) for case in cases]
    assert sum(len(r.records) for r in shared) > 0
    fresh_t2_set = circulant.groups.t2_set
    swept = []

    def fresh(n, m, g, orbits):
        swept.append(g)
        return fresh_t2_set(n, m, g)

    monkeypatch.setattr(circulant.groups, "t2_set", fresh)
    assert [census(*case) for case in cases] == shared
    assert len(swept) == sum(r.summary.examined for r in shared)
