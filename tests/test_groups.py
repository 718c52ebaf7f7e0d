"""Rotation sweeps, Type-2 partner sets, their index groups, and the census."""

import itertools
import time

import pytest

import circulant.groups
import circulant.theta
import circulant.type1
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
    SweepOrbits,
    _orbit_group,
    appended_jump_check,
    census,
    t2_group,
    t2_set,
    t2_set_equality,
    v_group,
    v_set,
)
from circulant.theta import TClassification, Verdict, classification_table, classify_steps
from circulant.type1 import phi_apply, type1_set, units, witness_lookup


def test_vset_of_the_order54_base():
    g = make_circulant(54, [2, 3, 16, 20])
    vs = v_set(g, 3)
    assert vs.n == 54
    assert vs.steps == 18
    assert [row.t for row in vs.full_rows()] == list(range(18))
    assert vs.graph_period == 6
    assert sorted(d.jumps for d in vs.distinct) == [
        (2, 3, 16, 20),
        (3, 4, 14, 22),
        (3, 8, 10, 26),
    ]
    assert vs.rows[0].verdict is Verdict.IDENTITY


def test_vset_rejects_identity_steps_off_the_period(monkeypatch):
    original = circulant.groups.classify_steps

    def stray(g, m, t_values, **kwargs):
        # the kernel's circulant rows, in t order, with an Identity row at 7
        rows = [row for row in original(g, m, t_values, **kwargs) if row.t != 7]
        rows.append(TClassification(7, Verdict.IDENTITY, image=g))
        return tuple(sorted(rows, key=lambda row: row.t))

    monkeypatch.setattr(circulant.groups, "classify_steps", stray)
    # the period of this sweep is 6, so an Identity step at 7 is impossible
    with pytest.raises(VerificationFailure, match="not the multiples of 6"):
        v_set(make_circulant(54, [2, 3, 16, 20]), 3)


def test_order_first_calls_are_type_errors():
    # every sweep and multiplier image reads the order from its graph
    g = make_circulant(16, [1, 7])
    old_calls = [
        lambda: classify_steps(16, 2, g, range(8)),
        lambda: classification_table(16, 2, g),
        lambda: v_set(16, 2, g),
        lambda: t2_set(16, 2, g),
        lambda: phi_apply(16, 3, g),
        lambda: appended_jump_check(16, 2, 2, g),
    ]
    for call in old_calls:
        with pytest.raises(TypeError):
            call()


def test_vset_of_the_order81_base():
    vs = v_set(make_circulant(81, [3, 7, 20, 34]), 3)
    assert vs.graph_period == 9
    assert len(vs.distinct) == 3


def test_vset_with_every_step_circulant():
    vs = v_set(make_circulant(27, [1, 3, 8, 10]), 3)
    assert vs.graph_period == 3
    assert len(vs.distinct) == 3
    assert [row.t for row in vs.rows] == list(range(vs.steps))
    assert vs.full_rows() == vs.rows


def test_vset_rejects_inadmissible_parameters():
    with pytest.raises(InvalidThetaParams):
        v_set(make_circulant(16, [1, 2, 7]), 4)


def test_vgroup_is_the_full_step_group():
    vg = v_group(v_set(make_circulant(54, [2, 3, 16, 20]), 3))
    assert vg.modulus == 18
    assert vg.order == 18
    assert vg.period == 6
    assert vg.quotient_order == 6
    assert vg.indices == tuple(range(18))


def test_t2_members_and_indices_of_16():
    s = t2_set(make_circulant(16, [1, 2, 7]), 2)
    assert sorted(m.jumps for m in s.members) == [(1, 2, 7), (2, 3, 5)]
    assert s.t2_indices == (0, 2, 4, 6)


def test_t2_singleton():
    s = t2_set(make_circulant(54, [1, 17, 18, 19]), 3)
    assert [m.jumps for m in s.members] == [(1, 17, 18, 19)]
    assert s.t2_indices == (0, 6, 12)


def test_t2_three_members_at_order_108():
    s = t2_set(make_circulant(108, [3, 5, 31, 41]), 3)
    assert sorted(m.jumps for m in s.members) == [
        (3, 5, 31, 41),
        (3, 7, 29, 43),
        (3, 17, 19, 53),
    ]
    assert s.t2_indices == tuple(range(0, 36, 4))


def test_t2_indices_of_the_reference_sweeps():
    assert t2_set(make_circulant(54, [2, 3, 16, 20]), 3).t2_indices == tuple(
        range(0, 18, 2)
    )
    assert t2_set(make_circulant(81, [3, 7, 20, 34]), 3).t2_indices == tuple(
        range(0, 27, 3)
    )


def test_t2_group_of_16():
    gr = t2_group(t2_set(make_circulant(16, [1, 2, 7]), 2))
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


@pytest.mark.parametrize(
    "indices", [(0, 2, 3), (3, 0), (0, 2, 9), (0, 2, 4, 6, 8), (2, 4, 6)]
)
def test_t2_group_rejects_indices_that_are_not_a_subgroup(indices):
    # none is <generator> mod 8; (2, 4, 6) lacks the 0 that <generator> holds
    s = t2_set(make_circulant(16, [1, 2, 7]), 2)
    broken = s._replace(t2_indices=indices)
    with pytest.raises(VerificationFailure, match="does not generate the indices mod 8"):
        t2_group(broken)


def test_t2_group_quotient_order_counts_the_members():
    gr54 = t2_group(t2_set(make_circulant(54, [2, 3, 16, 20]), 3))
    assert (gr54.order, gr54.quotient_order, gr54.generator) == (9, 3, 2)
    gr81 = t2_group(t2_set(make_circulant(81, [3, 7, 20, 34]), 3))
    assert (gr81.order, gr81.quotient_order) == (9, 3)
    grs = t2_group(t2_set(make_circulant(54, [1, 17, 18, 19]), 3))
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
    rep = appended_jump_check(make_circulant(16, [1, 7]), 2, 2)
    assert rep.applicable
    assert rep.appended.jumps == (1, 2, 7)
    assert rep.passed
    assert {row.verdict for row in rep.verdicts} == {
        Verdict.IDENTITY,
        Verdict.TYPE1,
        Verdict.NON_CIRCULANT,
    }

    rep2 = appended_jump_check(make_circulant(54, [1, 17, 19]), 3, 3)
    assert rep2.applicable
    assert rep2.appended.jumps == (1, 3, 17, 19)
    assert rep2.passed


def test_appended_jump_inapplicability_gates():
    cases = [
        (make_circulant(16, [1, 7]), 4, 4, "m > 1 with m^3 | n: NoDivisorCubed"),
        (make_circulant(16, [1, 7]), 2, 3, "not divisible"),
        (make_circulant(16, [1, 7]), 2, 16, "appended jump 16 is 0 mod 16 (a loop)"),
        (make_circulant(16, [1, 2, 7]), 2, 2, "already present"),
        (make_circulant(16, [1, 2, 7]), 2, 4, "jump divisible by 2"),
        (make_circulant(16, [1, 7]), 2, 4, "no Type-2 partner"),
    ]
    for base, m, jump, fragment in cases:
        rep = appended_jump_check(base, m, jump)
        assert not rep.applicable, (base, m, jump)
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
    # no jump set of order 16 has more than 8 jumps: size 9 is refused by
    # name, and the rest of the range is never read
    start = time.perf_counter()
    with pytest.raises(CirculantError) as info:
        census(16, 2, range(3, 200001))
    elapsed = time.perf_counter() - start
    assert type(info.value) is CirculantError
    assert str(info.value) == "census size 9 is above 8, the most jumps of order 16"
    assert elapsed < 1.0
    # every size up to n//2 is counted and echoed as asked
    assert census(16, 2, range(3, 9)).summary.sizes == tuple(range(3, 9))


def test_census_enforces_the_budget():
    with pytest.raises(BudgetExceeded):
        census(16, 2, [3], budget=10)


@pytest.mark.parametrize("sizes", [range(3, 3), [3]])
def test_census_rejects_a_budget_below_zero(sizes):
    with pytest.raises(CirculantError) as info:
        census(16, 2, sizes, budget=-1)
    assert type(info.value) is CirculantError
    assert str(info.value) == "census budget -1 is below 0"
    # a budget of 0 still admits an empty range
    assert census(16, 2, range(3, 3), budget=0).summary.examined == 0


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
    calls = {"classify_steps": [], "v_set": [], "t2_set": []}
    for name, seen in calls.items():
        original = getattr(circulant.groups, name)

        def counting(g, *args, _seen=seen, _original=original, **kwargs):
            _seen.append(g)
            return _original(g, *args, **kwargs)

        monkeypatch.setattr(circulant.groups, name, counting)
    swept = calls["classify_steps"]
    result = census(54, 3, [3])
    assert 0 < len(swept) < result.summary.examined
    # one v_set per orbit, and still one t2_set per examined candidate
    assert calls["v_set"] == swept
    assert len(calls["t2_set"]) == len(set(calls["t2_set"])) == result.summary.examined
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
    assert covered == candidates == set(calls["t2_set"])
    assert len(candidates) == result.summary.examined
    # the orbits live for one call: a second census sweeps again
    first = len(swept)
    census(54, 3, [3])
    assert swept[first:] == swept[:first]


def test_census_computes_the_units_once_per_call(monkeypatch):
    called = []
    original = circulant.groups.units
    monkeypatch.setattr(circulant.groups, "units", lambda n: called.append(n) or original(n))
    result = census(54, 3, [3])
    assert called == [54]
    # many orbits share that one list
    assert result.summary.examined > 100


def test_orbit_member_type2_sets_equal_fresh_ones():
    # lemma B: the Type-2 set of u*R taken from R's is u*R's own in every
    # field, with the same group, and its members are u times R's.  The
    # anchored bases of size 1-3 have at most one partner; the last two
    # bases have two, so the partners' order and the labels are tested
    bases = [
        (n, m, combo)
        for n, m in ((16, 2), (24, 2), (27, 3), (32, 2))
        for k in (1, 2, 3)
        for combo in itertools.combinations(range(1, n // 2 + 1), k)
        if any(j % m == 0 for j in combo)
    ]
    bases += [(54, 3, (2, 3, 16, 20)), (108, 3, (3, 5, 31, 41))]
    for n, m, combo in bases:
        g = CirculantGraph(n, combo)
        orbits = SweepOrbits(units(n))
        base = t2_set(g, m, orbits=orbits)
        fresh = {}
        for u in units(n):
            h = phi_apply(g, u)
            assert h.jumps in orbits.members
            s = t2_set(h, m, orbits=orbits)
            if h not in fresh:
                f = t2_set(h, m)
                fresh[h] = (f, t2_group(f))
            f, group = fresh[h]
            assert s == f, (n, m, combo, u)
            assert t2_group(s) == group, (n, m, combo, u)
            assert s.members == tuple(phi_apply(x, u) for x in base.members), (n, m, combo, u)
    assert all(len(t2_set(CirculantGraph(n, c), m).members) == 3 for n, m, c in bases[-2:])


def test_census_equals_a_fresh_t2_set_per_candidate(monkeypatch):
    cases = (
        (16, 2, [3, 4, 5]),
        (24, 2, [3, 4]),
        (27, 3, [3, 4]),
        (32, 2, [3]),
        (54, 3, [4]),
    )
    shared = [census(*case) for case in cases]
    assert sum(len(r.records) for r in shared) > 0
    fresh_t2_set = circulant.groups.t2_set
    swept = []

    def fresh(g, m, *, orbits):
        swept.append(g)
        return fresh_t2_set(g, m)

    monkeypatch.setattr(circulant.groups, "t2_set", fresh)
    assert [census(*case) for case in cases] == shared
    assert len(swept) == sum(r.summary.examined for r in shared)


def test_census_sweeps_read_type1_verdicts_off_the_orbit_table(monkeypatch):
    # every orbit representative census sweeps gets, from its table of unit
    # multiples, the rows a plain sweep gets from witness_lookup, and the
    # table gives every member of the multiplier orbit its witnesses
    original = circulant.groups.v_set
    swept = []

    def recording(g, m, *, lookup):
        v = original(g, m, lookup=lookup)
        swept.append((g, m, lookup, v))
        return v

    monkeypatch.setattr(circulant.groups, "v_set", recording)
    for case in ((16, 2, [3, 4, 5]), (24, 2, [3, 4]), (27, 3, [4]), (54, 3, [3])):
        census(*case)
    monkeypatch.undo()
    type1_rows = 0
    for g, m, lookup, v in swept:
        plain = v_set(g, m)
        # verdicts, images and witness tuples, step by step
        assert v.rows == plain.rows, g
        type1_rows += sum(row.verdict is Verdict.TYPE1 for row in plain.rows)
        reference = witness_lookup(g)
        orbit = type1_set(g)
        for member in orbit.members:
            assert lookup(member) == reference(member) == orbit.witness[member], (g, member)
        for row in plain.rows:
            assert lookup(row.image) == reference(row.image), (g, row.t)
    assert len(swept) > 100
    assert type1_rows > 0


def test_census_builds_no_witness_lookup(monkeypatch):
    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"census called {name}")

        return call

    monkeypatch.setattr(circulant.theta, "witness_lookup", refused("witness_lookup"))
    monkeypatch.setattr(circulant.type1, "phi_apply", refused("phi_apply"))
    assert census(54, 3, [3]).summary.examined > 100


def _double_loop_quotient(modulus, period, indices):
    """The quotient as the cell-by-cell sum built it before: the reference
    for _orbit_group's rotated rows."""
    reps = tuple(i for i in indices if i < period)
    rep_pos = {r: i for i, r in enumerate(reps)}
    table = []
    for a in reps:
        row = []
        for b in reps:
            c = (a + b) % modulus % period
            if c not in rep_pos:
                raise VerificationFailure(f"{a}+{b} escapes the representatives mod {period}")
            row.append(rep_pos[c])
        table.append(tuple(row))
    return reps, tuple(table)


def test_rotation_quotient_equals_the_double_loop():
    # every v_group and t2_group of the anchored 3- and 4-jump sets
    quotients = set()
    for n, m in ((16, 2), (27, 3), (54, 3)):
        for k in (3, 4):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                if not any(j % m == 0 for j in combo):
                    continue
                g = CirculantGraph(n, combo)
                v = v_set(g, m)
                for group in (v_group(v), t2_group(t2_set(g, m))):
                    expected = _double_loop_quotient(group.modulus, group.period, group.indices)
                    assert (group.quotient_reps, group.quotient_table) == expected, (g, m)
                    quotients.add((group.modulus, len(group.indices), group.quotient_order))
    # both groups reach proper subgroups and proper quotients
    assert any(order < modulus for modulus, order, _ in quotients)
    assert any(1 < q < order for _, order, q in quotients)


@pytest.mark.parametrize(
    "modulus, period, step",
    [(18, 4, 2), (18, 12, 6), (8, 3, 2), (8, 6, 2), (9, 0, 3)],
)
def test_orbit_group_refuses_a_period_off_its_subgroup(modulus, period, step):
    # each period misses one condition: it divides the modulus, it is a
    # positive multiple of the step of the index subgroup
    indices = tuple(range(0, modulus, step))
    with pytest.raises(VerificationFailure, match=f"period {period} is not"):
        _orbit_group(modulus, period, indices, {})


def test_t2_group_refuses_a_period_that_does_not_divide_the_sweep():
    s = t2_set(make_circulant(16, [1, 2, 7]), 2)
    broken = s._replace(graph_period=6)
    with pytest.raises(
        VerificationFailure, match="period 6 is not a positive multiple of 2 dividing the modulus 8"
    ):
        t2_group(broken)
