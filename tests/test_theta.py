"""Block-shift vertex maps, their images, and per-step classification."""

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import circulant.type1
from circulant import cli, edge_set, make_circulant
from circulant.core import CirculantGraph, symmetric_closure
from circulant.errors import InvalidThetaParams, OrderMismatch, VerificationFailure
from circulant.groups import t2_set, v_set
from circulant.theta import (
    MIN_TYPE2_JUMPS,
    M_TOO_SMALL,
    NO_ANCHOR_JUMP,
    NO_DIVISOR_CUBED,
    LabeledGraph,
    TableRow,
    TClassification,
    ThetaParams,
    Verdict,
    admissible_m,
    circulant_stride,
    classification_table,
    classify_steps,
    classify_t,
    detect_circulant,
    sweep_length,
    theta_image,
    theta_reasons,
    theta_vertex,
)
from circulant.type1 import type1_witnesses

JOBS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.json"


def test_params_accept_the_reference_regime():
    g = make_circulant(16, [1, 2, 7])
    assert theta_reasons(16, 2, g) == ()
    assert sweep_length(16, 2, g) == 8
    assert admissible_m(g) == (2,)


def test_admissible_m_reaches_the_cube_root():
    # 6^3 = 216: the scan must include c with c^3 = n
    assert admissible_m(make_circulant(216, [6])) == (2, 3, 6)
    assert admissible_m(make_circulant(216, [4, 9])) == (2, 3)


def test_params_require_cube_divisor():
    g = make_circulant(16, [1, 2, 7])
    assert theta_reasons(16, 4, g) == (NO_DIVISOR_CUBED, NO_ANCHOR_JUMP)
    assert theta_reasons(16, 4) == (NO_DIVISOR_CUBED,)


def test_params_require_an_anchor_jump():
    g = make_circulant(16, [1, 3, 7])
    assert theta_reasons(16, 2, g) == (NO_ANCHOR_JUMP,)
    # without a graph only (n, m) is judged
    assert theta_reasons(16, 2) == ()
    with pytest.raises(InvalidThetaParams, match=r"jumps \(1, 3, 7\): NoAnchorJump") as exc:
        sweep_length(16, 2, g)
    assert exc.value.reasons == (NO_ANCHOR_JUMP,)


def test_params_reject_m_one():
    assert theta_reasons(16, 1, make_circulant(16, [1, 2, 7])) == (M_TOO_SMALL,)
    assert theta_reasons(16, 0) == (M_TOO_SMALL,)


def test_params_reason_propagates_to_the_exception():
    with pytest.raises(InvalidThetaParams) as exc:
        ThetaParams(16, 4, 0)
    assert NO_DIVISOR_CUBED in exc.value.reasons
    with pytest.raises(InvalidThetaParams):
        ThetaParams(16, 1, 0)


def test_params_bound_the_step():
    for bad_t in (-1, 8):
        with pytest.raises(InvalidThetaParams):
            ThetaParams(16, 2, bad_t)
    ThetaParams(16, 2, 7)  # last admissible step


def test_vertex_map_golden_values():
    # x = qm + j shifts by j*t*m
    assert theta_vertex(ThetaParams(54, 3, 2), 16) == 22
    assert theta_vertex(ThetaParams(81, 3, 3), 7) == 16


def test_vertex_map_at_step_zero_is_identity():
    p = ThetaParams(54, 3, 0)
    assert all(theta_vertex(p, x) == x for x in range(54))


def test_vertex_map_is_a_bijection():
    for t in range(18):
        p = ThetaParams(54, 3, t)
        assert sorted(theta_vertex(p, x) for x in range(54)) == list(range(54))


def test_vertex_map_fixes_block_starts():
    for t in range(18):
        p = ThetaParams(54, 3, t)
        for x in range(0, 54, 3):
            assert theta_vertex(p, x) == x


def test_image_matches_known_partner():
    g = make_circulant(54, [2, 3, 16, 20])
    img = theta_image(ThetaParams(54, 3, 2), g)
    assert img.n == 54
    assert img.edges == edge_set(make_circulant(54, [3, 4, 14, 22]))

    g16 = make_circulant(16, [1, 2, 7])
    img16 = theta_image(ThetaParams(16, 2, 2), g16)
    assert img16.edges == edge_set(make_circulant(16, [2, 3, 5]))


def test_image_at_step_zero_reproduces_the_graph():
    g = make_circulant(54, [2, 3, 16, 20])
    assert theta_image(ThetaParams(54, 3, 0), g).edges == edge_set(g)


def test_detect_circulant_goldens():
    g = make_circulant(54, [2, 3, 16, 20])
    assert detect_circulant(theta_image(ThetaParams(54, 3, 1), g)) is None
    found = detect_circulant(theta_image(ThetaParams(54, 3, 2), g))
    assert found is not None
    assert found.jumps == (3, 4, 14, 22)


def test_detect_circulant_recovers_any_circulant():
    h = make_circulant(16, [1, 2, 7])
    assert detect_circulant(LabeledGraph(16, edge_set(h))) == h


def test_detect_circulant_needs_translation_invariance():
    # 0's neighborhood {1, 5} is symmetric but the graph is not circulant
    lab = LabeledGraph(6, frozenset({(0, 1), (0, 5), (2, 3)}))
    assert detect_circulant(lab) is None


def test_classify_known_type2_step():
    row = classify_t(ThetaParams(54, 3, 4), make_circulant(54, [2, 3, 16, 20]))
    assert row.verdict is Verdict.TYPE2
    assert row.image.jumps == (3, 8, 10, 26)
    assert row.witnesses == ()


def test_classify_known_identity_step():
    row = classify_t(ThetaParams(54, 3, 6), make_circulant(54, [2, 3, 16, 20]))
    assert row.verdict is Verdict.IDENTITY


def test_classify_known_non_circulant_step():
    row = classify_t(ThetaParams(81, 3, 5), make_circulant(81, [3, 7, 20, 34]))
    assert row.verdict is Verdict.NON_CIRCULANT
    assert row.image is None


def test_classify_known_multiplier_step():
    row = classify_t(ThetaParams(48, 2, 6), make_circulant(48, [1, 4, 23]))
    assert row.verdict is Verdict.TYPE1
    assert row.image.jumps == (4, 11, 13)
    assert 11 in row.witnesses
    assert set(row.witnesses) == {11, 13, 35, 37}


def test_classify_t_refuses_params_of_another_order():
    # the params carry their own order; classify_steps reads only the graph's
    with pytest.raises(OrderMismatch):
        classify_t(ThetaParams(54, 3, 1), make_circulant(16, [1, 2, 7]))


def test_two_jump_sets_never_reach_type2():
    # with only one non-anchor jump every circulant image keeps a multiplier
    for n, m in ((8, 2), (16, 2), (24, 2), (27, 3), (32, 2)):
        for a in range(1, n // 2 + 1):
            for b in range(a + 1, n // 2 + 1):
                if a % m and b % m:
                    continue
                if a % m == 0 and b % m == 0:
                    continue
                g = make_circulant(n, [a, b])
                for t in range(n // m):
                    row = classify_t(ThetaParams(n, m, t), g)
                    assert row.verdict is not Verdict.TYPE2, (n, m, (a, b), t)


def test_table_covers_every_step_and_repeats_with_the_period():
    g = make_circulant(54, [2, 3, 16, 20])
    table = classification_table(g, 3)
    assert [row.t for row in table] == list(range(18))
    # the resulting graph repeats every 6 steps even though the raw
    # transformed columns keep changing
    for t in range(12):
        a, b = table[t].classification, table[t + 6].classification
        assert a.verdict == b.verdict
        assert a.image == b.image


def test_table_honours_requested_steps():
    g = make_circulant(54, [2, 3, 16, 20])
    table = classification_table(g, 3, t_values=range(0, 18, 2))
    assert [row.t for row in table] == [0, 2, 4, 6, 8, 10, 12, 14, 16]


@pytest.mark.parametrize(
    "n, m, jumps, steps",
    [
        (54, 3, (2, 3, 16, 20), None),
        (343, 7, (1, 7, 48, 50, 97, 99, 146, 148), None),
        (1715, 7, (7, 17, 228, 262, 473, 507, 718, 752), range(35)),
    ],
)
def test_table_values_are_the_vertex_map_of_the_closure(n, m, jumps, steps):
    g = make_circulant(n, jumps)
    closure = sorted(symmetric_closure(g))
    table = classification_table(g, m, t_values=steps)
    assert [row.t for row in table] == list(steps or range(n // m))
    for row in table:
        p = ThetaParams(n, m, row.t)
        assert row.transformed == tuple(theta_vertex(p, v) for v in closure), row.t


def _reference_step(p, g):
    """Classify one step from the whole image edge set (the slow path)."""
    n = p.n
    image = theta_image(p, g)
    nbrs = {b for a, b in image.edges if a == 0} | {a for a, b in image.edges if b == 0}
    found = detect_circulant(image)
    if found is None:
        # lemma A: a non-circulant image never has a symmetric 0-neighbourhood
        assert any((n - v) % n not in nbrs for v in nbrs), (p, g)
        return TClassification(p.t, Verdict.NON_CIRCULANT)
    if found == g:
        return TClassification(p.t, Verdict.IDENTITY, image=found)
    wits = tuple(sorted(type1_witnesses(g, found)))
    if wits:
        verdict = Verdict.TYPE1
    elif len(g.jumps) >= MIN_TYPE2_JUMPS and any(j % p.m == 0 for j in g.jumps):
        verdict = Verdict.TYPE2
    else:
        verdict = Verdict.UNCLASSIFIED
    return TClassification(p.t, verdict, image=found, witnesses=wits)


def _anchored_base(rng, n, m, coset):
    """3-8 jumps, one divisible by m.

    A coset base adds to its anchor one coset d + <m*m*t0>, so its images
    are circulant at the multiples of t0; at even n its anchor is the half
    jump n/2, which folds onto itself.  Other bases are drawn at random.
    """
    while True:
        if coset:
            anchor = n // 2 if n % (2 * m) == 0 else m * rng.randint(1, n // (2 * m))
            d = rng.choice([x for x in range(1, n) if x % m])
            step = m * m * rng.randrange(1, n // m)
            values = [anchor] + [(d + k * step) % n for k in range(8)]
        else:
            values = [m * rng.randint(1, n // (2 * m))]
            values += rng.sample(range(1, n // 2 + 1), rng.randint(2, 7))
        g = make_circulant(n, values)
        if 3 <= len(g.jumps) <= 8:
            return g


def _reference_bases():
    """Every set of 1-3 jumps at orders 16-32, then seeded anchored bases
    at the orders the benchmark sweeps (m = 5 and 7)."""
    for n, m in ((16, 2), (24, 2), (27, 3), (32, 2)):
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                yield n, m, CirculantGraph(n, combo)
    rng = random.Random(20261018)
    for n, m in ((250, 5), (343, 7), (686, 7)):
        for coset in (False, False, True, True):
            yield n, m, _anchored_base(rng, n, m, coset)


def test_sweep_kernel_matches_the_edge_set_reference():
    seen = set()
    pruned = 0
    for n, m, g in _reference_bases():
        rows = classify_steps(g, m, range(n // m))
        expected = [_reference_step(ThetaParams(n, m, t), g) for t in range(n // m)]
        # exactly the reference's circulant steps, each row the reference's
        circulant = [row for row in expected if row.verdict is not Verdict.NON_CIRCULANT]
        assert [row.t for row in rows] == [row.t for row in circulant], (n, m, g.jumps)
        assert list(rows) == circulant, (n, m, g.jumps)
        # every other step is NS by the reference, lemma D's pruned ones too
        kept = {row.t for row in rows}
        q = circulant_stride(g, m)
        for row in expected:
            if row.t not in kept:
                assert row == TClassification(row.t, Verdict.NON_CIRCULANT), (n, m, g.jumps)
                pruned += row.t % q != 0
        seen.update(row.verdict for row in expected)
    # Unclassified never occurs in these bases
    assert seen == set(Verdict) - {Verdict.UNCLASSIFIED}
    assert pruned > 0


def _admissible_orders(limit):
    for n in range(2, limit + 1):
        for m in range(2, n):
            if n % m ** 3 == 0:
                yield n, m


def _reference_stride(n, m, closure):
    """q* = d/gcd(d, m*m), d the least of all x in [1, n] with R' + x = R'."""
    moving = {v for v in closure if v % m}
    d = next(x for x in range(1, n + 1) if {(v + x) % n for v in moving} == moving)
    return d // math.gcd(d, m * m)


def test_circulant_steps_are_exactly_the_multiples_of_the_stride():
    # lemma D, exhaustively: every set of 1-3 jumps at every admissible
    # order up to 54, with no anchor, with one, or with every jump a
    # multiple of m.  The circulant steps (lemma A's symmetric vertex-0
    # neighbourhood, built with theta_vertex at every step) are exactly the
    # multiples of q* = d/gcd(d, m*m), d the least translation fixing R',
    # the closure values off the multiples of m; the kernel returns rows
    # for exactly those steps
    orders = list(_admissible_orders(54))
    assert orders == [(8, 2), (16, 2), (24, 2), (27, 3), (32, 2), (40, 2), (48, 2), (54, 3)]
    strides, kinds = set(), set()
    for n, m in orders:
        steps = n // m
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                g = CirculantGraph(n, combo)
                closure = symmetric_closure(g)
                q = _reference_stride(n, m, closure)
                assert circulant_stride(g, m) == q, (n, m, combo)
                circulant = []
                for t in range(steps):
                    p = ThetaParams(n, m, t)
                    nbrs = {theta_vertex(p, v) for v in closure}
                    if nbrs == {(n - v) % n for v in nbrs}:
                        circulant.append(t)
                assert circulant == list(range(0, steps, q)), (n, m, combo, q)
                assert [row.t for row in classify_steps(g, m, range(steps))] == circulant
                strides.add(q)
                kinds.add(sum(j % m == 0 for j in combo) / k)
    # some bases are pruned, some are not, and every kind of base occurs
    assert 1 in strides and len(strides) > 2
    assert {0, 1} < kinds


def test_stride_of_the_order1715_table_base():
    # R' is the two cosets 17 + <245> and 228 + <245>, so d = 245 and
    # q* = 245 / gcd(245, 49) = 5; every multiple of 5 is circulant
    g = make_circulant(1715, [7, 17, 228, 262, 473, 507, 718, 752])
    assert circulant_stride(g, 7) == 5
    assert [row.t for row in classify_steps(g, 7, range(245))] == list(range(0, 245, 5))


def test_a_stride_below_lemma_d_is_refused_at_its_step(monkeypatch):
    # patched to a proper divisor p of the true q*, the kernel builds step
    # p, which lemma D says is not circulant: it raises, naming the step
    cases = set()
    for n, m in _admissible_orders(54):
        for combo in itertools.combinations(range(1, n // 2 + 1), 2):
            g = CirculantGraph(n, combo)
            q = circulant_stride(g, m)
            for p in (p for p in range(1, q) if q % p == 0):
                with monkeypatch.context() as patch:
                    patch.setattr(circulant.theta, "circulant_stride", lambda g, m: p)
                    with pytest.raises(VerificationFailure, match=f"step t={p} of ") as raised:
                        classify_steps(g, m, range(n // m))
                assert str(g) in str(raised.value)
                cases.add(p)
    assert {1, 2} < cases
    # and under python -O, where an assert would vanish
    g = make_circulant(1715, [7, 17, 228, 262, 473, 507, 718, 752])
    script = textwrap.dedent(
        """
        import sys
        import circulant.theta
        from circulant import make_circulant
        from circulant.errors import VerificationFailure
        g = make_circulant(1715, [7, 17, 228, 262, 473, 507, 718, 752])
        circulant.theta.circulant_stride = lambda g, m: 1
        try:
            circulant.theta.classify_steps(g, 7, range(245))
        except VerificationFailure as e:
            print(e, "optimize", sys.flags.optimize)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"step t=1 of {g}")
    assert proc.stdout.strip().endswith("optimize 1")


def test_bases_of_multiples_of_m_are_identity_at_every_step():
    # R' is empty, so theta_t fixes every jump: every row is Identity, as
    # the edge-set reference says, and T2 = V = {R} with period 1
    bases = 0
    for n, m in _admissible_orders(54):
        steps = n // m
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(m, n // 2 + 1, m), k):
                g = CirculantGraph(n, combo)
                rows = classify_steps(g, m, range(steps))
                assert rows == tuple(TClassification(t, Verdict.IDENTITY, image=g) for t in range(steps))
                assert list(rows) == [_reference_step(ThetaParams(n, m, t), g) for t in range(steps)]
                s = t2_set(g, m)
                assert s.t2_indices == tuple(range(steps)), (n, m, combo)
                assert s.graph_period == 1 and s.members == (g,)
                assert v_set(g, m).distinct == (g,)
                bases += 1
    assert bases > 500


M7_BASE = (343, 7, (1, 7, 48, 50, 97, 99, 146, 148))
M5_BASE = (250, 5, (1, 5, 49, 51, 99, 101))
TABLE_BASE = (1715, 7, (7, 17, 228, 262, 473, 507, 718, 752))


def test_rows_past_an_identity_step_match_the_edge_set_reference():
    # the kernel copies the row of t mod P at each step t past the first
    # Identity step P it builds; every row it returns, copied or built, is
    # the edge-set reference's.  Walks: the full sweep, a slice from
    # mid-period, and an out-of-order list with repeats.  Only the
    # multiples of q* are asked of the reference: lemma D's tests above
    # show every other step is NS
    def bases():
        yield from _reference_bases()
        for n, m in _admissible_orders(54):
            for k in (1, 2, 3):
                for combo in itertools.combinations(range(1, n // 2 + 1), k):
                    yield n, m, CirculantGraph(n, combo)
        for n, m, jumps in (M7_BASE, TABLE_BASE):
            yield n, m, make_circulant(n, jumps)

    strides = set()
    for n, m, g in bases():
        steps, q = n // m, circulant_stride(g, m)
        reference = {}
        for t in range(0, steps, q):
            reference[t] = _reference_step(ThetaParams(n, m, t), g)
        period = next(
            (t for t, row in reference.items() if t and row.verdict is Verdict.IDENTITY), steps
        )
        walks = (
            range(steps),
            range(period // 2, steps),
            [t % steps for t in (period, 0, 2 * period + q, q, period)],
        )
        for walk in walks:
            rows = classify_steps(g, m, walk)
            assert list(rows) == [reference[t] for t in walk if t % q == 0], (n, m, g.jumps, walk)
        if period < steps:
            strides.add(q)
    # periods below the sweep length occur, at stride 1 and above it
    assert 1 in strides and len(strides) > 1


def test_a_sweep_builds_only_the_steps_below_the_period(monkeypatch):
    # each built step folds its image neighbourhood with one sorted call,
    # and theta sorts nothing else in a sweep: the order-343 m7 base builds
    # 7 of its 49 circulant steps (q* = 1, period 7), the order-250 m5 base
    # 5 of its 25 (q* = 2, period 10)
    sorts = []

    def counting_sorted(values):
        sorts.append(values)
        return sorted(values)

    monkeypatch.setattr(circulant.theta, "sorted", counting_sorted, raising=False)
    for (n, m, jumps), built, walked, period in ((M7_BASE, 7, 49, 7), (M5_BASE, 5, 25, 10)):
        sorts.clear()
        v = v_set(make_circulant(n, jumps), m)
        assert (len(sorts), len(v.rows), v.graph_period) == (built, walked, period)


def test_divisor_step_gate_matches_a_lookup_of_every_image():
    # lemma E: the kernel's own lookup searches a new image at step t only
    # when step gcd(t, n/m) is a multiplier image; a caller's lookup is
    # asked about every new image, so witness_lookup(g) passed in is the
    # ungated reference.  Every base with 1-3 jumps, and with 4 at n <= 27
    # (a seeded sample of 400 above), anchored or not; full sweeps and
    # seeded t-lists with repeats, out of order.
    rng = random.Random(34)
    seen = set()
    for n, m in _admissible_orders(54):
        steps = n // m
        for k in (1, 2, 3, 4):
            combos = list(itertools.combinations(range(1, n // 2 + 1), k))
            if k == 4 and n > 27:
                combos = rng.sample(combos, 400)
            for combo in combos:
                g = CirculantGraph(n, combo)
                for t_values in (range(steps), [rng.randrange(steps) for _ in range(8)]):
                    rows = classify_steps(g, m, t_values)
                    expected = classify_steps(g, m, t_values, lookup=circulant.type1.witness_lookup(g))
                    assert rows == expected, (n, m, combo, t_values)
                    seen.update((row.verdict, math.gcd(row.t, steps) == row.t) for row in rows)
    # Type1 and Type2 rows both occur off the divisor steps, so the gate
    # admits and refuses searches there
    assert {(Verdict.TYPE1, False), (Verdict.TYPE2, False)} <= seen


def test_single_sweep_looks_up_each_image_once(monkeypatch):
    orbit_builds, looked_up = [], []
    original_set = circulant.type1.type1_set
    original_lookup = circulant.theta.witness_lookup

    def counting_set(g):
        orbit_builds.append(g)
        return original_set(g)

    def counting_lookup(g):
        lookup = original_lookup(g)

        def counted(s):
            looked_up.append(s)
            return lookup(s)

        return counted

    monkeypatch.setattr(circulant.type1, "type1_set", counting_set)
    monkeypatch.setattr(circulant.theta, "witness_lookup", counting_lookup)
    g = make_circulant(48, [1, 4, 23])
    rows = v_set(g, 2).rows
    assert sum(row.verdict is Verdict.TYPE1 for row in rows) >= 2
    assert orbit_builds == []
    # the sweep keeps circulant rows alone, so every row has an image; it
    # meets each image more than once
    revisited = [row.image for row in rows if row.image != g]
    assert len(revisited) > len(set(revisited))
    # each image is looked up at most once: every Type1 image, and otherwise
    # only an image at a step that divides n/m (lemma E).  At order 54 step
    # 4's image is Type2 and gcd(4, 18) = 2 is not a multiplier step
    for g, m in ((g, 2), (make_circulant(54, [2, 3, 16, 20]), 3)):
        looked_up.clear()
        rows = v_set(g, m).rows
        steps = g.n // m
        assert len(looked_up) == len(set(looked_up))
        type1 = {row.image for row in rows if row.verdict is Verdict.TYPE1}
        at_divisors = {row.image for row in rows if math.gcd(row.t, steps) == row.t}
        assert type1 <= set(looked_up) <= type1 | at_divisors
    assert rows[2].t == 4 and rows[2].verdict is Verdict.TYPE2
    assert rows[2].image not in looked_up
    # jumps divisible by m are fixed, so every image is the base itself and
    # no lookup is needed
    looked_up.clear()
    v_set(make_circulant(16, [2, 4]), 2)
    assert looked_up == [] and orbit_builds == []
    # the order-1715 table base: steps 70..104 have only step 5's image to
    # search, once, and each job of the benchmark's sweep pool searches once
    looked_up.clear()
    argv = ["table", "--n", "1715", "--m", "7", "--set", "7,17,228,262,473,507,718,752"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--t", "70..104"]) == 0
    assert len(looked_up) == 1
    jobs = json.loads(JOBS_FILE.read_text())["sweep"]["jobs"]
    assert len(jobs) == 66
    looked_up.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(cli.main(job["argv"]) == 0 for job in jobs)
    assert len(looked_up) <= 66


def test_sweep_rows_stay_closed():
    # the rows are named tuples: no field can be assigned, and the envelope
    # writer, which takes a tuple only by its exact type, refuses them
    g = make_circulant(16, [1, 2, 7])
    row = classify_steps(g, 2, range(8))[1]
    rendered = classification_table(g, 2, t_values=[1])[0]
    assert isinstance(row, TClassification) and isinstance(rendered, TableRow)
    for value, field in ((row, "verdict"), (rendered, "transformed")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(TypeError, match=type(value).__name__):
            cli._json(value)
        with pytest.raises(TypeError, match=type(value).__name__):
            cli._json({"rows": [value]})
