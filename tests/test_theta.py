"""Block-shift vertex maps, their images, and per-step classification."""

import itertools
import math
import random

import pytest

import circulant.type1
from circulant import edge_set, make_circulant
from circulant.core import CirculantGraph, symmetric_closure
from circulant.errors import InvalidThetaParams, OrderMismatch
from circulant.groups import v_set
from circulant.theta import (
    MIN_TYPE2_JUMPS,
    M_TOO_SMALL,
    NO_ANCHOR_JUMP,
    NO_DIVISOR_CUBED,
    LabeledGraph,
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
        # every other step is NS by the reference, lemma C's pruned ones too
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


def test_no_circulant_step_is_off_a_multiple_of_the_stride():
    # lemma C, exhaustively: the circulant steps (lemma A's symmetric
    # vertex-0 neighbourhood, built step by step) are multiples of
    # q = n / gcd(n, c*m*m), c the closure values off the multiples of m
    orders = list(_admissible_orders(54))
    assert orders == [(8, 2), (16, 2), (24, 2), (27, 3), (32, 2), (40, 2), (48, 2), (54, 3)]
    strides = set()
    for n, m in orders:
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                if not any(j % m == 0 for j in combo):
                    continue
                g = CirculantGraph(n, combo)
                closure = symmetric_closure(g)
                q = n // math.gcd(n, sum(1 for v in closure if v % m) * m * m)
                assert circulant_stride(g, m) == q, (n, m, combo)
                strides.add(q)
                circulant = []
                for t in range(n // m):
                    p = ThetaParams(n, m, t)
                    nbrs = {theta_vertex(p, v) for v in closure}
                    if nbrs == {(n - v) % n for v in nbrs}:
                        circulant.append(t)
                assert all(t % q == 0 for t in circulant), (n, m, combo, q, circulant)
                assert [row.t for row in classify_steps(g, m, range(n // m))] == circulant
    # some bases are pruned, some are not
    assert 1 in strides and len(strides) > 1


def test_stride_of_the_order1715_table_base():
    # c = 14 values off the multiples of 7, so q = 1715 / gcd(1715, 14*49) = 5
    g = make_circulant(1715, [7, 17, 228, 262, 473, 507, 718, 752])
    assert circulant_stride(g, 7) == 5
    assert all(row.t % 5 == 0 for row in classify_steps(g, 7, range(245)))


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
    # the sweep keeps circulant rows alone, so every row has an image
    revisited = [row.image for row in rows if row.image != g]
    # the sweep meets each image more than once, and looks each up once
    assert len(revisited) > len(set(revisited))
    assert len(looked_up) == len(set(looked_up))
    assert set(looked_up) == set(revisited)
    # jumps divisible by m are fixed, so every image is the base itself and
    # no lookup is needed
    looked_up.clear()
    v_set(make_circulant(16, [2, 4]), 2)
    assert looked_up == [] and orbit_builds == []
