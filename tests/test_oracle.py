"""Independent isomorphism checks: invariants, brute force, witness replay."""

import itertools
import random
import subprocess
import sys
import textwrap

import pytest

from circulant import make_circulant
from circulant.core import CirculantGraph, edge_set, gcd_profile, symmetric_closure
from circulant.errors import BudgetExceeded, OrderMismatch, VerificationFailure
from circulant.oracle import (
    BRUTE_FORCE_CAP,
    _is_bijection,
    _maps_jumps,
    brute_force_isomorphic,
    gcd_signature_check,
    same_spectrum,
    spectral_fingerprint,
    verify_theta_witness,
)
from circulant.theta import LabeledGraph, ThetaParams, detect_circulant
from circulant.type1 import units


def test_gcd_signature_counts_jumps_per_divisor():
    assert gcd_profile(make_circulant(16, [1, 2, 7])) == (1, 1, 2)


def test_gcd_signature_check_goldens():
    g = make_circulant(16, [1, 2, 7])
    assert gcd_signature_check(g, make_circulant(16, [2, 3, 5]))
    assert not gcd_signature_check(g, make_circulant(16, [1, 3, 5]))


def test_gcd_signature_check_rejects_mixed_orders():
    with pytest.raises(OrderMismatch):
        gcd_signature_check(
            make_circulant(16, [1, 2, 7]), make_circulant(54, [2, 3, 16, 20])
        )


def test_spectrum_of_the_four_cycle():
    assert spectral_fingerprint(make_circulant(4, [1])) == (-2.0, 0.0, 0.0, 2.0)


def test_spectrum_peaks_at_the_degree():
    g = make_circulant(16, [1, 2, 7])
    assert max(spectral_fingerprint(g)) == 6.0


def test_spectrum_agrees_on_an_isomorphic_pair():
    g = make_circulant(16, [1, 2, 7])
    h = make_circulant(16, [2, 3, 5])
    assert spectral_fingerprint(g) == spectral_fingerprint(h)


def test_spectrum_separates_a_gcd_signature_collision():
    # same divisor profile, different spectra: not isomorphic
    a = make_circulant(16, [1, 2, 3])
    b = make_circulant(16, [1, 2, 5])
    assert gcd_signature_check(a, b)
    assert spectral_fingerprint(a) != spectral_fingerprint(b)
    assert not same_spectrum(a, b)


def test_spectra_agree_across_a_rounding_boundary():
    # 37 * (9, 17, 18, 26, 37) = (5, 21, 26, 35, 36) mod 78, yet one
    # eigenvalue of each rounds to a different ninth digit
    g = make_circulant(78, [9, 17, 18, 26, 37])
    h = make_circulant(78, [5, 21, 26, 35, 36])
    assert spectral_fingerprint(g) != spectral_fingerprint(h)
    assert same_spectrum(g, h)


def test_spectrum_matches_the_numpy_expression():
    np = pytest.importorskip("numpy")

    def numpy_fingerprint(g):
        closure = np.array(sorted(symmetric_closure(g)))
        j = np.arange(g.n).reshape(-1, 1)
        eigs = np.cos(2.0 * np.pi * j * closure / g.n).sum(axis=1)
        return tuple(sorted(round(float(v), 9) + 0.0 for v in eigs))

    graphs = [g for n in (16, 24, 27, 32, 54) for g in small_circulants(n)]
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(20, 343)
        combo = rng.sample(range(1, n // 2 + 1), rng.randint(4, 10))
        graphs.append(make_circulant(n, combo))
    for g in graphs:
        assert spectral_fingerprint(g) == numpy_fingerprint(g), g


def test_the_cli_imports_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, circulant.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_cold_start_imports_neither_dataclasses_nor_inspect():
    # the records are named tuples: a start builds no generated methods, and
    # loading dataclasses would also load inspect
    code = (
        "import sys, circulant, circulant.cli; circulant.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_brute_force_finds_a_witness_for_the_known_pair():
    g = make_circulant(16, [1, 2, 7])
    h = make_circulant(16, [2, 3, 5])
    w = brute_force_isomorphic(g, h)
    assert w is not None
    assert w.verified
    # the witness a search over every image of vertex 0 finds first
    assert w.mapping == (0, 3, 14, 1, 12, 15, 10, 13, 8, 11, 6, 9, 4, 7, 2, 5)


def test_brute_force_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    np = pytest.importorskip("numpy")
    for n in range(9, 15):
        by_degree = {}
        for k in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                graph = nx.circulant_graph(n, combo)
                spectrum = np.sort(nx.adjacency_spectrum(graph).real)
                degree = 2 * k - (2 * combo[-1] == n)
                by_degree.setdefault(degree, []).append(
                    (CirculantGraph(n, combo), graph, spectrum)
                )
        for graphs in by_degree.values():
            for (g, gx, gs), (h, hx, hs) in itertools.combinations(graphs, 2):
                # a spectrum difference refutes isomorphism; networkx's own
                # search is asked only about pairs it cannot separate, since
                # refuting one regular pair takes it about 50 ms
                expected = np.allclose(gs, hs, atol=1e-6) and nx.is_isomorphic(gx, hx)
                w = brute_force_isomorphic(g, h)
                assert (w is not None) == expected, (g, h)
                if w is not None:
                    assert w.mapping[0] == 0, (g, h)
                    f = w.mapping
                    assert all(hx.has_edge(f[u], f[v]) for u, v in gx.edges), (g, h)


def reference_search(g, h):
    """The reference for brute_force_isomorphic, without colour classes: the
    first mapping fixing 0 that keeps every adjacency and non-adjacency, or
    None.  Rows come from shifted bits, each vertex may take any free image,
    and the most-constrained-first order is found by an O(n²) scan."""
    n = g.n
    closure_g, closure_h = symmetric_closure(g), symmetric_closure(h)
    if len(closure_g) != len(closure_h):
        return None
    adj_g = [sum(1 << (x + s) % n for s in closure_g) for x in range(n)]
    adj_h = [sum(1 << (x + s) % n for s in closure_h) for x in range(n)]
    order, placed = [0], 1
    while len(order) < n:
        best, best_links = -1, -1
        for v in range(n):
            if not placed >> v & 1 and (adj_g[v] & placed).bit_count() > best_links:
                best, best_links = v, (adj_g[v] & placed).bit_count()
        order.append(best)
        placed |= 1 << best
    mapping = [0] + [-1] * (n - 1)

    def extend(depth, used):
        if depth == n:
            return tuple(mapping)
        v = order[depth]
        cand = ((1 << n) - 1) & ~used
        for u in order[:depth]:
            row = adj_h[mapping[u]]
            cand &= row if adj_g[v] >> u & 1 else ~row
        while cand:
            low = cand & -cand
            cand ^= low
            mapping[v] = low.bit_length() - 1
            found = extend(depth + 1, used | low)
            if found:
                return found
        mapping[v] = -1
        return None

    return extend(1, 1)


def test_brute_force_matches_the_uncoloured_reference():
    # every equal-degree pair at orders 9-14: the colour classes cut only
    # subtrees without a witness, and the rows and visiting order are the
    # reference's, so the first witness and every refutation are too
    pairs = 0
    for n in range(9, 15):
        by_degree = {}
        for k in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), k):
                g = CirculantGraph(n, combo)
                by_degree.setdefault(len(symmetric_closure(g)), []).append(g)
        for graphs in by_degree.values():
            for g, h in itertools.combinations(graphs, 2):
                w = brute_force_isomorphic(g, h)
                assert (None if w is None else w.mapping) == reference_search(g, h), (g, h)
                pairs += 1
    assert pairs == 1701


def test_brute_force_rejects_different_cycle_lengths():
    assert brute_force_isomorphic(make_circulant(8, [1]), make_circulant(8, [2])) is None


def test_brute_force_on_identical_graphs():
    g = make_circulant(16, [1, 2, 7])
    w = brute_force_isomorphic(g, g)
    assert w is not None and w.verified


def test_brute_force_degree_precheck():
    assert (
        brute_force_isomorphic(make_circulant(8, [1]), make_circulant(8, [1, 2]))
        is None
    )


def test_brute_force_enforces_the_cap():
    assert BRUTE_FORCE_CAP == 24
    with pytest.raises(BudgetExceeded):
        brute_force_isomorphic(make_circulant(25, [1, 2]), make_circulant(25, [1, 3]))
    with pytest.raises(BudgetExceeded):
        brute_force_isomorphic(
            make_circulant(16, [1, 2, 7]), make_circulant(16, [2, 3, 5]), cap=8
        )


def test_witness_check_survives_optimized_mode():
    # under python -O an assert would vanish; the re-verification must not
    script = textwrap.dedent(
        """
        import sys
        from circulant import make_circulant, oracle
        from circulant.errors import VerificationFailure
        oracle._maps_jumps = lambda *args: False
        g, h = make_circulant(16, [1, 2, 7]), make_circulant(16, [2, 3, 5])
        try:
            oracle.brute_force_isomorphic(g, h)
        except VerificationFailure:
            print("refused, optimize", sys.flags.optimize)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused, optimize 1"


def test_witness_replay_accepts_the_known_rotation():
    w = verify_theta_witness(
        ThetaParams(54, 3, 2),
        [(make_circulant(54, [2, 3, 16, 20]), make_circulant(54, [3, 4, 14, 22]))],
    )
    assert w.verified
    assert sorted(w.mapping) == list(range(54))


def test_witness_replay_rejects_the_wrong_target():
    with pytest.raises(VerificationFailure):
        verify_theta_witness(
            ThetaParams(54, 3, 2),
            [(make_circulant(54, [2, 3, 16, 20]), make_circulant(54, [3, 8, 10, 26]))],
        )


def test_witness_replay_at_step_zero():
    g = make_circulant(54, [2, 3, 16, 20])
    assert verify_theta_witness(ThetaParams(54, 3, 0), [(g, g)]).verified


def mapped_edges(mapping, g):
    """The edge set of g pushed through the vertex map; the slow reference."""
    return frozenset(
        (u, v) if u < v else (v, u) for u, v in ((mapping[a], mapping[b]) for a, b in edge_set(g))
    )


def small_circulants(n):
    """Every C_n(R) with |R| <= 3."""
    return [
        CirculantGraph(n, combo)
        for k in (1, 2, 3)
        for combo in itertools.combinations(range(1, n // 2 + 1), k)
    ]


def maps_edge_sets(mapping, g, h):
    """Whether mapping takes the edge set of g exactly onto that of h.

    Equality also forces a bijection: no vertex of a circulant is
    isolated, so every vertex of h is the image of an edge end.
    """
    return mapped_edges(mapping, g) == edge_set(h)


def test_jump_certificate_agrees_with_the_edge_sets_on_rotations():
    # every admissible (n, m) with n <= 32, every R with |R| <= 3, every
    # step; targets: the true image when circulant, R itself, and another
    # set with as many directed jumps
    verdicts = []
    for n, m in ((8, 2), (16, 2), (24, 2), (27, 3), (32, 2)):
        graphs = small_circulants(n)
        by_degree: dict[int, list] = {}
        for g in graphs:
            by_degree.setdefault(len(symmetric_closure(g)), []).append(g)
        edges = {g: edge_set(g) for g in graphs}
        for g in graphs:
            peers = by_degree[len(symmetric_closure(g))]
            other = peers[(peers.index(g) + 1) % len(peers)]
            for t in range(n // m):
                mapping = [(x + (x % m) * t * m) % n for x in range(n)]
                image = mapped_edges(mapping, g)
                targets = [g, other]
                found = detect_circulant(LabeledGraph(n, image))
                if found is not None:
                    targets.append(found)
                for h in targets:
                    verdict = image == edges[h]
                    assert _maps_jumps(n, mapping, g, h) is verdict, (g, h, t)
                    assert _maps_jumps(n, mapping, g, h, m) is verdict, (g, h, t, m)
                    verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_residue_certificate_checks_the_period_of_the_map():
    # theta_2 takes C_54(2,3,16,20) onto C_54(3,4,14,22); swapping the
    # images of 50 and 52 keeps a bijection and leaves every difference
    # from the residues 0..2 as it was (their jumps reach only 22), so
    # only the period check can see the swap
    n, m = 54, 3
    g, h = make_circulant(n, [2, 3, 16, 20]), make_circulant(n, [3, 4, 14, 22])
    mapping = [(x + (x % m) * 2 * m) % n for x in range(n)]
    assert _maps_jumps(n, mapping, g, h, m)
    tampered = list(mapping)
    tampered[50], tampered[52] = mapping[52], mapping[50]
    assert sorted(tampered) == list(range(n))
    closure = symmetric_closure(h)
    assert all(
        (tampered[x + r] - tampered[x]) % n in closure for x in range(m) for r in g.jumps
    )
    assert not maps_edge_sets(tampered, g, h)
    assert not _maps_jumps(n, tampered, g, h, m)
    assert not _maps_jumps(n, tampered, g, h)


def test_jump_certificate_agrees_with_the_edge_sets_on_multipliers():
    verdicts = []
    for n in (16, 24, 27):
        graphs = small_circulants(n)
        edges = {g: edge_set(g) for g in graphs}
        for i, g in enumerate(graphs):
            other = graphs[(i + 1) % len(graphs)]
            for u in units(n):
                mapping = [u * x % n for x in range(n)]
                image = mapped_edges(mapping, g)
                for h in (make_circulant(n, [u * j for j in g.jumps]), g, other):
                    verdict = image == edges[h]
                    assert _maps_jumps(n, mapping, g, h) is verdict, (g, h, u)
                    verdicts.append(verdict)
                    # the invariant check is the comparison of gcd profiles
                    assert gcd_signature_check(g, h) is (gcd_profile(g) == gcd_profile(h))
    assert True in verdicts and False in verdicts


def test_jump_certificate_rejects_maps_that_are_not_bijections():
    cycle = make_circulant(6, [1])
    g, h = make_circulant(16, [1, 2, 7]), make_circulant(16, [2, 3, 5])
    collapsed = list(brute_force_isomorphic(g, h).mapping)
    collapsed[5] = collapsed[4]
    cases = [
        # a homomorphism onto the one edge {0, 1}: every edge lands on an
        # edge, and the edge counts agree, yet vertices 2..5 are never hit
        (6, [x % 2 for x in range(6)], cycle, cycle),
        (16, [0] * 16, g, g),
        (16, [2 * x % 16 for x in range(16)], g, h),
        (16, collapsed, g, h),
    ]
    for n, mapping, a, b in cases:
        assert not maps_edge_sets(mapping, a, b)
        assert not _maps_jumps(n, mapping, a, b), mapping



@pytest.mark.parametrize("last", [-1, 8])
def test_jump_certificate_rejects_labels_outside_the_vertex_range(last):
    # vertex 7 labelled -1 or 8, not 7: -1 is 7 mod 8, so every difference
    # of C_8(1) still lands in +-1, but no vertex of Z_8 is called -1 or 8
    mapping = [0, 1, 2, 3, 4, 5, 6, last]
    cycle = make_circulant(8, [1])
    assert _is_bijection(8, mapping) is False
    for period in (None, 1, 2, 4, 8):
        assert _maps_jumps(8, mapping, cycle, cycle, period) is False, period
    assert _maps_jumps(8, list(range(8)), cycle, cycle, 4)

def test_jump_certificate_counts_the_half_jump_once():
    # |R| = |S| = 3, and every jump of R lands in +-S, but 8 = 16/2 is its
    # own negative: C_16(1,7,8) has 40 edges and C_16(1,2,3) has 48
    g, h = make_circulant(16, [1, 7, 8]), make_circulant(16, [1, 2, 3])
    mapping = [0, 1, 3, 5, 7, 9, 11, 13, 15, 2, 4, 6, 8, 10, 12, 14]
    closure = symmetric_closure(h)
    assert all((mapping[(x + r) % 16] - mapping[x]) % 16 in closure for x in range(16) for r in g.jumps)
    assert (len(edge_set(g)), len(edge_set(h))) == (40, 48)
    assert not maps_edge_sets(mapping, g, h)
    assert not _maps_jumps(16, mapping, g, h)
    # the identity sends every edge of C_16(1,8) into C_16(1,2,8), which has more
    g, h = make_circulant(16, [1, 8]), make_circulant(16, [1, 2, 8])
    identity = list(range(16))
    assert edge_set(g) < edge_set(h)
    assert not maps_edge_sets(identity, g, h)
    assert not _maps_jumps(16, identity, g, h)
