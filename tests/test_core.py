"""Canonical graphs, closures, edge sets, and per-jump cycle structure."""

import ast
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant import (
    CirculantGraph,
    check_abelian_group,
    edge_set,
    fold,
    make_circulant,
    period_cycle_stats,
    reflexive_reduce,
    scale,
    symmetric_closure,
)
from circulant.errors import EmptyConnectionSet, InvalidJump, VerificationFailure


@pytest.mark.parametrize(
    "n, v, folded",
    [
        (16, 0, 0),
        (16, 16, 0),
        (16, 8, 8),
        (15, 7, 7),
        (16, -3, 3),
        (16, -19, 3),
        (16, 9, 7),
        (15, 8, 7),
        (54, 85, 23),
    ],
)
def test_fold_lands_in_the_lower_half(n, v, folded):
    assert fold(n, v) == folded
    assert fold(n, -v) == folded


def test_reduce_is_the_fold_of_each_value():
    for n in range(3, 13):
        nonzero = [v for v in range(-2 * n, 2 * n + 1) if v % n]
        for k in (1, 2, 3):
            for raw in itertools.combinations(nonzero[::3], k):
                folded = tuple(sorted({fold(n, v) for v in raw}))
                assert reflexive_reduce(n, raw) == folded, (n, raw)


def test_reduce_keeps_canonical_values():
    assert reflexive_reduce(54, [2, 3, 16, 20, 34, 38, 51, 52]) == (2, 3, 16, 20)


def test_reduce_folds_values_above_half():
    assert reflexive_reduce(16, [9]) == (7,)


def test_reduce_takes_residues_first():
    # 85 mod 54 = 31, then folded to 54 - 31
    assert reflexive_reduce(54, [85]) == (23,)


def test_reduce_collapses_duplicates_and_sorts():
    assert reflexive_reduce(16, [15, 14, 9, 1]) == (1, 2, 7)


def test_reduce_rejects_loops():
    with pytest.raises(InvalidJump):
        reflexive_reduce(8, [0])
    with pytest.raises(InvalidJump):
        reflexive_reduce(8, [16])


def test_reduce_rejects_empty_sets():
    with pytest.raises(EmptyConnectionSet):
        reflexive_reduce(8, [])


def test_reduce_rejects_tiny_orders():
    with pytest.raises(InvalidJump):
        reflexive_reduce(2, [1])


def test_graph_validates_bounds_and_order():
    with pytest.raises(InvalidJump):
        CirculantGraph(16, (2, 1))
    with pytest.raises(InvalidJump):
        CirculantGraph(16, (1, 1))
    with pytest.raises(InvalidJump):
        CirculantGraph(16, (9,))


def test_make_circulant_is_canonical():
    assert make_circulant(16, [1, 2, 7]) == make_circulant(16, [15, 14, 9])
    assert str(make_circulant(16, [1, 2, 7])) == "C_16(1,2,7)"


def test_closure_pairs_each_jump_with_its_negation():
    g = make_circulant(54, [2, 3, 16, 20])
    assert sorted(symmetric_closure(g)) == [2, 3, 16, 20, 34, 38, 51, 52]


def test_closure_half_jump_is_self_paired():
    assert set(symmetric_closure(make_circulant(8, [4]))) == {4}


def test_closure_of_three_jumps():
    g = make_circulant(16, [1, 2, 7])
    assert sorted(symmetric_closure(g)) == [1, 2, 7, 9, 14, 15]


def test_edge_set_of_a_cycle():
    assert edge_set(make_circulant(4, [1])) == frozenset(
        {(0, 1), (1, 2), (2, 3), (0, 3)}
    )


def test_edge_set_counts_half_jump_once():
    # K_4: the half jump contributes only n/2 edges
    assert len(edge_set(make_circulant(4, [1, 2]))) == 6


def test_edge_set_size_is_n_per_full_jump():
    assert len(edge_set(make_circulant(16, [1, 2, 7]))) == 48


def test_edge_count_formula_exhaustive():
    # n * |R| edges, minus n/2 when the half jump participates
    for n in range(3, 31):
        half = n // 2
        for k in range(1, 5):
            if k > half:
                continue
            for combo in itertools.combinations(range(1, half + 1), k):
                g = make_circulant(n, combo)
                expected = n * len(combo)
                if n % 2 == 0 and half in combo:
                    expected -= half
                assert len(edge_set(g)) == expected, (n, combo)


def test_cycle_stats_known_values():
    s = period_cycle_stats(54, 3)
    assert (s.gcd, s.cycle_length, s.cycle_count) == (3, 18, 3)
    assert period_cycle_stats(54, 17).cycle_length == 54
    assert period_cycle_stats(54, 17).cycle_count == 1
    s = period_cycle_stats(8, 4)
    assert (s.cycle_length, s.cycle_count) == (2, 4)


def test_cycle_stats_match_an_explicit_walk():
    for n, r in ((54, 3), (54, 17), (8, 4), (30, 12), (21, 14)):
        stats = period_cycle_stats(n, r)
        seen = set()
        cycles = 0
        for start in range(n):
            if start in seen:
                continue
            cycles += 1
            x, length = start, 0
            while x not in seen:
                seen.add(x)
                x = (x + r) % n
                length += 1
            assert length == stats.cycle_length, (n, r, start)
        assert cycles == stats.cycle_count, (n, r)


def test_cycle_stats_rejects_out_of_range_jumps():
    with pytest.raises(InvalidJump):
        period_cycle_stats(54, 0)
    with pytest.raises(InvalidJump):
        period_cycle_stats(54, 54)


def test_scale_multiplies_order_and_jumps():
    assert scale(2, make_circulant(16, [1, 2, 7])) == make_circulant(32, [2, 4, 14])
    assert scale(3, make_circulant(8, [1, 3])) == make_circulant(24, [3, 9])


def test_scale_by_one_is_identity():
    g = make_circulant(16, [1, 2, 7])
    assert scale(1, g) == g


def test_scale_rejects_nonpositive_factors():
    with pytest.raises(InvalidJump):
        scale(0, make_circulant(16, [1, 2, 7]))


def test_group_checker_accepts_cyclic_groups():
    for k in (1, 2, 5):
        check_abelian_group(tuple(tuple((i + j) % k for j in range(k)) for i in range(k)), 0)
    # the identity need not be element 0: Z_3 with 2 as its identity
    check_abelian_group(((1, 2, 0), (2, 0, 1), (0, 1, 2)), 2)


@pytest.mark.parametrize(
    "table, identity",
    [
        ((), 0),
        (((0, 1), (1, 0)), -1),
        (((0, 1), (1, 0)), 2),
    ],
)
def test_group_checker_refuses_an_identity_outside_the_table(table, identity):
    with pytest.raises(VerificationFailure, match=rf"identity {identity} is not one of the"):
        check_abelian_group(table, identity)


def test_group_checker_rejects_a_non_associative_table():
    # closed, commutative, identity 0 and inverses, but (1*1)*2 = 0 while
    # 1*(1*2) = 1
    table = ((0, 1, 2), (1, 1, 0), (2, 0, 2))
    with pytest.raises(VerificationFailure, match=r"\(1\*1\)\*2"):
        check_abelian_group(table, 0)


@pytest.mark.parametrize(
    "table, identity, axiom",
    [
        (((0, 1), (1, 2)), 0, "not closed"),
        (((0, 1), (1, 0)), 1, "not an identity"),
        (((0, 1), (1, 1)), 0, "no inverse"),
        (((0, 1), (0, 1)), 0, "do not commute"),
    ],
)
def test_group_checker_names_the_failed_axiom(table, identity, axiom):
    with pytest.raises(VerificationFailure, match=axiom):
        check_abelian_group(table, identity)


def _associative_group(table):
    # the O(k^3) reference for tables already closed and commutative with
    # identity 0: inverses plus every associativity triple
    k = len(table)
    return all(0 in row for row in table) and all(
        table[table[i][j]][l] == table[i][table[j][l]]
        for i in range(k)
        for j in range(k)
        for l in range(k)
    )


def test_group_checker_matches_the_triple_loop_exhaustively():
    for k in (3, 4):
        cells = [(i, j) for i in range(1, k) for j in range(i, k)]
        accepted = 0
        for values in itertools.product(range(k), repeat=len(cells)):
            rows = [[0] * k for _ in range(k)]
            for i in range(k):
                rows[0][i] = rows[i][0] = i
            for (i, j), v in zip(cells, values):
                rows[i][j] = rows[j][i] = v
            table = tuple(map(tuple, rows))
            try:
                check_abelian_group(table, 0)
                ok = True
            except VerificationFailure:
                ok = False
            assert ok == _associative_group(table), table
            accepted += ok
        # Z_3; Z_4 and Z_2 x Z_2 with their relabellings fixing 0
        assert accepted == {3: 1, 4: 4}[k]


def _loop_checker(table, identity):
    """The element-by-element checker that the row-wise one replaced; the
    reference for its verdicts and messages."""
    k = len(table)
    elems = set(range(k))
    for i, row in enumerate(table):
        if len(row) != k or not set(row) <= elems:
            raise VerificationFailure(f"row {i} of the table is not closed over {k} elements")
    if any(table[identity][j] != j for j in range(k)):
        raise VerificationFailure(f"element {identity} is not an identity")
    for i in range(k):
        if identity not in table[i]:
            raise VerificationFailure(f"element {i} has no inverse")
        for j in range(k):
            if table[i][j] != table[j][i]:
                raise VerificationFailure(f"elements {i} and {j} do not commute")
    generators: list[int] = []
    reached = {identity}
    for a in range(k):
        if a in reached:
            continue
        generators.append(a)
        stack = list(reached)
        while stack:
            x = stack.pop()
            for g in generators:
                y = table[x][g]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    for i in range(k):
        for g in generators:
            for l in range(k):
                if table[table[i][g]][l] != table[i][table[g][l]]:
                    raise VerificationFailure(f"({i}*{g})*{l} != {i}*({g}*{l})")


@st.composite
def _edited_groups(draw):
    """A table of Z_k or Z_2 x Z_2 with any identity, with a few cells
    overwritten; an edit may be mirrored, so that the table stays
    symmetric, and its value may be k, outside the table."""
    k = draw(st.integers(1, 6))
    if k == 4 and draw(st.booleans()):
        law = lambda a, b: a ^ b
    else:
        law = lambda a, b: (a + b) % k
    label = draw(st.permutations(range(k)))
    rows = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            rows[label[a]][label[b]] = label[law(a, b)]
    cell = st.integers(0, k - 1)
    for i, j, v, mirror in draw(
        st.lists(st.tuples(cell, cell, st.integers(0, k), st.booleans()), max_size=3)
    ):
        rows[i][j] = v
        if mirror:
            rows[j][i] = v
    return tuple(map(tuple, rows)), label[0]


def _verdict(checker, table, identity):
    try:
        checker(table, identity)
    except VerificationFailure as exc:
        return str(exc)
    return None


@given(_edited_groups())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_group_checker_names_what_the_loop_checker_names(case):
    table, identity = case
    assert _verdict(check_abelian_group, table, identity) == _verdict(
        _loop_checker, table, identity
    )


def test_no_module_relies_on_assert():
    # python -O strips assert statements, so certifying checks must raise
    package = Path(__file__).resolve().parent.parent / "src" / "circulant"
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_every_import_is_the_package_or_the_standard_library():
    # the package promises no dependency beyond the standard library
    package = Path(__file__).resolve().parent.parent / "src" / "circulant"
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_every_package_import_points_down_the_layers():
    # errors < core < type1 < theta < {groups, oracle} < families < {cli,
    # __init__}: a module imports only from lower layers, so no cycle can form
    # and groups and oracle stay independent of each other
    layer = {
        "errors": 0,
        "core": 1,
        "type1": 2,
        "theta": 3,
        "groups": 4,
        "oracle": 4,
        "families": 5,
        "cli": 6,
        "__init__": 6,
    }
    package = Path(__file__).resolve().parent.parent / "src" / "circulant"
    modules = sorted(package.glob("*.py"))
    assert {path.stem for path in modules} == set(layer)
    edges = set()
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                edges.update((path.stem, target) for target in targets)
    assert edges
    upward = sorted((a, b) for a, b in edges if layer[b] >= layer[a])
    assert not upward


def test_edge_set_reference_stays_out_of_the_library():
    # theta_image, detect_circulant and LabeledGraph are the tests' slow
    # reference, and edge_set serves them alone: the library's rotation
    # certificate is verify_theta_witness, which checks jumps, not edges
    reference = {"theta_image", "detect_circulant", "LabeledGraph", "edge_set"}
    package = Path(__file__).resolve().parent.parent / "src" / "circulant"
    checked = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("core.py", "theta.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        assert not named & reference, (path.name, sorted(named & reference))
        checked.append(path.name)
    assert {"oracle.py", "families.py", "groups.py", "type1.py", "cli.py"} <= set(checked)
