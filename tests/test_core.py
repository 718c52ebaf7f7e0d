"""Canonical graphs, closures, edge sets, per-jump cycle structure, and the
group-axiom reference."""

import ast
import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from circulant import (
    CirculantGraph,
    edge_set,
    fold,
    make_circulant,
    period_cycle_stats,
    reflexive_reduce,
    symmetric_closure,
)
from circulant.errors import EmptyConnectionSet, InvalidJump, VerificationFailure
from reference import check_abelian_group


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


def test_every_traced_span_names_a_library_function():
    # perfbench/spans.py rebinds each (layer, fn) of LAYERS by name, so a
    # rename or a removal in the library must fail here, not only in a
    # traced benchmark run; the file is loaded by path and left as it is
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{fn}"
        for layer, fns in spans.LAYERS.items()
        for fn in fns
        if not hasattr(importlib.import_module(f"circulant.{layer}"), fn)
    ]
    assert spans.LAYERS and not missing


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
