"""Output checks for the benchmark, independent of the code under test.

Every expected answer here is re-derived from the definitions with plain
set arithmetic: jump sets are folded by hand, multiplier images are unit
multiples, and rotation images are built edge by edge from the vertex map
x -> x + (x mod m) * t * m.  Nothing is imported from `circulant`.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import gcd

# Reference results of the source paper, kept here (not read from the test
# suite) so the benchmark stays fixed while tests are refactored.
SEVEN_SETS = (
    (7, 17, 228, 262, 473, 507, 718, 752),
    (7, 122, 123, 367, 368, 612, 613, 857),
    (7, 18, 227, 263, 472, 508, 717, 753),
    (7, 87, 158, 332, 403, 577, 648, 822),
    (7, 53, 192, 298, 437, 543, 682, 788),
    (7, 52, 193, 297, 438, 542, 683, 787),
    (7, 88, 157, 333, 402, 578, 647, 823),
)
# (n, m, base jumps) -> rows of (t, transformed closure, rendered verdict)
GOLDEN_TABLES = {
    (54, 3, (2, 3, 16, 20)): (
        (0, (2, 3, 16, 20, 34, 38, 51, 52), "Yes (Identity)"),
        (1, (8, 3, 19, 26, 37, 44, 51, 1), "NS"),
        (2, (14, 3, 22, 32, 40, 50, 51, 4), "Yes (Type-2)"),
        (3, (20, 3, 25, 38, 43, 2, 51, 7), "NS"),
        (4, (26, 3, 28, 44, 46, 8, 51, 10), "Yes (Type-2)"),
        (5, (32, 3, 31, 50, 49, 14, 51, 13), "NS"),
        (6, (38, 3, 34, 2, 52, 20, 51, 16), "Yes (Identity)"),
    ),
    (81, 3, (3, 7, 20, 34)): (
        (0, (3, 7, 20, 34, 47, 61, 74, 78), "Yes (Identity)"),
        (1, (3, 10, 26, 37, 53, 64, 80, 78), "NS"),
        (2, (3, 13, 32, 40, 59, 67, 5, 78), "NS"),
        (3, (3, 16, 38, 43, 65, 70, 11, 78), "Yes (Type-2)"),
        (4, (3, 19, 44, 46, 71, 73, 17, 78), "NS"),
        (5, (3, 22, 50, 49, 77, 76, 23, 78), "NS"),
        (6, (3, 25, 56, 52, 2, 79, 29, 78), "Yes (Type-2)"),
        (7, (3, 28, 62, 55, 8, 1, 35, 78), "NS"),
        (8, (3, 31, 68, 58, 14, 4, 41, 78), "NS"),
    ),
}
DISPLAY = {
    "NS": "NS",
    "Identity": "Yes (Identity)",
    "Type1": "T1",
    "Type2": "Yes (Type-2)",
    "Unclassified": "Yes (unclassified)",
}


class Mismatch(Exception):
    """An output disagrees with the reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------- reference


def fold(n: int, values) -> tuple[int, ...]:
    out = set()
    for v in values:
        r = v % n
        if r == 0:
            raise ValueError(f"{v} is 0 mod {n}")
        out.add(min(r, n - r))
    return tuple(sorted(out))


def units(n: int) -> list[int]:
    return [x for x in range(1, n) if gcd(n, x) == 1]


def multiples(n: int, jumps) -> dict[tuple[int, ...], list[int]]:
    """Unit multiples of a jump set, each with its ascending multipliers."""
    out: dict[tuple[int, ...], list[int]] = {}
    for k in units(n):
        out.setdefault(fold(n, (k * j for j in jumps)), []).append(k)
    return out


def edges(n: int, jumps) -> set[tuple[int, int]]:
    out = set()
    for j in jumps:
        for x in range(n):
            y = (x + j) % n
            out.add((x, y) if x < y else (y, x))
    return out


def rotate_vertex(n: int, m: int, t: int, x: int) -> int:
    return (x + (x % m) * t * m) % n


def edge_count(n: int, jumps) -> int:
    return sum(n // 2 if 2 * j == n else n for j in jumps)


def rotate(n: int, m: int, t: int, jumps) -> tuple[int, ...] | None:
    """Jump set of the rotated graph, or None when it is not circulant.

    The vertex map is a bijection, so the image keeps the base's edge
    count.  Every image edge is an edge of the circulant on the folded
    differences D of all image edges, so the image is that circulant
    exactly when C_n(D) has no more edges than the base.
    """
    vmap = [rotate_vertex(n, m, t, x) for x in range(n)]
    diffs = set()
    for j in jumps:
        for x in range(n):
            d = (vmap[(x + j) % n] - vmap[x]) % n
            diffs.add(min(d, n - d))
    image = tuple(sorted(diffs))
    return image if edge_count(n, image) == edge_count(n, jumps) else None


def sweep(n: int, m: int, jumps, steps=None) -> list[tuple[str, tuple | None, list[int]]]:
    """(verdict, image, multipliers) for each rotation step."""
    jumps = tuple(jumps)
    orbit = multiples(n, jumps)
    anchored = len(jumps) >= 3 and any(j % m == 0 for j in jumps)
    rows = []
    for t in range(n // m) if steps is None else steps:
        img = rotate(n, m, t, jumps)
        if img is None:
            rows.append(("NS", None, []))
        elif img == jumps:
            rows.append(("Identity", img, []))
        elif img in orbit:
            rows.append(("Type1", img, orbit[img]))
        else:
            rows.append(("Type2" if anchored else "Unclassified", img, []))
    return rows


@lru_cache(maxsize=32)
def full_sweep(n: int, m: int, jumps: tuple[int, ...]) -> tuple:
    """sweep over every step, cached so checks of one base share it."""
    return tuple(sweep(n, m, jumps))


def partners(n: int, m: int, jumps, rows=None) -> list[tuple[int, ...]]:
    """The base followed by its distinct Type-2 images in sweep order."""
    rows = full_sweep(n, m, tuple(jumps)) if rows is None else rows
    out = [tuple(jumps)]
    for verdict, img, _ in rows:
        if verdict == "Type2" and img not in out:
            out.append(img)
    return out


def iso_expectation(n: int, a, b) -> tuple[str | None, dict]:
    """Relation the CLI must report for a pair, by its documented rule.

    Multiplier witnesses first, then the first admissible divisor m
    (ascending) whose sweep maps a onto b at a Type-2 step.  Anything
    else is left to the invariant and brute-force stages (None).
    """
    a, b = tuple(a), tuple(b)
    wits = multiples(n, a).get(b)
    if wits:
        return "type1", {"multipliers": wits}
    for m in range(2, n + 1):
        if n % m ** 3 or not any(j % m == 0 for j in a):
            continue
        ts = [t for t, (verdict, img, _) in enumerate(full_sweep(n, m, a)) if verdict == "Type2" and img == b]
        if ts:
            return "type2", {"m": m, "t": ts}
    return None, {}


def census_summary(n: int, m: int, sizes) -> dict:
    """Exhaustive reference census: examined, classes, t2_equals_v."""
    from itertools import combinations

    examined = coincide = 0
    classes = set()
    for k in sorted(set(sizes)):
        for combo in combinations(range(1, n // 2 + 1), k):
            if not any(j % m == 0 for j in combo):
                continue
            examined += 1
            rows = sweep(n, m, combo)
            if all(v in ("Identity", "Type2") for v, _, _ in rows):
                coincide += 1
            members = partners(n, m, combo, rows)
            if len(members) > 1:
                classes.add(tuple(sorted(members)))
    return {"examined": examined, "classes": len(classes), "t2_equals_v": coincide}


def reference_chunk() -> None:
    """Fixed work (~7 ms) whose time tracks the machine's current speed."""
    sweep(81, 3, (3, 7, 20, 34))
    edges(250, (1, 2, 5, 7, 11, 13))
    multiples(250, (1, 5, 7, 11))


# ------------------------------------------------------------------- checks


def _opt(argv: list[str], name: str) -> str | None:
    flag = "--" + name
    return argv[argv.index(flag) + 1] if flag in argv else None


def _jumps(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def check_output(job: dict, stdout: str) -> None:
    """Raise Mismatch unless stdout is the right answer for the job."""
    argv = job["argv"]
    command = argv[0]
    if command == "census":
        _check_census(job, argv, stdout)
        return
    env = json.loads(stdout)
    expect(env["command"] == command, f"command {env['command']!r}")
    _CHECKS[command](job, argv, env["result"])


def _check_reduce(job, argv, result):
    n = int(_opt(argv, "n"))
    expect(result == {"n": n, "jumps": list(fold(n, _jumps(_opt(argv, "set"))))}, "folded set")


def _check_t1set(job, argv, result):
    n = int(_opt(argv, "n"))
    base = fold(n, _jumps(_opt(argv, "set")))
    orbit = multiples(n, base)
    members = [{"jumps": list(s), "multipliers": orbit[s]} for s in sorted(orbit)]
    expect(result["members"] == members, "multiplier images")
    group = result["group"]
    expect(group["order"] == len(members), "group order")
    expect(group["stabilizer"] == orbit[base], "stabilizer")
    expect(group["representatives"] == [min(orbit[s]) for s in sorted(orbit)], "representatives")


def _period(rows) -> int:
    return next((t for t in range(1, len(rows)) if rows[t][0] == "Identity"), len(rows))


def _check_t2set(job, argv, result):
    n, m = int(_opt(argv, "n")), int(_opt(argv, "m"))
    base = fold(n, _jumps(_opt(argv, "set")))
    rows = full_sweep(n, m, base)
    members = partners(n, m, base, rows)
    expect([tuple(g["jumps"]) for g in result["members"]] == members, "partner set")
    expect(
        result["t2_indices"] == [t for t, r in enumerate(rows) if r[0] in ("Identity", "Type2")],
        "partner steps",
    )
    expect(result["graph_period"] == _period(rows), "graph period")
    expect(result["group"]["order"] == len(members), "group order != partner count")


def _check_vset(job, argv, result):
    n, m = int(_opt(argv, "n")), int(_opt(argv, "m"))
    base = fold(n, _jumps(_opt(argv, "set")))
    rows = full_sweep(n, m, base)
    got = [(r["t"], r["verdict"], None if r["jumps"] is None else tuple(r["jumps"])) for r in result["rows"]]
    expect(got == [(t, v, img) for t, (v, img, _) in enumerate(rows)], "sweep rows")
    distinct = []
    for _, img, _ in rows:
        if img is not None and img not in distinct:
            distinct.append(img)
    expect([tuple(g["jumps"]) for g in result["distinct"]] == distinct, "distinct images")
    expect(result["graph_period"] == _period(rows), "graph period")
    expect(result["group"]["order"] == result["group"]["modulus"] == n // m, "sweep group order")


def _check_1715_sweep(base, steps, rows):
    """The family law: step 5j shifts member i of the seven sets to i + j."""
    expect(base in SEVEN_SETS, "base is not a family member")
    i = SEVEN_SETS.index(base)
    for t, (verdict, img, _) in zip(steps, rows):
        if t % 5 == 0:
            j = t // 5
            want = "Identity" if j % 7 == 0 else "Type2"
            expect((verdict, img) == (want, SEVEN_SETS[(i + j) % 7]), f"step {t}")


def _check_table(job, argv, result):
    n, m = int(_opt(argv, "n")), int(_opt(argv, "m"))
    base = fold(n, _jumps(_opt(argv, "set")))
    lo, hi = _opt(argv, "t").split("..")
    steps = range(int(lo), int(hi) + 1)
    closure = sorted(set(base) | {n - j for j in base})
    expect(result["columns"] == closure, "columns")
    rows = sweep(n, m, base, steps)
    if n == 1715 and m == 7:
        _check_1715_sweep(base, steps, rows)
    want = []
    for t, (verdict, img, wits) in zip(steps, rows):
        want.append({
            "t": t,
            "values": [rotate_vertex(n, m, t, v) for v in closure],
            "verdict": verdict,
            "display": DISPLAY[verdict],
            "image": None if img is None else list(img),
            "witnesses": wits,
        })
    expect(result["rows"] == want, "table rows")
    golden = GOLDEN_TABLES.get((n, m, base))
    if golden is not None:
        got = [(r["t"], tuple(r["values"]), r["display"]) for r in result["rows"]]
        expect(tuple(got) == golden, "reference sweep table")


def _check_family(job, argv, result):
    order, m = result["order"], result["m"]
    sets = [tuple(s) for s in result["sets"]]
    verification = result["verification"]
    expect(verification["resolved"] == "type2", f"resolved {verification['resolved']!r}")
    expect(verification["group_order"] == len(sets), "group order != family size")
    expect({tuple(g["jumps"]) for g in verification["t2_members"]} == set(sets), "partner set != family")
    orbit_keys = [min(multiples(order, s)) for s in sets]
    expect(len(set(orbit_keys)) == len(sets), "two members are multiplier-related")
    steps = order // m
    for t, source, target in result["relations"]:
        if source == 0:
            expect(rotate(order, m, t % steps, sets[0]) == sets[target], f"relation t={t}")


def _check_iso(job, argv, result):
    n = int(_opt(argv, "n"))
    a, b = fold(n, _jumps(_opt(argv, "a"))), fold(n, _jumps(_opt(argv, "b")))
    want = job["relation"]
    expect(result["relation"] == want, f"relation {result['relation']!r}, want {want!r}")
    if want in ("type1", "type2"):
        _, detail = iso_expectation(n, a, b)
        for key, value in detail.items():
            expect(result[key] == value, key)
    elif want == "isomorphic-unclassified":
        mapping = result["mapping"]
        expect(sorted(mapping) == list(range(n)), "mapping is not a bijection")
        target = edges(n, b)
        for x, y in edges(n, a):
            u, v = mapping[x], mapping[y]
            expect(((u, v) if u < v else (v, u)) in target, f"edge {x}-{y} not mapped onto an edge")
    elif want == "not-isomorphic":
        expect(result["evidence"] == "exhaustive search refutation", "evidence")


def _check_census(job, argv, stdout):
    n, m = int(_opt(argv, "n")), int(_opt(argv, "m"))
    lines = [json.loads(x) for x in stdout.splitlines()]
    summary = lines[-1]
    classes = lines[:-1]
    expect(summary["type"] == "summary" and all(c["type"] == "class" for c in classes), "record types")
    got = {k: summary[k] for k in ("examined", "classes", "t2_equals_v")}
    expect(got == job["summary"], f"summary {got}")
    expect(summary["classes"] == len(classes), "class count")
    for record in classes:
        members = [tuple(g["jumps"]) for g in record["members"]]
        base = members[0]
        expect(members == sorted(members) and tuple(record["base"]["jumps"]) == base, "class order")
        expect(record["group_order"] == len(members), "group order != class size")
        rows = full_sweep(n, m, base)
        expect(sorted(partners(n, m, base, rows)) == members, f"class of {base}")
        all_partner = all(v in ("Identity", "Type2") for v, _, _ in rows)
        expect(record["t2_equals_v"] == all_partner, "t2_equals_v")


_CHECKS = {
    "reduce": _check_reduce,
    "t1set": _check_t1set,
    "t2set": _check_t2set,
    "vset": _check_vset,
    "table": _check_table,
    "family": _check_family,
    "iso": _check_iso,
}
