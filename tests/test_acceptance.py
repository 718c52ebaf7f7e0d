"""End-to-end checks over the published reference results.

Each test prints one `criterion NN <title>: PASS|FAIL` line (also
collected by the terminal summary hook in conftest.py) and then asserts.
"""

import contextlib
import io
import itertools
import json
import time

import test_properties as props
from golden import (
    DISPUTED_T2,
    SEVEN_SETS,
    SINGLETON_T2,
    SWEEP_54_COLUMNS,
    SWEEP_54_IMAGES,
    SWEEP_54_ROWS,
    SWEEP_81_COLUMNS,
    SWEEP_81_IMAGES,
    SWEEP_81_ROWS,
    WORKED_CASES,
)

from circulant import cli, make_circulant
from circulant.families import family_general_p, family_m2, family_m3, family_verify
from circulant.groups import t2_set, v_set
from circulant.oracle import (
    brute_force_isomorphic,
    verify_theta_witness,
)
from circulant.theta import ThetaParams, Verdict, classify_t
from circulant.type1 import type1_group, type1_set, type1_witnesses


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _report(num, title, problems, detail):
    status = "FAIL" if problems else "PASS"
    note = "; ".join(problems) if problems else detail
    print(f"criterion {num:02d} {title}: {status} ({note})", flush=True)
    assert not problems, note


def _check_sweep(argv, columns, rows, images, budget):
    problems = []
    start = time.perf_counter()
    code, out = _run_cli(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        problems.append(f"exit code {code}")
        return problems, elapsed
    result = json.loads(out)["result"]
    if tuple(result["columns"]) != columns:
        problems.append(f"columns {result['columns']}")
    by_t = {row["t"]: row for row in result["rows"]}
    if sorted(by_t) != [r[0] for r in rows]:
        problems.append(f"steps {sorted(by_t)}")
        return problems, elapsed
    for t, values, display in rows:
        row = by_t[t]
        if tuple(row["values"]) != values:
            problems.append(f"t={t} values {row['values']}")
        if row["display"] != display:
            problems.append(f"t={t} display {row['display']!r}")
    for t, image in images.items():
        if tuple(by_t[t]["image"]) != image:
            problems.append(f"t={t} image {by_t[t]['image']}")
    if elapsed >= budget:
        problems.append(f"took {elapsed:.2f}s, budget {budget}s")
    return problems, elapsed


def test_criterion_01_order54_sweep_table():
    problems, elapsed = _check_sweep(
        ["table", "--n", "54", "--m", "3", "--set", "2,3,16,20", "--t", "0..6"],
        SWEEP_54_COLUMNS,
        SWEEP_54_ROWS,
        SWEEP_54_IMAGES,
        budget=1.0,
    )
    _report(1, "order54 sweep table", problems, f"7 rows x 8 cells, {elapsed:.2f}s")


def test_criterion_02_order81_sweep_table():
    problems, elapsed = _check_sweep(
        ["table", "--n", "81", "--m", "3", "--set", "3,7,20,34", "--t", "0..8"],
        SWEEP_81_COLUMNS,
        SWEEP_81_ROWS,
        SWEEP_81_IMAGES,
        budget=1.0,
    )
    _report(2, "order81 sweep table", problems, f"9 rows x 8 cells, {elapsed:.2f}s")


def test_criterion_03_worked_case_partner_sets():
    problems = []
    start = time.perf_counter()
    for label, (n, m, base, expected_t1, expected_t2) in WORKED_CASES.items():
        g = make_circulant(n, base)
        t1 = type1_set(g)
        got_t1 = {mem.jumps for mem in t1.members}
        if got_t1 != expected_t1:
            problems.append(f"T1 mismatch at ({label})")
        t2 = t2_set(g, m)
        got_t2 = {mem.jumps for mem in t2.members}
        if got_t2 != expected_t2:
            missing = sorted(expected_t2 - got_t2)
            extra = sorted(got_t2 - expected_t2)
            problems.append(
                f"T2 mismatch at ({label}): missing {missing}, extra {extra}"
            )
        if label in SINGLETON_T2 and len(expected_t2) != 1:
            problems.append(f"({label}) golden data lost its singleton")
        if expected_t1 & expected_t2 != {g.jumps}:
            shared = sorted(expected_t1 & expected_t2 - {g.jumps})
            problems.append(f"({label}) golden T1 and T2 share {shared}")
        if label in DISPUTED_T2:
            jumps, unit, steps = DISPUTED_T2[label]
            disputed = make_circulant(n, jumps)
            if unit not in t1.witness.get(disputed, ()):
                problems.append(f"({label}) {jumps} lost multiplier witness {unit}")
            reached = {
                row.t: row.verdict for row in v_set(g, m).rows if row.image == disputed
            }
            if reached != {t: Verdict.TYPE1 for t in steps}:
                problems.append(f"({label}) sweep reaches {jumps} as {reached}")
            if jumps in got_t2:
                problems.append(f"({label}) t2_set admits multiplier image {jumps}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s, budget 10s")
    _report(
        3,
        "worked case partner sets",
        problems,
        f"15 cases, T1 and T2 exact, {len(DISPUTED_T2)} listing disagreement"
        f" asserted, {elapsed:.2f}s",
    )


def test_criterion_04_order81_multiplier_orbit():
    problems = []
    start = time.perf_counter()
    g = make_circulant(81, [3, 7, 20, 34])
    grp = type1_group(g)
    if len(grp.representatives) != 9:
        problems.append(f"{len(grp.representatives)} orbit members")
    if set(grp.representatives) != {1, 2, 4, 5, 7, 8, 10, 11, 13}:
        problems.append(f"representatives {sorted(grp.representatives)}")
    partners = t2_set(g, 3)
    if len(partners.members) != 3:
        problems.append(f"{len(partners.members)} rotation partners")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(
        4,
        "order81 multiplier orbit",
        problems,
        f"9 multiplier members, 3 rotation partners, {elapsed:.2f}s",
    )


def test_criterion_05_order1715_family():
    problems = []
    start = time.perf_counter()
    fam = family_general_p(7, 5, 3, 2)
    if tuple(s.jumps for s in fam.sets) != SEVEN_SETS:
        problems.append("regenerated sets differ")
    graphs = [make_circulant(1715, s.jumps) for s in fam.sets]
    for t, src, dst in ((5, 0, 1), (20, 0, 4)):
        try:
            witness = verify_theta_witness(
                ThetaParams(1715, 7, t), [(graphs[src], graphs[dst])]
            )
            if not witness.verified:
                problems.append(f"t={t} witness unverified")
        except Exception as exc:  # VerificationFailure included
            problems.append(f"t={t} witness rejected: {exc}")
    for i, j in itertools.combinations(range(7), 2):
        if type1_witnesses(graphs[i], graphs[j]):
            problems.append(f"members {i},{j} carry a multiplier witness")
    verification = family_verify(fam)
    if verification.resolved != "type2":
        problems.append(f"resolved {verification.resolved}")
    if verification.group_order != 7:
        problems.append(f"group order {verification.group_order}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.2f}s, budget 30s")
    _report(
        5,
        "order1715 family",
        problems,
        f"7 sets, 2 replayed witnesses, 21 empty witness pairs, "
        f"group order 7, {elapsed:.2f}s",
    )


def test_criterion_06_m2_family_sweep():
    problems = []
    flagged = []
    checked = 0
    for n in range(2, 7):
        for s in range(1, n + 1):
            if n == 2 * s - 1:
                continue  # both sets coincide; the generator refuses
            fam = family_m2(n, s)
            checked += 1
            swaps = {(rel.t, rel.source, rel.target) for rel in fam.relations}
            for t in (n, 3 * n):
                if (t, 0, 1) not in swaps or (t, 1, 0) not in swaps:
                    problems.append(f"(n={n}, s={s}) missing swap at t={t}")
            verification = family_verify(fam)
            if verification.resolved == "type1":
                flagged.append((n, s, verification.t1_witness_pairs))
                continue
            members = {mem.jumps for mem in verification.t2_members}
            if members != {fam.sets[0].jumps, fam.sets[1].jumps}:
                problems.append(f"(n={n}, s={s}) partner set {sorted(members)}")
            if verification.group_order != 2:
                problems.append(
                    f"(n={n}, s={s}) group order {verification.group_order}"
                )
    detail = f"{checked} instances verified, flagged: {flagged or 'none'}"
    _report(6, "m2 family sweep", problems, detail)


def test_criterion_07_m3_family_sweep():
    problems = []
    for n in range(1, 5):
        fam = family_m3(n)
        expected_cycle = {(n, 0, 1), (n, 1, 2), (n, 2, 0)}
        if {(rel.t, rel.source, rel.target) for rel in fam.relations} != expected_cycle:
            problems.append(f"n={n} relations {fam.relations}")
        verification = family_verify(fam)
        if verification.resolved != "type2":
            problems.append(f"n={n} resolved {verification.resolved}")
        if verification.group_order != 3:
            problems.append(f"n={n} group order {verification.group_order}")
    _report(7, "m3 family sweep", problems, "n in 1..4, 3-cycle at t=n, order 3")


def test_criterion_08_oracle_agreement():
    problems = []
    start = time.perf_counter()
    compared = 0
    for combo in itertools.combinations(range(1, 9), 3):
        if not any(j % 2 == 0 for j in combo):
            continue
        g = make_circulant(16, combo)
        for t in range(8):
            row = classify_t(ThetaParams(16, 2, t), g)
            if row.image is None:
                continue
            h = make_circulant(16, row.image.jumps)
            claimed = row.verdict is Verdict.TYPE2
            independent = (
                brute_force_isomorphic(g, h) is not None
                and not type1_witnesses(g, h)
            )
            compared += 1
            if claimed != independent:
                problems.append(f"{g} t={t}: verdict says {claimed}, oracle says {independent}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.2f}s, budget 60s")
    _report(
        8,
        "oracle agreement",
        problems,
        f"{compared} circulant images cross-checked, {elapsed:.2f}s",
    )


def test_criterion_09_property_suites():
    suites = (
        props.test_rotation_map_is_a_bijection,
        props.test_rotation_maps_compose_additively,
        props.test_rotation_map_inverts_at_the_complementary_step,
        props.test_partner_indices_form_a_subgroup,
        props.test_multiplier_orbit_respects_orbit_stabilizer,
        props.test_certified_pairs_pass_the_invariants,
        props.test_census_classes_are_equal_or_disjoint,
    )
    problems = []
    for suite in suites:
        try:
            suite()
        except Exception as exc:
            problems.append(f"{suite.__name__}: {type(exc).__name__}")
    _report(
        9,
        "property suites",
        problems,
        "6 randomized suites at 1000 cases each plus the exhaustive "
        "equal-or-disjoint check",
    )


def test_criterion_10_census_smoke():
    problems = []
    start = time.perf_counter()
    code, out = _run_cli(["census", "--n", "27", "--m", "3", "--sizes", "4"])
    if code != 0:
        problems.append(f"order-27 census exit {code}")
    else:
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        classes = {
            tuple(d["base"]["jumps"]): d for d in lines if d["type"] == "class"
        }
        target = classes.get((1, 3, 8, 10))
        if target is None:
            problems.append("class of (1,3,8,10) not reported")
        else:
            members = {tuple(m["jumps"]) for m in target["members"]}
            if members != {(1, 3, 8, 10), (3, 4, 5, 13), (2, 3, 7, 11)}:
                problems.append(f"members {sorted(members)}")
            if not target["t2_equals_v"]:
                problems.append("T2 = V coincidence not flagged")
    code, out = _run_cli(["census", "--n", "8", "--m", "2", "--sizes", "3"])
    if code != 0:
        problems.append(f"order-8 census exit {code}")
    else:
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        if any(d["type"] == "class" for d in lines):
            problems.append("order-8 census reported classes")
        if lines[-1]["classes"] != 0:
            problems.append(f"order-8 summary {lines[-1]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.2f}s, budget 60s")
    _report(
        10,
        "census smoke",
        problems,
        f"order-27 class found with T2 = V, order-8 empty, {elapsed:.2f}s",
    )
