"""Build perfbench/jobs.json: the job pools of the three workloads.

    python3 perfbench/record.py

Each job is an argv list for `circulant.cli.main`, a stratum that passes
draw from, the work it counts for, and the sha256 of its stdout at the
commit that recorded it (the byte-identity contract).  Query pairs are
built so their answer is known: `k*R` is a multiplier image, a rotation
image with no multiplier witness is a Type-2 partner, `k*theta(R)` that is
neither is isomorphic but unclassified, and the cospectral pairs are
confirmed non-isomorphic by networkx, which only this script needs.
Every recorded output must pass perfbench/check.py, or nothing is written.

Inputs deliberately avoid behaviour that open work is expected to change:
no `iso` pair above the brute-force cap that reaches it (`inconclusive`),
no `census --format csv`, no `--threads`, no census budget variable, and
not the order-48 worked case whose reference listing is disputed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from collections import Counter
from math import cos, gcd, pi
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from check import SEVEN_SETS, fold, full_sweep, iso_expectation, multiples, units  # noqa: E402

POOL_SEED = 20260517

# Jobs of each stratum drawn per pass of each workload; the query pass
# runs its whole pool (the seed only orders it), since query costs are
# heavy-tailed and a drawn subset would change the figures from seed to seed.
PASSES = {
    # per-vertex work on large graphs: slices of the order-1715 sweeps,
    # sweeps of order-343 family members, and the m7/general-p/m5 families
    "sweep": {"table-1715": 6, "vset-343": 1, "t2set-343": 1, "family-343": 1, "family-m5": 1},
    # thousands of small bases with ~15 steps each: per-call overhead
    "census": {"census-16": 1, "census-24": 1, "census-27": 1, "census-54": 1},
    # one-shot queries at orders 16-250; cli parsing/emission and the
    # oracle's brute force set the latency tail
    "query": None,
}
# orders with their cube divisors m, for rotation queries
ROTATION_ORDERS = (
    (16, 2), (24, 2), (27, 3), (32, 2), (40, 2), (48, 2), (54, 3), (56, 2), (64, 4),
    (72, 2), (80, 2), (81, 3), (96, 2), (108, 3), (125, 5), (128, 4), (135, 3),
    (160, 2), (189, 3), (200, 2), (216, 3), (250, 5),
)


def csv(values) -> str:
    return ",".join(map(str, values))


def job(stratum: str, argv: list, work: int = 1, **facts) -> dict:
    return {"stratum": stratum, "argv": [str(a) for a in argv], "work": work, **facts}


def m7_members() -> list[tuple[int, ...]]:
    """The order-343 family of the paper's m = 7 construction (n = 1)."""
    sets = []
    for i in range(1, 8):
        d = 7 * (i - 1) + 1
        sets.append(fold(343, [7, d] + [v for j in (49, 98, 147) for v in (j - d, j + d)]))
    return sets


def sweep_jobs() -> list[dict]:
    # order-1715 sweeps cut into 35-step slices: long single jobs integrate
    # the box's speed swings, short ones let the reference track them
    jobs = [
        job("table-1715", ["table", "--n", 1715, "--m", 7, "--set", csv(s), "--t", f"{a}..{a + 34}"], 35)
        for s in SEVEN_SETS for a in range(0, 245, 35)
    ]
    for s in m7_members():
        jobs.append(job("vset-343", ["vset", "--n", 343, "--m", 7, "--set", csv(s)], 49))
        jobs.append(job("t2set-343", ["t2set", "--n", 343, "--m", 7, "--set", csv(s)], 49))
    jobs.append(job("family-343", ["family", "--kind", "m7", "--n", 1], 49))
    jobs.append(job("family-343", ["family", "--kind", "general-p", "--p", 7, "--n", 1, "--x", 3, "--y", 2], 49))
    jobs.append(job("family-m5", ["family", "--kind", "m5", "--n", 2], 50))
    return jobs


def census_jobs() -> list[dict]:
    jobs = []
    for n, m, sizes, text in ((16, 2, (3, 4, 5), "3..5"), (24, 2, (3, 4), "3..4"),
                              (27, 3, (4,), "4"), (54, 3, (3,), "3")):
        summary = check.census_summary(n, m, sizes)
        jobs.append(job(f"census-{n}", ["census", "--n", n, "--m", m, "--sizes", text],
                        summary["examined"], summary=summary))
    return jobs


def random_set(rng, n: int, k: int, anchor: int | None = None) -> tuple[int, ...]:
    while True:
        picked = rng.sample(range(1, n // 2 + 1), k)
        if anchor:
            picked[0] = anchor * rng.randrange(1, n // (2 * anchor) + 1)
        jumps = fold(n, picked)
        if len(jumps) == k:
            return jumps


def spectrum(n: int, jumps) -> tuple[float, ...]:
    closure = set(jumps) | {n - j for j in jumps}
    return tuple(sorted(round(sum(cos(2 * pi * k * s / n) for s in closure), 6) for k in range(n)))


def query_jobs(rng) -> list[dict]:
    jobs = []
    for _ in range(30):
        n = rng.randrange(16, 251)
        values = [v for v in rng.sample(range(1, 2 * n), rng.randrange(2, 7)) if v % n]
        jobs.append(job("reduce", ["reduce", "--n", n, "--set", csv(values)]))
    for _ in range(30):
        n = rng.randrange(16, 251)
        jobs.append(job("t1set", ["t1set", "--n", n, "--set", csv(random_set(rng, n, rng.randrange(2, 6)))]))
    for stratum, count in (("t2set", 30), ("vset", 30), ("table", 30)):
        for _ in range(count):
            n, m = rng.choice(ROTATION_ORDERS)
            base = csv(random_set(rng, n, rng.randrange(3, 6), m))
            argv = [stratum, "--n", n, "--m", m, "--set", base]
            if stratum == "table":
                argv += ["--t", f"0..{min(n // m - 1, rng.randrange(4, 13))}"]
            jobs.append(job(stratum, argv))
    jobs.append(job("table", ["table", "--n", 54, "--m", 3, "--set", "2,3,16,20", "--t", "0..6"]))
    jobs.append(job("table", ["table", "--n", 81, "--m", 3, "--set", "3,7,20,34", "--t", "0..8"]))
    families = [["m3", "--n", n] for n in range(1, 10)] + [["m5", "--n", 1], ["m5", "--n", 2]]
    families += [["m2", "--n", n, "--s", s] for n in (2, 3, 5, 8, 13, 21, 30) for s in (1, 2) if n != 2 * s - 1]
    families += [["general-p", "--p", 3, "--n", n, "--x", x, "--y", y]
                 for n in (1, 2, 4, 9) for x in (1, 2) for y in (0, n)]
    families += [["general-p", "--p", 5, "--n", 1, "--x", x, "--y", 1] for x in (1, 2, 3, 4)]
    jobs += [job("family", ["family", "--kind", *f]) for f in families]
    jobs += iso_jobs(rng)
    return jobs


def iso_jobs(rng) -> list[dict]:
    jobs = []

    def pair(stratum, n, a, b, relation):
        jobs.append(job(stratum, ["iso", "--n", n, "--a", csv(a), "--b", csv(b)], relation=relation))

    while sum(j["stratum"] == "iso-type1" for j in jobs) < 30:
        n = rng.randrange(16, 251)
        a = random_set(rng, n, rng.randrange(3, 6))
        k = rng.choice(units(n))
        b = fold(n, (k * j for j in a))
        if b != a:
            pair("iso-type1", n, a, b, "type1")
    while sum(j["stratum"] == "iso-type2" for j in jobs) < 30:
        n, m = rng.choice(ROTATION_ORDERS[:12])
        a = random_set(rng, n, rng.randrange(3, 6), m)
        images = sorted({img for verdict, img, _ in full_sweep(n, m, a) if verdict == "Type2"})
        if images:
            b = rng.choice(images)
            if iso_expectation(n, a, b)[0] == "type2":
                pair("iso-type2", n, a, b, "type2")

    import networkx as nx

    for n, m in ((16, 2), (24, 2)):
        for k in range(3, 6):
            for a in itertools.combinations(range(1, n // 2 + 1), k):
                if not any(j % m == 0 for j in a):
                    continue
                orbit = multiples(n, a)
                images = {img for _, img, _ in full_sweep(n, m, a) if img is not None}
                for s in sorted(images - set(orbit)):
                    for b in sorted(multiples(n, s)):
                        if b not in orbit and b not in images and iso_expectation(n, a, b)[0] is None:
                            assert nx.is_isomorphic(nx.circulant_graph(n, a), nx.circulant_graph(n, b))
                            pair("iso-composite", n, a, b, "isomorphic-unclassified")
    for n in (20, 24):
        classes: dict[tuple, list] = {}
        for k in range(1, n // 2 + 1):
            for a in itertools.combinations(range(1, n // 2 + 1), k):
                if a != min(multiples(n, a)):
                    continue
                signature = tuple(sorted(gcd(n, j) for j in a))
                classes.setdefault((signature, spectrum(n, a)), []).append(a)
        for reps in classes.values():
            for a, b in itertools.combinations(reps, 2):
                if iso_expectation(n, a, b)[0] is None and not nx.is_isomorphic(
                    nx.circulant_graph(n, a), nx.circulant_graph(n, b)
                ):
                    pair("iso-cospectral", n, a, b, "not-isomorphic")
                    pair("iso-cospectral", n, b, a, "not-isomorphic")
    return jobs


def record(jobs: list[dict]) -> None:
    """Run every job once, require a correct answer, and store its digest."""
    from circulant import cli

    for entry in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(entry["argv"])
        if code != 0:
            raise SystemExit(f"{entry['argv']}: exit {code}")
        try:
            check.check_output(entry, out.getvalue())
        except check.Mismatch as exc:
            raise SystemExit(f"{entry['argv']}: {exc}")
        entry["digest"] = hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    rng = random.Random(POOL_SEED)
    pools = {"sweep": sweep_jobs(), "census": census_jobs(), "query": query_jobs(rng)}
    out = {}
    for name, jobs in pools.items():
        record(jobs)
        counts = PASSES[name] or dict(Counter(j["stratum"] for j in jobs))
        out[name] = {"pass": counts, "jobs": jobs}
        print(f"{name}: {len(jobs)} jobs recorded", file=sys.stderr)
    (HERE / "jobs.json").write_text(dump(out))


def dump(pools: dict) -> str:
    """JSON with one job per line, so a rebuild diffs job by job."""
    parts = []
    for name, pool in pools.items():
        jobs = ",\n".join(json.dumps(j) for j in pool["jobs"])
        parts.append(f'"{name}": {{"pass": {json.dumps(pool["pass"])}, "jobs": [\n{jobs}\n]}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
