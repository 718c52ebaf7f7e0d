"""Benchmark of the circulant package through its command line entry point.

    python3 perfbench/run.py --workload sweep|census|query --seed N \
        --seconds S --trace 0|1

Jobs are argv lists from perfbench/jobs.json, drawn and ordered by the seed
and passed to `circulant.cli.main` in this process, one at a time (a closed
loop with one client).  A run repeats the pass of jobs until S seconds of
job time have been measured, and checks every output outside the timed
region: against the digest recorded for the job, and against answers
re-derived by perfbench/check.py.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, with cold start measured in
fresh interpreters.  --trace 1 runs the pass untraced and then twice traced
(perfbench/spans.py) and reports per-layer call counts, self times and
ratios; the two traced passes must give identical call counts.  See
perfbench/README.md for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "census", "query")
SETUP_RUNS = 9
SETUP_CODE = """\
import time
start = time.perf_counter()
import circulant, circulant.cli
circulant.cli.build_parser()
setup = time.perf_counter() - start
import check
start = time.perf_counter()
for _ in range(5):
    check.reference_chunk()
print(setup, (time.perf_counter() - start) / 5)
"""
# self times reported as metrics: the spans every workload enters, so no
# reported time is a constant zero; the rest are printed for reading only
SELF_SPANS = (
    "core.edge_set", "core.reflexive_reduce", "core.symmetric_closure",
    "theta.classify_t", "theta.theta_image",
    "type1.phi_apply", "type1.type1_witnesses", "type1.units",
    "groups.v_set", "groups.t2_set", "groups.t2_group",
    "cli.main", "cli.build_parser",
)
WORK_UNIT = {
    "sweep": "rotation steps classified",
    "census": "candidate sets examined",
    "query": "queries answered",
}


class Reference:
    """Machine speed, sampled by fixed work interleaved with the jobs.

    This shared 2-core box slows down by up to 2x for seconds to minutes,
    mostly in allocation-heavy Python code.  A tight arithmetic loop does
    not track that, nor does a process on the other core.  So the
    benchmark's own reference work (check.reference_chunk, never the code
    under test) runs in this thread for about a tenth of the job time,
    between jobs.  Times are reported in reference seconds: wall seconds
    times NOMINAL_S / (mean reference chunk time), which are about wall
    seconds on this box when it is calm.
    """

    NOMINAL_S = 0.005
    SHARE = 0.1  # reference time per second of job time

    def __init__(self, check_module):
        self.check = check_module
        self.chunks: list[float] = []
        self._owed = 0.0

    def chunk(self) -> None:
        start = perf_counter()
        self.check.reference_chunk()
        self.chunks.append(perf_counter() - start)

    def after(self, job_s: float) -> None:
        self._owed += job_s * self.SHARE
        while self._owed >= self.NOMINAL_S:
            self.chunk()
            self._owed -= self.NOMINAL_S

    def scale(self) -> float:
        """Factor from wall seconds to reference seconds over the run."""
        return self.NOMINAL_S / statistics.fmean(self.chunks)


def draw_pass(jobs: list[dict], counts: dict[str, int], rng: random.Random) -> list[dict]:
    """One pass: `counts[stratum]` distinct jobs of each stratum, shuffled."""
    by_stratum: dict[str, list[dict]] = {}
    for job in jobs:
        by_stratum.setdefault(job["stratum"], []).append(job)
    drawn = [job for stratum, k in counts.items() for job in rng.sample(by_stratum[stratum], k)]
    rng.shuffle(drawn)
    return drawn


def execute(cli, argv: list[str]) -> tuple[object, str, float]:
    """Run one CLI call in process: (exit code or error, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a raised job is counted as failed
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), perf_counter() - start


class Checker:
    """Checks outputs, re-deriving each distinct answer once per run."""

    def __init__(self, check_module):
        self.check = check_module
        self.verdicts: dict[tuple, str | None] = {}
        self.problems: list[str] = []

    def __call__(self, job: dict, code, stdout: str) -> bool:
        if code != 0:
            problem = f"exit {code}"
        else:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            key = (tuple(job["argv"]), digest)
            if key not in self.verdicts:
                self.verdicts[key] = self._semantic(job, stdout)
            problem = self.verdicts[key]
            if problem is None and digest != job["digest"]:
                problem = "stdout is not byte-identical to the recorded output"
        if problem is not None:
            self.problems.append(f"{' '.join(job['argv'])}: {problem}")
        return problem is None

    def _semantic(self, job: dict, stdout: str) -> str | None:
        try:
            self.check.check_output(job, stdout)
        except self.check.Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"
        return None


def measure_setup() -> list[tuple[float, float]]:
    """(cold start, reference chunk) seconds from fresh interpreters.

    Cold start is `import circulant` plus the CLI parser; the same child
    then times the reference work, so each start can be scaled by the speed
    of the core it ran on.  A first, uncounted start writes bytecode caches.
    """
    env = dict(os.environ)
    env.pop("CIRCULANT_CENSUS_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        setup, chunk = map(float, done.stdout.split())
        samples.append((setup, chunk))
    return samples[1:]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_timed(cli, checker, reference, plan, seconds):
    """Repeat the plan until `seconds` of job time are measured.

    Returns each job's wall times, one per pass, and the counts.
    """
    times: list[list[float]] = [[] for _ in plan]
    attempted = failed = passes = 0
    measured = 0.0
    reference.chunk()
    while measured < seconds:
        results = []
        for job in plan:
            results.append(execute(cli, job["argv"]))
            reference.after(results[-1][2])
        passes += 1
        for i, (job, (code, stdout, elapsed)) in enumerate(zip(plan, results)):
            times[i].append(elapsed)
            measured += elapsed
            attempted += 1
            failed += not checker(job, code, stdout)
    return times, passes, attempted, failed


def run_traced(cli, checker, plan, spans):
    """The pass untraced, then twice traced: (walls, tracers, attempted, failed)."""
    walls, tracers = [], []
    attempted = failed = 0
    for traced in (False, True, True):
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            start = perf_counter()
            results = [execute(cli, job["argv"]) for job in plan]
            walls.append(perf_counter() - start)
        finally:
            if tracer:
                tracer.remove()
                tracers.append(tracer)
        for job, (code, stdout, _) in zip(plan, results):
            attempted += 1
            failed += not checker(job, code, stdout)
    return walls, tracers, attempted, failed


def traced_metrics(plan, walls, tracers, spans, report):
    first, second = tracers
    problems = first.problems + second.problems
    if first.calls != second.calls:
        problems.append("traced call counts differ between two passes of the same jobs")
    metrics = {f"{span}.calls": (first.calls[span], "count") for span in spans.SPANS}
    metrics.update({f"{span}.self_s": (first.self_s[span], "s") for span in SELF_SPANS})
    metrics.update({name: (value, "ratio") for name, value in first.ratios().items()})
    metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
    total = sum(first.self_s.values())
    report.append(
        f"{len(plan)} jobs; wall untraced {walls[0]:.3f} s, traced {walls[1]:.3f} s and {walls[2]:.3f} s"
    )
    for layer, fns in spans.LAYERS.items():
        layer_s = sum(first.self_s[f"{layer}.{fn}"] for fn in fns)
        report.append(f"  layer {layer:<9} {layer_s:9.4f} s self {100 * layer_s / total:5.1f}%")
        for fn in fns:
            span = f"{layer}.{fn}"
            report.append(f"    {span:<32} {first.calls[span]:>9} calls {first.self_s[span]:9.4f} s self")
    return metrics, problems


def timed_metrics(args, cli, checker, check, plan, report):
    setup = measure_setup()
    reference = Reference(check)
    times, passes, attempted, failed = run_timed(cli, checker, reference, plan, args.seconds)
    scale = reference.scale()
    latency = [statistics.fmean(t) * scale for t in times]
    work = sum(job["work"] for job in plan)
    metrics = {
        "setup_s": (statistics.median(s * Reference.NOMINAL_S / c for s, c in setup), "s"),
        "work_per_s": (work / sum(latency), "unit/s"),
        "latency_p50_s": (statistics.median(latency), "s"),
        "latency_p90_s": (percentile(latency, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = [statistics.fmean(t) for t in times]
    report += [
        f"{passes} passes of {len(plan)} jobs; work_per_s counts {WORK_UNIT[args.workload]}; "
        f"latencies are per-job means over the passes",
        f"reference chunk mean {statistics.fmean(reference.chunks) * 1e3:.3f} ms over {len(reference.chunks)}, "
        f"nominal {Reference.NOMINAL_S * 1e3:.3f} ms; in wall seconds: work_per_s {work / sum(wall):.6g}, "
        f"latency_p50_s {statistics.median(wall):.6g}, setup_s {statistics.median(s for s, _ in setup):.6g}",
        f"setup_s is the median of {len(setup)} fresh interpreters",
        f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)",
    ]
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circulant" / "cli.py").is_file():
        print(f"error: no circulant sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CIRCULANT_CENSUS_BUDGET", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    from circulant import cli
    import check
    import spans

    spec = json.loads((HERE / "jobs.json").read_text())[args.workload]
    plan = draw_pass(spec["jobs"], spec["pass"], random.Random(f"{args.workload}:{args.seed}"))
    checker = Checker(check)
    report = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    if args.trace:
        walls, tracers, attempted, failed = run_traced(cli, checker, plan, spans)
        metrics, problems = traced_metrics(plan, walls, tracers, spans, report)
    else:
        metrics, attempted, failed = timed_metrics(args, cli, checker, check, plan, report)
        problems = []
    problems += checker.problems

    for name, (value, unit) in metrics.items():
        report.append(f"{name} {value:.6g} {unit}")
    report += [f"problem: {p}" for p in problems[:20]]
    print("\n".join(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
