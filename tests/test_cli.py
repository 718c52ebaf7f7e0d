"""Command line interface: envelopes, renderings, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from circulant import cli, errors
from circulant.families import KINDS
from golden import SWEEP_54_COLUMNS, SWEEP_54_ROWS


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    sequence = (
        ["t1set", "--n", "16"],  # --set missing: argparse exits with 2
        ["t1set", "--n", "16", "--set", "1,2,7", "--format", "table"],
        ["t1set", "--n", "16", "--set", "1,2,7"],
    )

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert json.loads(fresh[2][1])["command"] == "t1set"

    builds = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or original())
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in sequence] == fresh
    assert len(builds) == 1


def test_reduce_envelope(capsys):
    d = run_json(capsys, ["reduce", "--n", "54", "--set", "2,3,16,20,34,38,51,52"])
    assert d["command"] == "reduce"
    assert d["inputs"] == {"n": 54, "values": [2, 3, 16, 20, 34, 38, 51, 52]}
    assert d["result"] == {"n": 54, "jumps": [2, 3, 16, 20]}
    assert d["findings"] == []


def test_output_is_deterministic(capsys):
    argv = ["t2set", "--n", "16", "--m", "2", "--set", "1,2,7"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_t1set_lists_orbit_and_group(capsys):
    d = run_json(capsys, ["t1set", "--n", "54", "--set", "1,17,18,19"])
    members = d["result"]["members"]
    assert [m["jumps"] for m in members] == [
        [1, 17, 18, 19],
        [5, 13, 18, 23],
        [7, 11, 18, 25],
    ]
    assert members[0]["multipliers"] == [1, 17, 19, 35, 37, 53]
    group = d["result"]["group"]
    assert group["order"] == 3
    assert group["representatives"] == [1, 5, 7]


def test_t2set_reports_members_indices_and_group(capsys):
    d = run_json(capsys, ["t2set", "--n", "16", "--m", "2", "--set", "1,2,7"])
    r = d["result"]
    assert [m["jumps"] for m in r["members"]] == [[1, 2, 7], [2, 3, 5]]
    assert r["t2_indices"] == [0, 2, 4, 6]
    assert r["graph_period"] == 4
    assert r["group"]["modulus"] == 8
    assert r["group"]["generator"] == 2
    assert r["group"]["order"] == 2
    assert [lab["jumps"] for lab in r["group"]["labels"]] == [
        [1, 2, 7],
        [2, 3, 5],
        [1, 2, 7],
        [2, 3, 5],
    ]


def test_vset_sweep_has_no_non_circulant_rows_at_27(capsys):
    d = run_json(capsys, ["vset", "--n", "27", "--m", "3", "--set", "1,3,8,10"])
    r = d["result"]
    assert len(r["rows"]) == 9
    assert {row["verdict"] for row in r["rows"]} == {"Identity", "Type2"}
    assert r["graph_period"] == 3
    assert [g["jumps"] for g in r["distinct"]] == [
        [1, 3, 8, 10],
        [3, 4, 5, 13],
        [2, 3, 7, 11],
    ]


def test_table_json_matches_the_reference_sweep(capsys):
    d = run_json(capsys, ["table", "--n", "54", "--m", "3", "--set", "2,3,16,20"])
    r = d["result"]
    assert tuple(r["columns"]) == SWEEP_54_COLUMNS
    by_t = {row["t"]: row for row in r["rows"]}
    assert len(by_t) == 18
    for t, values, display in SWEEP_54_ROWS:
        assert tuple(by_t[t]["values"]) == values, t
        assert by_t[t]["display"] == display, t
    assert by_t[2]["image"] == [3, 4, 14, 22]
    assert by_t[4]["image"] == [3, 8, 10, 26]


def test_table_rendering_shows_display_strings(capsys):
    code, out, err = run(
        capsys,
        ["table", "--n", "54", "--m", "3", "--set", "2,3,16,20", "--format", "table"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["t"] + [str(c) for c in SWEEP_54_COLUMNS] + [
        "circulant?"
    ]
    assert "Yes (Type-2)" in out
    assert "Yes (Identity)" in out
    assert "NS" in out


def test_table_csv_has_a_header_and_one_line_per_step(capsys):
    code, out, err = run(
        capsys,
        ["table", "--n", "54", "--m", "3", "--set", "2,3,16,20", "--t", "0..3", "--format", "csv"],
    )
    assert code == 0 and err == ""
    lines = list(csv.reader(out.splitlines()))
    assert lines[0] == ["t"] + [str(c) for c in SWEEP_54_COLUMNS] + ["circulant?"]
    expected = {t: (values, display) for t, values, display in SWEEP_54_ROWS}
    assert [int(line[0]) for line in lines[1:]] == [0, 1, 2, 3]
    for line in lines[1:]:
        values, display = expected[int(line[0])]
        assert line[1:] == [str(v) for v in values] + [display], line[0]


def test_table_honours_step_selection(capsys):
    d = run_json(
        capsys,
        ["table", "--n", "54", "--m", "3", "--set", "2,3,16,20", "--t", "0..3"],
    )
    assert [row["t"] for row in d["result"]["rows"]] == [0, 1, 2, 3]
    d = run_json(
        capsys,
        ["table", "--n", "54", "--m", "3", "--set", "2,3,16,20", "--t", "5..3"],
    )
    assert d["inputs"]["t"] == [] and d["result"]["rows"] == []


def test_a_long_step_range_stops_at_its_first_bad_step(capsys):
    # a..b is walked lazily, so the step past n/m - 1 ends the command
    # before the rest of the range is ever built
    argv = ["table", "--n", "16", "--m", "2", "--set", "1,2,7", "--t", "0..2000000"]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (3, "", "error: step t=8 outside [0, 7]\n")
    assert peak < 5_000_000


def test_family_envelope_includes_verification(capsys):
    d = run_json(capsys, ["family", "--kind", "m3", "--n", "1"])
    r = d["result"]
    assert r["order"] == 27
    assert r["sets"] == [[1, 3, 8, 10], [3, 4, 5, 13], [2, 3, 7, 11]]
    assert r["claim"] == "type2"
    assert r["verification"]["resolved"] == "type2"
    assert r["verification"]["group_order"] == 3


def test_iso_relations(capsys):
    def relation(a, b, *extra):
        d = run_json(capsys, ["iso", "--n", "16", "--a", a, "--b", b, *extra])
        return d["result"]

    assert relation("1,2,7", "1,2,7")["relation"] == "equal"
    assert relation("1,2,7", "3,5,6")["relation"] == "type1"
    r = relation("1,2,7", "2,3,5")
    assert r["relation"] == "type2"
    assert r["m"] == 2 and r["t"] == [2, 6]
    assert relation("1,2,7", "1,3,5")["relation"] == "not-isomorphic"
    # isomorphic, no multiplier, not a single rotation: composite case
    r = relation("1,2,7", "1,6,7")
    assert r["relation"] == "isomorphic-unclassified"
    assert sorted(r["mapping"]) == list(range(16))


def test_iso_above_cap_is_inconclusive(capsys):
    # scaled copies of the composite pair: invariants agree, no multiplier,
    # no single rotation, and the order is above the brute-force cap
    d = run_json(capsys, ["iso", "--n", "32", "--a", "2,4,14", "--b", "2,12,14"])
    assert d["result"]["relation"] == "inconclusive"


def test_iso_brute_force_searches_deeper_than_the_recursion_limit():
    # the composite pair scaled by 75: the search places 1,199 vertices,
    # more than the interpreter's default recursion limit of 1,000
    argv = ["iso", "--n", "1200", "--a", "75,150,525", "--b", "75,450,525", "--cap", "2000"]
    proc = subprocess.run(
        [sys.executable, "-m", "circulant.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)["result"]
    assert result["relation"] == "isomorphic-unclassified"
    assert sorted(result["mapping"]) == list(range(1200))


def test_iso_spectra_split_by_rounding_do_not_refute(capsys):
    # b = 25 * theta_{168,2,21}(a): isomorphic, but one eigenvalue rounds to
    # 6.000315263 for a and 6.000315262 for b at nine digits
    argv = ["iso", "--n", "168", "--a", "14,39,42,45,48,52", "--b", "9,14,24,42,44,75"]
    d = run_json(capsys, argv)
    assert d["result"]["relation"] == "inconclusive"


def test_census_emits_ndjson(capsys):
    code, out, err = run(capsys, ["census", "--n", "16", "--m", "2", "--sizes", "3"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    classes = [d for d in lines if d["type"] == "class"]
    summary = [d for d in lines if d["type"] == "summary"]
    assert len(classes) == 2 and len(summary) == 1
    assert classes[0]["base"]["jumps"] == [1, 2, 7]
    assert [m["jumps"] for m in classes[0]["members"]] == [[1, 2, 7], [2, 3, 5]]
    assert classes[1]["base"]["jumps"] == [1, 6, 7]
    assert summary[0] == {
        "type": "summary",
        "n": 16,
        "m": 2,
        "sizes": [3],
        "examined": 52,
        "classes": 2,
        "t2_equals_v": 4,
    }


def test_census_with_no_classes_is_summary_only(capsys):
    code, out, _ = run(capsys, ["census", "--n", "8", "--m", "2", "--sizes", "3"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(lines) == 1
    assert lines[0]["type"] == "summary"
    assert lines[0]["examined"] == 4


def test_census_csv_has_one_record_per_class(capsys):
    code, out, err = run(
        capsys, ["census", "--n", "16", "--m", "2", "--sizes", "3", "--format", "csv"]
    )
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()))
    assert rows == [
        {"base": "1 2 7", "members": "2", "group_order": "2", "t2_equals_v": "False"},
        {"base": "1 6 7", "members": "2", "group_order": "2", "t2_equals_v": "False"},
    ]
    code, out, _ = run(
        capsys, ["census", "--n", "8", "--m", "2", "--sizes", "3", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == ["base,members,group_order,t2_equals_v"]


def test_exit_code_for_invalid_jumps(capsys):
    code, _, err = run(capsys, ["reduce", "--n", "8", "--set", "0"])
    assert code == 2
    assert "loop" in err


def test_exit_code_for_inadmissible_parameters(capsys):
    code, _, err = run(capsys, ["t2set", "--n", "12", "--m", "2", "--set", "1,2,7"])
    assert code == 3
    assert "NoDivisorCubed" in err
    # an explicit --m is checked, 0 included, before any answer: a rotation
    # pair, an equal pair and a multiplier pair alike
    for b, m, reason in (
        ("2,3,5", "4", "NoDivisorCubed"),
        ("2,3,5", "0", "MTooSmall"),
        ("1,2,7", "0", "MTooSmall"),
        ("3,5,6", "4", "NoDivisorCubed"),
    ):
        code, out, err = run(
            capsys, ["iso", "--n", "16", "--a", "1,2,7", "--b", b, "--m", m]
        )
        assert (code, out) == (3, ""), (b, m)
        assert reason in err, (b, m)
    code, out, err = run(capsys, ["census", "--n", "16", "--m", "3", "--sizes", "3"])
    assert (code, out) == (3, "")
    assert "NoDivisorCubed" in err
    # table checks (n, m) before its first step, even when there is none
    for argv, reason in (
        (["--m", "0"], "MTooSmall"),
        (["--m", "-2"], "MTooSmall"),
        (["--m", "3", "--t", "5..3"], "NoDivisorCubed"),
    ):
        code, out, err = run(capsys, ["table", "--n", "16", "--set", "1,2"] + argv)
        assert (code, out) == (3, ""), argv
        assert reason in err, argv


def test_exit_code_for_degenerate_families(capsys):
    code, _, err = run(capsys, ["family", "--kind", "m2", "--n", "3", "--s", "2"])
    assert code == 4
    assert "makes both sets equal" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--kind", "m2", "--n", "3"], "--s"),
        (["--kind", "m2-general", "--n", "3", "--s", "1", "--p-list", "3"], "--y"),
        (["--kind", "general-p", "--n", "1", "--p", "7", "--x", "3"], "--y"),
    ],
)
def test_exit_code_for_a_missing_family_flag(capsys, argv, flag):
    code, out, err = run(capsys, ["family"] + argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.rstrip().endswith(flag), err


def test_exit_code_for_a_stray_family_flag(capsys):
    code, out, err = run(capsys, ["family", "--kind", "m3", "--n", "1", "--s", "4", "--p", "5"])
    assert (code, out) == (4, "")
    assert err == "error: family kind m3 does not take --s, --p\n"


@pytest.mark.parametrize(
    "argv, echoed",
    [
        (["--kind", "m3", "--n", "1"], [("n", 1)]),
        (["--kind", "m2", "--n", "2", "--s", "1"], [("n", 2), ("s", 1)]),
        (
            ["--kind", "general-p", "--p", "7", "--n", "1", "--x", "3", "--y", "2"],
            [("n", 1), ("p", 7), ("x", 3), ("y", 2)],
        ),
    ],
)
def test_family_inputs_echo_the_flags_of_the_kind(capsys, argv, echoed):
    d = run_json(capsys, ["family"] + argv)
    kind = argv[1]
    assert list(d["inputs"].items()) == [("kind", kind)] + echoed
    flags = KINDS[kind][1]
    assert sorted(d["inputs"]) == sorted(["kind", *(f.replace("-", "_") for f in flags)])


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.CirculantError, 2),
        (errors.InvalidJump, 2),
        (errors.SubgroupViolation, 2),
        (ValueError, 2),
        (errors.InvalidThetaParams, 3),
        (errors.DegenerateFamily, 4),
        (errors.VerificationFailure, 5),
        (errors.BudgetExceeded, 6),
    ],
)
def test_one_exit_code_per_error_class(capsys, monkeypatch, error, code):
    def fail(n, values):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "make_circulant", fail)
    assert run(capsys, ["reduce", "--n", "16", "--set", "1"]) == (
        code,
        "",
        "error: raised on purpose\n",
    )


@pytest.mark.parametrize("n", ["0", "-8"])
def test_exit_code_for_a_census_order_below_three(capsys, n):
    code, out, err = run(capsys, ["census", "--n", n, "--m", "2", "--sizes", "3"])
    assert (code, out) == (2, "")
    assert "graph order must be at least 3" in err


@pytest.mark.parametrize("sizes, low", [("-1", -1), ("3,-1", -1), ("0", 0)])
def test_exit_code_for_a_census_size_below_one(capsys, sizes, low):
    code, out, err = run(capsys, ["census", "--n", "16", "--m", "2", "--sizes", sizes])
    assert (code, out, err) == (2, "", f"error: census size {low} is below 1\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--n", "16", "--m", "2", "--set", "1,2", "--t", "x"], "step list 'x'"),
        (["table", "--n", "16", "--m", "2", "--set", "1,2", "--t", "1..x"], "step list '1..x'"),
        (["census", "--n", "16", "--m", "2", "--sizes", "x"], "size list 'x'"),
    ],
)
def test_exit_code_for_an_unparsable_range(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: cannot parse {message}\n")


def test_exit_code_for_budget_flag(capsys):
    code, _, err = run(
        capsys, ["census", "--n", "16", "--m", "2", "--sizes", "3", "--budget", "5"]
    )
    assert code == 6
    assert "budget" in err


def test_out_flag_writes_the_envelope_to_a_file(capsys, tmp_path):
    path = tmp_path / "reduced.json"
    code, out, _ = run(capsys, ["reduce", "--n", "16", "--set", "9", "--out", str(path)])
    assert code == 0
    assert out == ""
    d = json.loads(path.read_text())
    assert d["result"] == {"n": 16, "jumps": [7]}
    census_argv = ["census", "--n", "16", "--m", "2", "--sizes", "3", "--format", "table"]
    _, printed, _ = run(capsys, census_argv)
    code, out, _ = run(capsys, census_argv + ["--out", str(path)])
    assert (code, out) == (0, "")
    assert path.read_text() == printed


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--n", "16", "--set", "1,2"],
        ["census", "--n", "16", "--m", "2", "--sizes", "3"],
    ],
)
def test_an_unwritable_out_path_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.parent.exists()


JOBS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.json"
# sha256 over the table and csv renderings of every benchmark job, in job
# order, each rendering fed in as "<exit code>\0<stdout>\0<stderr>\0"
RENDERINGS_SHA256 = "08a37326ebeac76c172bcc4f0bc17d698275e0c0ee26785c5c973e3c87bc871a"


def benchmark_jobs() -> list:
    jobs = [job for workload in json.loads(JOBS_FILE.read_text()).values() for job in workload["jobs"]]
    assert len(jobs) == 438
    return jobs


def run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest_mismatches() -> list:
    """The argv of every benchmark job whose stdout, exit code or stderr
    differs from what perfbench/jobs.json recorded for it."""
    mismatched = []
    for job in benchmark_jobs():
        code, out, err = run_captured(job["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, err, digest) != (0, "", job["digest"]):
            mismatched.append(job["argv"])
    return mismatched


def test_every_benchmark_job_reproduces_its_recorded_digest():
    # the benchmark's sweep, census and query jobs cover every subcommand;
    # each must print byte for byte what perfbench/jobs.json recorded
    assert digest_mismatches() == []


def test_every_benchmark_job_reproduces_its_recorded_digest_under_python_O():
    script = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        "import test_cli; print(sys.flags.optimize, test_cli.digest_mismatches())"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 []"


def test_every_benchmark_job_renders_its_pinned_table_and_csv():
    # the recorded digests cover json alone; this pins the other two formats
    digest = hashlib.sha256()
    for job in benchmark_jobs():
        for fmt in ("table", "csv"):
            code, out, err = run_captured(job["argv"] + ["--format", fmt])
            digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == RENDERINGS_SHA256


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize(
    "argv, table_header, csv_header",
    [
        (["reduce", "--n", "16", "--set", "1,2"], "n   jumps", "n,jumps"),
        (["t1set", "--n", "16", "--set", "1,2,7"], "jumps  multipliers", "jumps,multipliers"),
        (["t2set", "--n", "16", "--m", "2", "--set", "1,2,7"], "n   jumps", "n,jumps"),
        (["vset", "--n", "16", "--m", "2", "--set", "1,2,7"], "t  verdict   jumps", "t,verdict,jumps"),
        (
            ["table", "--n", "16", "--m", "2", "--set", "1,2,7", "--t", "0..3"],
            "t  1  2  7   9   14  15  circulant?",
            "t,1,2,7,9,14,15,circulant?",
        ),
        (["family", "--kind", "m3", "--n", "1"], "member  jumps", "member,jumps"),
        (["iso", "--n", "16", "--a", "1,2,7", "--b", "2,3,5"], "relation", "relation"),
    ],
)
def test_every_envelope_subcommand_renders_its_rows(capsys, argv, table_header, csv_header, fmt):
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (table_header if fmt == "table" else csv_header)


def test_an_empty_table_renders_as_empty(capsys):
    argv = ["table", "--n", "54", "--m", "3", "--set", "2,3,16,20", "--t", "5..3", "--format"]
    assert run(capsys, argv + ["table"]) == (0, "(empty)\n", "")
    assert run(capsys, argv + ["csv"]) == (0, "\n", "")


def test_module_entry_point_runs_as_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "circulant.cli", "reduce", "--n", "16", "--set", "9"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["jumps"] == [7]


def test_a_closed_stdout_ends_quietly():
    # about 336 kB of table, far more than a pipe holds, so the writer is
    # still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "circulant.cli", "table", "--n", "8000", "--m", "2",
         "--set", "1,2,3,4,5,6", "--format", "table"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(200)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert len(head) == 200
    assert proc.returncode == 7
    assert err == b""
