"""Command line interface.

JSON envelopes on stdout are the contract: fixed key order, sorted sets,
byte-identical across runs for the same inputs.  One writer, _emit, builds
every envelope from the values the library returns, and _json writes it
in one pass, byte for byte what json.dumps(envelope, indent=2) writes,
a tuple as an array; census alone writes its own ndjson lines instead,
with json.dumps: one line per class, a dict of its CensusRecord's
fields in order with each graph as _graph_json writes it, then the
CensusSummary's fields (_asdict).  Table and csv formats are
projections of the same data.
Every envelope keeps its "findings" key, which is always empty: each
check either passes or fails with an exit code, and errors go to stderr
as "error: ...".

Each argv is parsed once (_parse): a subcommand's own parser reads the
arguments after its name, and the top-level parser reads every other
argv and refuses leftover arguments, so usage and error texts are those
of the two-level parse.  iso sweeps for a Type-2 step onto b alone, so
its sweep looks up multiplier witnesses for b and for no other image.

Exit codes: 0 success, 7 stdout closed before the output was written
(as by `| head`), which ends quietly, with nothing on stderr, and for a
library error the exit_code of its class in errors.py: 2 invalid input
(a ValueError too) or an --out path that cannot be written, 3 invalid
rotation parameters, 4 invalid family parameters, 5 verification
failure, 6 budget exceeded.  Each subcommand checks its parameters
before it answers: iso checks an explicit --m and its --cap before
comparing the graphs, family names a flag its kind (families.KINDS)
needs and lacks, or one it does not take, and census checks n and
(n, m) before its budget.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .core import CirculantGraph, make_circulant, symmetric_closure
from .errors import DEFAULT_BUDGET, CirculantError, InvalidFamilyParams
from .families import KINDS, FamilyInstance, FamilyVerification, family_verify
from .groups import OrbitGroup, census, t2_group, t2_set, v_group, v_set
from .oracle import (
    BRUTE_FORCE_CAP,
    brute_force_isomorphic,
    gcd_signature_check,
    same_spectrum,
    verify_theta_witness,
)
from .theta import ThetaParams, Verdict, admissible_m, classification_table, sweep_length
from .type1 import type1_group, type1_set, type1_witnesses

_DISPLAY = {
    Verdict.NON_CIRCULANT: "NS",
    Verdict.IDENTITY: "Yes (Identity)",
    Verdict.TYPE1: "T1",
    Verdict.TYPE2: "Yes (Type-2)",
    Verdict.UNCLASSIFIED: "Yes (unclassified)",
}


def _graph_json(g: CirculantGraph) -> dict:
    return {"n": g.n, "jumps": g.jumps}


def _jumps_json(g: CirculantGraph | None) -> tuple[int, ...] | None:
    """g's jumps, or None for a step with no circulant image."""
    return None if g is None else g.jumps


def _orbit_group_json(group: OrbitGroup) -> dict:
    return {
        "modulus": group.modulus,
        "generator": group.generator,
        "order": group.quotient_order,
        "labels": [{"t": t, "jumps": _jumps_json(group.labels[t])} for t in group.indices],
    }


def _parse_jumps(text: str) -> list[int]:
    try:
        return [int(v) for v in text.replace(" ", "").split(",") if v != ""]
    except ValueError as exc:
        raise CirculantError(f"cannot parse jump list {text!r}") from exc


def _parse_t_range(text: str, what: str) -> range | list[int]:
    """A "what" list given as "a..b", a lazy range with b included, or as "a,b,c"."""
    compact = text.replace(" ", "")
    try:
        if ".." in compact:
            lo, hi = compact.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return [int(v) for v in compact.split(",")]
    except ValueError as exc:
        raise CirculantError(f"cannot parse {what} list {text!r}") from exc


def _json(o, indent: str = "\n") -> str:
    """o as json.dumps(o, indent=2) writes it, byte for byte, in one pass.

    It takes what an envelope holds: dicts with str keys, lists and tuples
    (a tuple is written as an array, as json.dumps writes it), str, int,
    bool and None; any other type, a float or set included, raises
    TypeError.  indent is the newline and indentation that close o.
    """
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        # an all-int array, the common case, in one join; a bool is no int here
        if {*map(type, o)} == {int}:
            return "[" + inner + ("," + inner).join(map(int.__repr__, o)) + indent + "]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in o]) + indent + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        items = []
        for k, v in o.items():
            if type(k) is not str:
                raise TypeError(f"envelope keys must be str, not {type(k).__name__}")
            items.append(encode_basestring_ascii(k) + ": " + _json(v, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"an envelope cannot hold a {t.__name__}")


def _emit(args, inputs: dict, result: dict, rows) -> None:
    """The subcommand's envelope as json, or its rows as a table or csv."""
    if args.format == "json":
        envelope = {"command": args.command, "inputs": inputs, "result": result, "findings": []}
        text = _json(envelope)
    elif args.format == "csv":
        text = _render_csv(rows)
    else:
        text = _render_table(rows)
    _write(args, text)


def _write(args, text: str) -> None:
    """text and a newline to --out when given, else to stdout."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CirculantError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        print(text)


def _render_table(rows) -> str:
    if not rows:
        return "(empty)"
    headers = list(rows[0])
    cells = [[_cell(r[h]) for h in headers] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for c in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(c, widths)).rstrip())
    return "\n".join(lines)


def _render_csv(rows, fieldnames=None) -> str:
    """rows as csv; with fieldnames given, an empty table keeps its header."""
    if fieldnames is None:
        if not rows:
            return ""
        fieldnames = list(rows[0])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for r in rows:
        writer.writerow({k: _cell(v) for k, v in r.items()})
    return buf.getvalue().rstrip("\n")


def _cell(v) -> str:
    if isinstance(v, (list, tuple)):
        return " ".join(str(x) for x in v)
    if v is None:
        return "-"
    return str(v)


def cmd_reduce(args) -> None:
    values = _parse_jumps(args.set)
    reduced = _graph_json(make_circulant(args.n, values))
    _emit(args, {"n": args.n, "values": values}, reduced, [reduced])


def cmd_t1set(args) -> None:
    g = make_circulant(args.n, _parse_jumps(args.set))
    group = type1_group(g, budget=args.budget)
    ts = group.carrier
    members = [{"jumps": m.jumps, "multipliers": ts.witness[m]} for m in ts.members]
    result = {
        "base": _graph_json(g),
        "members": members,
        "group": {
            "order": group.order,
            "stabilizer": group.stabilizer,
            "representatives": group.representatives,
            "table": group.table,
        },
    }
    _emit(args, {"n": args.n, "set": g.jumps}, result, members)


def cmd_t2set(args) -> None:
    g = make_circulant(args.n, _parse_jumps(args.set))
    s = t2_set(g, args.m)
    members = [_graph_json(x) for x in s.members]
    result = {
        "base": _graph_json(g),
        "members": members,
        "t2_indices": s.t2_indices,
        "graph_period": s.graph_period,
        "group": _orbit_group_json(t2_group(s)),
    }
    _emit(args, {"n": args.n, "m": args.m, "set": g.jumps}, result, members)


def cmd_vset(args) -> None:
    g = make_circulant(args.n, _parse_jumps(args.set))
    v = v_set(g, args.m)
    group = v_group(v)
    rows = [
        {"t": row.t, "verdict": row.verdict.value, "jumps": _jumps_json(row.image)}
        for row in v.full_rows()
    ]
    result = {
        "base": _graph_json(g),
        "rows": rows,
        "distinct": [_graph_json(x) for x in v.distinct],
        "graph_period": v.graph_period,
        "group": {"modulus": group.modulus, "generator": group.generator, "order": group.order},
    }
    _emit(args, {"n": args.n, "m": args.m, "set": g.jumps}, result, rows)


def cmd_table(args) -> None:
    g = make_circulant(args.n, _parse_jumps(args.set))
    # an absent --t sweeps every step; an empty one is a list that does not parse
    steps = None if args.t is None else _parse_t_range(args.t, "step")
    table = classification_table(g, args.m, t_values=steps)
    # one row per requested step, in the order asked
    t_values = [entry.t for entry in table]
    closure = sorted(symmetric_closure(g))
    rows = []
    for entry in table:
        cls = entry.classification
        rows.append(
            {
                "t": entry.t,
                "values": entry.transformed,
                "verdict": cls.verdict.value,
                "display": _DISPLAY[cls.verdict],
                "image": _jumps_json(cls.image),
                "witnesses": cls.witnesses,
            }
        )
    flat = None if args.format == "json" else [
        {"t": r["t"], **{str(c): v for c, v in zip(closure, r["values"])}, "circulant?": r["display"]}
        for r in rows
    ]
    inputs = {"n": args.n, "m": args.m, "set": g.jumps, "t": t_values}
    _emit(args, inputs, {"columns": closure, "rows": rows}, flat)


def cmd_family(args) -> None:
    builder, flags = KINDS[args.kind]
    values = _family_values(args, flags)
    instance = builder(*(values[flag] for flag in flags))
    inputs = {"kind": args.kind, **{flag.replace("-", "_"): v for flag, v in values.items()}}
    result = _family_json(instance, family_verify(instance))
    rows = [{"member": i, "jumps": s.jumps} for i, s in enumerate(instance.sets)]
    _emit(args, inputs, result, rows)


def _family_values(args, flags) -> dict:
    """The values of the kind's flags, in echo order; a missing or stray flag raises."""
    given = {
        "n": args.family_n,
        "s": args.s,
        "p": args.p,
        "x": args.x,
        "y": args.y,
        "p-list": None if args.p_list is None else tuple(_parse_jumps(args.p_list)),
    }
    missing = [f"--{flag}" for flag in flags if given[flag] is None]
    if missing:
        raise InvalidFamilyParams(f"family kind {args.kind} needs {', '.join(missing)}")
    stray = [f"--{flag}" for flag, v in given.items() if v is not None and flag not in flags]
    if stray:
        raise InvalidFamilyParams(f"family kind {args.kind} does not take {', '.join(stray)}")
    return {flag: v for flag, v in given.items() if flag in flags}


def _family_json(instance: FamilyInstance, verification: FamilyVerification) -> dict:
    return {
        "order": instance.order,
        "m": instance.m,
        "sets": [s.jumps for s in instance.sets],
        "relations": [[r.t, r.source, r.target] for r in instance.relations],
        "claim": instance.claim.value,
        "verification": {
            "resolved": verification.resolved,
            "t2_members": [_graph_json(x) for x in verification.t2_members],
            "group_order": verification.group_order,
        },
    }


def cmd_iso(args) -> None:
    g = make_circulant(args.n, _parse_jumps(args.a))
    h = make_circulant(args.n, _parse_jumps(args.b))
    if args.m is not None:
        sweep_length(args.n, args.m, g)
    if args.cap < 0:
        raise CirculantError(f"brute-force cap {args.cap} is below 0")
    relation = _iso_relation(args, g, h)
    inputs = {"n": args.n, "a": g.jumps, "b": h.jumps}
    result = {"a": _graph_json(g), "b": _graph_json(h), **relation}
    _emit(args, inputs, result, [{"relation": relation["relation"]}])


def _iso_relation(args, g: CirculantGraph, h: CirculantGraph) -> dict:
    """The first relation that explains or refutes g ~ h, with its evidence."""
    if g == h:
        return {"relation": "equal"}
    wits = type1_witnesses(g, h)
    if wits:
        return {"relation": "type1", "multipliers": wits}
    # the sweep's rows are read only where the image is h, and h has no
    # multiplier witness (above), so no image is looked up; any other
    # image's Type1/Type2 split is not computed and not read
    def lookup(image: CirculantGraph) -> tuple[int, ...]:
        return ()

    for m in admissible_m(g) if args.m is None else (args.m,):
        steps = [
            row.t
            for row in v_set(g, m, lookup=lookup).rows
            if row.verdict == Verdict.TYPE2 and row.image == h
        ]
        if steps:
            # the sweep's verdict is re-checked as a certificate: a rotation
            # that does not map g onto h exits 5 instead of printing
            verify_theta_witness(ThetaParams(g.n, m, steps[0]), [(g, h)])
            return {"relation": "type2", "m": m, "t": steps}
    if not gcd_signature_check(g, h) or not same_spectrum(g, h):
        return {"relation": "not-isomorphic", "evidence": "invariant mismatch"}
    if args.n > args.cap:
        return {"relation": "inconclusive", "evidence": f"order above brute-force cap {args.cap}"}
    witness = brute_force_isomorphic(g, h, cap=args.cap)
    if witness is None:
        return {"relation": "not-isomorphic", "evidence": "exhaustive search refutation"}
    return {"relation": "isomorphic-unclassified", "mapping": witness.mapping}


def cmd_census(args) -> None:
    sizes = _parse_t_range(args.sizes, "size")
    result = census(args.n, args.m, sizes, budget=args.budget)
    summary = result.summary
    rows = [
        {
            "base": r.base.jumps,
            "members": len(r.members),
            "group_order": r.group_order,
            "t2_equals_v": r.t2_equals_v,
        }
        for r in result.records
    ]
    if args.format == "json":
        lines = [
            {
                "type": "class",
                "base": _graph_json(r.base),
                "members": [_graph_json(x) for x in r.members],
                "group_order": r.group_order,
                "t2_equals_v": r.t2_equals_v,
            }
            for r in result.records
        ]
        lines.append({"type": "summary", **summary._asdict()})
        text = "\n".join(map(json.dumps, lines))
    elif args.format == "csv":
        # one record per class; the summary counts are in json and table
        text = _render_csv(rows, ["base", "members", "group_order", "t2_equals_v"])
    else:
        rows = rows or [{"base": "(none)", "members": 0, "group_order": "-", "t2_equals_v": "-"}]
        text = _render_table(rows) + f"\nexamined={summary.examined} classes={summary.classes} t2_equals_v={summary.t2_equals_v}"
    _write(args, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulant",
        description="Circulant graph isomorphism toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")
        p.add_argument("--out", help="write output to a file instead of stdout")

    def budget(p, what):
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help=f"maximum number of {what} (default: %(default)s)",
        )

    p = sub.add_parser("reduce", help="fold jump values to canonical form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated jump values")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("t1set", help="multiplier images and their group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True)
    budget(p, "steps: unit products, stabilizer pairs and table cells")
    common(p)
    p.set_defaults(func=cmd_t1set)

    p = sub.add_parser("t2set", help="rotation partners and their group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--set", required=True)
    common(p)
    p.set_defaults(func=cmd_t2set)

    p = sub.add_parser("vset", help="full rotation sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--set", required=True)
    common(p)
    p.set_defaults(func=cmd_vset)

    p = sub.add_parser("table", help="per-step transformed jumps and verdicts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--t", help="steps to show, e.g. 0..6 or 0,2,4 (default all)")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("family", help="generate and verify a parametric family")
    p.add_argument("--kind", required=True, choices=tuple(KINDS))
    p.add_argument("--n", dest="family_n", type=int, required=True, help="family parameter n")
    p.add_argument("--s", type=int, help="odd-jump parameter for m2 kinds")
    p.add_argument("--p", type=int, help="odd prime for general-p")
    p.add_argument("--x", type=int, help="multiplier parameter for general-p")
    p.add_argument("--y", type=int, help="offset parameter (m2-general, general-p)")
    p.add_argument("--p-list", help="comma-separated extra jump multipliers")
    common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("iso", help="classify the relation between two graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--m", type=int, help="restrict the rotation divisor")
    p.add_argument("--cap", type=int, default=BRUTE_FORCE_CAP, help="brute-force order cap")
    common(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("census", help="sweep all jump sets of given sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sizes", required=True, help="e.g. 3 or 3,4 or 3..4")
    budget(p, "candidate sets")
    common(p)
    p.set_defaults(func=cmd_census)

    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The process's one parser and its subcommand parsers by name;
    parsing keeps no state between calls."""
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    return parser, commands


def _parse(argv) -> argparse.Namespace:
    """argv parsed once: by its subcommand's own parser when argv[0] names
    one, else (no argv, -h, an unknown subcommand) by the top-level parser.

    The top-level parser would hand argv[1:] to that same subcommand parser
    through parse_known_args, then refuse any leftover arguments with its
    own usage; leftovers are refused here through it, so every usage and
    error text is the one the two-level parse prints.
    """
    parser, commands = _parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        args.func(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the interpreter's final flush of stdout cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 7
    except (CirculantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
