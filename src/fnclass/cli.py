"""Command-line surface.

Subcommands:

    analyze    essential variables, profiles, distributive sets of one function
    diagram    reduced decision diagram as DOT, with depth and path count
    classify   partition a whole function space under a relation or group
    tables     recompute a reference table and diff it against expectations
    verify     run the structural property checks
    parse      parse an expression, print its table and canonical form

Every command recomputes its result in one process and writes no file
except --out; --jobs, --cache-dir and --resume are still accepted and
ignored.  Whole-space scans classify one function per g-orbit.

Exit codes: 0 success, 1 verification/diff failure, 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

from . import diagrams as dg
from . import separability as sp
from . import spform
from .classify import ClassificationReport, classify_space, compute_profile
from .diagrams import DiagramBudgetError
from .groups import GROUP_NAMES, OrbitBudgetError
from .kfun import KFunction
from .tables import TABLE_NAMES, reproduce_table
from .verify import MUTANTS, run_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load_function(args) -> KFunction:
    sources = [s for s in (args.expr, args.table) if s is not None]
    if len(sources) != 1:
        raise SystemExit2("exactly one of --expr/--table is required")
    if args.expr is not None:
        return spform.parse(args.expr, args.k, arity=args.n)
    if args.k == 2:
        if args.n is None:
            # infer the arity from the hex width: 2^n bits = 4 * digits
            bits = 4 * len(args.table.strip())
            n = bits.bit_length() - 1
            if 1 << n != bits:
                raise SystemExit2(
                    f"cannot infer arity from {len(args.table)} hex digits; pass --n")
        else:
            n = args.n
        return KFunction.from_hex(args.table, n)
    if args.n is None:
        raise SystemExit2("--n is required with --table for k > 2")
    return KFunction.from_digits(args.table, args.k, args.n)


class SystemExit2(Exception):
    """Usage error surfaced with exit code 2."""


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_json(args, payload, sort_keys: bool = False) -> None:
    """`_emit` of `json.dumps(payload, indent=1, sort_keys=sort_keys)`,
    streamed: `json.dump` writes the text piece by piece instead of
    building it whole."""
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        json.dump(payload, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _parse_set(text: str) -> frozenset[int]:
    try:
        return frozenset(int(t) for t in text.replace(" ", "").split(",") if t)
    except ValueError:
        raise SystemExit2(f"cannot parse variable set {text!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    f = _load_function(args)
    profile = compute_profile(f)
    report = {
        "k": f.k, "n": f.n, "table": f.table_text(),
        "expression": spform.to_sp(f),
        "essential": sorted(f.essential_set()),
        "strongly_essential": sorted(f.strongly_essential_set()),
        "range": sorted(f.range_of()),
        "imp": profile.imp,
        "sub_vector": list(profile.sub), "sub": profile.sub_total,
        "sep_vector": list(profile.sep), "sep": profile.sep_total,
        "separable_sets": sorted(sorted(m) for m in sp.separable_sets(f)),
    }
    if args.set:
        m = _parse_set(args.set)
        dis = sp.distributive_sets(m, f)
        report["set"] = sorted(m)
        report["separable"] = not dis
        report["distributive_sets"] = sorted(sorted(j) for j in dis)
        report["s_systems"] = sorted(sorted(b) for b in sp.s_systems(dis))
    if args.format == "json":
        _emit_json(args, report, sort_keys=True)
    else:
        lines = [f"f: k={f.k} n={f.n} table={report['table']}"]
        lines.append(f"  expression          {report['expression']}")
        lines.append(f"  essential           {report['essential']}")
        lines.append(f"  strongly essential  {report['strongly_essential']}")
        lines.append(f"  range               {report['range']}")
        lines.append(f"  imp                 {report['imp']}")
        lines.append(f"  sub                 {report['sub']}  by arity {report['sub_vector']}")
        lines.append(f"  sep                 {report['sep']}  by size {report['sep_vector']}")
        lines.append(f"  separable sets      {report['separable_sets']}")
        if args.set:
            lines.append(f"  set {report['set']}: separable={report['separable']}")
            lines.append(f"    distributive sets {report['distributive_sets']}")
            lines.append(f"    s-systems         {report['s_systems']}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_diagram(args) -> int:
    f = _load_function(args)
    if args.ordering:
        order = tuple(int(t) for t in args.ordering.replace(" ", "").split(","))
    else:
        order = tuple(sorted(f.essential_set()))
    d = dg.reduce(dg.build_odt(f, order))
    dot = dg.to_dot(d, name=args.name)
    _emit(args, dot)
    print(f"ordering {list(order)}  depth {dg.depth(d)}  "
          f"paths {dg.path_count(d)}  internal nodes {d.internal_count()}",
          file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    chosen = [s for s in (args.relation, args.group) if s]
    if len(chosen) != 1:
        raise SystemExit2("exactly one of --relation/--group is required")
    report = classify_space(args.k, args.n, chosen[0], max_space=args.budget)
    if args.format == "json":
        _emit_json(args, report.to_json_dict(), sort_keys=True)
    else:
        header = ClassificationReport.CSV_HEADER
        _emit(args, _csv_text(header, report.csv_rows()))
    print(f"{report.class_count()} classes over {report.total} functions",
          file=sys.stderr)
    return EXIT_OK


def cmd_tables(args) -> int:
    result = reproduce_table(args.name)
    if args.format == "json":
        payload = {"name": result.name, "header": result.header,
                   "rows": result.rows, "ok": result.ok,
                   "diffs": result.diff_lines()}
        _emit_json(args, payload)
    else:
        _emit(args, _csv_text(result.header, result.rows))
    if args.diff:
        if result.ok:
            print(f"{args.name}: all {len(result.rows)} rows match",
                  file=sys.stderr)
        else:
            for line in result.diff_lines():
                print(f"{args.name}: {line}", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    run = run_checks(k=args.k, n_exhaustive=args.n_exhaustive,
                     n_sampled=args.n, samples=args.samples, seed=args.seed,
                     mutant=args.mutant)
    if args.format == "json":
        _emit_json(args, run.to_json_dict())
    else:
        _emit(args, "\n".join(r.line() for r in run.results))
    return EXIT_OK if run.ok else EXIT_VERIFY


def cmd_parse(args) -> int:
    f = spform.parse(args.expr, args.k, arity=args.n)
    payload = {"k": f.k, "n": f.n, "table": f.table_text(),
               "canonical": spform.to_sp(f),
               "essential": sorted(f.essential_set())}
    if args.format == "json":
        _emit_json(args, payload, sort_keys=True)
    else:
        _emit(args, "\n".join(f"{key}: {val}" for key, val in payload.items()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_function_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=2, help="radix (default 2)")
    p.add_argument("--n", type=int, default=None, help="arity override")
    p.add_argument("--expr", help="sum-of-products expression, e.g. 'x1*x2 + x1^0*x3'")
    p.add_argument("--table", help="truth table: hex for k=2, comma digits otherwise")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fnclass",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="complexity profile of one function")
    _add_function_args(p)
    p.add_argument("--set", help="variable set for distributivity queries, e.g. '2,3'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diagram", help="reduced decision diagram as DOT")
    _add_function_args(p)
    p.add_argument("--ordering", help="comma-separated variable ordering")
    p.add_argument("--name", default="f", help="diagram name in the DOT output")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagram, format="dot")

    p = sub.add_parser("classify", help="classify a whole function space")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--relation", help="imp | sub | sep (profile relations)")
    p.add_argument("--group", help="orbit relation: " + " | ".join(GROUP_NAMES))
    p.add_argument("--jobs", type=int, default=0,
                   help="ignored: scans run in one process")
    p.add_argument("--cache-dir", help="ignored: nothing is cached")
    p.add_argument("--resume", action="store_true",
                   help="ignored: every run recomputes")
    p.add_argument("--budget", type=int, default=1 << 22,
                   help="largest directly scannable space")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tables", help="recompute a reference table")
    p.add_argument("--name", required=True, choices=TABLE_NAMES)
    p.add_argument("--diff", action="store_true",
                   help="exit nonzero when any cell differs from the fixture")
    p.add_argument("--jobs", type=int, default=0,
                   help="ignored: scans run in one process")
    p.add_argument("--cache-dir", help="ignored: nothing is cached")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run the structural property checks")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=3,
                   help="largest arity to cover by sampling")
    p.add_argument("--n-exhaustive", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutant", choices=MUTANTS,
                   help="negative-control fault injection (testing hook)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("parse", help="parse an expression to a truth table")
    p.add_argument("--expr", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_parse)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (spform.SPSyntaxError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OrbitBudgetError, DiagramBudgetError, MemoryError) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
