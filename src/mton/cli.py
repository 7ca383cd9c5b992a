"""Command-line front end.

Subcommands cover enumeration, per-node statistics tables, polynomial
transforms, closed-form evaluation, moment/cumulant conversion, the
ordered-count triangle, Poisson moments, and the verification suites.

Exit codes: 0 on success, 1 when a verification or comparison fails,
2 for usage errors (including size-guard refusals).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from typing import Optional

from . import closed_forms as cf
from . import cumulants as cm
from . import harness, laplace, stats, tree
from .polynomials import format_rational, parse_rational
from .stats import Statistic
from .tree import FULL, PAIR, KINDS

_FORMULAS = {
    "EY": cf.expected_block_count,
    "VarY": cf.variance_block_count,
    "EY1": cf.expected_size1_blocks,
    "EY2": cf.expected_size2_blocks,
    "EY3": cf.telescoped_size3_expectation,
    "EYge3": cf.expected_size3plus_blocks,
    "EOut": cf.expected_outer_blocks,
    "EInt": cf.expected_interval_pairs,
    "EOutPair": cf.expected_outer_pairs,
    "EArea": cf.expected_area,
    "STotal": cf.total_area,
}


def _ceiling(kind: str) -> int:
    env = os.environ.get("MTON_MAX_N")
    if env is not None:
        return int(env)
    return laplace.DEFAULT_MAX_FULL if kind == FULL else laplace.DEFAULT_MAX_PAIR


def _guard(n: int, kind: str, force: bool) -> Optional[str]:
    limit = _ceiling(kind)
    if n > limit and not force:
        scale = tree.level_count(n, kind)
        return (f"level {n} of the {kind} tree holds {scale} nodes, over the "
                f"default bound {limit}; pass --force or set MTON_MAX_N")
    return None


def _add_common(p: argparse.ArgumentParser, kinds: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="tree depth")
    if kinds:
        p.add_argument("--kind", choices=KINDS, default=FULL,
                       help="which tree (default full)")
    p.add_argument("--force", action="store_true",
                   help="ignore the enumeration size guard")


def cmd_enumerate(args: argparse.Namespace) -> int:
    msg = _guard(args.n, args.kind, args.force)
    if msg:
        print(msg, file=sys.stderr)
        return 2
    if args.format == "count":
        print(sum(1 for _ in tree.stream_level(args.n, args.kind)))
        return 0
    for rank, op in enumerate(tree.iter_level(args.n, args.kind)):
        if args.limit is not None and rank >= args.limit:
            break
        record = {"rank": rank}
        record.update(op.to_json())
        print(json.dumps(record))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    msg = _guard(args.n, args.kind, args.force)
    if msg:
        print(msg, file=sys.stderr)
        return 2
    if args.stat:
        chosen = [Statistic.parse(s) for s in args.stat]
    elif args.kind == FULL:
        chosen = [stats.BLOCKS, stats.blocks_of_size(1), stats.blocks_of_size(2),
                  stats.LARGE_BLOCKS, stats.OUTER, stats.INTERVAL_PAIRS]
    else:
        chosen = [stats.OUTER, stats.INTERVAL_PAIRS, stats.AREA]
    # rejects a bad depth or a statistic off its tree before --out is opened
    rows = stats.stats_table(args.n, args.kind, chosen)
    if args.out == "-":
        csv.writer(sys.stdout).writerows(rows)
    else:
        with open(args.out, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    return 0


def cmd_laplace(args: argparse.Namespace) -> int:
    stat = Statistic.parse(args.stat)
    # only brute force enumerates level n; the recursion enumerates just
    # its seed levels, which the library bound still guards
    max_n = args.n if args.force else _ceiling(args.kind)
    results = {}
    if args.method in ("brute", "both"):
        msg = _guard(args.n, args.kind, args.force)
        if msg:
            print(msg, file=sys.stderr)
            return 2
        results["brute"] = laplace.bruteforce_transform(
            stat, args.n, args.kind, max_n=max_n)
    if args.method in ("recursion", "both"):
        results["recursion"] = laplace.recursion_transform(
            stat, args.n, args.kind, max_n=max_n)
    if args.json:
        payload = {name: poly.to_json() for name, poly in results.items()}
        if args.method == "both":
            payload["equal"] = results["brute"] == results["recursion"]
        print(json.dumps(payload))
    else:
        for name, poly in results.items():
            print(f"{name:10} {poly}")
        some = next(iter(results.values()))
        print(f"{'mean':10} {format_rational(laplace.expectation_from_laplace(some))}")
        print(f"{'variance':10} {format_rational(laplace.variance_from_laplace(some))}")
        if args.method == "both":
            print("EQUAL" if results["brute"] == results["recursion"] else "DIFFER")
    if args.method == "both" and results["brute"] != results["recursion"]:
        return 1
    return 0


def cmd_closed_form(args: argparse.Namespace) -> int:
    if args.asymptotic:
        if args.formula not in cf._VALID_ASYMPTOTIC:
            print(f"no asymptotic regime recorded for {args.formula}",
                  file=sys.stderr)
            return 2
        report = cf.asymptotic_report(args.formula, args.n)
        print(f"exact      {report.exact!r}")
        print(f"asymptote  {report.asymptotic!r}")
        print(f"difference {report.difference!r}")
        print(f"ratio      {report.ratio!r}")
        return 0
    print(format_rational(_FORMULAS[args.formula](args.n)))
    return 0


def cmd_cumulants(args: argparse.Namespace) -> int:
    raw = args.from_moments if args.from_moments else args.from_cumulants
    values = [parse_rational(part) for part in raw.split(",") if part.strip()]
    if args.from_moments:
        out = cm.cumulants_from_moments(values, upto=args.upto)
        label = "cumulants"
    else:
        out = cm.moments_from_cumulants(values, upto=args.upto)
        label = "moments"
    print(f"{label} {','.join(format_rational(v) for v in out)}")
    return 0


def cmd_stirling(args: argparse.Namespace) -> int:
    table = cm.stirling_by_recursion(args.n)
    if args.check:
        # both cross-checks grow exponentially in n, so each compares
        # only the rows the harness also checks it on
        closed_bound = min(args.n, 20)
        tree_bound = min(args.n, 9)
        closed = cm.stirling_by_closed_form(closed_bound)
        trees = cm.stirling_by_tree_count(tree_bound)
        for m in range(1, closed_bound + 1):
            if table.row(m) != closed.row(m):
                print(f"recursion and closed form differ at row {m}",
                      file=sys.stderr)
                return 1
            if m <= tree_bound and table.row(m) != trees.row(m):
                print(f"recursion and tree count differ at row {m}",
                      file=sys.stderr)
                return 1
    for m in range(1, args.n + 1):
        print(" ".join(str(v) for v in table.row(m)))
    return 0


def cmd_poisson(args: argparse.Namespace) -> int:
    alpha = parse_rational(args.alpha)
    values = cm.poisson_moments(alpha, args.upto)
    print(",".join(format_rational(v) for v in values))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # --out is opened before any check runs, so a bad path costs no run
    with open(args.out, "w") if args.out else nullcontext() as handle:
        reports = harness.run_suite(args.suite, deep=args.deep)
        if args.json:
            print(harness.reports_to_jsonl(reports))
        else:
            print(harness.summary_table(reports))
            for report in reports:
                if report.status != "pass":
                    print(f"witness {report.id}: "
                          f"{json.dumps(report.witness, sort_keys=True)}")
        if handle:
            handle.write(harness.reports_to_jsonl(reports) + "\n")
    return 0 if all(r.status == "pass" for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mton",
        description="exact combinatorics of monotonically ordered "
                    "non-crossing partitions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream a tree level")
    _add_common(p)
    p.add_argument("--format", choices=("json", "count"), default="json")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many nodes")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="per-node statistics as CSV")
    _add_common(p)
    p.add_argument("--stat", action="append", default=None,
                   metavar="NAME", help="repeatable; default depends on kind")
    p.add_argument("--out", default="-", help="output file, - for stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("laplace", help="level polynomial transform")
    p.add_argument("--stat", required=True,
                   help="Y, Y1, Y2, ..., Yge3, Out, Int, Area")
    _add_common(p)
    p.add_argument("--method", choices=("brute", "recursion", "both"),
                   default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_laplace)

    p = sub.add_parser("closed-form", help="evaluate a closed form")
    p.add_argument("--formula", choices=sorted(_FORMULAS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--asymptotic", action="store_true",
                   help="compare against the large-n regime (floats)")
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("cumulants", help="convert moments <-> cumulants")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-moments", metavar="LIST",
                       help="comma-separated rationals")
    group.add_argument("--from-cumulants", metavar="LIST",
                       help="comma-separated rationals")
    p.add_argument("--upto", type=int, default=None)
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("stirling", help="ordered-count triangle rows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="cross-check the recursion against the closed form "
                        "on rows up to 20 and the tree count on rows up to 9")
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("poisson", help="moments of a Poisson law")
    p.add_argument("--alpha", required=True, help="rate, as p/q")
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=harness.suite_names(), default="all")
    p.add_argument("--deep", action="store_true",
                   help="raise the enumeration bounds by one level")
    p.add_argument("--json", action="store_true",
                   help="print reports as JSON lines")
    p.add_argument("--out", default=None, help="also write JSON lines here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (stats.NotFirstKind, stats.NotSecondKind, laplace.SizeBoundExceeded,
            cf.OutOfValidity, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
