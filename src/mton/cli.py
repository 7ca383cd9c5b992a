"""Command-line front end.

Subcommands cover enumeration, per-node statistics tables, polynomial
transforms, closed-form evaluation, moment/cumulant conversion, the
ordered-count triangle, Poisson moments, and the verification suites.

Exit codes: 0 on success, 1 when a verification or comparison fails,
2 for usage errors (including size-guard refusals).  A closed output
pipe ends the command quietly with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import islice

from . import closed_forms as cf
from . import cumulants as cm
from . import harness, laplace, stats, tree
from .polynomials import _decimal, format_rational, parse_rational
from .stats import Statistic
from .tree import FULL, PAIR, KINDS

# the deepest level or row each cost reaches without --force, keyed by
# the words naming the cost; a node walk's key starts with its tree
_BOUNDS = {
    # the node walk of enumerate --format count, laplace --method brute|both:
    # level n holds (n+1)!/2 nodes, or (2n-1)!! on the pair tree, so level
    # n + 1 holds n + 2 times as many (2n + 1 on the pair tree); counting
    # full level 10 takes about 35 s, and pair level 8 about 3 s
    FULL: 10,
    PAIR: 8,
    # the per-node output of enumerate (JSON) and stats (CSV), 10 or 15
    # times larger one level deeper: full level 8 takes about 3.9 s and
    # prints 15 MB as JSON (3.3 s, 3.9 MB as CSV), pair level 7 3.1 s and
    # 14 MB (2.1 s, 2.2 MB)
    f"{FULL} per node": 8,
    f"{PAIR} per node": 7,
    # the recursion of laplace --method recursion|both: its coefficients
    # grow like n!, so a far deeper level can take the machine's memory
    # (level 1000 takes about 1.5 s and prints 1.5 MB)
    "the recursion to level": 1000,
    # the triangle of stirling: row n holds integers up to (n+1)!/2, so
    # time and memory grow like n^2.4; row 500 takes about 0.9 s, peaks
    # at 45 MB and prints 55 MB, row 1000 about 14 s and 250 MB, and rows
    # in the low thousands take the machine's memory
    "the triangle to row": 500,
    # closed-form --n, exact or --asymptotic: the exact harmonic and area
    # sums add n fractions whose denominators grow with n, so doubling n
    # costs about 4 to 6 times as much; at level 30000 the slowest
    # formulas take 1.5 to 2.0 s, at level 60000 8 to 9 s
    "the closed form at level": 30000,
    # poisson --upto: order 300 takes about 0.7 s at rate 1 (0.8 s at
    # rate -7/3), order 400 about 1.6 s
    "the moments to order": 300,
}

# the deepest level whose node count a refusal prints: the count of a far
# deeper level is a factorial too long to compute before refusing
_COUNTED = 20


def _refused(args: argparse.Namespace, cost: str,
             size: int | None = None) -> bool:
    """Refuse ``size`` (by default ``args.n``) past the bound of ``cost``
    on stderr, before any work, unless --force is given."""
    size = args.n if size is None else size
    bound = _BOUNDS[cost]
    if size <= bound or args.force:
        return False
    kind = cost.split()[0]
    if kind in KINDS:
        count = tree.level_count(min(size, _COUNTED), kind)
        more = "more than " if size > _COUNTED else ""
        head = (f"level {size} of the {kind} tree holds {more}{count} "
                f"nodes, over the default")
    else:
        head = f"{cost} {format_rational(size)} is over the"
    print(f"{head} bound {bound}; pass --force", file=sys.stderr)
    return True


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="tree depth")
    p.add_argument("--kind", choices=KINDS, default=FULL,
                   help="which tree (default full)")
    p.add_argument("--force", action="store_true",
                   help="ignore the enumeration size guard")


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"limit must be >= 0, got {args.limit}")
    # a JSON walk stopped within the node count of the per-node bound's
    # level prints no more than that level, so only its walk is priced
    per_node = f"{args.kind} per node"
    few = (args.limit is not None
           and args.limit <= tree.level_count(_BOUNDS[per_node], args.kind))
    if _refused(args, args.kind if args.format == "count" or few
                else per_node):
        return 2
    nodes = islice(tree.stream_level(args.n, args.kind), args.limit)
    if args.format == "count":
        print(sum(1 for _ in nodes))
        return 0
    for rank, op in enumerate(nodes):
        record = {"rank": rank}
        record.update(op.to_json())
        print(json.dumps(record))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if _refused(args, f"{args.kind} per node"):
        return 2
    names = args.stat or (("Y", "Y1", "Y2", "Yge3", "Out", "Int")
                          if args.kind == FULL else ("Out", "Int", "Area"))
    chosen = [Statistic.parse(s) for s in names]
    # rejects a bad depth or a statistic off its tree before --out is opened
    rows = stats.stats_table(args.n, args.kind, chosen)
    import csv  # loaded on use, to keep it off the import path
    with (open(args.out, "w", newline="") if args.out != "-"
          else nullcontext(sys.stdout)) as handle:
        csv.writer(handle).writerows(rows)
    return 0


def cmd_laplace(args: argparse.Namespace) -> int:
    stat = Statistic.parse(args.stat)
    brute, recursion = args.method != "recursion", args.method != "brute"
    # every refusal precedes any scan; the recursion is priced at its seed levels
    if recursion and _refused(args, "the recursion to level",
                              max(args.n, stats.seed_levels(stat, args.kind))):
        return 2
    if brute:
        if _refused(args, args.kind):
            return 2
        stats.refuse_area_off_pairs(stat, args.kind)
    if recursion:
        stats.refuse_lawless(stat, args.kind)
    results = {}
    if brute:
        results["brute"] = laplace.bruteforce_transform(stat, args.n, args.kind)
    if recursion:
        results["recursion"] = laplace.recursion_transform(
            stat, args.n, args.kind)
    equal = results.get("brute") == results.get("recursion")
    if args.json:
        payload = {name: poly.to_json() for name, poly in results.items()}
        if brute and recursion:
            payload["equal"] = equal
        print(json.dumps(payload))
    else:
        for name, poly in results.items():
            print(f"{name:10} {poly}")
        some = next(iter(results.values()))
        print(f"{'mean':10} {format_rational(laplace.expectation_from_laplace(some))}")
        print(f"{'variance':10} {format_rational(laplace.variance_from_laplace(some))}")
        if brute and recursion:
            print("EQUAL" if equal else "DIFFER")
    return 1 if brute and recursion and not equal else 0


def cmd_closed_form(args: argparse.Namespace) -> int:
    exact, floats = cf.FORMULAS[args.formula]
    if args.asymptotic and floats is None:
        print(f"no asymptotic regime recorded for {args.formula}",
              file=sys.stderr)
        return 2
    if _refused(args, "the closed form at level"):
        return 2
    if args.asymptotic:
        report = cf.asymptotic_report(args.formula, args.n)
        print(f"exact      {report.exact!r}")
        print(f"asymptote  {report.asymptotic!r}")
        print(f"difference {report.difference!r}")
        print(f"ratio      {report.ratio!r}")
        return 0
    print(format_rational(exact(args.n)))
    return 0


def cmd_cumulants(args: argparse.Namespace) -> int:
    from_moments = args.from_moments is not None
    raw = args.from_moments if from_moments else args.from_cumulants
    fields = [part.strip() for part in raw.split(",")]
    if not any(fields):
        raise ValueError(f"no value to convert in {raw!r}")
    if "" in fields:  # a value's order is its position in the list
        raise ValueError(f"field {fields.index('') + 1} of {raw!r} is empty")
    if args.upto is not None and args.upto < 1:
        raise ValueError(f"upto must be >= 1, got {args.upto}")
    values = [parse_rational(field) for field in fields]
    if from_moments:
        out = cm.cumulants_from_moments(values, upto=args.upto)
        label = "cumulants"
    else:
        out = cm.moments_from_cumulants(values, upto=args.upto)
        label = "moments"
    print(f"{label} {','.join(format_rational(v) for v in out)}")
    return 0


def cmd_stirling(args: argparse.Namespace) -> int:
    if _refused(args, "the triangle to row"):
        return 2
    table = cm.stirling_by_recursion(args.n)
    if args.check:
        # both cross-checks grow exponentially in n, so each compares
        # only the rows the harness also checks it on
        closed_bound = min(args.n, harness.CLOSED_FORM_ROWS)
        tree_bound = min(args.n, harness.TREE_COUNT_ROWS)
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
        print(" ".join(map(_decimal, table.row(m))))
    return 0


def cmd_poisson(args: argparse.Namespace) -> int:
    if _refused(args, "the moments to order", args.upto):
        return 2
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
    p.add_argument("--formula", choices=sorted(cf.FORMULAS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--asymptotic", action="store_true",
                   help="compare against the large-n regime (floats)")
    p.add_argument("--force", action="store_true", help=(
        f"evaluate past level {_BOUNDS['the closed form at level']}"))
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
                        f"on rows up to {harness.CLOSED_FORM_ROWS} and the "
                        f"tree count on rows up to {harness.TREE_COUNT_ROWS}")
    p.add_argument("--force", action="store_true",
                   help=f"build past row {_BOUNDS['the triangle to row']}")
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("poisson", help="moments of a Poisson law")
    p.add_argument("--alpha", required=True, help="rate, as p/q")
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--force", action="store_true", help=(
        f"compute past order {_BOUNDS['the moments to order']}"))
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


# the options whose value is a rational or a list of rationals: argparse
# reads a token that starts with "-" as an option unless it is a plain
# negative number such as -1 or -0.5, so main joins a value such as -1/2
# or -1,2,5 to the option before it
_RATIONAL_OPTIONS = ("--alpha", "--from-moments", "--from-cumulants")


def _names_a_rational_option(token: str) -> bool:
    # in full or by a prefix of one of them only, as argparse abbreviates
    return (token.startswith("--")
            and sum(opt.startswith(token) for opt in _RATIONAL_OPTIONS) == 1)


def _join_rationals(argv: list[str]) -> list[str]:
    """``argv`` with each value that starts with "-" and a digit joined,
    as ``--alpha=-1/2``, to the rational option before it."""
    joined = []
    for token in argv:
        if (joined and _names_a_rational_option(joined[-1])
                and token[:1] == "-" and token[1:2].isdigit()):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_rationals(
        sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped reading: not a failure; stdout goes to
        # devnull so the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
