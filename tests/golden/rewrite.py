"""Rewrite the golden outputs of the command line.

Runs each command of :func:`commands` through ``cli.main`` in process
and writes its argv, stdout, stderr and exit code to ``cli.json`` next
to this file.  ``tests/test_golden.py`` reruns every stored argv and
compares all four exactly; it never rewrites the file.  Run from the
repository root after a change that is meant to alter an output:

    PYTHONPATH=src python tests/golden/rewrite.py

The commands are the README's command-line block (its CSV written to
stdout, and without ``verify --suite all``), every closed form, the
transforms of Y, the pair tree's per-node outputs, one refusal per size
bound, and the JSON rows of the faster verification suites.  A
``verify`` row keeps every field but its ``elapsed`` time.  Argparse's
own usage errors are left out: their wording belongs to the interpreter.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mton import cli
from mton import closed_forms as cf

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli.json"
README = HERE.parents[1] / "README.md"

# a command past each size bound of cli._BOUNDS, given the bound + 1
_PAST_BOUND = {
    "full": lambda n: ["enumerate", "--n", n, "--format", "count"],
    "pair": lambda n: ["enumerate", "--n", n, "--kind", "pair",
                       "--format", "count"],
    "full per node": lambda n: ["enumerate", "--n", n],
    "pair per node": lambda n: ["stats", "--n", n, "--kind", "pair"],
    "the recursion to level": lambda n: ["laplace", "--stat", "Y", "--n", n,
                                         "--method", "recursion"],
    "the triangle to row": lambda n: ["stirling", "--n", n],
    "the closed form at level": lambda n: ["closed-form", "--formula", "EY",
                                           "--n", n],
    "the moments to order": lambda n: ["poisson", "--alpha", "1",
                                       "--upto", n],
}


def _readme_commands() -> list[list[str]]:
    # the first code block after "## Command line", comments cut
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    argvs = [line.split("#")[0].split()[1:] for line in block.splitlines()]
    argvs = [["-" if arg == "table.csv" else arg for arg in argv]
             for argv in argvs if argv]
    return [argv for argv in argvs if argv != ["verify", "--suite", "all"]]


def commands() -> list[list[str]]:
    argvs = _readme_commands()
    for formula in sorted(cf.FORMULAS):
        for n in [*range(1, 13), 100, 1000]:
            argvs.append(["closed-form", "--formula", formula, "--n", str(n)])
    for formula, (_, floats) in sorted(cf.FORMULAS.items()):
        if floats is not None:
            for n in (100, 1000, 10000):
                argvs.append(["closed-form", "--formula", formula,
                              "--n", str(n), "--asymptotic"])
    for n in range(1, 10):
        argvs.append(["laplace", "--stat", "Y", "--n", str(n)])
    argvs.append(["laplace", "--stat", "Y", "--n", "200",
                  "--method", "recursion"])
    argvs += [["enumerate", "--kind", "pair", "--n", "3"],
              ["enumerate", "--kind", "pair", "--n", "5", "--format", "count"],
              ["stats", "--kind", "pair", "--n", "3"]]
    for cost, bound in cli._BOUNDS.items():
        argvs.append(_PAST_BOUND[cost](str(bound + 1)))
    for suite in ("lemmas", "thm110", "thm111", "selftest"):
        argvs.append(["verify", "--suite", suite, "--json"])
    # the README's verify and asymptote commands are listed again above
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def record(argv: list[str]) -> dict:
    """What ``mton argv`` prints and returns, a verify row without its
    elapsed time."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "verify":
        rows = [json.loads(line) for line in stdout.splitlines()]
        stdout = "".join(json.dumps({k: v for k, v in row.items()
                                     if k != "elapsed"}, sort_keys=True) + "\n"
                         for row in rows)
    return {"argv": argv, "code": code, "stdout": stdout,
            "stderr": err.getvalue()}


def main() -> int:
    records = [record(argv) for argv in commands()]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(records)} commands to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
