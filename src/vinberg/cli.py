"""Command-line front end.

Subcommands: classify, family, table, verify.  classify --emit picks
the artifact of one form: its report, roots, Coxeter diagram or verdict
certificate.  All output goes to stdout as deterministic JSON (sorted
keys) unless a text format is selected, so repeated runs with the same
flags are byte-identical.

Exit codes: 0 when every requested verdict is decided, 3 when any is
undecided under the budget, and stderr then says which options to raise;
verify returns 0 for a valid certificate, 1 for an invalid one, 2 for a
malformed document.  Bad arguments exit 2, and so does a file that
cannot be read; the CLI's own errors go to stderr as "Error: <message>".
A file that is not UTF-8 JSON is malformed.  An internal error, such as
the ConsistencyError of a failed self-check, is not caught: it
propagates with its traceback and Python's exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from vinberg import certificates, classify, diagram
from vinberg.errors import CertificateError
from vinberg.forms import Form
from vinberg.search import Budget

EXIT_UNDECIDED = 3


class _UsageError(Exception):
    """A bad argument: main prints it as Error: <message> and returns 2."""


def _dump(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load(path):
    """The JSON document in the file at path, for verify; CertificateError
    if it is not UTF-8 JSON or nests too deep to parse, OSError if the
    file cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"not JSON: {exc}")


def _form(p: int, n: int) -> Form:
    try:
        return Form(p, n)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _budget(max_height: str, max_roots: int, rank: int) -> Budget:
    """The search budget of the options.  A bound that lets no batch run is
    a bad argument: a height that is not positive, or a root count of at
    most rank, the n initial roots of the least rank searched."""
    try:
        height = Fraction(max_height)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"--max-height: not a rational: {max_height!r}")
    if height <= 0:
        raise _UsageError(f"--max-height: not positive: {max_height!r}")
    if max_roots <= rank:
        raise _UsageError(f"--max-roots: {max_roots} is not more than the {rank} initial roots")
    return Budget(max_height=height, max_roots=max_roots)


def _exit_code(verdicts) -> int:
    if "undecided" not in verdicts:
        return 0
    print("undecided: rerun with a larger --max-height or --max-roots", file=sys.stderr)
    return EXIT_UNDECIDED


def classify_cmd(p, n, max_height, max_roots, emit, fmt) -> int:
    """Classify one form and print the result."""
    _form(p, n)
    if fmt != "json" and emit != "diagram":
        raise _UsageError(f"--format {fmt} needs --emit diagram")
    report = classify.classify_form(p, n, budget=_budget(max_height, max_roots, n))

    # a format other than json implies --emit diagram, checked above
    if fmt == "dot":
        print(diagram.diagram_dot(report["diagram"]))
    elif fmt == "tikz":
        print(diagram.diagram_tikz(report["diagram"]))
    else:
        _dump(report if emit == "report" else report[emit])
    return _exit_code([report["verdict"]])


def family_cmd(p, max_height, max_roots, max_rank) -> int:
    """Classify every rank of one family, inheriting past the first failure."""
    _form(p, 2)
    if max_rank < 2:
        raise _UsageError("--max-rank must be at least 2")
    reports = classify.classify_family(p, max_rank, budget=_budget(max_height, max_roots, 2))
    _dump(reports)
    return _exit_code(r["verdict"] for r in reports)


def _vector_text(vector) -> str:
    parts = []
    for i, c in enumerate(vector):
        if c == 0:
            continue
        coeff = "" if c == 1 else str(c)
        parts.append(f"{coeff}v{i}")
    return "+".join(parts) if parts else "0"


def _table_text(table) -> str:
    lines = [f"p={table['p']} ranks 2..{table['max_rank']}"]
    for rank, verdict in table["verdicts"].items():
        lines.append(f"  n={rank}: {verdict}")
    lines.append(f"{'label':>5}  {'height':>9}  {'norm':>4}  {'ranks':>8}  root")
    for row in table["rows"]:
        ranks = ",".join(str(r) for r in row["ranks"])
        lines.append(
            f"{row['label']:>5}  {row['height']:>9}  {row['norm']:>4}  "
            f"{ranks:>8}  {_vector_text(row['root'])}"
        )
    return "\n".join(lines)


def table_cmd(p, n, max_height, max_roots, fmt) -> int:
    """Print the found-root table and the family's verdicts for ranks 2..N
    of family p; ranks past the first failure list no rows."""
    _form(p, n)
    table = classify.root_table(p, n, budget=_budget(max_height, max_roots, 2))
    if fmt == "text":
        print(_table_text(table))
    else:
        _dump(table)
    return _exit_code(table["verdicts"].values())


def verify_cmd(path) -> int:
    """Check a certificate file; exit 0 valid, 1 invalid, 2 malformed."""
    try:
        failures = certificates.verification_failures(_load(path))
    except OSError as exc:
        raise _UsageError(str(exc))
    except CertificateError as exc:
        print(f"malformed: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"invalid: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The parser of the four subcommands; each sets run to its handler,
    which takes the other parsed values as keywords.  No parser accepts an
    abbreviated option."""
    budget = Budget()
    parser = argparse.ArgumentParser(
        prog="vinberg",
        description="Reflectivity of the forms -p x0^2 + x1^2 + ... + xn^2, p prime >= 5.",
        allow_abbrev=False,
    )
    subcommands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run, *integers, budgeted=True):
        sub = subcommands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        for arg in integers:
            sub.add_argument(arg, type=int)
        if budgeted:
            sub.add_argument(
                "--max-height", default=str(budget.max_height), metavar="A/B",
                help="Stop before any batch of height exceeding this rational"
                " (default: %(default)s).",
            )
            sub.add_argument(
                "--max-roots", default=budget.max_roots, type=int, metavar="N",
                help="Stop once this many roots are accepted (default: %(default)s).",
            )
        return sub

    sub = command("classify", classify_cmd, "p", "n")
    sub.add_argument(
        "--emit", default="report", choices=["report", "roots", "diagram", "certificate"],
        help="Which artifact to print (default: %(default)s).",
    )
    sub.add_argument(
        "--format", dest="fmt", default="json", choices=["json", "dot", "tikz"],
        help="Output format; dot and tikz need --emit diagram (default: %(default)s).",
    )
    command("family", family_cmd, "p").add_argument(
        "--max-rank", default=10, type=int, metavar="N",
        help="Classify ranks 2 through this value (default: %(default)s).",
    )
    command("table", table_cmd, "p", "n").add_argument(
        "--format", dest="fmt", default="json", choices=["json", "text"],
        help="Output format (default: %(default)s).",
    )
    command("verify", verify_cmd, budgeted=False).add_argument("path")
    return parser


def main(argv=None) -> int:
    """Run the command line argv (sys.argv[1:] when None) and return its
    exit code; argparse's own usage errors raise SystemExit(2)."""
    args = vars(build_parser().parse_args(argv))
    run = args.pop("run")
    try:
        return run(**args)
    except _UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
