"""Command-line front end.

Subcommands: classify, family, table, verify.  classify --emit picks
the artifact of one form: its report, roots, Coxeter diagram or verdict
certificate.  All output goes to stdout as deterministic JSON (sorted
keys) unless a text format is selected, so repeated runs with the same
flags are byte-identical.

Exit codes: 0 when every requested verdict is decided, 3 when any is
undecided under the budget; verify returns 0 for a valid certificate,
1 for an invalid one, 2 for a malformed document.  Bad arguments exit 2,
and so does a malformed --resume state file.  A file that is not UTF-8
JSON is malformed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from vinberg import certificates, classify, diagram
from vinberg.errors import CertificateError, VinbergError
from vinberg.forms import Form
from vinberg.search import Budget, SearchState

EXIT_UNDECIDED = 3


def _dump(obj) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


def _load(path):
    """The JSON document in the file at path, for verify and --resume;
    CertificateError if it is not UTF-8 JSON or nests too deep to parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"not JSON: {exc}")


def _parse_height(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"--max-height: not a rational: {text!r}")


def _form(p: int, n: int) -> Form:
    try:
        return Form(p, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _budget_options(fn):
    default = Budget()
    fn = click.option(
        "--max-height",
        default=str(default.max_height),
        show_default=True,
        metavar="A/B",
        help="Stop before any batch of height exceeding this rational.",
    )(fn)
    fn = click.option(
        "--max-roots",
        default=default.max_roots,
        show_default=True,
        type=int,
        help="Stop once this many roots are accepted.",
    )(fn)
    return fn


def _budget(max_height: str, max_roots: int) -> Budget:
    return Budget(max_height=_parse_height(max_height), max_roots=max_roots)


@click.group()
def main() -> None:
    """Reflectivity of the forms -p x0^2 + x1^2 + ... + xn^2, p prime >= 5."""


@main.command(name="classify")
@click.argument("p", type=int)
@click.argument("n", type=int)
@_budget_options
@click.option(
    "--emit",
    default="report",
    show_default=True,
    type=click.Choice(["report", "roots", "diagram", "certificate"]),
    help="Which artifact to print.",
)
@click.option(
    "--format",
    "fmt",
    default="json",
    show_default=True,
    type=click.Choice(["json", "dot", "tikz"]),
    help="Output format; dot and tikz need --emit diagram.",
)
@click.option(
    "--resume",
    "resume_path",
    default=None,
    type=click.Path(dir_okay=False),
    help="State file: resumed from if present, rewritten while undecided.",
)
def classify_cmd(p, n, max_height, max_roots, emit, fmt, resume_path):
    """Classify one form and print the result."""
    _form(p, n)
    if fmt != "json" and emit != "diagram":
        raise click.UsageError(f"--format {fmt} needs --emit diagram")
    state = None
    if resume_path is not None:
        try:
            state = SearchState.from_json(_load(resume_path))
        except FileNotFoundError:
            state = None
        except CertificateError as exc:
            raise click.UsageError(f"--resume: {exc}")
        if state is not None and (state.form.p != p or state.form.n != n):
            raise click.UsageError("--resume: state file is for a different form")

    try:
        report = classify.classify_form(
            p, n, budget=_budget(max_height, max_roots), state=state
        )
    except VinbergError as exc:
        raise click.UsageError(f"--resume: {exc}" if state is not None else str(exc))

    if resume_path is not None and report["verdict"] == "undecided":
        with open(resume_path, "w") as fh:
            json.dump(report["state"], fh, indent=2, sort_keys=True)

    if emit == "report":
        _dump(report)
    elif emit == "roots":
        _dump(report["roots"])
    elif emit == "diagram":
        if fmt == "dot":
            click.echo(diagram.diagram_dot(report["diagram"]))
        elif fmt == "tikz":
            click.echo(diagram.diagram_tikz(report["diagram"]))
        else:
            _dump(report["diagram"])
    else:
        _dump(report["certificate"])

    if report["verdict"] == "undecided":
        sys.exit(EXIT_UNDECIDED)


@main.command(name="family")
@click.argument("p", type=int)
@_budget_options
@click.option(
    "--max-rank",
    default=10,
    show_default=True,
    type=int,
    help="Classify ranks 2 through this value.",
)
def family_cmd(p, max_height, max_roots, max_rank):
    """Classify every rank of one family, inheriting past the first failure."""
    _form(p, 2)
    if max_rank < 2:
        raise click.UsageError("--max-rank must be at least 2")
    try:
        reports = classify.classify_family(
            p, max_rank, budget=_budget(max_height, max_roots)
        )
    except VinbergError as exc:
        raise click.UsageError(str(exc))
    _dump(reports)
    if any(r["verdict"] == "undecided" for r in reports):
        sys.exit(EXIT_UNDECIDED)


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


@main.command(name="table")
@click.argument("p", type=int)
@click.argument("n", type=int)
@_budget_options
@click.option(
    "--format",
    "fmt",
    default="json",
    show_default=True,
    type=click.Choice(["json", "text"]),
)
def table_cmd(p, n, max_height, max_roots, fmt):
    """Print the found-root table and the family's verdicts for ranks 2..N
    of family p; ranks past the first failure list no rows."""
    _form(p, n)
    table = classify.root_table(p, n, budget=_budget(max_height, max_roots))
    if fmt == "text":
        click.echo(_table_text(table))
    else:
        _dump(table)
    if any(v == "undecided" for v in table["verdicts"].values()):
        sys.exit(EXIT_UNDECIDED)


@main.command(name="verify")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def verify_cmd(path):
    """Check a certificate file; exit 0 valid, 1 invalid, 2 malformed."""
    try:
        failures = certificates.verification_failures(_load(path))
    except CertificateError as exc:
        click.echo(f"malformed: {exc}", err=True)
        sys.exit(2)
    if failures:
        for failure in failures:
            click.echo(f"invalid: {failure}", err=True)
        sys.exit(1)
    click.echo("valid")


if __name__ == "__main__":
    main()
