"""Top-level classification of one form or a whole family of ranks.

classify_form turns search.run_search's verdict into a report: reflective
(the chamber closed; the certificate is checkable from its roots alone),
non_reflective (an obstruction certificate, re-verified from scratch here
before it is attached), or undecided (budget ran out and no obstruction
was found; a rerun under a larger budget may decide it).
classify_family walks ranks upward and stops searching after the first
non-reflective rank, since the obstruction persists in all higher ranks;
later ranks get inheritance certificates instead.
root_table reads the family's reports: their verdicts, and the roots of
every rank searched, merged into one table.  Ranks past the first
failure run no search, so they list no rows.
"""

from __future__ import annotations

from fractions import Fraction

from vinberg import certificates, diagram
from vinberg.errors import ConsistencyError, VinbergError
from vinberg.forms import Form
from vinberg.search import Budget, default_counters, run_search

REPORT_SCHEMA_VERSION = 3


def _budget_json(budget: Budget) -> dict:
    height = Fraction(budget.max_height)
    return {
        "max_height": f"{height.numerator}/{height.denominator}",
        "max_roots": budget.max_roots,
    }


def classify_form(p: int, n: int, budget: Budget = Budget()) -> dict:
    """Classify one form, returning a report dict.

    Keys: schema_version, form, verdict, roots, diagram, certificate,
    timings (exact work counters, so reports are byte-identical across
    runs), budget; plus volume for reflective verdicts.

    Every non-reflective certificate is re-checked from scratch before it
    is attached; a verification failure is an internal error and raises
    ConsistencyError.
    """
    result = run_search(Form(p, n), budget)
    if result.verdict == "non_reflective":
        _check_certificate(result.certificate)
    roots = result.roots
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "form": {"p": p, "n": n},
        "verdict": result.verdict,
        "roots": [list(r) for r in roots],
        "diagram": diagram.diagram_json(result.state.form, roots),
        "certificate": result.certificate,
        "timings": dict(result.state.counters),
        "budget": _budget_json(budget),
    }
    if result.verdict == "reflective":
        report["volume"] = result.certificate["payload"]["volume"]
    return report


def _check_certificate(certificate: dict) -> None:
    failures = certificates.verification_failures(certificate)
    if failures:
        raise ConsistencyError(
            "generated certificate failed verification: " + "; ".join(failures)
        )


def _inherited_report(
    p: int, n: int, base_certificate: dict, budget: Budget
) -> dict:
    certificate = certificates.inherited_certificate(base_certificate, n)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "form": {"p": p, "n": n},
        "verdict": "non_reflective",
        "roots": None,
        "diagram": None,
        "certificate": certificate,
        "timings": default_counters(),
        "budget": _budget_json(budget),
        "inherited_from": base_certificate["form"]["n"],
    }


def classify_family(
    p: int,
    max_rank: int,
    budget: Budget = Budget(),
) -> list:
    """Classify ranks 2..max_rank of one family, lowest first.

    After the first non-reflective rank every later rank gets an
    inheritance certificate instead of a fresh search.
    """
    if max_rank < 2:
        raise VinbergError(f"max_rank must be at least 2, got {max_rank}")

    reports = []
    base_certificate = None
    for n in range(2, max_rank + 1):
        if base_certificate is not None:
            reports.append(_inherited_report(p, n, base_certificate, budget))
            continue
        report = classify_form(p, n, budget=budget)
        reports.append(report)
        if report["verdict"] == "non_reflective":
            base_certificate = report["certificate"]
    return reports


def root_table(
    p: int,
    max_rank: int,
    budget: Budget = Budget(),
) -> dict:
    """Merged table of found roots for ranks 2..max_rank, read off
    classify_family.

    The verdicts are the family's.  Vectors found at a lower rank
    reappear, zero-padded, at higher ranks; the table keeps one row per
    padded vector with the list of ranks where the search accepted it.
    Rows sort by batch height and carry 1-based labels.  Initial basis
    roots are omitted, matching the convention that tables list found
    vectors only.  Ranks past the first failure inherit it without a
    search, so they list no rows.
    """
    reports = classify_family(p, max_rank, budget)
    rows = {}
    for report in reports:
        form = Form(p, report["form"]["n"])
        for root in (report["roots"] or [])[form.n:]:
            key = tuple(root) + (0,) * (max_rank - form.n)
            entry = rows.setdefault(
                key,
                {
                    "height": form.height(root),
                    "norm": form.norm(root),
                    "ranks": [],
                },
            )
            entry["ranks"].append(form.n)
    ordered = sorted(rows.items(), key=lambda item: (item[1]["height"], item[0]))
    table_rows = []
    for label, (vector, entry) in enumerate(ordered, start=1):
        # display the height unreduced as k0^2/m, the batch that found the
        # root: its first coordinate is k0 and its norm is m
        table_rows.append(
            {
                "label": label,
                "height": f"{vector[0] ** 2}/{entry['norm']}",
                "root": list(vector),
                "norm": entry["norm"],
                "ranks": entry["ranks"],
            }
        )
    return {
        "p": p,
        "max_rank": max_rank,
        "verdicts": {str(r["form"]["n"]): r["verdict"] for r in reports},
        "rows": table_rows,
    }
