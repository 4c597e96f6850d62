"""The root search: batches ordered by height, acceptance, budgets, resume.

A batch is a pair (k0, m): all candidate roots with first coordinate k0 and
norm m.  Batches are processed in increasing order of the height k0^2/m.
Within a batch, candidates are taken in lexicographically decreasing order
of their spatial part; a candidate is accepted when its inner product with
every previously accepted root (including earlier accepts from the same
batch) is non-positive.

The finite-volume test runs once after each batch that accepted a root,
not after each root.  That returns the same roots, because no root is
ever accepted after the chamber closes: an accepted r has <r, r_i> <= 0
for every wall r_i, so r lies in the closed chamber cone; a closed
chamber's cone lies in the closed light cone, so norm(r) <= 0; but a root
has positive norm.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from vinberg.enumeration import enumerate_batch
from vinberg.forms import Form, Vector


def batch_sequence(form: Form) -> Iterator[tuple[int, int]]:
    """Yield (k0, m) pairs in strictly increasing order of k0^2/m.

    Distinct batches never share a height for these forms: the ratio of two
    admissible norms is never a rational square.  The heap still breaks
    hypothetical ties toward larger m, so the order is total by construction.
    """
    heap = []
    for m in form.admissible_root_norms:
        heapq.heappush(heap, (Fraction(1, m), -m, 1, m))
    while True:
        _, negm, k0, m = heapq.heappop(heap)
        yield k0, m
        heapq.heappush(heap, (Fraction((k0 + 1) ** 2, m), negm, k0 + 1, m))


def open_height(form: Form, batches_done: int) -> Fraction:
    """Height of the first batch a run with this cursor has not processed.

    Heights are strictly increasing along the batch sequence, so a state
    with this cursor has seen every root of height below the returned
    value and none at or above it.
    """
    gen = batch_sequence(form)
    for _ in range(batches_done):
        next(gen)
    k0, m = next(gen)
    return Fraction(k0 * k0, m)


def accept(form: Form, prior_roots, candidate) -> tuple[bool, Optional[Vector]]:
    """Acceptance test with witness.

    Returns (True, None) if the candidate has non-positive inner product
    with every prior root, else (False, w) where w is the first violating
    prior root in list order.
    """
    for r in prior_roots:
        if form.inner_product(candidate, r) > 0:
            return False, r
    return True, None


@dataclass
class Budget:
    """Stopping bounds for the search.

    The search stops (undecided) before a batch whose height exceeds
    max_height, or after a batch that brings the accepted count to
    max_roots or beyond.  max_batches, when set, stops before batch
    number max_batches + 1; certificate verification uses it to replay
    a recorded run to the exact same cut.
    """

    max_height: Fraction = Fraction(400)
    max_roots: int = 64
    max_batches: Optional[int] = None


STATE_SCHEMA_VERSION = 2


def _default_counters() -> dict:
    return {"batches": 0, "candidates": 0, "accepted": 0, "volume_checks": 0}


@dataclass
class SearchState:
    """Resumable snapshot: accepted roots plus the batch cursor."""

    form: Form
    accepted: list
    batches_done: int = 0
    counters: dict = field(default_factory=_default_counters)

    @classmethod
    def fresh(cls, form: Form) -> "SearchState":
        state = cls(form=form, accepted=list(form.initial_roots()))
        state.counters["accepted"] = len(state.accepted)
        return state

    def to_json(self) -> dict:
        return {
            "schema_version": STATE_SCHEMA_VERSION,
            "form": {"p": self.form.p, "n": self.form.n},
            "accepted": [list(r) for r in self.accepted],
            "batches_done": self.batches_done,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SearchState":
        """Read a state document; schema 1 kept p and n at the top level."""
        version = doc["schema_version"]
        if version == STATE_SCHEMA_VERSION:
            p, n = doc["form"]["p"], doc["form"]["n"]
        elif version == 1:
            p, n = doc["p"], doc["n"]
        else:
            raise ValueError(f"schema_version: unsupported value {version!r}")
        return cls(
            form=Form(p, n),
            accepted=[tuple(r) for r in doc["accepted"]],
            batches_done=doc["batches_done"],
            counters=dict(doc["counters"]),
        )


@dataclass
class SearchResult:
    status: str  # "reflective" | "nonreflective" | "undecided"
    state: SearchState
    certificate: Optional[dict] = None
    volume_report: Optional[dict] = None

    @property
    def roots(self):
        return list(self.state.accepted)


def run_search(
    form: Form,
    budget: Optional[Budget] = None,
    state: Optional[SearchState] = None,
    finite_volume_check: bool = True,
    certificate_scan: bool = True,
) -> SearchResult:
    """Run the root search until decided or out of budget.

    After every batch that accepted a root, the finite-volume test runs
    first and then the certificate scan, which looks for null directions
    whose orthogonal quotient cannot be generated by root classes; a hit
    proves the chamber will never close up and stops the search early.

    A resumed search (state given) runs the finite-volume test once on
    entry: a closed chamber accepts no further root, so a final state
    would otherwise run on to the budget.  Both tests share one
    volume.PrefixMemo, which lives as long as this call.
    """
    from vinberg import volume as _volume

    if budget is None:
        budget = Budget()
    resumed = state is not None
    if state is None:
        state = SearchState.fresh(form)
    if certificate_scan:
        from vinberg import certificates as _certificates

    accepted = [tuple(r) for r in state.accepted]
    state.accepted = accepted
    memo = _volume.PrefixMemo()

    def volume_now() -> Optional[dict]:
        state.counters["volume_checks"] += 1
        report = _volume.finite_volume(form, accepted, memo)
        return report if report["finite"] else None

    if resumed and finite_volume_check:
        report = volume_now()
        if report:
            return SearchResult("reflective", state, volume_report=report)

    gen = batch_sequence(form)
    for _ in range(state.batches_done):
        next(gen)

    while True:
        if budget.max_batches is not None and state.batches_done >= budget.max_batches:
            return SearchResult("undecided", state)
        if len(accepted) >= budget.max_roots:
            return SearchResult("undecided", state)
        k0, m = next(gen)
        if Fraction(k0 * k0, m) > budget.max_height:
            return SearchResult("undecided", state)

        candidates = enumerate_batch(form, k0, m, accepted)
        state.counters["batches"] += 1
        state.counters["candidates"] += len(candidates)
        fresh = []
        for cand in candidates:
            ok, _ = accept(form, fresh, cand)
            if ok:
                fresh.append(cand)
        accepted.extend(fresh)
        state.counters["accepted"] += len(fresh)
        state.batches_done += 1
        if fresh and finite_volume_check:
            report = volume_now()
            if report:
                return SearchResult("reflective", state, volume_report=report)
        if fresh and certificate_scan:
            cert = _certificates.scan_for_cusp_obstruction(form, accepted, memo)
            if cert is not None:
                return SearchResult("nonreflective", state, certificate=cert)
