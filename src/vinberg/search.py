"""The root search: one stream of batches ordered by height, budgets, and
the verdict.

A batch is a pair (k0, m): all candidate roots with first coordinate k0 and
norm m.  Batches are processed in increasing order of the height k0^2/m.
Within a batch, candidates are taken in lexicographically decreasing order
of their spatial part; a candidate is accepted when its inner product with
every previously accepted root (including earlier accepts from the same
batch) is non-positive.

replay is that stream, and the only code that enumerates batches.  Two
readers:
- run_search decides the form.  It tests the chamber after each batch
  that accepted a root: the finite-volume test, then the cusp scan.
  Once the budget is spent it hunts for an infinite-order symmetry of
  the chamber below the height the replay reached.  A decided verdict
  comes with its certificate; a symmetry certificate stores the shortest
  prefix of the stream that certifies its corners (certifying_cut).
- reproduces replays it with no closure test, to check the roots of
  ideal-vertex and symmetry certificates, and hands back the replayed
  state: its counters and the height frontier it reached.  Its callers
  give only a height cap; the roots it checks cap the rest.

The finite-volume test runs once after each batch that accepted a root,
not after each root.  That returns the same roots, because no root is
ever accepted after the chamber closes: an accepted r has <r, r_i> <= 0
for every wall r_i, so r lies in the closed chamber cone; a closed
chamber's cone lies in the closed light cone, so norm(r) <= 0; but a root
has positive norm.  On an open chamber the test costs one failed
condition, not a report: volume.finite_volume keeps on the search's
chamber the critical sets it has proved, which stay proved as roots are
added, and stops at the first it cannot prove.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from vinberg import isometry, volume
from vinberg.enumeration import enumerate_batch, prior_row
from vinberg.errors import ConsistencyError
from vinberg.forms import Form


def batch_sequence(form: Form) -> Iterator[tuple[int, int]]:
    """Yield (k0, m) pairs in strictly increasing order of k0^2/m.

    Distinct batches never share a height for these forms: the ratio of two
    admissible norms is never a rational square.  The merge still breaks
    hypothetical ties toward larger m, so the order is total by construction.
    Each norm has its own stream of k0; the at most four stream heads are
    compared by cross-multiplying, k^2 m' < k'^2 m, in integers.
    """
    norms = form.admissible_root_norms  # increasing
    head = dict.fromkeys(norms, 1)
    while True:
        m = norms[0]
        for other in norms[1:]:
            # other > m, so a tie goes to other
            if head[other] ** 2 * m <= head[m] ** 2 * other:
                m = other
        yield head[m], m
        head[m] += 1


class Budget(NamedTuple):
    """Stopping bounds for the search.

    The search stops (undecided) before a batch whose height exceeds
    max_height, or after a batch that brings the accepted count to
    max_roots or beyond.
    """

    max_height: Fraction = Fraction(400)
    max_roots: int = 64


def default_counters() -> dict:
    """The search's work counters, all zero: the keys of every state's and
    report's counters."""
    return {"batches": 0, "candidates": 0, "accepted": 0, "volume_checks": 0}


class SearchState:
    """The search's cursor: accepted roots, the batches done and the work
    counters, which start at 0."""

    def __init__(self, form: Form, accepted: list):
        self.form = form
        self.accepted = accepted
        self.batches_done = 0
        self.counters = default_counters()

    @classmethod
    def fresh(cls, form: Form) -> "SearchState":
        state = cls(form, list(form.initial_roots()))
        state.counters["accepted"] = len(state.accepted)
        return state

    def open_height(self) -> Fraction:
        """Height of the batch at the cursor, the first batch the state has
        not processed.

        Heights are strictly increasing along the batch sequence, so the
        state has seen every root of height below the returned value and
        none at or above it.
        """
        k0, m = next(islice(batch_sequence(self.form), self.batches_done, None))
        return Fraction(k0 * k0, m)


class SearchResult(NamedTuple):
    verdict: str  # "reflective" | "non_reflective" | "undecided"
    state: SearchState
    chamber: object  # the search's volume.ChamberDiagram, grown on its roots
    certificate: Optional[dict] = None  # None exactly when undecided

    @property
    def roots(self):
        return list(self.state.accepted)


def replay(state: SearchState, budget: Budget) -> Iterator[list]:
    """The batch stream from state's cursor on, advancing state as it goes.

    Each step enumerates one batch, accepts its candidates into
    state.accepted, updates the counters and batches_done, and yields
    the batch's accepts.  The stream ends where the budget stops the
    search.

    The batches read each accepted root through its enumeration.prior_row:
    first coordinate, spatial part and the peak of its prefix sums, which
    bounds what the row can reject.  The replay builds that row once per
    root, for the starting roots and then as it accepts each root, and
    hands the rows to every later batch.
    """
    form = state.form
    accepted = state.accepted
    rows = [prior_row(r) for r in accepted]
    top = Fraction(budget.max_height)
    heads = islice(batch_sequence(form), state.batches_done, None)
    k0, m = next(heads)
    # k0^2 / m > max_height, by cross-multiplying
    while len(accepted) < budget.max_roots and k0 * k0 * top.denominator <= top.numerator * m:
        candidates = enumerate_batch(form, k0, m, rows)
        fresh = []
        for cand in candidates:
            if all(form.inner_product(cand, r) <= 0 for r in fresh):
                fresh.append(cand)
        accepted.extend(fresh)
        rows.extend(map(prior_row, fresh))
        state.counters["batches"] += 1
        state.counters["candidates"] += len(candidates)
        state.counters["accepted"] += len(fresh)
        state.batches_done += 1
        k0, m = next(heads)
        yield fresh


def reproduces(
    form: Form, roots, batches: Optional[int], max_height
) -> Optional[SearchState]:
    """The state of a fresh replay that accepts exactly roots: in exactly
    the given number of batches, or (batches None) where max_height stops
    it.  None if the replay accepts anything else.

    The replay stops at the first batch whose accepts are not a prefix of
    roots, so roots that the search never reaches bound it too; its root
    cap, len(roots) + 1, stops it no earlier.  The state holds the
    replay's counters and its final cursor, whose open_height is the
    height frontier the replay cleared.
    """
    state = SearchState.fresh(form)
    stream = replay(state, Budget(max_height, len(roots) + 1))
    # a count past the replay's reach leaves the loop when the stream ends
    while state.batches_done != batches and next(stream, None) is not None:
        if state.accepted != roots[: len(state.accepted)]:
            return None
    if state.accepted != roots or batches not in (None, state.batches_done):
        return None
    return state


def run_search(form: Form, budget: Budget = Budget()) -> SearchResult:
    """Run the root search until decided or out of budget.

    One step decides the chamber when it can: the finite-volume test
    first, then the certificate scan, which looks for null directions
    whose orthogonal quotient cannot be generated by root classes; a hit
    proves the chamber will never close up and stops the search early.
    The step runs after every batch that accepted a root.  Once the budget
    is spent, the search hunts for an infinite-order symmetry between
    chamber corners certified by the height of the batch at its cursor; a
    hit makes the verdict non_reflective, a miss leaves it undecided.  The
    hunt tries corner pairs in increasing order of the cut they need, so
    its hit is a symmetry with the shortest certifying cut of any, and the
    certificate stores that cut (certifying_cut) as its roots and
    batches_done; the result's state and chamber are the whole search's.

    The step and the hunt read one volume.ChamberDiagram, built on the
    initial roots and grown after each batch that accepted a root; the
    result carries it, grown on the final roots.
    """
    from vinberg import certificates as _certificates

    state = SearchState.fresh(form)
    chamber = volume.ChamberDiagram(form, state.accepted)

    def decide() -> Optional[SearchResult]:
        state.counters["volume_checks"] += 1
        report = volume.finite_volume(chamber)
        if report["finite"]:
            cert = _certificates.reflective_certificate(form, state.accepted, report)
            return SearchResult("reflective", state, chamber, cert)
        cert = _certificates.scan_for_cusp_obstruction(chamber)
        if cert is not None:
            return SearchResult("non_reflective", state, chamber, cert)
        return None

    for fresh in replay(state, budget):
        if fresh:
            chamber.grow(state.accepted)
            result = decide()
            if result:
                return result
    symmetry = isometry.find_infinite_symmetry(chamber, state.open_height())
    if symmetry is None:
        return SearchResult("undecided", state, chamber)
    roots, batches = certifying_cut(state, symmetry)
    cert = _certificates.infinite_symmetry_certificate(form, roots, symmetry, batches)
    return SearchResult("non_reflective", state, chamber, cert)


def certifying_cut(state: SearchState, symmetry: dict) -> tuple[list, int]:
    """The roots and batch count of the shortest prefix of state's search
    that certifies symmetry's corners.

    The cut ends after the last batch of height at most need, the larger
    of both frames' isometry.corner_need (a corner's separating-wall bound
    and its frame roots' heights), so its open height clears both bounds
    and its roots hold both frames: the initial roots and the accepted
    roots of height at most need.  The hunt tries its pairs in increasing
    order of that need, so its first hit has the shortest cut of any
    symmetry it could return.  ConsistencyError naming batches_done if the
    cut passes the state's.
    """
    form = state.form
    need = max(
        isometry.corner_need(
            isometry.corner_height_bound(form, fr["corner"]),
            (form.height(state.accepted[i]) for i in fr["root_indices"]),
        )
        for fr in (symmetry["frame_from"], symmetry["frame_to"])
    )
    batches = 0
    # k0^2 / m <= need, by cross-multiplying
    for k0, m in batch_sequence(form):
        if k0 * k0 * need.denominator > need.numerator * m:
            break
        batches += 1
    if batches > state.batches_done:
        raise ConsistencyError(
            f"batches_done: the certifying cut passes the search's {state.batches_done} batches"
        )
    return [r for r in state.accepted if form.height(r) <= need], batches
