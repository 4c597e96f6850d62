"""The root search: acceptance stream, budgets, reruns, replay."""

from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import oracles
from vinberg import isometry
from vinberg.classify import classify_form
from vinberg.errors import ConsistencyError
from vinberg.forms import Form
from vinberg.search import (
    Budget,
    SearchState,
    batch_sequence,
    certifying_cut,
    replay,
    run_search,
)


@pytest.mark.parametrize("p,n", [
    (p, n) for p, ranks in sorted(corpus.PUBLISHED_TABLE_RANKS.items()) for n in ranks])
def test_terminates_reflective_with_expected_roots(report, p, n):
    # every rank of every published root table
    rep = report(p, n)
    assert rep["verdict"] == "reflective"
    assert {tuple(r) for r in rep["roots"]} == corpus.expected_root_set(Form(p, n))


def test_published_rows_past_the_published_ranks_are_the_11_4_chamber(report):
    # every row applies below its family's first failure; the rows that
    # apply at no published rank are those of (11, 4), whose table roots
    # are the chamber this package proves reflective there
    assert corpus.PUBLISHED_TABLE_ROWS.keys() == corpus.PUBLISHED_TABLE_RANKS.keys()
    beyond = set()
    for p, rows in corpus.PUBLISHED_TABLE_ROWS.items():
        for vec, _norm, applies in rows:
            ranks = [n for n in range(2, corpus.EXPECTED_FIRST_FAILURE[p][0]) if applies(n)]
            assert ranks, (p, vec)
            if not set(ranks) & set(corpus.PUBLISHED_TABLE_RANKS[p]):
                beyond.add((p, min(ranks)))
    assert beyond == {(11, 4)}
    roots = {tuple(r) for r in report(11, 4)["roots"]}
    assert roots == corpus.expected_root_set(Form(11, 4))


def test_published_p23_n3_rows_are_the_roots_after_the_initial_ones(report):
    # the printed table of the non-reflective (23, 3) stops at its 14th root
    roots = [tuple(r) for r in report(23, 3)["roots"]]
    assert set(roots[3:14]) == set(corpus.PUBLISHED_P23_N3_ROWS)


def test_accepted_roots_pairwise_obtuse(search):
    for p, n in ((5, 4), (11, 3), (23, 3)):
        form = Form(p, n)
        roots = search(p, n).roots
        for i, a in enumerate(roots):
            assert form.is_root(a)
            for b in roots[:i]:
                assert form.inner_product(a, b) <= 0


@pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (11, 3)])
def test_matches_brute_force_oracle_low_heights(p, n):
    form = Form(p, n)
    state = SearchState.fresh(form)
    for _ in replay(state, Budget(max_height=Fraction(2), max_roots=10**6)):
        pass
    expect = oracles.brute_force_accepted(form, Fraction(2))
    assert state.accepted == expect


# box points the brute-force oracle may scan for one drawn case
ORACLE_BOX = 60000


@st.composite
def forms_and_heights(draw):
    """A form and a height: the height of one of its first batches, or a
    height between that batch and the next, drawn among the batches the
    oracle's box scan can afford."""
    p = draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29]))
    n = draw(st.integers(2, 4))
    form = Form(p, n)
    heights = []
    cost = 0
    for k0, m in batch_sequence(form):
        cost += (2 * isqrt(m + p * k0 * k0) + 1) ** n
        if cost > ORACLE_BOX:
            break
        heights.append(Fraction(k0 * k0, m))
    assume(heights)
    i = draw(st.integers(0, len(heights) - 1))
    h = heights[i]
    if draw(st.booleans()):
        h = (h + oracles.open_height(form, i + 1)) / 2
    return form, h


@settings(max_examples=100, deadline=None, derandomize=True)
@given(forms_and_heights())
def test_replay_matches_brute_force_oracle(case):
    form, height = case
    state = SearchState.fresh(form)
    for _ in replay(state, Budget(max_height=height, max_roots=10**6)):
        pass
    assert state.accepted == oracles.brute_force_accepted(form, height)
    # the replay stops at the first batch above the height, its cursor
    assert state.open_height() == oracles.open_height(form, state.batches_done) > height


def test_open_height_is_next_batch_height():
    form = Form(13, 2)
    assert oracles.open_height(form, 0) < oracles.open_height(form, 1) < oracles.open_height(form, 5)
    # the frontier after k batches admits exactly the first k batch heights
    state = SearchState.fresh(form)
    for _ in islice(replay(state, Budget()), 7):
        pass
    frontier = state.open_height()
    assert frontier == oracles.open_height(form, 7)
    for r in state.accepted:
        if r[0] > 0:
            assert form.height(r) < frontier


def test_a_cut_past_the_search_is_an_internal_error():
    # a hunt with no height limit on the undecided (13,3) search under
    # Budget(400, 8) finds a corner whose bound the search has not cleared
    result = run_search(Form(13, 3), Budget(400, 8))
    assert result.verdict == "undecided"
    symmetry = isometry.find_infinite_symmetry(result.chamber, 10**9)
    with pytest.raises(ConsistencyError, match="^batches_done: "):
        certifying_cut(result.state, symmetry)


def test_replay_reproduces_prefix(search):
    full = search(13, 3)
    k = full.state.batches_done
    state = SearchState.fresh(Form(13, 3))
    for _ in islice(replay(state, Budget()), k):
        pass
    assert state.accepted == full.roots
    assert state.batches_done == k
    assert state.counters == {**full.state.counters, "volume_checks": 0}


def test_cusp_scan_decides_23_4_in_search():
    # the (23,4) obstruction has affine rank below n - 2; the scan tests
    # every null vector, so the search stops there, short of max_roots
    res = run_search(Form(23, 4))
    assert res.verdict == "non_reflective"
    assert len(res.roots) < Budget().max_roots


def test_budget_exhaustion_is_undecided():
    res = run_search(Form(13, 3), Budget(max_roots=5))
    assert res.verdict == "undecided"
    assert res.certificate is None


@pytest.mark.parametrize("p,n,smaller,larger,kind", [
    (13, 2, Budget(max_height=2), Budget(), "reflective"),
    (13, 3, Budget(max_roots=5), Budget(), "infinite_symmetry"),
    (53, 2, Budget(), Budget(Fraction(1600)), "infinite_symmetry"),
], ids=["13-2", "13-3", "53-2"])
def test_a_larger_budget_decides_what_a_smaller_one_left(report, p, n, smaller, larger, kind):
    # an undecided search is taken up again by a rerun from batch 0: the
    # same stream, run further, reaches the verdict
    undecided = classify_form(p, n, smaller)
    assert undecided["verdict"] == "undecided"
    assert undecided["certificate"] is None and "state" not in undecided
    decided = report(p, n) if larger == Budget() else classify_form(p, n, larger)
    assert decided["certificate"]["kind"] == kind
    assert decided["roots"][: len(undecided["roots"])] == undecided["roots"]


def test_counters_deterministic():
    a = run_search(Form(7, 3))
    b = run_search(Form(7, 3))
    assert a.state.counters == b.state.counters
    assert a.state.counters["accepted"] == len(a.roots)
