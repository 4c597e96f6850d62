"""The root search: acceptance stream, budgets, resumability, replay."""

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
from vinberg.errors import CertificateError, ConsistencyError
from vinberg.forms import Form
from vinberg.search import (
    Budget,
    SearchState,
    batch_sequence,
    certifying_cut,
    replay,
    run_search,
)


def test_terminates_reflective_with_expected_roots(search):
    res = search(5, 2)
    assert res.verdict == "reflective"
    assert set(res.roots) == corpus.expected_root_set(Form(5, 2))


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


def test_resumed_undecided_state_keeps_the_symmetry_frontier(search, report):
    # a state read from JSON is the state written; the resumed search's
    # symmetry hunt reads the same frontier, and finds the same
    # certificate, as on a fresh run
    form = Form(13, 3)
    partial = run_search(form, Budget(max_roots=5))
    assert partial.verdict == "undecided"
    doc = partial.state.to_json()
    state = SearchState.from_json(doc)
    assert state == partial.state
    resumed = run_search(form, state=state)
    assert resumed.verdict == "non_reflective"
    assert resumed.state.open_height() == oracles.open_height(
        form, resumed.state.batches_done)
    assert resumed.certificate == search(13, 3).certificate
    fresh = report(13, 3)
    assert fresh["certificate"]["kind"] == "infinite_symmetry"
    resumed_report = classify_form(13, 3, state=SearchState.from_json(doc))
    assert resumed_report["certificate"] == fresh["certificate"]


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


def test_resume_equals_uninterrupted_run(search):
    form = Form(17, 2)
    partial = run_search(form, Budget(max_roots=4))
    assert partial.verdict == "undecided"
    doc = partial.state.to_json()
    state = SearchState.from_json(doc)
    resumed = run_search(form, state=state)
    assert resumed.verdict == "reflective"
    assert resumed.roots == search(17, 2).roots


def test_resume_from_final_reflective_state(search):
    # a closed chamber accepts no further root, so only the closure test
    # on entry can see that a resumed final state is already decided
    fresh = search(7, 3)
    resumed = run_search(Form(7, 3), state=SearchState.from_json(fresh.state.to_json()))
    assert resumed.verdict == "reflective"
    assert resumed.roots == fresh.roots
    assert resumed.certificate == fresh.certificate
    checks = resumed.state.counters["volume_checks"]
    assert checks == fresh.state.counters["volume_checks"] + 1
    report = classify_form(7, 3, state=SearchState.from_json(fresh.state.to_json()))
    assert report["verdict"] == "reflective"
    assert report["certificate"] == classify_form(7, 3)["certificate"]


@pytest.mark.parametrize("p,n", [(7, 4), (5, 9), (11, 5)])
def test_resume_at_the_deciding_batch_is_nonreflective(search, p, n):
    # a budget that accepts nothing past the state's cursor: only the cusp
    # scan on entry can see that the resumed roots are already decided
    form = Form(p, n)
    fresh = search(p, n)
    assert fresh.verdict == "non_reflective"
    k = fresh.state.batches_done
    state = SearchState.from_json(fresh.state.to_json())
    resumed = run_search(form, Budget(max_height=oracles.open_height(form, k - 1)), state=state)
    assert resumed.verdict == "non_reflective"
    assert resumed.roots == fresh.roots
    assert resumed.state.batches_done == k
    assert resumed.certificate == fresh.certificate


def test_cusp_scan_decides_23_4_in_search():
    # the (23,4) obstruction has affine rank below n - 2; the scan tests
    # every null vector, so the search stops there, short of max_roots
    res = run_search(Form(23, 4))
    assert res.verdict == "non_reflective"
    assert len(res.roots) < Budget().max_roots


def test_resume_rejects_tampered_reflective_state(search):
    # the final (7,3) state with accepted[3] reflected in accepted[4]: the
    # resumed search closes a chamber that the real search never reaches
    doc = search(7, 3).state.to_json()
    assert doc["accepted"][3] == [1, 3, 0, 0]
    doc["accepted"][3] = [2, 5, 2, 1]
    with pytest.raises(ConsistencyError, match="accepted"):
        classify_form(7, 3, state=SearchState.from_json(doc))


def test_resume_rejects_forged_undecided_state(forged_13_3_state):
    state = SearchState.from_json(forged_13_3_state)
    with pytest.raises(ConsistencyError, match="accepted"):
        classify_form(13, 3, budget=Budget(max_roots=8), state=state)


def test_resume_rejects_an_edited_candidate_count(state_13_3):
    # the resume replay counts the candidates of the state's batches, so
    # an edited count cannot reach the report
    state_13_3["counters"]["candidates"] += 1000
    with pytest.raises(ConsistencyError, match="^counters.candidates: "):
        classify_form(13, 3, state=SearchState.from_json(state_13_3))


@pytest.mark.parametrize("batches", [2**63, 2**64, 10**30])
def test_resume_rejects_a_cursor_past_any_index(state_13_3, batches):
    # islice takes no count past sys.maxsize; the resume replay still ends
    # at the first root past the state's and rejects the cursor
    state_13_3["batches_done"] = state_13_3["counters"]["batches"] = batches
    with pytest.raises(ConsistencyError, match="^accepted: "):
        run_search(Form(13, 3), state=SearchState.from_json(state_13_3))


@pytest.mark.parametrize("other", [Form(5, 3), Form(7, 4)])
def test_resume_rejects_a_state_of_another_form(other):
    # a fresh state has cursor 0, so the resume replay alone cannot tell
    # its form from the one searched
    with pytest.raises(ConsistencyError, match="^form: "):
        classify_form(7, 3, state=SearchState.fresh(other))


def test_budget_exhaustion_is_undecided():
    res = run_search(Form(13, 3), Budget(max_roots=5))
    assert res.verdict == "undecided"
    assert res.certificate is None


def test_counters_deterministic():
    a = run_search(Form(7, 3))
    b = run_search(Form(7, 3))
    assert a.state.counters == b.state.counters
    assert a.state.counters["accepted"] == len(a.roots)


def test_state_round_trip():
    res = run_search(Form(5, 3), Budget(max_roots=4))
    doc = res.state.to_json()
    back = SearchState.from_json(doc)
    assert back.accepted == res.state.accepted
    assert back.batches_done == res.state.batches_done
    assert back.to_json() == doc


def test_state_rejects_unknown_schemas_and_bad_cursors():
    res = run_search(Form(5, 3), Budget(max_roots=4))
    doc = res.state.to_json()
    assert doc["schema_version"] == 2
    assert doc["form"] == {"p": 5, "n": 3}
    # schema 1 kept p and n at the top level; it is no longer read
    old = {k: v for k, v in doc.items() if k != "form"}
    old.update(schema_version=1, p=5, n=3)
    with pytest.raises(CertificateError, match="schema_version"):
        SearchState.from_json(old)
    for version in (0, 3, "2", None):
        with pytest.raises(CertificateError, match="schema_version"):
            SearchState.from_json(dict(doc, schema_version=version))
    for batches in (True, -1, "3", 2.0):
        with pytest.raises(CertificateError, match="batches_done"):
            SearchState.from_json(dict(doc, batches_done=batches))
    counters = doc["counters"]
    # the search counts each batch and accept twice, so a state whose
    # counts disagree was not written by it
    with pytest.raises(CertificateError, match="^counters.batches: "):
        SearchState.from_json(dict(doc, counters=dict(counters, batches=999)))
    with pytest.raises(CertificateError, match="^counters.accepted: "):
        SearchState.from_json(dict(doc, counters=dict(counters, accepted=7)))
    for bad in (
        {},
        [],
        None,
        {k: v for k, v in counters.items() if k != "volume_checks"},
        dict(counters, extra=0),
        dict(counters, batches="x"),
        dict(counters, candidates=-1),
        dict(counters, accepted=True),
        dict(counters, volume_checks=1.0),
    ):
        with pytest.raises(CertificateError, match="counters"):
            SearchState.from_json(dict(doc, counters=bad))
    assert SearchState.from_json(doc).counters == counters
    missing = {k: v for k, v in doc.items() if k != "schema_version"}
    with pytest.raises(CertificateError, match="schema_version: missing"):
        SearchState.from_json(missing)
