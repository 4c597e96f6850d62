"""Finite-volume decision: the critical-subdiagram decider, its
independent confirmations, critical submatrices, prefixes."""

import pytest

import corpus
import oracles
from vinberg import certificates, volume
from vinberg.forms import Form


@pytest.mark.parametrize("p,n", sorted(corpus.EXPECTED_REFLECTIVE))
def test_finite_on_every_reflective_chamber(search, p, n):
    form = Form(p, n)
    roots = search(p, n).roots
    report = volume.finite_volume(form, roots)
    assert report["finite"] is True
    # the chamber cone and the edge count confirm the closure
    assert certificates.chamber_cone_closes(form, roots)
    assert oracles.edge_decider(form, roots)


@pytest.mark.parametrize("p,n", sorted(corpus.EXPECTED_REFLECTIVE))
def test_chamber_is_open_one_root_before_closure(search, p, n):
    # finite volume persists as walls are added, so an open chamber one
    # root short means no shorter prefix closes either: a closure test
    # after every root would have stopped at the same root as the test
    # after every batch
    form = Form(p, n)
    roots = search(p, n).roots
    assert volume.finite_volume(form, roots[:-1])["finite"] is False


AGREEMENT_FORMS = [(5, 8), (11, 4), (17, 3), (13, 3), (19, 3), (23, 3), (5, 9), (7, 4)]


@pytest.mark.parametrize("p,n", AGREEMENT_FORMS)
def test_deciders_agree_on_every_prefix(search, p, n):
    form = Form(p, n)
    roots = search(p, n).roots
    memo = volume.PrefixMemo()
    for k in range(n, len(roots) + 1):
        prefix = roots[:k]
        finite = volume.finite_volume(form, prefix, memo)["finite"]
        assert certificates.chamber_cone_closes(form, prefix) == finite, k
        assert oracles.edge_decider(form, prefix) == finite, k


def test_infinite_on_proper_prefixes(search):
    form = Form(5, 2)
    roots = search(5, 2).roots
    for k in range(2, len(roots)):
        report = volume.finite_volume(form, roots[:k])
        assert report["finite"] is False


def test_infinite_on_final_nonreflective_state(search):
    # the chamber of a symmetry-route failure never closes up
    form = Form(13, 3)
    roots = search(13, 3).roots
    report = volume.finite_volume(form, roots)
    assert report["finite"] is False


MEMO_FORMS = [(13, 3), (23, 3), (17, 3), (11, 4), (5, 8)]


@pytest.mark.parametrize("p,n", MEMO_FORMS)
def test_shared_memo_matches_fresh_report_on_every_prefix(search, p, n):
    form = Form(p, n)
    roots = search(p, n).roots
    memo = volume.PrefixMemo()
    for k in range(n, len(roots) + 1):
        prefix = roots[:k]
        assert volume.finite_volume(form, prefix, memo) == volume.finite_volume(form, prefix)


@pytest.mark.parametrize("p,n", MEMO_FORMS)
def test_memo_warmed_on_more_roots_changes_no_answer(search, p, n):
    # proofs made on the full list do not hold on fewer roots; the subset
    # guard must send every such call back to the cone computation
    form = Form(p, n)
    roots = search(p, n).roots
    memo = volume.PrefixMemo()
    volume.finite_volume(form, roots, memo)
    shorter = roots[:-1]
    dropped = roots[:n] + roots[n + 1:]
    for fewer in (shorter, dropped):
        assert volume.finite_volume(form, fewer, memo) == volume.finite_volume(form, fewer)


def test_critical_submatrices_are_minimal_non_definite(search):
    from vinberg import diagram, linalg
    form = Form(5, 3)
    roots = search(5, 3).roots
    gram = form.gram(roots)
    d = diagram.build_diagram(form, roots)
    for item in volume.critical_submatrices(d, d.psd_class):
        nodes = item["nodes"]
        sub = [[gram[i][j] for j in nodes] for i in nodes]
        assert linalg.psd_classify(sub) != "definite"
        # every proper principal subset is definite (minimality)
        for drop in range(len(nodes)):
            keep = [x for k, x in enumerate(nodes) if k != drop]
            sub2 = [[gram[i][j] for j in keep] for i in keep]
            if keep:
                assert linalg.psd_classify(sub2) == "definite"


def test_initial_cone_alone_has_infinite_volume():
    form = Form(7, 2)
    assert volume.finite_volume(form, form.initial_roots())["finite"] is False
