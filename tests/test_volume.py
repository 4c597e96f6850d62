"""Finite-volume decision: the critical-subdiagram decider, its
independent confirmations, critical submatrices, the grown chamber
diagram, prefixes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from vinberg import certificates, diagram, linalg, volume
from vinberg.errors import DiagramError
from vinberg.forms import Form
from vinberg.search import run_search


def fresh_report(form, roots):
    """finite_volume on a chamber built from nothing on roots."""
    return volume.finite_volume(volume.ChamberDiagram(form, roots))


def scratch_affine(d):
    """oracles.affine_components of a diagram, keyed as
    ChamberDiagram.affine keeps them."""
    return {frozenset(c["nodes"]): c["type"] for c in oracles.affine_components(d, d.psd_class)}


@pytest.mark.parametrize("p,n", sorted(corpus.EXPECTED_REFLECTIVE))
def test_finite_on_every_reflective_chamber(search, p, n):
    form = Form(p, n)
    roots = search(p, n).roots
    chamber = volume.ChamberDiagram(form, roots)
    report = volume.finite_volume(chamber)
    assert report["finite"] is True
    # the chamber cone and the edge count confirm the closure
    assert volume.chamber_cone_closes(chamber)
    assert oracles.edge_decider(form, roots)


@pytest.mark.parametrize("p,n", sorted(corpus.EXPECTED_REFLECTIVE))
def test_chamber_is_open_one_root_before_closure(search, p, n):
    # finite volume persists as walls are added, so an open chamber one
    # root short means no shorter prefix closes either: a closure test
    # after every root would have stopped at the same root as the test
    # after every batch
    form = Form(p, n)
    roots = search(p, n).roots
    assert fresh_report(form, roots[:-1])["finite"] is False


AGREEMENT_FORMS = [(5, 8), (11, 4), (17, 3), (13, 3), (19, 3), (23, 3), (5, 9), (7, 4)]


@pytest.mark.parametrize("p,n", AGREEMENT_FORMS)
def test_deciders_agree_on_every_prefix(search, p, n):
    form = Form(p, n)
    roots = search(p, n).roots
    chamber = volume.ChamberDiagram(form)
    for k in range(n, len(roots) + 1):
        prefix = roots[:k]
        chamber.grow(prefix)
        finite = volume.finite_volume(chamber)["finite"]
        # a cone built from nothing on the prefix, not the grown one
        fresh = volume.ChamberDiagram(form, prefix)
        assert volume.chamber_cone_closes(fresh) == finite, k
        assert oracles.edge_decider(form, prefix) == finite, k


def test_walk_drops_indefinite_sets_beyond_the_lanner_bound(search):
    # a hyperbolic critical set is a Lanner diagram, of at most 5 walls, so
    # critical_submatrices drops larger indefinite sets without testing
    # them; the walk does meet such sets, and the oracle, which tests every
    # subset, keeps none
    larger = 0
    for p, n in AGREEMENT_FORMS:
        form = Form(p, n)
        roots = search(p, n).roots
        chamber = volume.ChamberDiagram(form, roots)
        # the walk records the class of every set it classifies
        larger += sum(1 for s, c in chamber.classes.items() if c == "indefinite" and len(s) > 5)
        d = diagram.build_diagram(form, roots)
        kept = oracles.critical_submatrices(d, d.psd_class)
        assert all(len(item["nodes"]) <= 5 for item in kept if item["class"] == "hyperbolic"), (p, n)
    assert larger > 0


@pytest.mark.parametrize("p,n", AGREEMENT_FORMS)
@pytest.mark.parametrize("step", [1, 2])
def test_grown_diagram_matches_a_scratch_build_on_every_prefix(search, p, n, step):
    # grown one root at a time and two at a time, as batches grow it
    form = Form(p, n)
    roots = search(p, n).roots
    chamber = volume.ChamberDiagram(form)
    for k in range(step, len(roots) + step, step):
        prefix = roots[:k]
        chamber.grow(prefix)
        d = diagram.build_diagram(form, prefix)
        assert chamber.edges == oracles.scratch_edges(form.gram(prefix)), k
        critical = oracles.critical_submatrices(d, d.psd_class)
        assert chamber.critical == {
            frozenset(item["nodes"]): item["class"] for item in critical
        }, k
        assert chamber.affine == scratch_affine(d), k


@st.composite
def bordered_definite_grams(draw, max_size=8):
    """A positive definite integer G = L L^T (L lower triangular with a
    positive diagonal) of size 1-8 and one bordering row (b, c).  Half the
    rows have b = G y and c = y^T G y + delta, so the Schur complement
    c - b^T G^-1 b is delta: positive, zero or negative as drawn; the rest
    have b and c drawn freely."""
    d = draw(st.integers(1, max_size))
    entries = st.integers(-3, 3)
    L = [
        [draw(entries) if j < i else draw(st.integers(1, 3)) if j == i else 0 for j in range(d)]
        for i in range(d)
    ]
    G = linalg.mat_mul(L, linalg.transpose(L))
    if draw(st.booleans()):
        y = [draw(entries) for _ in range(d)]
        b = linalg.mat_vec(G, y)
        delta = draw(st.integers(-2, 2))
        c = sum(a * x for a, x in zip(y, b)) + delta
    else:
        b = [draw(st.integers(-20, 20)) for _ in range(d)]
        c = draw(st.integers(-20, 60))
        delta = None
    return G, b, c, delta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=bordered_definite_grams())
def test_bordered_column_classifies_as_psd_classify_does(drawn):
    G, b, c, delta = drawn
    d = len(G)
    # G's pivot columns, grown node by node from the empty matrix
    columns = ()
    for k in range(d):
        columns += (volume.bordered_column(columns, G[k][: k + 1]),)
        assert columns[-1][-1] == oracles.fraction_det([row[: k + 1] for row in G[: k + 1]]) > 0
    bordered = [G[i] + [b[i]] for i in range(d)] + [b + [c]]
    column = volume.bordered_column(columns, b + [c])
    assert len(column) == d + 1
    assert column[-1] == oracles.fraction_det(bordered)
    if delta is not None:
        # det of the bordered matrix is det G times the Schur complement
        assert column[-1] == columns[-1][-1] * delta
    sign = (column[-1] > 0) - (column[-1] < 0)
    cls = {1: "definite", 0: "degenerate", -1: "indefinite"}[sign]
    assert cls == linalg.psd_classify(bordered)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_walk_grown_in_random_steps_matches_the_oracle(search, data):
    # as the search grows it, batch by batch: every walk after the first
    # starts from the new walls only
    p, n = data.draw(st.sampled_from(AGREEMENT_FORMS))
    form = Form(p, n)
    roots = search(p, n).roots
    chamber = volume.ChamberDiagram(form)
    k = 0
    while k < len(roots):
        k = min(len(roots), k + data.draw(st.integers(1, 5)))
        prefix = roots[:k]
        chamber.grow(prefix)
        d = diagram.build_diagram(form, prefix)
        critical = oracles.critical_submatrices(d, d.psd_class)
        assert chamber.critical == {
            frozenset(item["nodes"]): item["class"] for item in critical
        }, k
        assert chamber.affine == scratch_affine(d), k
    # every class the bordered steps recorded is the eliminated one
    for nodes, cls in chamber.classes.items():
        assert cls == linalg.psd_classify(chamber.subgram(sorted(nodes))), sorted(nodes)


CUSP_FORMS = sorted(corpus.EXPECTED_REFLECTIVE) + [(5, 9), (7, 4), (11, 5), (13, 3), (19, 3), (23, 3)]


@pytest.mark.parametrize("p,n", CUSP_FORMS)
def test_walk_classifies_no_far_pair_beyond_two_walls(search, p, n):
    # on every benchmark form: an elliptic set holds no parallel or
    # divergent pair, so the walk extends a set of 2 or more walls by no
    # wall far from one of its own, and a set holding a far pair is
    # classified only as a pair itself; grown root by root and built from
    # nothing on every prefix
    form = Form(p, n)
    roots = search(p, n).roots
    grown = volume.ChamberDiagram(form)
    for k in range(1, len(roots) + 1):
        grown.grow(roots[:k])
        for chamber in (grown, volume.ChamberDiagram(form, roots[:k])):
            far = {(i, j) for i, walls in enumerate(chamber.far) for j in walls}
            edges = {e for e, kind in chamber.edges.items() if kind in (diagram.PARALLEL, diagram.DIVERGENT)}
            assert far == edges | {(j, i) for i, j in edges}, k
            for nodes in chamber.classes:
                if len(nodes) > 2:
                    assert not any((i, j) in far for i in nodes for j in nodes), (k, sorted(nodes))


def test_walk_classifies_a_pinned_number_of_sets_on_the_reflective_chambers(search):
    # an exact count of the walk's work, which losing the far-pair pruning
    # would raise from 456 to 863
    total = sum(
        len(volume.ChamberDiagram(Form(p, n), search(p, n).roots).classes)
        for p, n in sorted(corpus.EXPECTED_REFLECTIVE)
    )
    assert total == 456


def test_the_symmetry_searches_make_a_pinned_number_of_condition_tests(monkeypatch):
    # an exact count of finite_volume's condition tests over the three
    # symmetry searches, face tests (cone_fixed_set) and cusp membership
    # tests alike: each set is proved once and a call stops at the first
    # set it cannot prove.  Testing every set on every call, as the full
    # evaluation does, would raise the face tests from 124 to 261 and the
    # membership tests from 19 to 68.  A call tests the sets it drops from
    # open and, when it stops short on a full-rank chamber, one more.
    faces = []
    tests = []
    cone_fixed_set = volume.cone_fixed_set
    finite_volume = volume.finite_volume

    def counted_face(chamber, nodes):
        faces.append(nodes)
        return cone_fixed_set(chamber, nodes)

    def counted(chamber):
        before = len(chamber.open)
        report = finite_volume(chamber)
        tests.append(before - len(chamber.open) + bool(chamber.open and "rank_deficient" not in report))
        return report

    monkeypatch.setattr(volume, "cone_fixed_set", counted_face)
    monkeypatch.setattr(volume, "finite_volume", counted)
    for p, n in [(13, 3), (19, 3), (23, 3)]:
        assert run_search(Form(p, n)).verdict == "non_reflective"
    assert len(tests) == 33
    assert len(faces) == 124
    assert sum(tests) - len(faces) == 19


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_cusps_group_by_null_vector_and_decide_condition_a(search, data):
    # on a drawn prefix of a reflective, cusp or symmetry form: cusps()
    # groups the affine components as their null vectors do, and condition
    # (a) read by cusp is the backtracking over orthogonal components
    p, n = data.draw(st.sampled_from(CUSP_FORMS))
    form = Form(p, n)
    roots = search(p, n).roots
    prefix = roots[: data.draw(st.integers(n, len(roots)))]
    chamber = volume.ChamberDiagram(form, prefix)
    by_null = {}
    for s in sorted(chamber.affine, key=sorted):
        by_null.setdefault(certificates.affine_null_marks(form, prefix, s)[1], []).append(s)
    cusps = chamber.cusps()
    assert len(cusps) == len(by_null)
    assert {tuple(c) for c in cusps} == {tuple(g) for g in by_null.values()}
    # the full evaluation, so that open prefixes are checked too: the
    # package's report lists the conditions only once the chamber closes
    report = oracles.critical_report(chamber)
    if "condition_a" in report:  # the prefix of the n initial roots has rank n
        d = diagram.build_diagram(form, prefix)
        full = oracles.affine_sets_of_rank(d, n - 1, oracles.affine_components(d, d.psd_class))
        assert report["condition_a"] == [
            {"nodes": c["nodes"], "extends": any(set(c["nodes"]) <= a for a in full)}
            for c in report["critical"] if c["class"] == "parabolic"
        ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_early_exit_agrees_with_the_full_evaluation(search, data):
    # grown prefix by prefix on a reflective, cusp or symmetry form: the
    # verdict is the full evaluation's, a finite chamber's report is its
    # report, and every set that has left open meets its condition on a
    # chamber built from nothing on the prefix
    p, n = data.draw(st.sampled_from(CUSP_FORMS))
    form = Form(p, n)
    roots = search(p, n).roots
    chamber = volume.ChamberDiagram(form)
    k = 0
    while k < len(roots):
        k = min(len(roots), k + data.draw(st.integers(1, 6)))
        prefix = roots[:k]
        chamber.grow(prefix)
        report = volume.finite_volume(chamber)
        full = oracles.critical_report(volume.ChamberDiagram(form, prefix))
        assert report["finite"] == full["finite"], k
        if report["finite"]:
            assert report == full, k
        proved = set(chamber.critical) - set(chamber.open)
        assert len(chamber.open) + len(proved) == len(chamber.critical), k
        if "rank_deficient" in full:
            assert report == full and not proved, k
            continue
        good = {frozenset(c["nodes"]) for c in full["condition_a"] if c["extends"]}
        good |= {frozenset(c["nodes"]) for c in full["condition_b"] if c["trivial_cone"]}
        assert proved <= good, k
        # the head of a nonempty open is the set that failed
        assert not chamber.open or chamber.open[0] not in good, k


def test_growing_by_a_bad_angle_raises_as_build_diagram_does(search):
    # neither appended vector is a root: two roots always meet at a
    # crystallographic angle.  (0,1,1,1) meets wall 2 badly, (0,3,3,2)
    # walls 1 and 2, so checking the new pairs wall by wall would name
    # walls 2 and 6, not the first bad pair of the whole list
    form = Form(5, 3)
    roots = search(5, 3).roots
    bad = roots + [(0, 1, 1, 1), (0, 3, 3, 2)]
    with pytest.raises(DiagramError) as whole:
        diagram.build_diagram(form, bad)
    with pytest.raises(DiagramError) as scratch:
        oracles.scratch_edges(form.gram(bad))
    chamber = volume.ChamberDiagram(form)
    chamber.grow(roots)
    edges = dict(chamber.edges)
    with pytest.raises(DiagramError) as grown:
        chamber.grow(bad)
    assert str(grown.value) == str(whole.value) == str(scratch.value)
    assert str(grown.value).startswith("walls 1 and 7 ")
    # the failed grow stored nothing
    assert chamber.roots == roots and chamber.edges == edges
    assert volume.finite_volume(chamber) == fresh_report(form, roots)


def test_infinite_on_proper_prefixes(search):
    form = Form(5, 2)
    roots = search(5, 2).roots
    for k in range(2, len(roots)):
        report = fresh_report(form, roots[:k])
        assert report["finite"] is False


def test_infinite_on_final_nonreflective_state(search):
    # the chamber of a symmetry-route failure never closes up
    form = Form(13, 3)
    roots = search(13, 3).roots
    report = fresh_report(form, roots)
    assert report["finite"] is False


MEMO_FORMS = [(13, 3), (23, 3), (17, 3), (11, 4), (5, 8)]


@pytest.mark.parametrize("p,n", MEMO_FORMS)
def test_shared_memo_matches_fresh_report_on_every_prefix(search, p, n):
    form = Form(p, n)
    roots = search(p, n).roots
    chamber = volume.ChamberDiagram(form)
    for k in range(n, len(roots) + 1):
        prefix = roots[:k]
        chamber.grow(prefix)
        assert volume.finite_volume(chamber) == fresh_report(form, prefix)


@pytest.mark.parametrize("p,n", MEMO_FORMS)
def test_memo_warmed_on_more_roots_changes_no_answer(search, p, n):
    # proofs made on the full list do not hold on fewer roots; a list that
    # does not extend the chamber's roots must start it from nothing
    form = Form(p, n)
    roots = search(p, n).roots
    shorter = roots[:-1]
    dropped = roots[:n] + roots[n + 1:]
    for fewer in (shorter, dropped):
        chamber = volume.ChamberDiagram(form, roots)
        volume.finite_volume(chamber)
        chamber.grow(fewer)
        assert volume.finite_volume(chamber) == fresh_report(form, fewer)
        assert chamber.roots == fewer


def test_critical_submatrices_are_minimal_non_definite(search):
    form = Form(5, 3)
    roots = search(5, 3).roots
    gram = form.gram(roots)
    d = diagram.build_diagram(form, roots)
    critical, _ = volume.critical_submatrices(d, range(len(d)))
    assert critical
    for nodes in map(sorted, critical):
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
    assert fresh_report(form, form.initial_roots())["finite"] is False


@pytest.mark.parametrize("p,n", AGREEMENT_FORMS)
def test_face_test_matches_a_scratch_fixed_cone_on_every_prefix(search, p, n):
    # one live cone, grown prefix by prefix as the search grows it, against
    # a fresh double description in each hyperbolic set's orthogonal space;
    # (5,9) has no hyperbolic critical set on a full-rank prefix
    form = Form(p, n)
    roots = search(p, n).roots
    chamber = volume.ChamberDiagram(form)
    for k in range(n, len(roots) + 1):
        prefix = roots[:k]
        chamber.grow(prefix)
        # the decider reads the walls' rank off the chamber cone's lines
        rk = oracles.rank(chamber.gram)
        assert form.dim - len(chamber.chamber_cone().lines) == rk, k
        if rk != form.dim:
            continue  # condition (b) is read only on a pointed chamber cone
        for nodes, cls in chamber.critical.items():
            if cls == "hyperbolic":
                face = volume.cone_fixed_set(chamber, nodes)
                assert bool(face) == any(oracles.cone_fixed_set(form, prefix, sorted(nodes))), k
