"""The quotient lattice at a null direction and its root classes."""

from functools import cache
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from vinberg import certificates, linalg, quotient, volume
from vinberg.errors import ConsistencyError
from vinberg.forms import Form
from vinberg.search import run_search

BLOCKS = corpus.PUBLISHED_NONREFLECTIVITY_BLOCKS


@cache
def _block_quotient(p, n):
    return quotient.null_quotient(Form(p, n), BLOCKS[(p, n)]["null_vector"])


@cache
def _norm_p_root_classes(p, n):
    """The walked classes of norm p or 2p that hold a root, at a block."""
    quot = _block_quotient(p, n)
    gram = [list(r) for r in quot.gram]
    return [
        v for v, m in linalg.short_vectors(gram, quot.form.admissible_root_norms)
        if m % p == 0 and quotient.root_class_shift(quot.form, quot, v, m) is not None
    ]


@pytest.mark.parametrize("p,n", sorted(BLOCKS))
def test_null_quotient_structure(p, n):
    form = Form(p, n)
    e = BLOCKS[(p, n)]["null_vector"]
    quot = quotient.null_quotient(form, e)
    assert quot.rank == n - 1
    assert len(quot.class_basis) == n - 1
    # class basis vectors really lie in e-perp
    for b in quot.class_basis:
        assert form.inner_product(b, e) == 0
    # lift/coordinates round trip
    for i in range(quot.rank):
        coords = [1 if j == i else 0 for j in range(quot.rank)]
        v = quot.lift(coords)
        assert quot.class_coordinates([v]) == [coords]


BENCHMARK_FORMS = sorted(corpus.EXPECTED_REFLECTIVE) + [(5, 9), (7, 4), (11, 5), (13, 3), (19, 3), (23, 3)]
# the benchmark forms none of whose prefix chambers has a cusp
CUSPLESS = {(7, 2), (7, 3), (11, 2), (19, 2), (23, 2), (23, 3)}


@pytest.mark.parametrize("p,n", BENCHMARK_FORMS)
def test_class_coordinates_match_the_solve_at_every_prefix_cusp(search, p, n):
    # the product with the dual basis rows against a solve in the
    # quotient's basis, on the walls through every cusp of every prefix
    # chamber, and on the null vector itself
    form = Form(p, n)
    roots = search(p, n).roots
    chamber = volume.ChamberDiagram(form)
    quots = {}
    for k in range(1, len(roots) + 1):
        chamber.grow(roots[:k])
        for cusp in chamber.cusps():
            e = certificates.affine_null_marks(form, chamber.roots, cusp[0])[1]
            if e not in quots:
                quots[e] = quotient.null_quotient(form, e)
            vectors = [r for r in chamber.roots if form.inner_product(r, e) == 0] + [e]
            assert quots[e].class_coordinates(vectors) == \
                oracles.class_coordinates_by_solve(quots[e], vectors), (k, e)
    assert bool(quots) == ((p, n) not in CUSPLESS)


def test_class_coordinates_refuse_a_vector_off_the_null_direction():
    quot = _block_quotient(7, 4)
    form = quot.form
    x = next(r for r in form.initial_roots() if form.inner_product(r, quot.e))
    for coordinates in (quot.class_coordinates, lambda v: oracles.class_coordinates_by_solve(quot, v)):
        with pytest.raises(ValueError, match="not orthogonal"):
            coordinates([*quot.class_basis, x])


def test_quotient_rejects_bad_vectors():
    form = Form(7, 4)
    with pytest.raises(ValueError):
        quotient.null_quotient(form, (1, 0, 0, 0, 0))  # norm -7
    with pytest.raises(ValueError):
        quotient.null_quotient(form, (2, 4, 2, 2, 2))  # not primitive


def _classes(form, quot):
    """Every class of norm 1..2p, so a full walk up to the largest root
    norm, not one restricted to the admissible root norms."""
    norms = range(1, 2 * form.p + 1)
    return sorted(linalg.short_vectors([list(r) for r in quot.gram], norms))


def _all_root_classes(form, quot):
    """root_classes without its full-rank stop: every class of norm up to
    2p that contains a root, with its norm from quot.class_norm."""
    classes = []
    for coords, _ in _classes(form, quot):
        m = quot.class_norm(coords)
        t = quotient.root_class_shift(form, quot, coords, m)
        if t is not None:
            classes.append({"coords": list(coords), "norm": m, "shift": t})
    classes.sort(key=lambda c: c["coords"])
    span = linalg.hnf_basis([c["coords"] for c in classes])
    full = len(span) == quot.rank
    return {
        "norm_bound": 2 * form.p,
        "classes": classes,
        "rank": len(span),
        "index": prod(row[i] for i, row in enumerate(span)) if full else None,
        "full_rank": full,
    }


def test_root_class_shift_matches_wide_window_oracle():
    # the fast path solves for t modulo p; the oracle scans [-10m, 10m).
    # Exhaustive on the small quotients, a fixed sample on the rank-8 one.
    # The norm the walk hands over must be the class norm itself.
    import random

    for p, n, sample in ((7, 4, None), (13, 3, None), (5, 9, 150)):
        form = Form(p, n)
        e = BLOCKS[(p, n)]["null_vector"]
        quot = quotient.null_quotient(form, e)
        classes = _classes(form, quot)
        if sample is not None and len(classes) > sample:
            classes = random.Random(0).sample(classes, sample)
        assert classes
        for coords, m in classes:
            assert m == quot.class_norm(coords)
            fast = quotient.root_class_shift(form, quot, list(coords), m)
            wide = oracles.root_class_witness_window(form, quot, list(coords))
            assert (fast is None) == (wide is None), (p, n, coords, fast, wide)


def _scanned_null_vectors(result):
    """The null vector of every cusp of result's final chamber, among them
    every one its search scanned (a cusp once found stays one as the roots
    grow), and its certificate's null vector, which the verifier walks."""
    chamber = result.chamber
    seen = {
        certificates.affine_null_marks(chamber.form, chamber.roots, cusp[0])[1]
        for cusp in chamber.cusps()
    }
    if result.certificate["kind"] == "ideal_vertex_failure":
        seen.add(tuple(result.certificate["payload"]["null_vector"]))
    return sorted(seen)


@pytest.mark.parametrize(
    "p,n", [(5, 9), (7, 4), (11, 5), (13, 3), (19, 3), (23, 3), (11, 3), (17, 3)]
)
def test_early_stop_agrees_with_the_full_walk(search, p, n):
    # root_classes stops its walk once the classes reach full rank; at
    # every null vector the scan meets, that answer must be the full
    # walk's, and a deficient result must be the full result itself
    form = Form(p, n)
    null_vectors = _scanned_null_vectors(search(p, n))
    # the (23,3) chamber has no affine subdiagram, so its scan meets none
    assert bool(null_vectors) == ((p, n) != (23, 3))
    for e in null_vectors:
        quot = quotient.null_quotient(form, e)
        full = _all_root_classes(form, quot)
        early = quotient.root_classes(form, quot)
        assert early["full_rank"] == full["full_rank"], e
        if not full["full_rank"]:
            assert early == full, e
        else:
            assert early["rank"] == quot.rank
            assert all(c in full["classes"] for c in early["classes"]), e


@pytest.mark.parametrize(
    "p,n", [(5, 9), (7, 4), (11, 5), (5, 10), (13, 2), (17, 3)]
)
def test_root_class_shift_matches_the_scan(search, p, n):
    # the direct shift against every shift in [0, m), on every class of
    # root norm at each null vector the classification meets
    form = Form(p, n)
    null_vectors = _scanned_null_vectors(search(p, n))
    assert null_vectors
    for e in null_vectors:
        quot = quotient.null_quotient(form, e)
        gram = [list(r) for r in quot.gram]
        for coords, m in linalg.short_vectors(gram, form.admissible_root_norms):
            assert quotient.root_class_shift(form, quot, coords, m) == \
                oracles.root_class_shift_scan(form, quot, coords, m), (e, coords)


@pytest.mark.parametrize("p,n", sorted(
    corpus.EXPECTED_REFLECTIVE | {(5, 9), (7, 4), (11, 5), (13, 3), (19, 3)}))
def test_the_walls_shortcut_is_exact(monkeypatch, p, n):
    # at every decide step the scan stores a null vector as spanned (None)
    # when the chamber's walls through it span the quotient; the complete
    # walk must then find full rank.  A deficient null vector's walk,
    # seeded with the walls' classes, must return the unseeded walk's dict.
    form = Form(p, n)
    spanned, deficient = set(), {}
    original = certificates.scan_for_cusp_obstruction

    def record(chamber):
        cert = original(chamber)
        for e, entry in chamber.root_classes.items():
            if entry is None:
                spanned.add(e)
            elif not entry[1]["full_rank"]:
                walls = [r for r in chamber.roots if form.inner_product(r, e) == 0]
                deficient[e] = entry, walls
        return cert

    monkeypatch.setattr(certificates, "scan_for_cusp_obstruction", record)
    run_search(form)
    assert bool(deficient) == ((p, n) in {(5, 9), (7, 4), (11, 5)})
    if (p, n) == (11, 3):
        # the index-2 ideal vertex: its walls span the quotient rationally
        assert spanned == {(1, 3, 1, 1)}
    for e in spanned:
        assert _all_root_classes(form, quotient.null_quotient(form, e))["full_rank"], e
    for e, ((quot, stored), walls) in deficient.items():
        seeded = quotient.root_classes(form, quot, known=quot.class_coordinates(walls))
        unseeded = quotient.root_classes(form, quot)
        assert seeded.keys() == unseeded.keys() == stored.keys()
        for key in unseeded:
            assert seeded[key] == unseeded[key] == stored[key], (e, key)


@st.composite
def block_classes(draw):
    """A published block's quotient and drawn class coordinates: an
    integer combination of its walked root classes of norm p or 2p, plus
    p times a drawn vector, plus (half the time) a drawn vector.  Without
    the last term every residue row vanishes on the class."""
    p, n = draw(st.sampled_from(sorted(BLOCKS)))
    quot = _block_quotient(p, n)
    vector = st.lists(st.integers(-3, 3), min_size=quot.rank, max_size=quot.rank)
    coords = [p * z for z in draw(vector)]
    for v in _norm_p_root_classes(p, n)[:6]:
        a = draw(st.integers(-2, 2))
        coords = [c + a * x for c, x in zip(coords, v)]
    if draw(st.booleans()):
        coords = [c + x for c, x in zip(coords, draw(vector))]
    return quot, coords


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_classes())
def test_residue_rows_decide_drawn_classes_as_the_scan_does(drawn):
    # for a declared norm p or 2p the scan tests p | x_i + t e_i over every
    # t in [0, m); the residue rows must vanish exactly when some t works.
    # At the class's own norm the fast path must return the scan's shift.
    quot, coords = drawn
    form = quot.form
    _, _, rows = quot.residue_rows
    vanish = all(sum(w * c for w, c in zip(row, coords)) % form.p == 0 for row in rows)
    for m in form.admissible_root_norms:
        if m % form.p == 0:
            scan = oracles.root_class_shift_scan(form, quot, coords, m)
            assert vanish == (scan is not None), (form, coords, m)
    m = quot.class_norm(coords)
    assert quotient.root_class_shift(form, quot, coords, m) == \
        oracles.root_class_shift_scan(form, quot, coords, m), (form, coords)


def test_lift_runs_once_per_root_class_and_never_for_a_rejected_one(monkeypatch):
    # the (5,9) quotient is rank deficient, so root_classes walks every
    # root class; the norm-5 classes without a root, which a walk of the
    # whole quotient meets, are never lifted
    quot = _block_quotient(5, 9)
    form = quot.form
    walked = linalg.short_vectors([list(r) for r in quot.gram], form.admissible_root_norms)
    lifted = []
    original = quotient.NullQuotient.lift

    def lift(self, coords):
        lifted.append(list(coords))
        return original(self, coords)

    monkeypatch.setattr(quotient.NullQuotient, "lift", lift)
    rc = quotient.root_classes(form, quot)
    assert not rc["full_rank"]
    assert sorted(lifted) == [c["coords"] for c in rc["classes"]]
    assert 5 in [m for v, m in walked if list(v) not in lifted]


def test_root_class_shift_never_meets_a_norm_p_class_that_fails_a_residue_row(monkeypatch):
    # the deficient (5,9) quotient is walked in full; its norm-5 classes
    # are walked on the lattice the residue rows cut out, so every class
    # handed over holds a root.  A whole-quotient walk hands over 490
    # classes, 448 of them of norm 5 without a root, for the 42 root classes
    quot = _block_quotient(5, 9)
    form = quot.form
    _, _, rows = quot.residue_rows
    handed = []
    original = quotient.root_class_shift

    def record(form, quot, coords, m):
        handed.append((list(coords), m))
        return original(form, quot, coords, m)

    monkeypatch.setattr(quotient, "root_class_shift", record)
    rc = quotient.root_classes(form, quot)
    assert not rc["full_rank"]
    norm_p = [c for c, m in handed if m % form.p == 0]
    assert all(sum(map(mul, row, c)) % form.p == 0 for c in norm_p for row in rows)
    assert sorted(handed) == sorted((c["coords"], c["norm"]) for c in rc["classes"])
    walked = linalg.short_vectors([list(r) for r in quot.gram], form.admissible_root_norms)
    assert len(walked) > 10 * len(handed)


@pytest.mark.parametrize("norm", [1, 13])
def test_a_shifted_class_that_is_not_a_root_raises(monkeypatch, norm):
    # the root check on every root class survives python -O
    quot = _block_quotient(13, 3)
    form = quot.form
    gram = [list(r) for r in quot.gram]
    coords = next(
        v for v, m in linalg.short_vectors(gram, [norm])
        if quotient.root_class_shift(form, quot, v, m) is not None
    )
    monkeypatch.setattr(Form, "is_root", lambda self, v: False)
    with pytest.raises(ConsistencyError):
        quotient.root_class_shift(form, quot, coords, norm)


def test_rank_deficit_at_first_failures():
    # the certified obstructions: root classes span a proper-rank sublattice
    for p, n in ((5, 9), (7, 4)):
        form = Form(p, n)
        e = BLOCKS[(p, n)]["null_vector"]
        quot = quotient.null_quotient(form, e)
        rc = quotient.root_classes(form, quot)
        assert not rc["full_rank"]
        assert rc["rank"] < quot.rank


def test_full_rank_with_index_two_at_genuine_cusp():
    # regression: the 7-wall chamber of this form has a real ideal vertex
    # whose root classes generate a sublattice of index 2.  Rank, not
    # index, is the sound obstruction test; this vertex must not be
    # flagged.  root_classes stops at full rank, so the index is read off
    # the full walk.
    form = Form(11, 3)
    e = (1, 3, 1, 1)
    assert form.norm(e) == 0
    quot = quotient.null_quotient(form, e)
    rc = quotient.root_classes(form, quot)
    assert rc["full_rank"]
    assert rc["rank"] == quot.rank == 2
    full = _all_root_classes(form, quot)
    assert full["full_rank"]
    assert full["index"] == 2


def test_published_blocks_reproduce_as_lattice_data():
    # complement generator norms and glue data from the published blocks
    # are facts about the null vector's quotient lattice; check them
    # directly from the stored component root classes
    for (p, n), blk in sorted(BLOCKS.items()):
        form = Form(p, n)
        quot = quotient.null_quotient(form, blk["null_vector"])
        comp = blk["complement_vector"]
        assert form.norm(comp) == blk["complement_norm"]
        assert form.inner_product(comp, blk["null_vector"]) == 0
        if blk["glue_vector"] is not None:
            assert form.inner_product(blk["glue_vector"], blk["null_vector"]) == 0


def test_complement_data_on_the_a2_cusp_failure(search):
    # at (7, 4): affine A~2 triple, rank-1 complement of norm 21 with an
    # order-3 glue class, matching the stored reference block
    form = Form(7, 4)
    blk = BLOCKS[(7, 4)]
    quot = quotient.null_quotient(form, blk["null_vector"])
    roots = search(7, 4).roots
    image = quot.class_coordinates(
        [r for r in roots if form.inner_product(r, blk["null_vector"]) == 0])
    complement, glue = quotient.orthogonal_complement_data(form, quot, image)
    assert complement["generator_norm"] == blk["complement_norm"]
    assert glue["order"] == blk["glue_order"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_complement_index_is_the_determinant_of_the_stacked_bases(data):
    # [Mbar : D + C] is |det| of D's HNF basis stacked on C's basis
    p, n = data.draw(st.sampled_from(sorted(BLOCKS)))
    quot = _block_quotient(p, n)
    row = st.lists(st.integers(-3, 3), min_size=quot.rank, max_size=quot.rank)
    image = data.draw(st.lists(row, min_size=1, max_size=quot.rank))
    complement, glue = quotient.orthogonal_complement_data(quot.form, quot, image)
    stack = linalg.hnf_basis(image) + complement["basis"]
    assert glue["index"] == abs(oracles.fraction_det(stack))
    assert glue["index"] == prod(glue["invariants"])
