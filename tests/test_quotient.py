"""The quotient lattice at a null direction and its root classes."""

from math import prod

import pytest

import oracles
from vinberg import linalg, quotient
from vinberg.classify import classify_form
from vinberg.forms import Form
from vinberg.published import NONREFLECTIVITY_BLOCKS


@pytest.mark.parametrize("p,n", sorted(NONREFLECTIVITY_BLOCKS))
def test_null_quotient_structure(p, n):
    form = Form(p, n)
    e = NONREFLECTIVITY_BLOCKS[(p, n)]["null_vector"]
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
        assert quot.class_coordinates(v) == coords


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
        e = NONREFLECTIVITY_BLOCKS[(p, n)]["null_vector"]
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


def _scanned_null_vectors(monkeypatch, p, n):
    """Every null vector whose root classes classify_form(p, n) asks for."""
    seen = []
    original = quotient.root_classes

    def record(form, quot):
        seen.append(quot.e)
        return original(form, quot)

    with monkeypatch.context() as m:
        m.setattr(quotient, "root_classes", record)
        classify_form(p, n)
    return sorted(set(seen))


@pytest.mark.parametrize(
    "p,n", [(5, 9), (7, 4), (11, 5), (13, 3), (19, 3), (23, 3), (11, 3), (17, 3)]
)
def test_early_stop_agrees_with_the_full_walk(monkeypatch, p, n):
    # root_classes stops its walk once the classes reach full rank; at
    # every null vector the scan meets, that answer must be the full
    # walk's, and a deficient result must be the full result itself
    form = Form(p, n)
    null_vectors = _scanned_null_vectors(monkeypatch, p, n)
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


@pytest.mark.parametrize("p,n", [(5, 9), (7, 4), (11, 5), (5, 10)])
def test_root_class_shift_matches_the_scan(monkeypatch, p, n):
    # the direct shift against every shift in [0, m), on every class of
    # root norm at each null vector the classification meets
    form = Form(p, n)
    null_vectors = _scanned_null_vectors(monkeypatch, p, n)
    assert null_vectors
    for e in null_vectors:
        quot = quotient.null_quotient(form, e)
        gram = [list(r) for r in quot.gram]
        for coords, m in linalg.short_vectors(gram, form.admissible_root_norms):
            assert quotient.root_class_shift(form, quot, coords, m) == \
                oracles.root_class_shift_scan(form, quot, coords, m), (e, coords)


def test_rank_deficit_at_first_failures():
    # the certified obstructions: root classes span a proper-rank sublattice
    for p, n in ((5, 9), (7, 4)):
        form = Form(p, n)
        e = NONREFLECTIVITY_BLOCKS[(p, n)]["null_vector"]
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
    for (p, n), blk in sorted(NONREFLECTIVITY_BLOCKS.items()):
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
    blk = NONREFLECTIVITY_BLOCKS[(7, 4)]
    quot = quotient.null_quotient(form, blk["null_vector"])
    roots = search(7, 4).roots
    image = []
    for r in roots:
        if form.inner_product(r, blk["null_vector"]) == 0:
            image.append(quot.class_coordinates(r))
    data = quotient.orthogonal_complement_data(form, quot, image)
    assert data.get("generator_norm") == blk["complement_norm"]
    assert data.get("glue_order") == blk["glue_order"]
