"""Corner geometry, frame maps, and infinite-order symmetry detection."""

from functools import lru_cache
from itertools import permutations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from vinberg import cones, isometry, linalg, search as vsearch, volume
from vinberg.forms import Form


def test_corner_height_bound_of_control_vertex_is_zero():
    for p in (5, 13, 23):
        form = Form(p, 3)
        assert isometry.corner_height_bound(form, (1, 0, 0, 0)) == 0


def test_corner_height_bound_published_corner():
    form = Form(23, 3)
    assert isometry.corner_height_bound(form, corpus.P23_CORNER_FROM) == 88


def test_corner_height_bound_rejects_non_corners():
    with pytest.raises(ValueError):
        # null, not timelike
        isometry.corner_height_bound(Form(11, 3), (1, 3, 1, 1))
    form = Form(23, 3)
    with pytest.raises(ValueError):
        isometry.corner_height_bound(form, (0, 1, 0, 0))  # spacelike
    with pytest.raises(ValueError):
        isometry.corner_height_bound(form, (-1, 0, 0, 0))  # past-pointing


def test_chamber_corners_of_the_16_wall_chamber(search):
    form = Form(23, 3)
    roots = search(23, 3).roots
    corners = isometry.chamber_corners(volume.ChamberDiagram(form, roots))
    assert len(corners) == 24
    by_vector = {c["vector"]: c["orthogonal"] for c in corners}
    assert by_vector[corpus.P23_CORNER_FROM] == [0, 7, 9]
    assert by_vector[corpus.P23_CORNER_TO] == [2, 10, 13]
    for c in corners:
        assert form.norm(c["vector"]) < 0
        assert c["vector"][0] > 0
        for i in c["orthogonal"]:
            assert form.inner_product(roots[i], c["vector"]) == 0


@pytest.mark.parametrize("p,n", [(13, 3), (19, 3), (23, 3), (17, 4), (29, 3)])
def test_corner_walls_are_the_roots_orthogonal_to_it(search, p, n):
    # chamber_corners reads each corner's walls off the cone's tight sets;
    # the reference evaluates every inner product, on the search's grown
    # chamber and on one built from nothing
    form = Form(p, n)
    result = search(p, n)
    roots = result.roots
    for chamber in (result.chamber, volume.ChamberDiagram(form, roots)):
        corners = isometry.chamber_corners(chamber)
        assert corners
        for c in corners:
            assert c["orthogonal"] == [
                i for i, r in enumerate(roots) if form.inner_product(r, c["vector"]) == 0
            ], c


def test_vertex_walls_match_accepted_walls_at_certified_corners(search):
    form = Form(23, 3)
    result = search(23, 3)
    roots = result.roots
    frontier = oracles.open_height(form, result.state.batches_done)
    for c in isometry.chamber_corners(volume.ChamberDiagram(form, roots)):
        if isometry.corner_height_bound(form, c["vector"]) >= frontier:
            continue
        walls = isometry.vertex_walls(form, c["vector"])
        assert walls == sorted(roots[i] for i in c["orthogonal"]), c


@pytest.mark.parametrize("p,n", [(13, 3), (19, 3), (23, 3)])
def test_corner_walls_match_the_rank_tests(search, monkeypatch, p, n):
    # chamber_corners keeps every extreme ray of negative norm and
    # vertex_walls picks facets by their tight rays; the rank tests they
    # replace are the reference: walls of rank n at each corner, and a
    # facet where the generators tight on a wall span a hyperplane
    form = Form(p, n)
    result = search(p, n)
    corners = isometry.chamber_corners(result.chamber)
    assert corners
    built = []
    dd = cones.cone_generators

    def record(constraints, dim, cone=None):
        built.append(cone)
        return dd(constraints, dim, cone)

    monkeypatch.setattr(cones, "cone_generators", record)
    for c in corners:
        assert oracles.rank([result.roots[i] for i in c["orthogonal"]]) == n, c
        built.clear()
        walls = isometry.vertex_walls(form, c["vector"])
        (cone,) = built
        facets = [
            a for k, a in enumerate(cone.processed)
            if oracles.rank(cone.lines + [r for r, t in zip(cone.rays, cone.tight) if k in t])
            == form.dim - 1
        ]
        assert [form.dual(w) for w in walls] == facets, c


@pytest.mark.parametrize("p,n", [(13, 3), (19, 3)])
def test_vertex_walls_walk_only_roots_at_certified_corners(report, monkeypatch, p, n):
    # the norm p and 2p vectors are walked on the lattice where their roots
    # lie, so every vector the walk hands over is a root: 18 at each form,
    # where a walk of the whole lattice hands over 42 at (13,3) and 90 at
    # (19,3), norm p vectors that are not roots among them
    form = Form(p, n)
    payload = report(p, n)["certificate"]["payload"]
    walked, whole, checked = [], [], []
    walk, is_root = linalg.congruent_short_vectors, Form.is_root

    def record_walk(gram, norms, *args):
        found = walk(gram, norms, *args)
        walked.extend(found)
        whole.extend(linalg.short_vectors(gram, norms))
        return found

    def record_check(self, v):
        checked.append(is_root(self, v))
        return checked[-1]

    monkeypatch.setattr(linalg, "congruent_short_vectors", record_walk)
    monkeypatch.setattr(Form, "is_root", record_check)
    for label in ("frame_from", "frame_to"):
        isometry.vertex_walls(form, tuple(payload[label]["corner"]))
    assert walked and len(checked) == len(walked) and all(checked)
    assert any(m % p == 0 for _, m in whole)


def test_vertex_walls_rejects_null_vector():
    form = Form(11, 3)
    with pytest.raises(ValueError):
        isometry.vertex_walls(form, (1, 3, 1, 1))


def test_frame_map_identity_and_degenerate():
    form = Form(5, 2)
    frame = [(0, 1, -1), (0, 0, 1), (1, 0, 0)]
    T = isometry.frame_map(form, frame, frame)
    assert T == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # linearly dependent source frame
    bad = [(0, 1, -1), (0, 2, -2), (1, 0, 0)]
    assert isometry.frame_map(form, bad, bad) is None


@pytest.mark.parametrize("n", range(2, 9))
def test_orient_root_matches_the_initial_system_solve(n):
    # a root with v_0 = 0 has norm 1 or 2 (17 and 34 would need 17 | v_i),
    # so its entries lie in {-1, 0, 1}: the 2 n^2 roots of B_n
    form = Form(17, n)
    roots = [
        (0,) + w for w in product((-1, 0, 1), repeat=n) if form.is_root((0,) + w)
    ]
    assert len(roots) == 2 * n * n
    for v in roots:
        assert isometry.orient_root(form, v) == oracles.orient_root_by_solve(form, v)


def polygon_rotation(form, roots, shift):
    """Integral isometry rotating a closed planar chamber by a cyclic
    shift of its sides, or None when no such lattice map exists.

    Matches the frame (side, next side, corner between them) at position 0
    against the one at the shifted position; Gram equality is required
    before solving, so a structurally impossible shift returns None
    instead of failing.
    """
    cyc = oracles.polygon_cycle(form, roots)
    k = len(cyc["sides"])
    shift %= k

    def frame(t):
        return [
            roots[cyc["sides"][t % k]],
            roots[cyc["sides"][(t + 1) % k]],
            cyc["vertices"][t % k],
        ]

    f_from, f_to = frame(0), frame(shift)
    if form.gram(f_from) != form.gram(f_to):
        return None
    return isometry.frame_map(form, f_from, f_to)


def test_unique_frame_map_between_published_corners(search):
    # every Gram-compatible ordering of the target walls yields the same
    # integral map, and it is the stored symmetry witness
    form = Form(23, 3)
    cf, ct = corpus.P23_CORNER_FROM, corpus.P23_CORNER_TO
    wf = isometry.vertex_walls(form, cf)
    wt = isometry.vertex_walls(form, ct)
    maps = set()
    for perm in permutations(wt):
        f_from = list(wf) + [cf]
        f_to = list(perm) + [ct]
        if form.gram(f_from) != form.gram(f_to):
            continue
        T = isometry.frame_map(form, f_from, f_to)
        if T is not None:
            maps.add(tuple(map(tuple, T)))
    assert len(maps) == 1
    (T,) = maps
    assert [list(r) for r in T] == [list(r) for r in corpus.EXPECTED_P23_MATRIX]
    assert tuple(linalg.mat_vec([list(r) for r in T], list(cf))) == ct


def test_printed_p23_matrix_is_the_inverse_with_its_last_entry_cut():
    # the print is T^-1 = F^-1 T^T F with v0 listed last; its final entry,
    # 783, is printed as 7
    T = [list(r) for r in corpus.EXPECTED_P23_MATRIX]
    F = Form(23, 3).form_matrix
    inverse = [[F[j][j] * T[j][i] // F[i][i] for j in range(4)] for i in range(4)]
    assert linalg.mat_mul(T, inverse) == _identity(4)
    rotated = [[inverse[(i + 1) % 4][(j + 1) % 4] for j in range(4)] for i in range(4)]
    printed = corpus.PUBLISHED_P23_MATRIX
    assert [(i, j) for i in range(4) for j in range(4)
            if printed[i][j] != rotated[i][j]] == [(3, 3)]
    assert (printed[3][3], rotated[3][3]) == (7, 783)


ORDER_REASON = "no_power_up_to_order_bound_is_identity"


def _identity(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def _block_diagonal(blocks):
    dim = sum(len(b) for b in blocks)
    out = [[0] * dim for _ in range(dim)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def _companion(coeffs):
    """Companion matrix of a monic polynomial, descending coefficients."""
    d = len(coeffs) - 1
    C = [[0] * d for _ in range(d)]
    for i in range(1, d):
        C[i][i - 1] = 1
    for i in range(d):
        C[i][d - 1] = -coeffs[d - i]
    return C


def _cyclotomic(k):
    x = sympy.Symbol("x")
    return [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()]


def test_max_finite_order_small_dimensions():
    # maximal finite order in GL_d(Z), OEIS A051593
    assert [isometry.max_finite_order(d) for d in range(1, 12)] == [
        2, 6, 6, 12, 12, 30, 30, 60, 60, 120, 120
    ]


def test_infinite_order_evidence_on_finite_order_maps():
    form = Form(5, 2)
    # reflections have order two
    R = oracles.reflection_matrix(form, (0, 1, -1))
    R = [[int(x) for x in row] for row in R]
    assert isometry.infinite_order_evidence(R) is None
    assert isometry.infinite_order_evidence([[1, 0], [0, 1]]) is None
    assert isometry.infinite_order_evidence([[0, -1], [1, 0]]) is None  # order 4
    # orders that meet the bound of their size exactly
    for ks, order in (((6,), 6), ((3, 4), 12), ((5, 6), 30)):
        T = _block_diagonal([_companion(_cyclotomic(k)) for k in ks])
        assert isometry.max_finite_order(len(T)) == order
        assert isometry.infinite_order_evidence(T) is None


def test_infinite_order_evidence_unipotent():
    ev = isometry.infinite_order_evidence([[1, 1], [0, 1]])
    assert ev == {"reason": ORDER_REASON, "order_bound": 6, "charpoly": [1, -2, 1]}


def test_infinite_order_evidence_on_stored_witness():
    T = [list(r) for r in corpus.EXPECTED_P23_MATRIX]
    ev = isometry.infinite_order_evidence(T)
    assert ev is not None
    assert ev["reason"] == ORDER_REASON
    assert ev["order_bound"] == 12
    assert ev["charpoly"] == linalg.charpoly(T)
    # the oracle's factorisation holds the non-cyclotomic factor
    factors = oracles.charpoly_factors(T)
    assert corpus.EXPECTED_P23_FACTOR in factors
    assert oracles.cyclotomic_index(corpus.EXPECTED_P23_FACTOR) is None


@st.composite
def unimodular_pairs(draw, dim):
    """(U, U^-1) as products of elementary integer matrices."""
    U, U_inv = _identity(dim), _identity(dim)
    if dim < 2:
        return U, U_inv
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.permutations(range(dim)))[:2]
        c = draw(st.integers(-3, 3))
        # U <- U (I + c E_ij): column j += c column i
        for row in U:
            row[j] += c * row[i]
        # U^-1 <- (I - c E_ij) U^-1: row i -= c row j
        U_inv[i] = [a - c * b for a, b in zip(U_inv[i], U_inv[j])]
    return U, U_inv


@st.composite
def signed_permutations(draw, dim):
    perm = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    P = [[0] * dim for _ in range(dim)]
    for k in range(dim):
        P[perm[k]][k] = signs[k]
    return P


@st.composite
def cyclotomic_blocks(draw, dim):
    """Block-diagonal companions of cyclotomic polynomials, padded with 1."""
    blocks = []
    used = 0
    for k in draw(st.lists(st.integers(1, 18), max_size=4)):
        block = _companion(_cyclotomic(k))
        if used + len(block) <= dim:
            blocks.append(block)
            used += len(block)
    blocks += [[[1]]] * (dim - used)
    return _block_diagonal(blocks)


@st.composite
def unipotents(draw, dim):
    return [
        [draw(st.integers(-2, 2)) if j > i else int(i == j) for j in range(dim)]
        for i in range(dim)
    ]


@st.composite
def conjugated(draw, kind):
    dim = draw(st.integers(1, 6))
    M = draw(kind(dim))
    U, U_inv = draw(unimodular_pairs(dim))
    return linalg.mat_mul(linalg.mat_mul(U, M), U_inv)


@lru_cache(maxsize=None)
def _corpus_frame_maps():
    """Integral frame maps between corners of the (23,3) chamber, the
    rotations of the rank-2 polygons, and the stored p=23 witness."""
    maps = {tuple(map(tuple, corpus.EXPECTED_P23_MATRIX))}
    form = Form(23, 3)
    roots = vsearch.run_search(form).roots
    corners = [
        c for c in isometry.chamber_corners(volume.ChamberDiagram(form, roots))
        if len(c["orthogonal"]) == form.n
    ]
    for a in corners:
        f_from = [roots[i] for i in a["orthogonal"]] + [a["vector"]]
        for b in corners:
            for perm in permutations(b["orthogonal"]):
                f_to = [roots[i] for i in perm] + [b["vector"]]
                if form.gram(f_from) != form.gram(f_to):
                    continue
                T = isometry.frame_map(form, f_from, f_to)
                if T is not None:
                    maps.add(tuple(map(tuple, T)))
    for p in (13, 17, 19, 23):
        form = Form(p, 2)
        roots = vsearch.run_search(form).roots
        for shift in range(len(roots)):
            T = polygon_rotation(form, roots, shift)
            if T is not None:
                maps.add(tuple(map(tuple, T)))
    return sorted(maps)


def test_corpus_frame_maps_have_both_orders():
    finite = [oracles.has_finite_order(T) for T in _corpus_frame_maps()]
    assert any(finite) and not all(finite)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(T=st.one_of(
    conjugated(signed_permutations),
    conjugated(cyclotomic_blocks),
    conjugated(unipotents),
    st.deferred(lambda: st.sampled_from(_corpus_frame_maps())),
))
def test_infinite_order_evidence_matches_factoring_oracle(T):
    T = [list(row) for row in T]
    evidence = isometry.infinite_order_evidence(T)
    assert (evidence is None) == oracles.has_finite_order(T)
    if evidence is not None:
        assert evidence["order_bound"] == isometry.max_finite_order(len(T))
        assert evidence["charpoly"] == linalg.charpoly(T)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(T=st.one_of(
    st.integers(1, 6).flatmap(signed_permutations),
    st.deferred(lambda: st.sampled_from(_corpus_frame_maps())),
))
def test_infinite_order_evidence_matches_the_powers_oracle(T):
    # the characteristic-polynomial shortcut leaves the evidence as the
    # power loop alone builds it, byte for byte
    T = [list(row) for row in T]
    assert isometry.infinite_order_evidence(T) == oracles.infinite_order_evidence_by_powers(T)


def test_a_unipotent_block_at_the_coefficient_bound_takes_the_power_path(monkeypatch):
    # (x - 1)^4 = x^4 - 4x^3 + 6x^2 - 4x + 1: every |c_k| = comb(4, k), so
    # no coefficient proves infinite order and the powers must decide
    J = [[int(j in (i, i + 1)) for j in range(4)] for i in range(4)]
    assert linalg.charpoly(J) == [1, -4, 6, -4, 1]
    powers = []
    mat_mul = linalg.mat_mul

    def counted(A, B):
        powers.append(1)
        return mat_mul(A, B)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    evidence = isometry.infinite_order_evidence(J)
    # charpoly's 4 products, then the power loop's 12
    assert len(powers) == 4 + isometry.max_finite_order(4)
    assert evidence == oracles.infinite_order_evidence_by_powers(J)
    assert evidence == {"reason": ORDER_REASON, "order_bound": 12, "charpoly": [1, -4, 6, -4, 1]}


def test_find_infinite_symmetry_on_the_16_wall_chamber(search):
    form = Form(23, 3)
    result = search(23, 3)
    frontier = oracles.open_height(form, result.state.batches_done)
    witness = isometry.find_infinite_symmetry(
        volume.ChamberDiagram(form, result.roots), frontier
    )
    assert witness is not None
    T = witness["matrix"]
    F = form.form_matrix
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), F), T) == F
    assert witness["evidence"]["reason"] == ORDER_REASON
    # the map really moves one certified corner to another
    c_from = witness["frame_from"]["corner"]
    c_to = witness["frame_to"]["corner"]
    assert linalg.mat_vec(T, c_from) == c_to
    assert c_from != c_to


def test_find_infinite_symmetry_absent_on_reflective_chamber(search):
    # a closed chamber is the full one, so every corner is a vertex of it:
    # a limit above every corner's bound sweeps them all
    form = Form(13, 2)
    chamber = volume.ChamberDiagram(form, search(13, 2).roots)
    bounds = [isometry.corner_height_bound(form, c["vector"])
              for c in isometry.chamber_corners(chamber)]
    assert bounds
    assert isometry.find_infinite_symmetry(chamber, max(bounds) + 1) is None


# the corpus symmetry forms and three beyond the corpus
SHORTEST_CUT_FORMS = sorted(
    {(p, n) for p, (n, kind) in corpus.EXPECTED_FIRST_FAILURE.items()
     if kind == "infinite_symmetry"} | {(29, 3), (43, 3), (67, 3)}
)


@pytest.mark.parametrize("p,n", SHORTEST_CUT_FORMS)
def test_the_stored_cut_is_the_shortest_of_any_symmetry(search, report, p, n):
    # the hunt tries its pairs in increasing order of need, so the cut of
    # its first hit is the least over every symmetry of the final chamber
    result = search(p, n)
    cuts = oracles.symmetry_cuts(result.chamber, result.state.open_height())
    assert cuts
    assert report(p, n)["certificate"]["payload"]["batches_done"] == min(cuts)


@pytest.mark.parametrize("p,n,budget", [
    *((p, 3, vsearch.Budget(400, roots)) for p in (13, 19, 23) for roots in (8, 10)),
    (53, 2, vsearch.Budget()),
])
def test_the_hunt_finds_a_symmetry_exactly_when_the_exhaustive_hunt_does(p, n, budget):
    # each rank-3 form stays undecided at 8 roots and has a symmetry at 10;
    # (53, 2) stays undecided
    result = vsearch.run_search(Form(p, n), budget)
    limit = result.state.open_height()
    cuts = oracles.symmetry_cuts(result.chamber, limit)
    assert (isometry.find_infinite_symmetry(result.chamber, limit) is None) == (not cuts)
    if cuts:
        assert result.certificate["payload"]["batches_done"] == min(cuts)


def test_polygon_rotation_shifts(search):
    # hexagon with a half-turn symmetry: shift 3 rotates, shift 1 cannot
    form = Form(19, 2)
    roots = search(19, 2).roots
    T = polygon_rotation(form, roots, 3)
    assert T is not None
    F = form.form_matrix
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), F), T) == F
    assert polygon_rotation(form, roots, 1) is None
    assert polygon_rotation(form, roots, 0) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]
    ]


def test_polygon_rotation_asymmetric_polygon(search):
    form = Form(17, 2)
    roots = search(17, 2).roots
    k = len(roots)
    for shift in range(1, k):
        assert polygon_rotation(form, roots, shift) is None
