"""Exact linear algebra on integer matrices, cross-checked against sympy and
the Fraction references in oracles."""

import random
from itertools import combinations, product
from math import isqrt, prod

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

import oracles
from vinberg import linalg


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_hnf_matches_sympy_row_span():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = random_matrix(rng, rows, cols)
        ours = linalg.hnf_basis(A)
        M = sympy.Matrix(A)
        if M.rank() == 0:
            assert ours == []
            continue
        # sympy computes a column-style HNF; compare row spans via ranks
        theirs = hermite_normal_form(M.T).T.tolist()
        combined = [list(r) for r in ours] + [list(r) for r in theirs]
        assert oracles.rank(ours) == oracles.rank(theirs) == oracles.rank(combined)
        # integer span equality: each basis solves over Z in the other
        for basis, other in ((ours, theirs), (theirs, ours)):
            for row in other:
                assert linalg.solve(linalg.transpose(basis), [[x] for x in row]) is not None


def test_snf_invariant_factors_match_sympy():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = random_matrix(rng, rows, cols)
        D, U, V = linalg.snf(A)
        # D = U A V with unimodular U, V
        assert abs(oracles.fraction_det(U)) == 1
        assert abs(oracles.fraction_det(V)) == 1
        assert linalg.mat_mul(linalg.mat_mul(U, A), V) == D
        diag = [D[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
        sdiag = smith_normal_form(sympy.Matrix(A))
        sd = [abs(sdiag[i, i]) for i in range(min(rows, cols))]
        assert [abs(d) for d in diag] == sd


def test_integer_kernel_is_saturated():
    rng = random.Random(17)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(2, 5)
        A = random_matrix(rng, rows, cols, -5, 5)
        K = linalg.integer_kernel(A)
        for k in K:
            assert all(sum(a * x for a, x in zip(row, k)) == 0 for row in A)
        # saturation: every rational kernel vector, scaled integral,
        # must lie in the integer span of K
        for q in oracles.fraction_kernel(A):
            v = oracles.clear_denominators(q)
            assert linalg.solve(linalg.transpose(K), [[x] for x in v]) is not None


def test_solve_and_inverse():
    rng = random.Random(19)
    for _ in range(30):
        d = rng.randint(1, 4)
        A = random_matrix(rng, d, d)
        b = [rng.randint(-9, 9) for _ in range(d)]
        det = oracles.fraction_det(A)
        if det == 0:
            continue
        x = linalg.solve(A, [[y] for y in b])
        ref = oracles.fraction_solve(A, b)
        if all(t.denominator == 1 for t in ref):
            assert [t for t, in x] == ref
        else:
            assert x is None
        # the inverse is integral exactly when A is unimodular
        Ai = linalg.solve(A, linalg.identity(d))
        assert (Ai is None) == (abs(det) != 1)
        # elementary row operations on I give a unimodular U
        U = linalg.identity(d)
        for _ in range(6 if d > 1 else 0):
            i, j = rng.sample(range(d), 2)
            m = rng.randint(-3, 3)
            U[i] = [a + m * c for a, c in zip(U[i], U[j])]
        Ui = linalg.solve(U, linalg.identity(d))
        assert linalg.mat_mul(U, Ui) == linalg.mat_mul(Ui, U) == linalg.identity(d)


def test_charpoly_matches_sympy():
    rng = random.Random(23)
    lam = sympy.symbols("lam")
    for _ in range(30):
        d = rng.randint(1, 6)
        A = random_matrix(rng, d, d, -50, 50)
        ours = linalg.charpoly(A)
        assert all(type(c) is int for c in ours)
        theirs = sympy.Matrix(A).charpoly(lam).all_coeffs()
        assert ours == [int(c) for c in theirs]


def walk_order_scan(G, norms, box):
    """Vectors of the box whose norm lies in norms, one per sign pair, in
    the order the Fincke-Pohst walk meets them.

    The walk fixes x_{n-1} first and x_0 last, each in ascending order, and
    walks the half of every sign pair whose last nonzero coordinate is
    positive; so its order is the lexicographic order of the reversed
    vector.  It reports the sign with the first nonzero coordinate
    positive.
    """
    hits = []
    for v in product(*box):
        if next((x for x in reversed(v) if x), 0) > 0:
            m = quadratic_norm(G, v)
            if m in norms:
                hits.append((v[::-1], v, m))
    out = []
    for _, v, m in sorted(hits):
        if next(x for x in v if x) < 0:
            v = tuple(-x for x in v)
        out.append((v, m))
    return out


def test_short_vectors_against_box_scan():
    rng = random.Random(29)
    for k in range(30):
        d = rng.randint(1, 3)
        B = random_matrix(rng, d, d, -2, 2)
        G = [[sum(B[i][k] * B[j][k] for k in range(d)) + (4 if i == j else 0)
              for j in range(d)] for i in range(d)]
        # small norms, then three sparse ones up to 90
        if k < 15:
            norms = set(rng.sample(range(1, 31), rng.randint(1, 5)))
        else:
            norms = set(rng.sample(range(1, 91), 3))
        found = linalg.short_vectors(G, norms)
        # G - 4I is semidefinite, so 4 x_i^2 <= Q(x) boxes in every solution
        lim = isqrt(max(norms) // 4)
        assert found == walk_order_scan(G, norms, [range(-lim, lim + 1)] * d)
        # every returned norm is x^T G x exactly, as an int
        for v, m in found:
            assert type(m) is int and m == quadratic_norm(G, v)


def test_short_vectors_on_rank_one_and_unreached_norms():
    assert linalg.short_vectors([[3]], {27, 3, 12, 5}) == [((1,), 3), ((2,), 12), ((3,), 27)]
    assert linalg.short_vectors([[3]], {5}) == []
    # a norm listed twice is walked once
    assert linalg.short_vectors([[3]], [12, 3, 12]) == [((1,), 3), ((2,), 12)]
    # A2 root lattice: norms 2, 6, 8 are reached, 4 and 5 never are
    A2 = [[2, -1], [-1, 2]]
    assert linalg.short_vectors(A2, {4, 5}) == []
    assert linalg.short_vectors(A2, {2}) == [((1, 0), 2), ((0, 1), 2), ((1, 1), 2)]


@pytest.mark.parametrize("G", [
    [[1]], [[3]], [[7]],
    [[2, -1], [-1, 2]], [[3, 1], [1, 5]], [[1, 0], [0, 1]],
    [[5, 2], [2, 4]], [[6, 5], [5, 6]],
])
def test_short_vectors_on_one_and_two_levels(G):
    # a 1x1 Gram reaches the leaf from the top, a 2x2 one from level 1
    d = len(G)
    norms = {1, 2, 3, 4, 5, 6, 7, 12, 20, 37}
    inv = fraction_inverse(G)
    lims = [isqrt(int(max(norms) * inv[i][i])) for i in range(d)]
    full = linalg.short_vectors(G, norms)
    assert full == walk_order_scan(G, norms, [range(-lim, lim + 1) for lim in lims])
    assert full
    assert linalg.short_vectors(G, norms, lambda v, m: False) == full
    for k in range(1, len(full) + 1):
        walked = []
        got = linalg.short_vectors(G, norms, lambda v, m: walked.append(v) or len(walked) == k)
        assert got == full[:k]


def test_short_vectors_stop_ends_the_walk_at_the_kth_vector():
    G = [[4, 1, 0], [1, 3, -1], [0, -1, 5]]
    norms = range(1, 25)
    full = linalg.short_vectors(G, norms)
    assert len(full) > 10
    assert linalg.short_vectors(G, norms, lambda v, m: False) == full
    for k in range(1, len(full) + 1):
        walked = []
        fired = []

        def stop(v, m):
            walked.append((v, m))
            if len(walked) == k:
                fired.append(v)
                return True
            return False

        got = linalg.short_vectors(G, norms, stop)
        assert len(walked) == k and len(fired) == 1
        assert got == walked == full[:k]


def test_psd_classify():
    assert linalg.psd_classify([[2, 0], [0, 3]]) == "definite"
    assert linalg.psd_classify([[1, 1], [1, 1]]) == "degenerate"
    assert linalg.psd_classify([[1, 3], [3, 1]]) == "indefinite"
    assert linalg.psd_classify([[0, 1], [1, 0]]) == "indefinite"
    assert linalg.psd_classify([[4, 2, 2], [2, 1, 1], [2, 1, 1]]) == "degenerate"
    assert linalg.psd_classify([[0]]) == "degenerate"
    assert linalg.psd_classify([[-1]]) == "indefinite"


def test_ldl_reconstructs_gram():
    rng = random.Random(31)
    for _ in range(20):
        d = rng.randint(1, 4)
        B = random_matrix(rng, d, d, -3, 3)
        G = [[sum(B[i][k] * B[j][k] for k in range(d)) + (2 if i == j else 0)
              for j in range(d)] for i in range(d)]
        D, terms, w, S = linalg.integral_ldl(G)
        # S Q(x) = sum_k w_k N_k^2 with N_k = C[k] . x, so S G = C^T W C
        # with C upper triangular, C[k][k] = D_k
        C = [[0] * d for _ in range(d)]
        for k in range(d):
            C[k][k] = D[k]
            for j, a in terms[k]:
                C[k][j] = a
        assert all(x > 0 for x in D + w)
        for i in range(d):
            for j in range(d):
                assert sum(w[k] * C[k][i] * C[k][j] for k in range(d)) == S * G[i][j]
    with pytest.raises(ValueError):
        linalg.integral_ldl([[1, 2], [2, 4]])


def fraction_inverse(G):
    """G^-1 in Fractions, read off fraction_rref of [G | I]."""
    n = len(G)
    R, _ = oracles.fraction_rref([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(G)])
    return [row[n:] for row in R]


def quadratic_norm(G, v):
    return sum(a * sum(g * b for g, b in zip(row, v)) for a, row in zip(v, G))


@st.composite
def skewed_definite_grams(draw, max_rank=5):
    """U G0 U^T with G0 strictly diagonally dominant (so positive definite)
    and U a product of elementary integer row operations (so unimodular).
    The skew makes the LDL coefficients and weights non-integral."""
    d = draw(st.integers(1, max_rank))
    G0 = [[0] * d for _ in range(d)]
    for i, j in combinations(range(d), 2):
        G0[i][j] = G0[j][i] = draw(st.integers(-2, 2))
    for i in range(d):
        G0[i][i] = sum(abs(x) for x in G0[i]) + draw(st.integers(1, 4))
    U = linalg.identity(d)
    if d > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.permutations(range(d)))[:2]
            m = draw(st.integers(-2, 2))
            U[i] = [a + m * b for a, b in zip(U[i], U[j])]
    return linalg.mat_mul(linalg.mat_mul(U, G0), linalg.transpose(U))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    G=skewed_definite_grams(),
    norms=st.sets(st.integers(1, 40), min_size=1, max_size=5),
)
def test_short_vectors_match_box_scan_on_skewed_lattices(G, norms):
    d = len(G)
    bound = max(norms)
    # x_i^2 <= Q(x) (G^-1)_ii by Cauchy-Schwarz, which boxes in every solution
    inv = fraction_inverse(G)
    lims = [isqrt(int(bound * inv[i][i])) for i in range(d)]
    assume(prod(2 * lim + 1 for lim in lims) <= 20000)
    found = linalg.short_vectors(G, norms)
    assert found == walk_order_scan(G, norms, [range(-lim, lim + 1) for lim in lims])
    # Q(x) is an integer, so these norms make the full walk up to bound,
    # and restricting it to norms keeps its order
    every = set(range(1, bound + 1))
    assert found == [(v, m) for v, m in linalg.short_vectors(G, every) if m in norms]
    # the norm is exact
    for v, m in found:
        assert type(m) is int and m == quadratic_norm(G, v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(G=skewed_definite_grams())
def test_integral_ldl_matches_the_fraction_reference(G):
    # the walk's windows, and so its order, are fixed by (D, a, w, S)
    assert linalg.integral_ldl(G) == oracles.cleared_ldl(G)


def rank_mod_p(rows, p):
    """Rank of an integer matrix over GF(p), by sympy."""
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    return DomainMatrix([[GF(p)(a) for a in row] for row in rows],
                        (len(rows), len(rows[0])), GF(p)).rank()


@st.composite
def congruence_walks(draw):
    """A positive definite Gram of rank d, a prime p, up to d residue rows
    mod p, and the norms p, 2p and 3p with up to three more from 1..3p."""
    G = draw(skewed_definite_grams(max_rank=4))
    d = len(G)
    p = draw(st.sampled_from([2, 3, 5, 7]))
    row = st.lists(st.integers(-2 * p, 2 * p), min_size=d, max_size=d)
    rows = draw(st.lists(row, max_size=d))
    norms = draw(st.sets(st.integers(1, 3 * p), max_size=3)) | {p, 2 * p, 3 * p}
    return G, p, rows, norms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(walk=congruence_walks())
def test_congruent_short_vectors_match_the_filtered_walk(walk):
    G, p, rows, norms = walk
    d = len(G)
    B = linalg.congruence_basis(rows, p, d)
    # B spans the congruence lattice: its rows satisfy every congruence,
    # and their index p^r is the congruence lattice's
    assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows for v in B)
    assert abs(oracles.fraction_det(B)) == p ** rank_mod_p(rows, p)
    found = linalg.congruent_short_vectors(G, norms, p, rows)
    assert len(found) == len(set(found))
    assert set(found) == {
        (x, m) for x, m in linalg.short_vectors(G, norms)
        if m % p or all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in rows)
    }
    for x, m in found:
        assert next(a for a in x if a) > 0
        assert m == quadratic_norm(G, x)
    # a stop at the kth vector leaves the first k, across both walks
    for k in range(1, min(len(found), 6) + 1):
        walked = []
        got = linalg.congruent_short_vectors(
            G, norms, p, rows, lambda x, m: walked.append(x) or len(walked) == k)
        assert got == found[:k]


def test_congruent_short_vectors_on_the_square_lattice():
    # x_0 + 2 x_1 = 0 mod 5: the pivot is the last column, so the basis is
    # upper triangular with p last, and the norm-5 walk runs first
    assert linalg.congruence_basis([[1, 2]], 5, 2) == [[1, -3], [0, 5]]
    assert linalg.congruence_basis([], 5, 2) == linalg.congruence_basis([[5, 10]], 5, 2) == \
        linalg.identity(2)
    Z2 = linalg.identity(2)
    assert linalg.congruent_short_vectors(Z2, [1, 5], 5, [[1, 2]]) == \
        [((1, 2), 5), ((2, -1), 5), ((1, 0), 1), ((0, 1), 1)]
    assert linalg.congruent_short_vectors(Z2, [1, 5], 5, [[1, 2]], lambda x, m: True) == \
        [((1, 2), 5)]


def principal_minor_class(G):
    """Sylvester's criteria: definite iff every leading principal minor is
    positive; semidefinite iff every principal minor is nonnegative."""
    d = len(G)
    if all(oracles.fraction_det([row[:k] for row in G[:k]]) > 0 for k in range(1, d + 1)):
        return "definite"
    for k in range(1, d + 1):
        for idx in combinations(range(d), k):
            if oracles.fraction_det([[G[i][j] for j in idx] for i in idx]) < 0:
                return "indefinite"
    return "degenerate"


@st.composite
def symmetric_matrices(draw, max_rank=6):
    """Random symmetric matrices, biased toward the semidefinite boundary:
    Gram matrices B^T B of k x d integer matrices (degenerate when k < d),
    optionally shifted by a small diagonal perturbation, or with some
    diagonal entries zeroed."""
    d = draw(st.integers(1, max_rank))
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        k = draw(st.integers(0, d + 1))
        B = [[draw(entries) for _ in range(d)] for _ in range(k)]
        G = [[sum(B[r][i] * B[r][j] for r in range(k)) for j in range(d)] for i in range(d)]
        if draw(st.booleans()):
            i = draw(st.integers(0, d - 1))
            G[i][i] += draw(st.integers(-2, 2))
    else:
        G = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                G[i][j] = G[j][i] = draw(entries)
        # zero diagonal entries leave no pivot in their rows
        for i in draw(st.sets(st.integers(0, d - 1))):
            G[i][i] = 0
    return G


@settings(max_examples=300, deadline=None, derandomize=True)
@given(G=symmetric_matrices())
def test_psd_classify_matches_principal_minor_oracle(G):
    assert linalg.psd_classify(G) == principal_minor_class(G)


@st.composite
def integer_matrices(draw, max_size=7, square=False):
    """Integer matrices up to 7 x 7 with many zero entries, so that pivots
    must be searched for; half of them are products B C through an inner
    dimension k below both sizes, so rank-deficient, with some rows
    scaled by zero."""
    rows = draw(st.integers(1, max_size))
    cols = rows if square else draw(st.integers(1, max_size))
    entries = st.one_of(st.just(0), st.integers(-6, 6))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    k = draw(st.integers(0, min(rows, cols) - 1))
    B = [[draw(entries) for _ in range(k)] for _ in range(rows)]
    C = [[draw(entries) for _ in range(cols)] for _ in range(k)]
    A = [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(cols)]
         for i in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1))):
        A[i] = [0] * cols
    return A


@st.composite
def hnf_inputs(draw):
    """integer_matrices, or half the time a single column of up to 10
    entries, zeros and negatives among them, scaled by 1..4 so that its
    content is often above 1: the shape of null_quotient's two HNFs."""
    if draw(st.booleans()):
        return draw(integer_matrices())
    column = draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=1, max_size=10))
    g = draw(st.integers(1, 4))
    return [[g * x] for x in column]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=hnf_inputs())
def test_row_hnf_keeps_its_transform_and_carries_its_inverse(A):
    # H and U are those of the algorithm before W was carried, with or
    # without inverse, and W = U^-T
    H, U = linalg.row_hnf(A)
    assert (H, U) == oracles.hermite_with_transform(A)
    H2, U2, W = linalg.row_hnf(A, inverse=True)
    assert (H2, U2) == (H, U)
    assert linalg.mat_mul(U, linalg.transpose(W)) == linalg.identity(len(A))


@st.composite
def integer_systems(draw):
    """An integer matrix and one to three right-hand sides.  Half the
    matrices are square or tall with random entries, so their columns are
    independent but for chance, as solve's callers pass; the others come
    from integer_matrices with zero rows and columns.  Each right-hand
    side is either random (often inconsistent when A is tall or
    rank-deficient, often non-integral when A is square with
    |det A| > 1) or A x for a random integer x (consistent).  Half the
    time A is then scaled by q = 2..4, which turns every consistent A x
    column into one whose solutions are x / q, so consistent and
    non-integral."""
    entries = st.integers(-6, 6)
    if draw(st.booleans()):
        cols = draw(st.integers(1, 5))
        rows = draw(st.integers(cols, 7))
        A = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    else:
        A = draw(integer_matrices())
        for j in draw(st.sets(st.integers(0, len(A[0]) - 1), max_size=2)):
            for row in A:
                row[j] = 0
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            columns.append([draw(entries) for _ in A])
        else:
            x = [draw(entries) for _ in A[0]]
            columns.append([sum(a * t for a, t in zip(row, x)) for row in A])
    if draw(st.booleans()):
        q = draw(st.integers(2, 4))
        A = [[q * a for a in row] for row in A]
    return A, [list(row) for row in zip(*columns)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(A=integer_matrices())
def test_rank_matches_rref_pivot_count(A):
    assert oracles.rank(A) == len(oracles.fraction_rref(A)[1])


@st.composite
def vector_sequences(draw, max_dim=8):
    """Integer vectors of one length, each drawn afresh or as an integer
    combination of two earlier ones, so dependent vectors come often."""
    d = draw(st.integers(1, max_dim))
    entries = st.integers(-4, 4)
    vectors = []
    for _ in range(draw(st.integers(0, d + 3))):
        if len(vectors) >= 2 and draw(st.booleans()):
            i, j = draw(st.permutations(range(len(vectors))))[:2]
            a, b = draw(entries), draw(entries)
            vectors.append([a * x + b * y for x, y in zip(vectors[i], vectors[j])])
        else:
            vectors.append([draw(entries) for _ in range(d)])
    return vectors


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors=vector_sequences())
def test_echelon_tracks_the_rank_of_every_prefix(vectors):
    span = linalg.Echelon()
    for k, v in enumerate(vectors, 1):
        before = len(span.rows)
        grew = span.add(v)
        assert len(span.rows) == oracles.rank(vectors[:k])
        assert grew == (len(span.rows) == before + 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=integer_systems())
def test_solve_matches_the_fraction_reference(system):
    A, B = system
    X = linalg.solve(A, B)
    refs = [oracles.fraction_solve(A, list(col)) for col in zip(*B)]
    dependent = len(oracles.fraction_rref(A)[1]) < len(A[0])
    if dependent or any(x is None or any(t.denominator != 1 for t in x) for x in refs):
        assert X is None
    else:
        assert X == [list(row) for row in zip(*refs)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(A=integer_matrices(square=True))
def test_inverse_matches_the_fraction_reference(A):
    n = len(A)
    R, pivots = oracles.fraction_rref([row + [int(i == j) for j in range(n)]
                                       for i, row in enumerate(A)])
    inv = linalg.solve(A, linalg.identity(n))
    if pivots[:n] != list(range(n)):
        # A X = I has no solution at all
        assert oracles.fraction_det(A) == 0
        assert inv is None
    elif all(x.denominator == 1 for row in R for x in row[n:]):
        assert inv == [row[n:] for row in R]
    else:
        assert inv is None


def test_elimination_on_edge_shapes():
    assert linalg.solve([], []) == []
    # dependent columns: None, consistent or not
    assert linalg.solve([[0, 2, 4]], [[6, 2]]) is None
    assert linalg.solve([[0, 0, 0]], [[0]]) is None
    assert linalg.solve([[0, 0, 0]], [[1]]) is None
    assert linalg.solve([[0], [0]], [[0, 0], [0, 0]]) is None
    assert linalg.solve([[1, 1], [2, 2]], [[2], [4]]) is None
    assert linalg.solve([[1, 1], [2, 2]], [[1], [3]]) is None
    assert linalg.solve([[0], [6], [1]], [[0], [12], [2]]) == [[2]]
    assert linalg.solve([[0], [6], [1]], [[1], [12], [2]]) is None
    # x = 3/2 is rational only
    assert linalg.solve([[0], [2]], [[0], [3]]) is None
    assert linalg.solve([[0, 1], [2, 0], [4, 0]], [[5, 0], [6, 2], [12, 4]]) == [[3, 1], [5, 0]]
    assert linalg.solve([[1, 2], [2, 4]], linalg.identity(2)) is None
    assert linalg.solve([[2, 1], [1, 1]], linalg.identity(2)) == [[1, -1], [-1, 2]]
