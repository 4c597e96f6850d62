"""Exact linear algebra on integer matrices.

Matrices are plain lists of row lists of ints, vectors are sequences of
ints: every matrix the package builds is a Gram matrix, a constraint
matrix or a frame of lattice vectors, and every answer is an int.
Nothing here touches Fractions or floating point; every routine is
deterministic, so identical inputs give byte-identical downstream reports.

Every integer system, kernel, basis and normal form takes one unimodular
row step, _combine_rows: rows i and j become s i + t j and a j - b i from
exgcd of their entries in one column, applied to the matrix and its
transform alike.  solve (for one column of snf's V^-1), hnf_basis and
integer_kernel read row_hnf's pass, and solve_hnf back-substitutes on a
pass already made, so isometry.frame_map factors a frame once for all
the frames it is mapped to; snf takes its column steps as the same row
steps on the transposes.  row_hnf can
also carry W = U^-T, taking each step's inverse transpose as it goes
(Cohen, 2.4), so null_quotient inverts no transform it builds.  Gram
classes keep Bareiss's symmetric fraction-free elimination (psd_classify),
whose exact divisions keep entries the size of minors.  Echelon keeps a
growing set of rows in echelon form, so each new row's independence costs
one reduction.  short_vectors (Fincke-Pohst) walks its tree on the
integral Gram-Schmidt data of integral_ldl, read off psd_classify's pass
(_symmetric_bareiss), an integer remainder and isqrt windows, solving its
last coordinate for each wanted integer norm directly.
congruent_short_vectors composes two such walks: norms divisible by a
prime p on the lattice cut out by congruences mod p (congruence_basis, a
Gauss-Jordan elimination mod p whose basis rows are p e_j and e_j minus
reduced entries), the other norms on the whole one.  charpoly works over
the integers throughout.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


def exgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _combine_rows(mats, i, j, c, inverses=()) -> None:
    """The unimodular two-row step: with x, y the entries of rows i and j
    in column c of mats[0], g, s, t = exgcd(x, y), a = x // g and
    b = y // g, rows i and j of every matrix in mats become s i + t j and
    a j - b i: E = [[s, t], [-b, a]], of determinant s a + t b = 1, leaves
    mats[0][j][c] zero.  Each matrix in inverses takes E^-T = J E J^T, J
    the quarter turn: the same step with (s, t) and (a, b) exchanged."""
    x, y = mats[0][i][c], mats[0][j][c]
    g, s, t = exgcd(x, y)
    a, b = x // g, y // g
    _row_step(mats, i, j, s, t, a, b)
    _row_step(inverses, i, j, a, b, s, t)


def _row_step(mats, i, j, s, t, a, b) -> None:
    for M in mats:
        M[i], M[j] = (
            [s * u + t * v for u, v in zip(M[i], M[j])],
            [a * v - b * u for u, v in zip(M[i], M[j])],
        )


class Echelon:
    """Integer rows of rank len(rows), kept in echelon form as they come.

    rows holds (pivot column, row) pairs; each row is zero at the pivot
    columns of the rows before it.  add(v) clears v at every stored pivot
    by the fraction-free step v <- row[c] v - v[c] row and divides out the
    content.  Each step scales v by a nonzero integer and subtracts a
    multiple of a stored row, and the rows are triangular on their pivots,
    so v lies in their rational span exactly when nothing is left; a
    nonzero remainder is stored, with its first nonzero column as pivot.
    """

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []

    def add(self, v) -> bool:
        """Store v's remainder and return True when v is independent of
        the stored rows; return False, storing nothing, otherwise."""
        v = list(v)
        for c, row in self.rows:
            f = v[c]
            if f:
                d = row[c]
                v = [d * a - f * b for a, b in zip(v, row)]
                g = gcd(*v)
                if g > 1:
                    v = [a // g for a in v]
        c = next((j for j, a in enumerate(v) if a), None)
        if c is None:
            return False
        self.rows.append((c, v))
        return True


def solve(A, B) -> list[list[int]] | None:
    """The integral X with A X = B, or None.

    A is m x n and B is m x k, both integer.  Returns None when A's
    columns are linearly dependent, when the system is inconsistent, or
    when its one rational solution is not integral.

    With H, U = row_hnf(A), A X = B exactly when H X = U B, U being
    unimodular.  A's columns are independent exactly when H has its n
    pivots on the diagonal; the rows of H past the n-th are then zero, so
    the system is consistent exactly when those rows of U B are zero too.
    H's first n rows are then upper triangular, so X is solved from its
    last row up, each row's share taken out of the rows above it, and is
    integral exactly when every division by a pivot is exact.
    """
    return solve_hnf(row_hnf(A), B)


def solve_hnf(hnf, B) -> list[list[int]] | None:
    """solve's X for A X = B, given hnf = row_hnf(A): its back-substitution
    alone, so that one factored A serves many B."""
    H, U = hnf
    n = len(H[0]) if H else 0
    if len(H) < n or not all(H[i][i] for i in range(n)):
        return None
    Y = mat_mul(U, B)
    if any(any(row) for row in Y[n:]):
        return None
    X = [None] * n
    for i in reversed(range(n)):
        d = H[i][i]
        if any(y % d for y in Y[i]):
            return None
        X[i] = x = [y // d for y in Y[i]]
        Y[:i] = [[a - h[i] * b for a, b in zip(y, x)] if h[i] else y for h, y in zip(H, Y[:i])]
    return X


def row_hnf(A, inverse=False) -> tuple[list[list[int]], ...]:
    """Row Hermite normal form of an integer matrix: (H, U) with U
    unimodular and U A = H, or with inverse (H, U, W), W = U^-T, so that
    row i of W reads the coefficient of row i of U in a vector.  Pivots
    are positive, entries above a pivot are reduced into [0, pivot), zero
    rows sink to the bottom.  W takes each step's inverse transpose: a swap
    or a sign change is its own, and row i - q row r is row r + q row i.
    """
    H = [list(row) for row in A]
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity(m)
    out = (H, U, identity(m)) if inverse else (H, U)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if H[i][c] != 0), None)
        if piv is None:
            continue
        for M in out:
            M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, m):
            if H[i][c]:
                _combine_rows((H, U), r, i, c, out[2:])
        if H[r][c] < 0:
            for M in out:
                M[r] = [-x for x in M[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                for W in out[2:]:
                    W[r] = [x + q * y for x, y in zip(W[r], W[i])]
        r += 1
        if r == m:
            break
    return out


def hnf_basis(vectors) -> list[list[int]]:
    """Canonical basis (nonzero HNF rows) of the lattice spanned by the rows."""
    H, _ = row_hnf(vectors)
    return [row for row in H if any(row)]


def integer_kernel(A) -> list[list[int]]:
    """Basis of the saturated lattice {x in Z^n : A x = 0}.

    The zero rows of the HNF of A^T correspond to unimodular-transform rows
    spanning exactly the integer kernel.
    """
    At = transpose(A)
    H, U = row_hnf(At)
    return [list(U[i]) for i in range(len(H)) if not any(H[i])]


def _clear_column(D, U, r) -> None:
    """Clear column r of D below row r by unimodular row steps on D and U:
    a row whose entry is a multiple of the corner D[r][r] loses that
    multiple of row r, which keeps row r as it is; any other is combined
    with row r by _combine_rows."""
    for i in range(r + 1, len(D)):
        if D[i][r] == 0:
            continue
        if D[i][r] % D[r][r] == 0:
            q = D[i][r] // D[r][r]
            D[i] = [x - q * y for x, y in zip(D[i], D[r])]
            U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        else:
            _combine_rows((D, U), r, i, r)


def snf(A) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form.  Returns (D, U, V) with U A V = D diagonal,
    each diagonal entry nonnegative and dividing the next; _clear_column
    clears the corner's column on (D, U) and its row on (D^T, V^T).
    """
    D = [list(row) for row in A]
    m = len(D)
    n = len(D[0]) if m else 0
    U = identity(m)
    V = identity(n)
    for t0 in range(min(m, n)):
        while True:
            # move a nonzero entry of the trailing block to the corner
            pos = next(
                ((i, j) for i in range(t0, m) for j in range(t0, n) if D[i][j] != 0),
                None,
            )
            if pos is None:
                break
            i, j = pos
            D[t0], D[i] = D[i], D[t0]
            U[t0], U[i] = U[i], U[t0]
            for row in (*D, *V):
                row[t0], row[j] = row[j], row[t0]
            _clear_column(D, U, t0)
            Dt, Vt = transpose(D), transpose(V)
            _clear_column(Dt, Vt, t0)
            D, V = transpose(Dt), transpose(Vt)
            # column ops can re-dirty the column under the corner
            if any(D[i][t0] for i in range(t0 + 1, m)):
                continue
            bad = next(
                (
                    (i, j)
                    for i in range(t0 + 1, m)
                    for j in range(t0 + 1, n)
                    if D[i][j] % D[t0][t0] != 0
                ),
                None,
            )
            if bad is None:
                break
            # fold the offending row in so the corner gcd can shrink
            D[t0] = [x + y for x, y in zip(D[t0], D[bad[0]])]
            U[t0] = [x + y for x, y in zip(U[t0], U[bad[0]])]
        if D[t0][t0] < 0:
            D[t0] = [-x for x in D[t0]]
            U[t0] = [-x for x in U[t0]]
    return D, U, V


def psd_classify(G) -> str:
    """Classify a symmetric integer matrix by its quadratic form.

    Returns "definite" (positive definite), "degenerate" (positive
    semidefinite with nontrivial kernel) or "indefinite".  Pivots on the
    first positive diagonal entry of the active block, as Schur-complement
    elimination would; a PSD matrix with no positive diagonal entry left
    must have the whole active block zero.

    The elimination is Bareiss's fraction-free one.  With pivot p,
    d = A[p][p] and prev the previous pivot (1 at first), each update (d A[i][j] - A[i][p] A[p][j]) // prev
    divides exactly: every active entry is the minor of G on the pivots
    plus row i and column j, that is the Schur-complement entry times the
    positive minor on the pivots.  So signs and zeros match the rational
    elimination, while entries stay the size of minors.

    The critical-subdiagram walk classifies its sets by bordering instead
    (volume.bordered_column).  This serves the Gram matrices that do not
    grow one node from a definite one: Diagram.psd_class (the cross-check
    in diagram.affine_type, and volume's hyperbolic test for a component
    the walk did not reach), quotient.null_quotient and
    isometry.vertex_walls; integral_ldl reads the rows of its pass.
    """
    return _symmetric_bareiss(G)[0]


def _symmetric_bareiss(G) -> tuple[str, list[list[int]]]:
    """psd_classify's class of G and its eliminated matrix, in which a definite
    G, pivoted in index order, has Bareiss's row lambda_i in row i from column i on."""
    A = [list(row) for row in G]
    active = list(range(len(A)))
    prev = 1
    while active:
        piv = next((i for i in active if A[i][i] > 0), None)
        if piv is None:
            for i in active:
                for j in active:
                    if A[i][j] != 0:
                        return "indefinite", A
            return "degenerate", A
        active.remove(piv)
        d = A[piv][piv]
        prow = A[piv]
        for i in active:
            row = A[i]
            f = row[piv]
            for j in active:
                row[j] = (d * row[j] - f * prow[j]) // prev
        prev = d
    return "definite", A


def charpoly(M) -> list[int]:
    """Characteristic polynomial det(x I - M) of an integer matrix by the
    Faddeev-LeVerrier recurrence.  Returns integer coefficients
    [1, c1, ..., cn].

    With M_0 = I, c_k = -tr(M M_{k-1}) / k and M_k = M M_{k-1} + c_k I.
    Every c_k is an integer for integer M, so the division is exact.
    """
    n = len(M)
    coeffs = [1]
    Mk = identity(n)
    for k in range(1, n + 1):
        Mk = mat_mul(M, Mk)
        c = -sum(Mk[i][i] for i in range(n)) // k
        for i in range(n):
            Mk[i][i] += c
        coeffs.append(c)
    return coeffs


def integral_ldl(G) -> tuple[list[int], list[list[tuple[int, int]]], list[int], int]:
    """Integral Gram-Schmidt data of a positive definite integer matrix.

    Returns (D, terms, w, S) with terms[i] the pairs (j, a_ij), j > i and
    a_ij nonzero, such that

        S x^T G x = sum_i w_i N_i^2,   N_i = D_i x_i + sum_{j>i} a_ij x_j,

    D_i and w_i positive and every row (D_i, a_ij) primitive.  psd_classify's
    pass leaves Bareiss's rows lambda_i, whose diagonal entries are the
    leading minors Delta_{i+1} (Delta_0 = 1), so that
    x^T G x = sum_i (Delta_{i+1} x_i + sum_{j>i} lambda_ij x_j)^2
    / (Delta_i Delta_{i+1}) (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7).  Row i is divided by the gcd g_i of its
    entries, and S is the least common denominator of the weights
    g_i^2 / (Delta_i Delta_{i+1}).  So D_i is the common denominator of
    row i of the rational LDL form, and S the least scale clearing its
    weights.
    """
    n = len(G)
    cls, lam = _symmetric_bareiss(G)
    if cls != "definite":
        raise ValueError("matrix is not positive definite")
    D, terms, num, den = [], [], [], []
    prev = 1
    for i, row in enumerate(lam):
        g = gcd(*row[i:])
        D.append(row[i] // g)
        terms.append([(j, row[j] // g) for j in range(i + 1, n) if row[j]])
        q = prev * row[i]
        h = gcd(g * g, q)
        num.append(g * g // h)
        den.append(q // h)
        prev = row[i]
    S = lcm(*den)
    return D, terms, [S // b * a for a, b in zip(num, den)], S


class _StopWalk(Exception):
    """Raised at a leaf of the short_vectors walk when stop returns true."""


def short_vectors(G, norms, stop=None) -> list[tuple[tuple[int, ...], int]]:
    """All x in Z^n with x^T G x in the finite set norms, one per sign pair,
    in walk order.

    Returns (x, x^T G x) pairs.  G must be a positive definite integer
    matrix and norms a nonempty collection of positive integer norms.  The
    representative of {x, -x} has its first nonzero coordinate positive.

    Exact Fincke-Pohst walk in integer arithmetic, bounded by
    bound = max(norms), on the integral Gram-Schmidt data of integral_ldl
    (Cohen, Alg. 2.6.7): the Bareiss rows lambda_i and leading minors
    Delta_i of G give Q(x) = sum_i (Delta_{i+1} x_i + sum_{j>i} lambda_ij
    x_j)^2 / (Delta_i Delta_{i+1}), and dividing row i by its content gives

        S Q(x) = sum_i w_i N_i^2,   N_i = D_i x_i + sum_{j>i} a_ij x_j.

    Coordinates are chosen from x_{n-1} down to x_1 against an integer
    remainder R (S bound minus the terms already fixed).  w_i N_i^2 <= R
    holds exactly when |N_i| <= s = isqrt(R // w_i), so the window for x_i
    is -((s + c) // D_i) <= x_i <= (s - c) // D_i with c = N_i - D_i x_i.
    While every coordinate above level i is zero the window is symmetric
    and only x_i >= 0 is walked: the skipped half holds the negatives of
    the walked vectors.  The last level fixes Q(x) = m: for each m it
    solves w_0 N_0^2 = R - (S bound - S m) with one isqrt and keeps the
    roots N_0 = +-s with D_0 | N_0 - c; no other x_0 can give a norm in
    the set.  Those x_0 are emitted in ascending order, as the full walk
    of the window would meet them, and x_0 >= 1 only while every other
    coordinate is zero.  A vector is negated when its first nonzero
    coordinate is negative.  Level 1 sums the part of the leaf's c that
    x_2, ..., x_{n-1} fix once per node, and a leaf with no root returns
    at once.

    The walk order is deterministic but not sorted; callers that need an
    order sort.  stop, if given, is called as stop(x, norm) on each vector
    right after it is recorded.  A true return ends the walk at once: the
    result then holds exactly the vectors walked so far, and stop is not
    called again.  If stop never returns true the result is the complete
    one.
    """
    n = len(G)
    D, terms, w, S = integral_ldl(G)
    norms = sorted(set(norms))
    bound = norms[-1]
    top = S * bound
    gaps = [(top - S * m, m) for m in norms]
    found: list = []
    x = [0] * n
    D0, w0 = D[0], w[0]

    # the leaf's c is a_01 x_1 plus the part that x_2, ..., x_{n-1} fix;
    # level 1 sums that part once per node
    a01 = dict(terms[0]).get(1, 0)
    rest0 = [(j, a) for j, a in terms[0] if j > 1]

    def leaves(R: int, free: bool, c: int) -> None:
        hits = []
        for gap, m in gaps:
            q, r = divmod(R - gap, w0)
            if q < 0 or r:
                continue
            s = isqrt(q)
            if s * s != q:
                continue
            for N in {s, -s}:
                t, r = divmod(N - c, D0)
                if r == 0 and (t >= 1 or not free):
                    hits.append((t, m))
        if not hits:
            return
        hits.sort()
        for t, m in hits:
            x[0] = t
            vec = tuple(x)
            if next(v for v in vec if v) < 0:
                vec = tuple(-v for v in vec)
            found.append((vec, m))
            if stop is not None and stop(vec, m):
                raise _StopWalk
        x[0] = 0

    def walk(i: int, R: int, free: bool) -> None:
        c = sum(a * x[j] for j, a in terms[i])
        Di, wi = D[i], w[i]
        s = isqrt(R // wi)
        lo = 0 if free else -((s + c) // Di)
        if i == 1:
            c0 = sum(a * x[j] for j, a in rest0)
            for t in range(lo, (s - c) // Di + 1):
                x[1] = t
                N = Di * t + c
                leaves(R - wi * N * N, free and t == 0, c0 + a01 * t)
        else:
            for t in range(lo, (s - c) // Di + 1):
                x[i] = t
                N = Di * t + c
                walk(i - 1, R - wi * N * N, free and t == 0)
        x[i] = 0

    try:
        if n == 1:
            leaves(top, True, 0)
        else:
            walk(n - 1, top, True)
    except _StopWalk:
        pass
    walk = None  # as in enumeration.enumerate_batch_vectors: no cyclic garbage
    return found


def congruence_basis(rows, p: int, n: int) -> list[list[int]]:
    """Basis, as rows, of the lattice {c in Z^n : sum_j row[j] c_j = 0 mod p
    for every row}, p prime.

    Gauss-Jordan elimination of the rows mod p, with pivots taken from the
    last column down, leaves one reduced row per pivot column c: 1 at c, 0
    at the other pivot columns and right of c.  Basis row j is p e_j for a
    pivot column j and, for a free column j, e_j minus the reduced rows'
    entries at j, each placed at its row's pivot column, which lies right
    of j.  So the basis is upper triangular with diagonal p on the r pivot
    columns and 1 elsewhere: its index in Z^n is p^r, r the rank of the
    rows mod p, which is the index of the congruence lattice it lies in.
    The p's sit on the last coordinates, the ones short_vectors walks
    first.
    """
    M = [[a % p for a in row] for row in rows]
    pivots: list[int] = []
    for c in reversed(range(n)):
        r = len(pivots)
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = pow(M[r][c], -1, p)
        prow = M[r] = [a * inv % p for a in M[r]]
        for i, row in enumerate(M):
            f = row[c]
            if i != r and f:
                M[i] = [(a - f * b) % p for a, b in zip(row, prow)]
        pivots.append(c)
    reduced = dict(zip(pivots, M))
    basis = []
    for j in range(n):
        row = [0] * n
        if j in reduced:
            row[j] = p
        else:
            row[j] = 1
            for c, prow in reduced.items():
                row[c] = -prow[j]
        basis.append(row)
    return basis


def congruent_short_vectors(
    G, norms, p: int, rows, stop=None
) -> list[tuple[tuple[int, ...], int]]:
    """short_vectors(G, norms, stop), restricted for norms divisible by p
    to the x with sum_j row[j] x_j = 0 mod p for every row.

    Returns the (x, x^T G x) pairs with m = x^T G x in norms and either
    p not dividing m or x in the congruence lattice, one per sign pair,
    the first nonzero coordinate of x positive.  Each norm is walked where
    its vectors can lie.  The norms divisible by p go first, on the
    congruence lattice: short_vectors walks its Gram B G B^T, B the rows of
    congruence_basis, and each vector y found is mapped back to x = B^T y.
    B is upper triangular with a positive diagonal, so x has its first
    nonzero coordinate where y has, with the same sign.  The other norms
    are then walked on the whole lattice, bounded by the largest of them.

    stop is called as in short_vectors, on each x as it is found, across
    both walks; once it returns true the result holds the vectors found so
    far and no further walk runs.  Without a stop the result is the
    complete set, ordered by walk, not sorted.
    """
    n = len(G)
    fine = [m for m in norms if m % p == 0]
    coarse = [m for m in norms if m % p]
    found: list = []
    stopped = False

    def keep(x, m) -> bool:
        nonlocal stopped
        found.append((x, m))
        stopped = stop is not None and stop(x, m)
        return stopped

    if fine:
        B = congruence_basis(rows, p, n)
        Bt = transpose(B)
        H = mat_mul(mat_mul(B, G), Bt)
        # walk the basis coordinates y and keep x = B^T y
        short_vectors(H, fine, lambda y, m: keep(tuple(mat_vec(Bt, y)), m))
    if coarse and not stopped:
        short_vectors(G, coarse, keep)
    return found
