"""Independent brute-force re-implementations used to cross-check the package.

Each oracle recomputes its answer from first principles: reflections as
exact rational matrices (integrality tested entry by entry in integers),
candidate enumeration as full box scans, root
classes by widening the shift window far past the claimed period or by
scanning every shift in it, matrix
order by factoring the characteristic polynomial with sympy, finite
volume by counting the vertices on every edge of the chamber, diagram
edges, critical sets and affine components from scratch, full-rank
affine sets by backtracking over pairwise orthogonal components, reduced
row echelon forms, kernels, solutions, determinants and LDL
decompositions by elimination in Fraction arithmetic, ranks by Bareiss
elimination, fixed cones of wall sets by a double description of
their own, the orientation of roots orthogonal to the control vertex by
solving over the initial simple system, the class coordinates of vectors
in a null quotient by a Fraction solve against the quotient's basis.
None of them share a decision procedure with the fast paths they check.

hermite_with_transform is not an oracle either: it is the row Hermite
normal form with its transform as linalg computed it before row_hnf
carried the inverse transform, kept so that H and U provably do not
change.

critical_report is not an oracle either: it is volume.finite_volume's
report as the package built it before the test stopped at the first set
it could not prove, every critical set of the chamber tested, kept so
that the early exit can be checked against the full evaluation.

polygon_cycle is not an oracle: it walks a closed planar chamber's sides
in cyclic order for the polygon symbol and rotation tests.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt

import sympy


def fraction_rref(A):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions.

    Returns (R, pivots), pivots listing the pivot column of each nonzero
    row; the reference linalg's fraction-free eliminations are checked
    against.
    """
    R = [[Fraction(x) for x in row] for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def fraction_kernel(A):
    """Basis of the rational null space {x : A x = 0}, read off
    fraction_rref: one vector per free column, 1 there and 0 at the other
    free columns."""
    n = len(A[0]) if A else 0
    R, pivots = fraction_rref(A)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def fraction_solve(A, b):
    """One solution of A x = b read off fraction_rref of [A | b], with the
    free coordinates zero, or None when the system is inconsistent."""
    n = len(A[0]) if A else 0
    R, pivots = fraction_rref([list(row) + [y] for row, y in zip(A, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return x


def hermite_with_transform(A):
    """(H, U) with U unimodular and U A = H in row Hermite normal form, by
    the step sequence linalg.row_hnf takes: per pivot column, the first
    nonzero row below r is swapped up and every later nonzero row is
    combined with row r through the extended Euclidean coefficients, the
    pivot is made positive, and the rows above are reduced by floor
    division.  U is not unique, so the steps must match exactly."""

    def euclid(a, b):
        old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        return (-old_r, -old_s, -old_t) if old_r < 0 else (old_r, old_s, old_t)

    H = [list(row) for row in A]
    m = len(H)
    n = len(H[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if H[i][c]), None)
        if piv is None:
            continue
        H[r], H[piv], U[r], U[piv] = H[piv], H[r], U[piv], U[r]
        for i in range(r + 1, m):
            x, y = H[r][c], H[i][c]
            if not y:
                continue
            g, s, t = euclid(x, y)
            a, b = x // g, y // g
            for M in (H, U):
                M[r], M[i] = ([s * u + t * v for u, v in zip(M[r], M[i])],
                              [a * v - b * u for u, v in zip(M[r], M[i])])
        if H[r][c] < 0:
            H[r], U[r] = [-x for x in H[r]], [-x for x in U[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            H[i] = [x - q * y for x, y in zip(H[i], H[r])]
            U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    return H, U


def class_coordinates_by_solve(quot, vectors):
    """The coordinates of each vector's class in quot: the solution c of
    c_0 e + sum_j c_{j+1} class_basis[j] = x, read past c_0 and required
    integral.  Raises ValueError for a vector outside e^perp, as the
    package does."""
    if any(quot.form.inner_product(x, quot.e) for x in vectors):
        raise ValueError("vector is not orthogonal to the null direction")
    A = [list(col) for col in zip(quot.e, *quot.class_basis)]
    out = []
    for x in vectors:
        c = fraction_solve(A, list(x))
        assert c is not None and all(t.denominator == 1 for t in c), x
        out.append([int(t) for t in c[1:]])
    return out


def fraction_det(A):
    """Determinant by Gaussian elimination over Fractions; an int when
    integral."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c] != 0), None)
        if pr is None:
            return 0
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            sign = -sign
        piv = M[c][c]
        result *= piv
        for i in range(c + 1, n):
            if M[i][c] != 0:
                f = M[i][c] / piv
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    result *= sign
    return int(result) if result.denominator == 1 else result


def rank(A) -> int:
    """Rank of an integer matrix, by fraction-free elimination.

    Bareiss's elimination as in linalg.psd_classify: with pivot d at
    (r, c) and prev the previous pivot, every entry right of the pivot
    column in a later row becomes (d A[i][j] - A[i][c] A[r][j]) // prev,
    an exact division, since each active entry is a minor of A.  So zeros,
    and with them the pivots, match the rational elimination.  The package
    reads every rank off its double-description cones; this is the
    reference they are checked against.
    """
    M = [list(row) for row in A]
    cols = len(M[0]) if M else 0
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        prow = M[r]
        d = prow[c]
        for i in range(r + 1, len(M)):
            row = M[i]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (d * row[j] - f * prow[j]) // prev
            row[c] = 0
        prev = d
        r += 1
        if r == len(M):
            break
    return r


def clear_denominators(v):
    """v times the lcm of its entries' denominators: an integer vector on
    the same ray."""
    den = math.lcm(*(Fraction(x).denominator for x in v))
    return [int(x * den) for x in v]


def fraction_ldl(G):
    """Decompose a positive definite integer matrix as Q(x) = sum_i
    d_i (x_i + sum_{j>i} l_ij x_j)^2 in Fractions.  Returns (L, d) with L
    unit upper triangular row-wise coefficients."""
    n = len(G)
    A = [[Fraction(x) for x in row] for row in G]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        d[i] = A[i][i]
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
        for j in range(i + 1, n):
            L[i][j] = A[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                A[r][c] -= A[i][r] * A[i][c] / d[i]
    return L, d


def cleared_ldl(G):
    """(D, terms, w, S) as linalg.integral_ldl returns them, read off
    fraction_ldl: D_i the common denominator of row i of L, a_ij = D_i l_ij,
    and S the least scale making every w_i = S d_i / D_i^2 integral."""
    L, d = fraction_ldl(G)
    n = len(G)
    D = [math.lcm(*(L[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    scaled = [d[i] / (D[i] * D[i]) for i in range(n)]
    S = math.lcm(*(q.denominator for q in scaled))
    terms = [
        [(j, int(D[i] * L[i][j])) for j in range(i + 1, n) if L[i][j]]
        for i in range(n)
    ]
    return D, terms, [int(S * q) for q in scaled], S


def reflection_matrix(form, r):
    """The reflection in r^perp as an exact rational matrix."""
    m = form.norm(r)
    dim = form.dim
    cols = []
    for j in range(dim):
        unit = tuple(1 if k == j else 0 for k in range(dim))
        ip = form.inner_product(r, unit)
        cols.append([
            (1 if i == j else 0) - Fraction(2 * ip * r[i], m) for i in range(dim)
        ])
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def reflection_is_integral(form, r):
    """Root test via integrality of the reflection matrix.

    Entry (i, j) of reflection_matrix is delta_ij - 2 <r, b_j> r_i / m, so
    it is integral exactly when m divides 2 <r, b_j> r_i; every entry is
    tested in integers, without building the matrix.
    """
    m = form.norm(r)
    if m <= 0:
        return False
    dim = form.dim
    units = [tuple(1 if k == j else 0 for k in range(dim)) for j in range(dim)]
    return all(2 * form.inner_product(r, b) * x % m == 0 for b in units for x in r)


def reflection_preserves_form(form, r):
    """R^T F R == F for the reflection in r, checked exactly."""
    R = reflection_matrix(form, r)
    F = form.form_matrix
    dim = form.dim
    for i in range(dim):
        for j in range(dim):
            s = sum(R[k][i] * F[k][l] * R[l][j] for k in range(dim) for l in range(dim))
            if s != F[i][j]:
                return False
    return True


def brute_force_accepted(form, max_height):
    """Greedy root acceptance re-derived with full box enumeration.

    Batches are all (k0, m) with k0 >= 1, m an admissible root norm and
    k0^2/m <= max_height, in strictly increasing height order; within a
    batch, candidates are every integer vector with first coordinate k0
    and norm m (no symmetry assumptions), scanned in lexicographically
    decreasing spatial order, accepted when the reflection is integral
    and the vector has inner product <= 0 with everything accepted so far.
    """
    batches = []
    for m in form.admissible_root_norms:
        k0 = 1
        while Fraction(k0 * k0, m) <= max_height:
            batches.append((Fraction(k0 * k0, m), k0, m))
            k0 += 1
    batches.sort()
    heights = [b[0] for b in batches]
    assert len(set(heights)) == len(heights), "batch heights must never tie"

    accepted = list(form.initial_roots())
    for _, k0, m in batches:
        target = m + form.p * k0 * k0
        if target < 0:
            continue
        bound = isqrt(target)
        cands = []
        for spatial in product(range(bound, -bound - 1, -1), repeat=form.n):
            if sum(x * x for x in spatial) != target:
                continue
            v = (k0,) + spatial
            if not reflection_is_integral(form, v):
                continue
            cands.append(v)
        cands.sort(key=lambda v: v[1:], reverse=True)
        for v in cands:
            if all(form.inner_product(v, a) <= 0 for a in accepted):
                accepted.append(v)
    return accepted


def open_height(form, batches_done):
    """Height of the first batch a run with this cursor has not processed,
    found by walking the batch sequence from batch 0; the reference for
    SearchState.open_height."""
    from vinberg.search import batch_sequence

    gen = batch_sequence(form)
    for _ in range(batches_done):
        next(gen)
    k0, m = next(gen)
    return Fraction(k0 * k0, m)


def root_class_witness_window(form, quot, coords, factor=10):
    """Smallest |t| in [-factor*m, factor*m) making lift + t e a root.

    The fast path claims the property is periodic in t with period m; this
    oracle searches a window far wider and reports what it finds, so a
    missed witness outside [0, m) would show up as a disagreement.
    """
    m = quot.class_norm(coords)
    if m <= 0:
        return None
    x = quot.lift(coords)
    e = quot.e
    for t in sorted(range(-factor * m, factor * m), key=lambda s: (abs(s), s)):
        v = tuple(a + t * b for a, b in zip(x, e))
        if math.gcd(*v) != 1:
            continue  # roots are primitive
        if form.norm(v) == m and reflection_is_integral(form, v):
            return t
    return None


def charpoly_factors(T):
    """Irreducible factors of det(x I - T) over Z, as descending-degree
    coefficient lists, by sympy's factorisation."""
    x = sympy.Symbol("x")
    _, factors = sympy.Matrix(T).charpoly(x).factor_list()
    return [[int(c) for c in poly.all_coeffs()] for poly, _mult in factors]


def cyclotomic_index(coeffs):
    """Index k with coeffs the k-th cyclotomic polynomial, or None.

    Euler phi(k) >= sqrt(k/2), so k <= 2 d^2 covers all degree-d candidates.
    """
    x = sympy.Symbol("x")
    f = sympy.Poly(coeffs, x)
    d = f.degree()
    for k in range(1, 2 * d * d + 2):
        if sympy.totient(k) == d and sympy.Poly(sympy.cyclotomic_poly(k, x), x) == f:
            return k
    return None


def has_finite_order(T):
    """Whether the integer matrix T has finite order.

    Finite order holds iff every eigenvalue is a root of unity and T is
    semisimple: every irreducible factor of the characteristic polynomial
    is cyclotomic and their product (the squarefree part) annihilates T.
    """
    factors = charpoly_factors(T)
    if any(cyclotomic_index(f) is None for f in factors):
        return False
    M = sympy.Matrix(T)
    radical = sympy.eye(M.rows)
    for f in factors:
        acc = sympy.zeros(M.rows)
        for c in f:
            acc = acc * M + c * sympy.eye(M.rows)
        radical = radical * acc
    return radical.is_zero_matrix


def infinite_order_evidence_by_powers(T):
    """isometry.infinite_order_evidence by matrix powers alone: every power
    of T up to max_finite_order of its size is compared with the identity,
    with no characteristic-polynomial shortcut.  Returns the same evidence
    document, built here, or None when some power is the identity."""
    from vinberg import isometry, linalg

    T = [list(row) for row in T]
    bound = isometry.max_finite_order(len(T))
    identity = linalg.identity(len(T))
    power = T
    for _ in range(bound):
        if power == identity:
            return None
        power = linalg.mat_mul(power, T)
    return {
        "reason": "no_power_up_to_order_bound_is_identity",
        "order_bound": bound,
        "charpoly": linalg.charpoly(T),
    }


def batches_at_or_below(form, height):
    """Count of the batches (k0, m), k0 >= 1 and m an admissible root norm,
    with k0^2/m <= height, counted per norm with no merge of the streams."""
    count = 0
    for m in form.admissible_root_norms:
        k0 = 1
        while Fraction(k0 * k0, m) <= height:
            count += 1
            k0 += 1
    return count


def symmetry_cuts(chamber, height_limit):
    """The certifying cut, as a batch count, of every infinite-order
    symmetry an exhaustive hunt finds on a grown chamber, one entry per
    map.

    Every ordered pair of distinct corners of equal norm whose bound lies
    below height_limit is tried, in no particular order.  The source frame
    is its walls in any one order; each ordering of the target's walls
    whose Gram, from Form.inner_product, equals the source's is a frame;
    the map T = B_to B_from^-1 comes from a Fraction inverse and is kept
    when integral and of infinite order by sympy's factoring
    (has_finite_order).  A map's cut is the number of batches no higher
    than its need: both corners' bounds and every frame root's height.
    """
    from vinberg import isometry

    form, roots = chamber.form, chamber.roots
    bounds = {}
    for c in isometry.chamber_corners(chamber):
        bound = isometry.corner_height_bound(form, c["vector"])
        if bound < height_limit:
            bounds[c["vector"]] = (bound, c["orthogonal"])

    def gram(vectors):
        return [[form.inner_product(a, b) for b in vectors] for a in vectors]

    cuts = []
    for (x, (bound_x, walls_x)), (y, (bound_y, walls_y)) in permutations(bounds.items(), 2):
        if form.norm(x) != form.norm(y):
            continue
        source = [roots[i] for i in walls_x] + [x]
        # column j of B_from^-1 solves B_from z = e_j
        inverse = [fraction_solve([list(col) for col in zip(*source)],
                                  [int(i == j) for i in range(form.dim)])
                   for j in range(form.dim)]
        for perm in permutations(walls_y):
            target = [roots[i] for i in perm] + [y]
            if gram(target) != gram(source):
                continue
            # T = B_to B_from^-1, the frames as the columns of B
            T = [[sum(target[k][i] * inverse[j][k] for k in range(form.dim))
                  for j in range(form.dim)] for i in range(form.dim)]
            if any(t.denominator != 1 for row in T for t in row):
                continue
            T = [[int(t) for t in row] for row in T]
            if has_finite_order(T):
                continue
            need = max(bound_x, bound_y, *(form.height(r) for r in source[:-1] + target[:-1]))
            cuts.append(batches_at_or_below(form, need))
    return cuts


def scratch_edges(gram):
    """Diagram edges of walls from their whole Gram, pair by pair in
    lexicographic order, each cos^2 a Fraction, raising DiagramError at
    the first angle outside the crystallographic set."""
    from vinberg.diagram import DIVERGENT, DOUBLE, PARALLEL, SIMPLE, TRIPLE
    from vinberg.errors import DiagramError

    kinds = {Fraction(1, 4): SIMPLE, Fraction(1, 2): DOUBLE,
             Fraction(3, 4): TRIPLE, Fraction(1): PARALLEL}
    edges = {}
    for i, j in combinations(range(len(gram)), 2):
        ip = gram[i][j]
        if ip == 0:
            continue
        cos2 = Fraction(ip * ip, gram[i][i] * gram[j][j])
        if cos2 > 1:
            edges[(i, j)] = DIVERGENT
        elif cos2 in kinds:
            edges[(i, j)] = kinds[cos2]
        else:
            raise DiagramError(
                f"walls {i} and {j} meet at cos^2 = {cos2}, outside the crystallographic set"
            )
    return edges


def _elliptic_walk(d, classify, found):
    """Grow connected elliptic node sets of d from every node, one adjacent
    node at a time, and call found(t, cls) on each non-elliptic extension t
    not seen before."""
    elliptic = {frozenset([i]) for i in range(len(d))}
    seen = set()
    frontier = list(elliptic)
    while frontier:
        s = frontier.pop()
        reachable = set()
        for i in s:
            reachable.update(d.adjacent[i])
        for v in sorted(reachable - s):
            t = s | {v}
            if t in elliptic or t in seen:
                continue
            cls = classify(t)
            if cls == "definite":
                elliptic.add(t)
                frontier.append(t)
            elif found(t, cls):
                seen.add(t)


def critical_submatrices(d, classify):
    """All critical (connected, minimal non-elliptic) node sets of d, as
    sorted {"nodes", "class"} entries, from a walk over the whole diagram."""
    critical = {}

    def found(t, cls):
        if all(classify(t - {u}) == "definite" for u in t):
            critical[t] = "parabolic" if cls == "degenerate" else "hyperbolic"
            return True
        return False

    _elliptic_walk(d, classify, found)
    return sorted(
        ({"nodes": sorted(s), "class": c} for s, c in critical.items()),
        key=lambda item: item["nodes"],
    )


def affine_components(d, classify):
    """Every connected affine node set of d with its type and rank, from a
    walk over the whole diagram: a connected affine diagram minus a
    suitable node is connected and elliptic."""
    from vinberg import diagram as dg
    from vinberg.errors import ConsistencyError

    affine = {}

    def found(t, cls):
        if cls != "degenerate":
            return False
        name = dg.affine_type(d, sorted(t))
        if name is None:
            raise ConsistencyError(f"degenerate connected subdiagram {sorted(t)} is not affine")
        affine[t] = name
        return True

    _elliptic_walk(d, classify, found)
    return sorted(
        ({"nodes": tuple(sorted(s)), "type": name} for s, name in affine.items()),
        key=lambda item: item["nodes"],
    )


def affine_sets_of_rank(d, rank, comps):
    """Node sets of every union of pairwise orthogonal affine components
    of d with the given total rank, by backtracking.

    comps lists the connected affine subdiagrams as affine_components
    does; the chosen ones must be node-disjoint and unjoined by edges.  A
    connected affine diagram's rank is its node count minus one.  The
    reference for condition (a), which volume reads by cusp instead.
    """
    out = []

    def backtrack(start, chosen, total):
        if total == rank:
            out.append(frozenset().union(*chosen))
            return
        for k in range(start, len(comps)):
            c = frozenset(comps[k]["nodes"])
            if total + len(c) - 1 <= rank and all(
                not c & s and all(d.kind(i, j) is None for i in s for j in c)
                for s in chosen
            ):
                backtrack(k + 1, chosen + [c], total + len(c) - 1)

    backtrack(0, [], 0)
    return out


def critical_report(chamber):
    """volume.finite_volume's verdict on a grown ChamberDiagram, every
    critical set tested: the rank, then, in sorted order, each parabolic
    set against the cusps of rank n - 1 and each hyperbolic set's face of
    the chamber cone."""
    from vinberg import volume

    form = chamber.form
    rk = form.dim - len(chamber.chamber_cone().lines)
    if rk != form.dim:
        return {"finite": False, "rank": rk, "rank_deficient": True}
    criticals = [{"nodes": sorted(s), "class": c} for s, c in chamber.critical.items()]
    criticals.sort(key=lambda d: d["nodes"])
    full = {s for cusp in chamber.cusps() if sum(len(c) - 1 for c in cusp) == form.n - 1 for s in cusp}
    cond_a = []
    cond_b = []
    for item in criticals:
        nodes = item["nodes"]
        if item["class"] == "parabolic":
            cond_a.append({"nodes": nodes, "extends": frozenset(nodes) in full})
        else:
            cond_b.append({"nodes": nodes, "trivial_cone": not volume.cone_fixed_set(chamber, nodes)})
    ok = all(c["extends"] for c in cond_a) and all(c["trivial_cone"] for c in cond_b)
    return {"finite": ok, "rank": rk, "critical": criticals,
            "condition_a": cond_a, "condition_b": cond_b}


def edge_decider(form, roots):
    """Finite volume of the chamber by counting vertices on its edges.

    Every elliptic subdiagram of rank n - 1 is an edge of the chamber and
    must connect exactly two vertices, where a vertex is either an
    elliptic extension of rank n (an interior point) or an affine
    subdiagram of rank n - 1 containing the edge (an ideal point).  The
    diagram comes from the package and its affine components from the
    walk above; the decision is independent of volume.finite_volume's
    critical subdiagrams and of the search's grown diagram.
    """
    from vinberg import diagram as dg

    d = dg.build_diagram(form, roots)
    affine_nodes = affine_sets_of_rank(d, form.n - 1, affine_components(d, d.psd_class))
    found_any_vertex = False
    for subset in combinations(range(len(d)), form.n - 1):
        s = frozenset(subset)
        if d.psd_class(s) != "definite":
            continue
        vertices = sum(
            1 for v in range(len(d))
            if v not in s and d.psd_class(s | {v}) == "definite"
        )
        vertices += sum(1 for nodes in affine_nodes if s <= nodes)
        if vertices != 2:
            return False
        found_any_vertex = True
    return found_any_vertex


def cone_fixed_set(form, roots, nodes):
    """Generators (lines, rays) of {x : <x, r_i> = 0 for i in nodes,
    <x, r> <= 0 for every root r}, in lattice coordinates.

    One double description from scratch inside the rational kernel of the
    walls in nodes, with no chamber cone and no tight sets read: the
    reference for volume.cone_fixed_set's face test.  It shares
    cones.cone_generators with the package; tests/test_cones.py checks
    that against brute force.
    """
    from vinberg import cones, linalg

    dim = form.dim
    walls = [form.dual(r) for r in roots]
    if nodes:
        ortho = [walls[i] for i in nodes]
        basis = [cones.primitive_vector(clear_denominators(b)) for b in fraction_kernel(ortho)]
    else:
        basis = linalg.identity(dim)
    constraints = [tuple(sum(x * y for x, y in zip(w, b)) for b in basis) for w in walls]
    lines, rays = cones.cone_generators(constraints, len(basis))
    to_ambient = lambda y: tuple(
        sum(y[j] * basis[j][k] for j in range(len(basis))) for k in range(dim)
    )
    return (
        [cones.primitive_vector(to_ambient(l)) for l in lines],
        [cones.primitive_vector(to_ambient(r)) for r in rays],
    )


def root_class_shift_scan(form, quot, coords, m):
    """quotient.root_class_shift by scanning every shift t in [0, m).

    The divisibility conditions on lift(coords) + t e depend on t only
    modulo m, so the scan is exhaustive and returns the smallest witness.
    """
    if m <= 0 or m not in form.admissible_root_norms:
        return None
    x = quot.lift(coords)
    for t in range(m):
        v = tuple(a + t * b for a, b in zip(x, quot.e))
        if form.satisfies_crystallographic_condition(v, m):
            return t
    return None


def orient_root_by_solve(form, v):
    """The sign of a root with v_0 = 0 that bounds the chamber, by solving
    for its coefficients over the initial simple system: the positive
    combinations are kept, the negative ones negated, and a mixed one is
    an error."""
    initial = form.initial_roots()
    A = [[e[j] for e in initial] for j in range(1, form.dim)]
    coeffs = fraction_solve(A, list(v[1:]))
    if coeffs is None:
        raise AssertionError(f"{v} is outside the span of the initial system")
    if all(c >= 0 for c in coeffs):
        return tuple(v)
    if all(c <= 0 for c in coeffs):
        return tuple(-x for x in v)
    raise AssertionError(f"{v} is a mixed combination of the initial system")


def polygon_cycle(form, roots) -> dict:
    """Cyclic wall order of a closed planar chamber.

    Returns {"sides": root indices in cyclic order, "vertices": corner
    vectors}, where vertices[t] joins sides[t] and sides[t+1]; ordinary
    corners have negative norm, ideal ones norm zero.  Requires n = 2 and
    a chamber that closes into a polygon of finite area.
    """
    from vinberg import cones
    from vinberg.errors import ConsistencyError

    if form.n != 2:
        raise ValueError("polygon walk requires a rank-2 form")
    cone = cones.Cone(form.dim)
    lines, rays = cones.cone_generators([form.dual(r) for r in roots], form.dim, cone)
    if lines:
        raise ValueError("chamber cone contains a line")
    tight = dict(zip(cone.rays, cone.tight))
    verts = []
    for v in rays:
        if form.norm(v) > 0:
            raise ValueError("spacelike extreme ray; the polygon does not close")
        active = tuple(sorted(tight[v]))
        if len(active) != 2:
            raise ConsistencyError("polygon corner must lie on exactly two sides")
        verts.append({"vector": tuple(v), "sides": active})
    by_side: dict = {}
    for k, vt in enumerate(verts):
        for i in vt["sides"]:
            by_side.setdefault(i, []).append(k)
    if sorted(by_side) != list(range(len(roots))) or any(
        len(ks) != 2 for ks in by_side.values()
    ):
        raise ConsistencyError("sides do not close into a polygon")
    start = 0
    side = start
    vk = min(by_side[start])
    sides_order = []
    vert_order = []
    for _ in range(len(roots)):
        sides_order.append(side)
        vert_order.append(verts[vk]["vector"])
        side = next(i for i in verts[vk]["sides"] if i != side)
        vk = next(k for k in by_side[side] if k != vk)
    if side != start or len(set(sides_order)) != len(roots):
        raise ConsistencyError("polygon walk did not close into one cycle")
    return {"sides": sides_order, "vertices": vert_order}
