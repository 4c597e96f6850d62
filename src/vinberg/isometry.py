"""Infinite-order chamber symmetries from vertex frames.

A chamber that never closes up can still be proved infinite by exhibiting
a symmetry: an integral isometry of the form carrying one ordinary vertex
of the chamber, together with its complete wall set, to another.  Such a
map sends the chamber to itself (two chambers of one hyperplane
arrangement that share a germ coincide), so if it has infinite order the
wall set cannot be finite.

Partial search states suffice for this argument when two facts are
certified exactly:

1. The corner really lies in the closure of the full chamber, not just
   the part cut out so far.  Any wall separating the corner from the
   control vertex crosses the geodesic between them, which bounds its
   batch height; completing the ladder strictly past that bound rules
   every such wall out.

2. The corner's wall set is complete.  The walls through an ordinary
   vertex are facets of the cone cut out by all lattice roots orthogonal
   to it, a finite computation in the definite lattice x^perp cap L that
   does not depend on the search state at all.

Order is decided exactly by integer matrix powers.  A finite-order
matrix in GL_d(Z) is semisimple with roots of unity as eigenvalues, so
its order is at most max_finite_order(d); if no power up to that bound
is the identity, the order is infinite.  A characteristic polynomial
coefficient c_k with |c_k| > comb(d, k) proves it without the powers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, lcm

from vinberg import cones, linalg
from vinberg.errors import ConsistencyError
from vinberg.forms import Form


def chamber_corners(chamber) -> list[dict]:
    """Ordinary vertices of the partial chamber of a grown
    volume.ChamberDiagram.

    Corners are the negative-norm extreme rays of the chamber cone, the
    cone on the non-positive side of every root, as primitive
    future-pointing vectors, each with the indices of all roots
    orthogonal to it: the set bits of the ray's mask (cones.Cone.masks),
    ascending.  Sorted by vector, the rays being distinct.  The cone is
    pointed, so each extreme ray is tight on walls of rank n.
    """
    form = chamber.form
    cone = chamber.chamber_cone()
    if cone.lines:
        return []
    return [
        {"vector": ray, "orthogonal": cones.bits(mask)}
        for ray, mask in sorted(zip(cone.rays, cone.masks))
        if form.norm(ray) < 0 and ray[0] > 0
    ]


def corner_height_bound(form: Form, corner) -> Fraction:
    """Max batch height of a wall separating the corner from the control
    vertex.

    A separating wall hyperplane crosses the geodesic between the two
    points, so its distance from the control vertex is at most the length
    of that geodesic; rewriting both sides through inner products turns
    the distance cap into a height cap.  Completing the batch ladder
    strictly beyond the bound certifies the corner lies in the closure of
    the full chamber.
    """
    q = -form.norm(corner)
    if q <= 0 or corner[0] <= 0:
        raise ValueError("corner must be future-pointing and timelike")
    s = form.p * corner[0]  # -<corner, v0>
    return Fraction(s * s - form.p * q, form.p * form.p * q)


def orient_root(form: Form, v):
    """The representative of {v, -v} whose half-space contains the chamber.

    The chamber closure contains the control vertex, so a root not
    orthogonal to it points the right way iff their inner product is
    negative.  A root orthogonal to it has v_0 = 0 and norm 1 or 2 (norm p
    or 2p would need p | v_i for every i, hence p^2 | the norm), so it is
    +-e_i or +-e_i +- e_j: a root of B_n, whose simple system is the
    initial roots.  The point (0, n, n - 1, ..., 1) has inner product -1
    with every initial root and is orthogonal to no B_n root, so the
    positive roots, the ones that bound the chamber, are those with a
    negative inner product with it.
    """
    if v[0] != 0:
        return v if v[0] > 0 else tuple(-x for x in v)
    if sum((form.n + 1 - i) * v[i] for i in range(1, form.dim)) < 0:
        return v
    return tuple(-x for x in v)


def vertex_walls(form: Form, corner) -> list:
    """Complete oriented wall set of the full chamber through a corner.

    Enumerates every root of the form orthogonal to the corner (a finite
    set: short vectors of the definite lattice corner^perp cap L), orients
    each to the chamber side, and keeps the irredundant ones, sorted, which
    cut out the chamber germ at the corner.  Valid whenever the corner
    lies in the closure of the full chamber.  A wall is kept iff no other
    wall's face, a mask over the germ cone's rays, strictly contains its own.

    A root of norm p or 2p has p | v_j for every j >= 1; in the
    coordinates c of the basis b of corner^perp cap L that reads
    sum_i c_i b_i[j] = 0 mod p, one congruence per column j >= 1 of the
    basis.  linalg.congruent_short_vectors walks those norms on the
    lattice the congruences cut out and norms 1 and 2 on the whole one,
    so every vector it returns is a root: norm 1 and 2 vectors always are,
    and the congruences make a norm p or 2p vector one (its norm is
    squarefree, so it is primitive).
    """
    dim = form.dim
    basis = linalg.integer_kernel([form.dual(corner)])
    gram = form.gram(basis)
    if linalg.psd_classify(gram) != "definite":
        raise ValueError("corner must be timelike")
    columns = linalg.transpose(basis)
    rows = columns[1:]
    oriented = set()
    walked = linalg.congruent_short_vectors(gram, form.admissible_root_norms, form.p, rows)
    for coords, _ in walked:
        v = tuple(linalg.mat_vec(columns, coords))
        if not form.is_root(v):
            raise ConsistencyError(f"walked vector {list(v)} is not a root")
        oriented.add(orient_root(form, v))
    walls = sorted(oriented)
    cone = cones.Cone(dim)
    cones.cone_generators([form.dual(w) for w in walls], dim, cone)
    # the germ cone is full-dimensional and its rays are its extreme rays,
    # so a wall is a facet iff no other wall's face, the rays on it as a
    # mask, holds more of them
    faces = [sum(1 << j for j, m in enumerate(cone.masks) if m >> k & 1) for k in range(len(walls))]
    return [w for w, f in zip(walls, faces) if not any(f != g and f & g == f for g in faces)]


def frame_map(form: Form, frame_from, frame_to, hnf=None):
    """Integer matrix taking one ordered frame to another, or None.

    A frame is a list of n roots and a corner forming a basis.  Matching
    Gram matrices force any rational solution to preserve the form; only
    integral maps are returned, acting on column vectors.  T B_from = B_to
    for the matrices whose columns are the frames, so T is the transpose
    of the one integral solution X of B_from^T X = B_to^T (linalg.solve_hnf
    on hnf, linalg.row_hnf(frame_from), which a caller mapping one frame
    to many passes in; the rows of B_from^T are frame_from).  Returns None
    when frame_from is linearly dependent, so no map exists, or when the
    map taking it to frame_to is not integral.
    """
    X = linalg.solve_hnf(hnf or linalg.row_hnf(frame_from), frame_to)
    if X is None:
        return None
    T = linalg.transpose(X)
    F = form.form_matrix
    TtFT = linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), F), T)
    if TtFT != F:
        raise ConsistencyError("matching Grams must force form preservation")
    return T


def _totient(k: int) -> int:
    out, m, q = k, k, 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            out -= out // q
        q += 1
    if m > 1:
        out -= out // m
    return out


@cache
def max_finite_order(d: int) -> int:
    """Largest order of a finite-order matrix in GL_d(Z).

    Such a matrix is semisimple and its characteristic polynomial is a
    product of cyclotomic polynomials Phi_k_i, so its order is lcm(k_i)
    with sum phi(k_i) = d; padding with Phi_1 makes <= d equivalent.  A
    0/1 knapsack over the indices k collects every reachable lcm per total
    degree.  phi(k) >= sqrt(k/2), so k <= 2 d^2 covers every index.
    """
    reach = {0: {1}}
    for k in range(1, 2 * d * d + 1):
        f = _totient(k)
        if f > d:
            continue
        for used in sorted(reach, reverse=True):
            if used + f <= d:
                reach.setdefault(used + f, set()).update(
                    lcm(o, k) for o in reach[used]
                )
    return max(max(orders) for orders in reach.values())


def infinite_order_evidence(T) -> dict | None:
    """Evidence that the integer matrix T has infinite order, or None.

    T has finite order iff T^k = I for some k up to max_finite_order of
    its size, so checking those powers decides the order exactly.  The
    characteristic polynomial is read first: a finite-order T has roots
    of unity as its d eigenvalues, so its coefficient c_k, a signed sum
    of comb(d, k) products of k of them, has |c_k| <= comb(d, k).  A
    coefficient past that bound proves infinite order without the powers;
    then no power up to the bound is the identity, so the evidence is the
    same.  The characteristic polynomial rides along for readers.
    """
    T = [list(row) for row in T]
    dim = len(T)
    bound = max_finite_order(dim)
    charpoly = linalg.charpoly(T)
    if all(abs(c) <= comb(dim, k) for k, c in enumerate(charpoly)):
        identity = linalg.identity(dim)
        power = T
        for _ in range(bound):
            if power == identity:
                return None
            power = linalg.mat_mul(power, T)
    return {
        "reason": "no_power_up_to_order_bound_is_identity",
        "order_bound": bound,
        "charpoly": charpoly,
    }


def _matching_frames(gram, orth, target):
    """Ordered index tuples from orth whose Gram, read off gram, is the
    target Gram, by DFS."""
    n = len(target)
    out = []
    chosen = []

    def extend():
        s = len(chosen)
        if s == n:
            out.append(tuple(chosen))
            return
        for i in orth:
            # i's inner products with the chosen walls and with itself
            if i in chosen or any(
                gram[i][j] != target[t][s] for t, j in enumerate(chosen + [i])
            ):
                continue
            chosen.append(i)
            extend()
            chosen.pop()

    extend()
    extend = None  # as in enumeration.enumerate_batch_vectors: no cyclic garbage
    return out


def corner_need(bound: Fraction, wall_heights) -> Fraction:
    """The height a cut of the search must reach to certify a corner: the
    corner's separating-wall bound, which the cut's frontier must clear,
    and the heights of its walls, which the cut's roots must hold.

    A frame at a simple corner is an ordering of the corner's walls, so a
    pair of frames needs the larger of its corners' needs.
    find_infinite_symmetry orders its pairs by it and search.certifying_cut
    cuts at it.
    """
    return max(bound, *wall_heights)


def find_infinite_symmetry(chamber, height_limit) -> dict | None:
    """Search for an infinite-order isometry between two corner frames,
    trying the pairs of corners in increasing order of their need.

    For every pair of distinct corners x, y of equal norm, one fixed frame
    at x, its walls in ascending index order, meets every Gram-compatible
    frame at y; if any isometry moves x to y, it moves the fixed frame to
    one of those.  The maps from y to x are their inverses, integral with
    them (det = +-1) and of the same order, so one direction per pair
    makes the sweep complete.  Maps fixing a corner are never tried: point
    stabilizers in a discrete group are finite.  A map with T T = I is
    rejected before infinite_order_evidence: every finite-order map seen
    between two corners of these chambers was such an involution, and one
    product tells it.

    The corners are those of a grown volume.ChamberDiagram
    (chamber_corners) whose separating-wall bound lies strictly below
    height_limit, the ones certified to survive into the full chamber.
    They are sorted once by corner_need, ties in chamber_corners order;
    then for each corner y in that order, and each corner x before it,
    x -> y is tried.  A source frame is factored (linalg.row_hnf) at its
    first target and reused for the rest: most certified corners are never
    a source, so factoring each as the list is built would cost more than
    it saves.  A pair's need, the larger of its corners', so never
    falls along the sweep, and the first hit is a symmetry whose
    certificate replays the shortest cut of any (search.certifying_cut).
    Trying y -> x after x -> y, as a sweep over every ordered pair would,
    could never hit first: the inverse of a hit was tried before it.
    Deterministic throughout.
    """
    form, roots = chamber.form, chamber.roots
    heights = [form.height(r) for r in roots]
    corners = []
    for c in chamber_corners(chamber):
        vector, walls = c["vector"], tuple(c["orthogonal"])
        bound = corner_height_bound(form, vector)
        if bound >= height_limit:
            continue
        # a vertex of the full chamber is simple: exactly n walls
        if len(walls) != form.n:
            raise ConsistencyError(
                f"certified corner must lie on exactly {form.n} walls, got {len(walls)}"
            )
        corners.append({
            "need": corner_need(bound, (heights[i] for i in walls)),
            "norm": form.norm(vector),
            "vector": vector,
            "walls": walls,
            "subgram": chamber.subgram(walls),
            "frame": [roots[i] for i in walls] + [vector],
        })
    corners.sort(key=lambda c: c["need"])
    identity = linalg.identity(form.dim)
    for j, y in enumerate(corners):
        for x in corners[:j]:
            if x["norm"] != y["norm"]:
                continue
            for perm in _matching_frames(chamber.gram, y["walls"], x["subgram"]):
                if "hnf" not in x:
                    x["hnf"] = linalg.row_hnf(x["frame"])
                T = frame_map(form, x["frame"], [roots[i] for i in perm] + [y["vector"]], x["hnf"])
                if T is None or linalg.mat_mul(T, T) == identity:
                    continue
                evidence = infinite_order_evidence(T)
                if evidence is None:
                    continue
                return {
                    "matrix": T,
                    "frame_from": {"root_indices": list(x["walls"]), "corner": list(x["vector"])},
                    "frame_to": {"root_indices": list(perm), "corner": list(y["vector"])},
                    "evidence": evidence,
                }
    return None
