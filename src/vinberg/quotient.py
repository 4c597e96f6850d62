"""Lattice quotients at a null direction.

For a primitive isotropic lattice vector e, the sublattice M = e^perp
contains e in its radical; the quotient Mbar = M / Z e is a positive
definite lattice of rank n - 1.  A class x + Z e has a well defined norm,
and whether the class contains an actual root of the ambient lattice is
decided by a finite residue scan.  These quotients drive the ideal-vertex
obstruction: a chamber of finite volume meeting the boundary at e needs
its walls through e to span a full-rank reflection group on the
horosphere, so the root classes of Mbar must span it rationally.  Their
index in Mbar can exceed one even at a genuine ideal vertex; only a rank
deficit is an obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from vinberg import linalg
from vinberg.forms import Form, Vector


@dataclass(frozen=True)
class NullQuotient:
    form: Form
    e: Vector
    class_basis: tuple  # lattice representatives of the quotient generators
    gram: tuple  # positive definite Gram of the quotient

    @property
    def rank(self) -> int:
        return self.form.n - 1

    def lift(self, coords) -> Vector:
        """Lattice representative of the class with the given coordinates."""
        vec = [0] * self.form.dim
        for c, row in zip(coords, self.class_basis):
            for k in range(self.form.dim):
                vec[k] += c * row[k]
        return tuple(vec)

    def class_coordinates(self, x) -> list[int]:
        """Coordinates of the class of x in Mbar; x must lie in e^perp."""
        if self.form.inner_product(x, self.e) != 0:
            raise ValueError("vector is not orthogonal to the null direction")
        cols = [list(self.e)] + [list(r) for r in self.class_basis]
        A = [[cols[j][i] for j in range(len(cols))] for i in range(self.form.dim)]
        sol = linalg.solve(A, list(x))
        if sol is None or any(c.denominator != 1 for c in sol):
            raise ValueError("vector is not in the orthogonal sublattice")
        return [int(c) for c in sol[1:]]

    def class_norm(self, coords) -> int:
        return sum(
            self.gram[i][j] * coords[i] * coords[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )


def null_quotient(form: Form, e) -> NullQuotient:
    """Construct M = e^perp and Mbar = M / Z e for a primitive null vector."""
    e = tuple(e)
    if form.norm(e) != 0 or not any(e):
        raise ValueError("null vector required")
    if not form.is_primitive(e):
        raise ValueError("primitive vector required")
    m_rows = linalg.integer_kernel([form.dual(e)])
    # coordinates of e inside M, then a change of basis putting e first
    A = [[m_rows[j][i] for j in range(len(m_rows))] for i in range(form.dim)]
    coords = linalg.solve(A, list(e))
    assert coords is not None and all(c.denominator == 1 for c in coords)
    coords = [int(c) for c in coords]
    W = linalg.complete_basis(coords)
    basis = [
        tuple(sum(W[i][j] * m_rows[j][k] for j in range(len(m_rows))) for k in range(form.dim))
        for i in range(len(m_rows))
    ]
    assert basis[0] == e
    class_basis = tuple(basis[1:])
    gram = tuple(tuple(row) for row in form.gram(class_basis))
    if linalg.psd_classify([list(r) for r in gram]) != "definite":
        raise ValueError("quotient is not positive definite; e is not isotropic-primitive as expected")
    return NullQuotient(form=form, e=e, class_basis=class_basis, gram=gram)


def root_class_shift(form: Form, quot: NullQuotient, coords, m) -> int | None:
    """Shift t making lift(coords) + t e a root, or None if no t works.

    m is the class norm of coords, as linalg.short_vectors returns it
    (quot.class_norm re-derives it).  The divisibility conditions on
    v = x + t e are m | 2p v0 and m | 2 vi.  For m = 1 or 2 every t
    satisfies them; for m = p or 2p they say p | xi + t ei for each
    i >= 1, and some such ei is prime to p (else the null norm would make
    p divide e0 too, against primitivity), which fixes t modulo p.  The
    returned shift is the smallest witness in [0, m).
    """
    if m <= 0 or m not in form.admissible_root_norms:
        return None
    x = quot.lift(coords)
    e = quot.e
    t = 0
    if m % form.p == 0:
        i = next(i for i in range(1, form.dim) if e[i] % form.p)
        t = -x[i] * pow(e[i], -1, form.p) % form.p
    v = tuple(a + t * b for a, b in zip(x, e))
    if not form.satisfies_crystallographic_condition(v, m):
        return None
    # admissible norms are squarefree, so v is automatically primitive
    assert form.is_root(v)
    return t


def root_classes(form: Form, quot: NullQuotient) -> dict:
    """Root classes of the quotient up to sign, with the lattice they span.

    Walks the classes whose norm is an admissible root norm (1, 2, p or
    2p; linalg.short_vectors, which hands over each class with its norm),
    keeps those containing a root, and returns their coordinate vectors,
    sorted, together with the rank and (when full) the index of their span
    inside the quotient.  A class of any other norm holds no root.
    norm_bound records 2p, the largest norm a root can have.

    The walk ends as soon as the classes found so far span the quotient
    rationally: full rank is all the obstruction test needs to know.  So
    classes, rank and index are those of every root class only when
    full_rank is false; a full-rank result covers the classes walked
    before the stop.
    """
    classes = []
    independent = []

    def visit(v, m) -> bool:
        t = root_class_shift(form, quot, v, m)
        if t is None:
            return False
        classes.append({"coords": list(v), "norm": m, "shift": t})
        if linalg.rank(independent + [v]) > len(independent):
            independent.append(v)
        return len(independent) == quot.rank

    gram = [list(r) for r in quot.gram]
    linalg.short_vectors(gram, form.admissible_root_norms, visit)
    classes.sort(key=lambda c: c["coords"])
    span = linalg.hnf_basis([c["coords"] for c in classes])
    rank = len(span)
    if rank == quot.rank:
        index = 1
        for i, row in enumerate(span):
            index *= row[i]
    else:
        index = None
    return {
        "norm_bound": 2 * form.p,
        "classes": classes,
        "rank": rank,
        "index": index,
        "full_rank": rank == quot.rank,
    }


def orthogonal_complement_data(form: Form, quot: NullQuotient, image_coords) -> dict:
    """Complement of the span D of the given classes inside the quotient.

    Returns the complement generators C (classes orthogonal to D), the norm
    of a generator when C has rank one, the index [Mbar : D + C] and the
    cyclic structure of the glue group with a representative glue vector.
    """
    G = [list(r) for r in quot.gram]
    d_basis = linalg.hnf_basis(image_coords)
    rows = [linalg.mat_vec(G, d) for d in d_basis]
    c_basis = linalg.integer_kernel(rows) if rows else linalg.identity(quot.rank)
    data: dict = {"c_basis": [list(r) for r in c_basis]}
    if len(c_basis) == 1:
        gen = c_basis[0]
        data["generator"] = list(quot.lift(gen))
        data["generator_norm"] = quot.class_norm(gen)
    stack = [list(r) for r in d_basis] + [list(r) for r in c_basis]
    if len(stack) == quot.rank:
        index = abs(linalg.det(stack))
        data["index"] = index
        D, U, V = linalg.snf(stack)
        invariants = [D[i][i] for i in range(len(D)) if D[i][i] > 1]
        data["invariants"] = invariants
        if invariants:
            Vinv = linalg.mat_inv(V)
            # rows of V^-1 are a basis in which the sublattice is diagonal
            big = max(range(len(D)), key=lambda i: D[i][i])
            glue = [int(x) for x in Vinv[big]]
            data["glue_vector"] = list(quot.lift(glue))
            data["glue_order"] = D[big][big]
    else:
        data["index"] = None
    return data

