"""Lattice quotients at a null direction.

For a primitive isotropic lattice vector e, the sublattice M = e^perp
contains e in its radical; the quotient Mbar = M / Z e is a positive
definite lattice of rank n - 1.  A class x + Z e has a well defined norm,
and whether the class contains an actual root of the ambient lattice is
decided by residues modulo p, below.  These quotients drive the ideal-vertex
obstruction: a chamber of finite volume meeting the boundary at e needs
its walls through e to span a full-rank reflection group on the
horosphere, so the root classes of Mbar must span it rationally.  Their
index in Mbar can exceed one even at a genuine ideal vertex; only a rank
deficit is an obstruction.

A class of norm 1 or 2 always holds a root.  A class of norm m = p or 2p
holds one exactly when some v = x + t e has p | v_i for every i >= 1
(the reflection conditions m | 2p v0 and m | 2 v_i; the first holds for
any v).  Fix i0 >= 1 with e[i0] prime to p and u = e[i0]^-1 mod p: the
i0 condition forces t = -x[i0] u mod p, and the others then read
x_i - x[i0] u e[i] = 0 mod p.  Since x = sum_j c_j B_j over the class
basis B, that is one linear form per i != i0 in the class coordinates c,
with coefficients B_j[i] - B_j[i0] u e[i] mod p: the residue rows.  A
class of norm p or 2p holds a root exactly when c is in their common
kernel mod p.  So the rows cut the walk: root_classes walks norms p and
2p only on the sublattice of index p^r they cut out
(linalg.congruent_short_vectors), and never meets a class outside it.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

from vinberg import linalg
from vinberg.errors import ConsistencyError
from vinberg.forms import Form, Vector


class NullQuotient:
    """Mbar = M / Z e, M = e^perp, with class_basis lifting its basis to M
    and to_classes the dual rows that read a vector of M in that basis."""

    def __init__(self, form: Form, e: Vector, class_basis: tuple, gram: tuple, to_classes: list):
        self.form = form
        self.e = e
        self.class_basis = class_basis  # lattice representatives of the quotient generators
        self.gram = gram  # positive definite Gram of the quotient
        self._columns = linalg.transpose(class_basis)  # for lift
        self._to_classes = to_classes  # the dual basis to (e, *class_basis) past e's row

    @property
    def rank(self) -> int:
        return self.form.n - 1

    @cached_property
    def residue_rows(self) -> tuple:
        """(i0, u, rows): the index and inverse fixing t, and the residue
        rows; a class c of norm p or 2p holds a root iff every row has
        sum_j row[j] c_j = 0 mod p (see the module docstring)."""
        p, e = self.form.p, self.e
        # some e[i] with i >= 1 is prime to p: else p | e0^2 p would give p | e0
        i0 = next(i for i in range(1, self.form.dim) if e[i] % p)
        u = pow(e[i0], -1, p)
        rows = tuple(
            tuple((b[i] - b[i0] * u * e[i]) % p for b in self.class_basis)
            for i in range(1, self.form.dim)
            if i != i0
        )
        return i0, u, rows

    def lift(self, coords) -> Vector:
        """Lattice representative of the class with the given coordinates."""
        return tuple(linalg.mat_vec(self._columns, coords))

    def class_coordinates(self, vectors) -> list[list[int]]:
        """Coordinates in Mbar of the class of each vector, which must lie
        in e^perp: its product with the dual rows, exact because every
        integer vector of e^perp lies in M."""
        if any(self.form.inner_product(x, self.e) for x in vectors):
            raise ValueError("vector is not orthogonal to the null direction")
        return [linalg.mat_vec(self._to_classes, x) for x in vectors]

    def class_norm(self, coords) -> int:
        return sum(c * g for c, g in zip(coords, linalg.mat_vec(self.gram, coords)))


def null_quotient(form: Form, e) -> NullQuotient:
    """Construct M = e^perp and Mbar = M / Z e for a primitive null vector.

    Two column HNFs (linalg.row_hnf, whose U and W = U^-T have dual rows)
    give both bases, and nothing is inverted by elimination.  The first,
    U1 G e = (g, 0, ..., 0), makes U1[1:] a basis of M, in which e has
    coordinates y = W1[1:] e (W1[0] e = 0 because e is null).  The
    second, U2 y = e_1, makes y the first row of W2, so the basis
    W2 U1[1:] of M starts with e; its other rows are class_basis.  The
    class coordinates of x in M are then U2[1:] W1[1:] x.
    """
    e = tuple(e)
    if form.norm(e) != 0 or not any(e):
        raise ValueError("null vector required")
    if not form.is_primitive(e):
        raise ValueError("primitive vector required")
    _, U1, W1 = linalg.row_hnf([[a] for a in form.dual(e)], inverse=True)
    y0, *y = linalg.mat_vec(W1, e)
    if y0:
        raise ConsistencyError("null vector is not in the integer kernel of its own dual")
    _, U2, W2 = linalg.row_hnf([[a] for a in y], inverse=True)
    basis = [tuple(row) for row in linalg.mat_mul(W2, U1[1:])]
    if basis[0] != e:
        raise ConsistencyError("basis completion did not keep the null vector first")
    class_basis = tuple(basis[1:])
    gram = tuple(tuple(row) for row in form.gram(class_basis))
    if linalg.psd_classify([list(r) for r in gram]) != "definite":
        raise ValueError("quotient is not positive definite; e is not isotropic-primitive as expected")
    return NullQuotient(form, e, class_basis, gram, linalg.mat_mul(U2[1:], W1[1:]))


def root_class_shift(form: Form, quot: NullQuotient, coords, m) -> int | None:
    """Shift t making lift(coords) + t e a root, or None if no t works.

    m is the class norm of coords, as the walk of root_classes returns it
    (quot.class_norm re-derives it).  The divisibility conditions on
    v = x + t e are m | 2p v0 and m | 2 vi.  For m = 1 or 2 every t
    satisfies them; for m = p or 2p they say p | xi + t ei for each
    i >= 1.  The i0 condition fixes t = -x[i0] u modulo p, and the others
    then hold exactly when coords passes quot.residue_rows, on which
    root_classes walks these norms.  The class is lifted, shifted and
    checked in full.  The returned shift is the smallest witness in [0, m).
    """
    if m <= 0 or m not in form.admissible_root_norms:
        return None
    x = quot.lift(coords)
    t = 0
    if m % form.p == 0:
        i0, u, _ = quot.residue_rows
        t = -x[i0] * u % form.p
    v = tuple(a + t * b for a, b in zip(x, quot.e))
    if not form.satisfies_crystallographic_condition(v, m):
        return None
    # admissible norms are squarefree, so v is automatically primitive
    if not form.is_root(v):
        raise ConsistencyError(f"class {list(coords)} shifted by {t} is not a root")
    return t


def root_classes(form: Form, quot: NullQuotient, *, known=()) -> dict:
    """Root classes of the quotient up to sign, with the lattice they span.

    Walks the classes whose norm is an admissible root norm (1, 2, p or
    2p), each norm where its root classes can lie
    (linalg.congruent_short_vectors, which hands over each class with its
    norm).  The classes of norm p or 2p are walked first, on the sublattice
    cut out by quot.residue_rows; then those of norm 1 and 2, every one of
    which holds a root, on the whole quotient.  A class of any other norm
    holds no root.  root_class_shift keeps the classes that contain a root,
    and they are returned by coordinate vector, sorted, with the rank of
    their span.  norm_bound records 2p, the largest norm a root can have;
    index is None, kept for the certificate schema.

    The walks end as soon as the classes found so far span the quotient
    rationally: full rank is all the obstruction test needs to know.  So
    classes and rank are those of every root class only when full_rank is
    false; a full-rank result covers the classes walked before the stop.

    known seeds the span, so a full-rank walk stops once its classes
    complete known's span.  known must hold class coordinates
    (class_coordinates) of roots in e^perp: each is then, up to sign, a
    class the walk visits, so a walk that never reaches full rank returns
    exactly the unseeded result.  Any other vector could make full_rank
    true where the root classes are deficient.  known's classes are not
    listed in classes.
    """
    classes = []
    span = linalg.Echelon()
    for v in known:
        span.add(v)

    def visit(v, m) -> bool:
        t = root_class_shift(form, quot, v, m)
        if t is None:
            return False
        classes.append({"coords": list(v), "norm": m, "shift": t})
        span.add(v)
        return len(span.rows) == quot.rank

    gram = [list(r) for r in quot.gram]
    _, _, rows = quot.residue_rows
    linalg.congruent_short_vectors(gram, form.admissible_root_norms, form.p, rows, visit)
    classes.sort(key=lambda c: c["coords"])
    rank = len(span.rows)
    return {
        "norm_bound": 2 * form.p,
        "classes": classes,
        "rank": rank,
        "index": None,
        "full_rank": rank == quot.rank,
    }


def orthogonal_complement_data(form: Form, quot: NullQuotient, image_coords) -> tuple[dict, dict]:
    """The complement and glue objects of the ideal-vertex payload, for the
    span D of the given classes inside the quotient.

    complement holds the basis of C, the classes orthogonal to D, and, when
    C has rank one, the lift and norm of its generator.  glue holds the
    index [Mbar : D + C], the invariant factors above 1 of the glue group
    Mbar / (D + C), and the lift and order of a generator of its largest
    cyclic factor.  Every key is present, None where a value is absent.
    The quotient Gram is definite, so D and C have complementary ranks and
    D's basis stacked on C's is square: the glue group is finite and read
    off the stack's Smith normal form.
    """
    G = [list(r) for r in quot.gram]
    d_basis = linalg.hnf_basis(image_coords)
    rows = [linalg.mat_vec(G, d) for d in d_basis]
    c_basis = linalg.integer_kernel(rows) if rows else linalg.identity(quot.rank)
    complement = {"basis": [list(r) for r in c_basis], "generator": None, "generator_norm": None}
    if len(c_basis) == 1:
        complement["generator"] = list(quot.lift(c_basis[0]))
        complement["generator_norm"] = quot.class_norm(c_basis[0])
    D, U, V = linalg.snf(d_basis + c_basis)
    invariants = [D[i][i] for i in range(len(D)) if D[i][i] > 1]
    # U and V are unimodular, so the diagonal's product is |det stack|
    glue = {"index": prod(D[i][i] for i in range(len(D))), "invariants": invariants,
            "vector": None, "order": None}
    if invariants:
        # V is unimodular, and the rows of its inverse are a basis in
        # which the sublattice is diagonal; row big x of V^-1 solves
        # V^T x = e_big
        big = max(range(len(D)), key=lambda i: D[i][i])
        x = linalg.solve(linalg.transpose(V), [[int(i == big)] for i in range(len(V))])
        glue["vector"] = list(quot.lift([a for a, in x]))
        glue["order"] = D[big][big]
    return complement, glue
