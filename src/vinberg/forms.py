"""The quadratic lattices Z^{n+1} with form -p x0^2 + x1^2 + ... + xn^2.

Vectors are (n+1)-tuples of ints indexed 0..n; coordinate 0 carries the
negative sign.  Throughout, p is an odd prime >= 5 and n >= 2, giving a
Lorentzian lattice of signature (1, n); p stays below PRIME_LIMIT, where
the primality test is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

Vector = tuple[int, ...]


# No composite below PRIME_LIMIT is a strong probable prime to all of
# these bases (Sorenson and Webster 2017), so Miller-Rabin on them is exact.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(m: int) -> bool:
    """Whether 0 <= m < PRIME_LIMIT is prime, by deterministic Miller-Rabin."""
    for a in _MR_BASES:
        if m % a == 0:
            return m == a
    if m < 2:
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1:
            continue
        for _ in range(s):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    return True


class Form:
    """The form -p x0^2 + x1^2 + ... + xn^2 on Z^{n+1}.

    A value: equal and hashable by (p, n), and immutable.
    """

    def __init__(self, p: int, n: int):
        if type(p) is not int or type(n) is not int:
            raise ValueError("p and n must be integers")
        if p >= PRIME_LIMIT:
            raise ValueError(f"p must be below {PRIME_LIMIT}")
        if p < 5 or not _is_prime(p):
            raise ValueError("p must be a prime >= 5")
        if n < 2:
            raise ValueError("n must be >= 2")
        # past __setattr__, which refuses every assignment; not through
        # __dict__, which would turn the inline attribute values into a dict
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"Form(p={self.p!r}, n={self.n!r})"

    @property
    def dim(self) -> int:
        return self.n + 1

    def inner_product(self, u: Vector, v: Vector) -> int:
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("dimension mismatch")
        # the plain dot product, less (p + 1) u0 v0 for coordinate 0's sign
        return sum(map(mul, u, v)) - (self.p + 1) * u[0] * v[0]

    def norm(self, v: Vector) -> int:
        return self.inner_product(v, v)

    def dual(self, v: Vector) -> Vector:
        """G v = (-p v0, v1, ..., vn): the functional x -> <v, x> as a row.

        A wall's constraint and orthogonality rows are this vector, so
        <v, x> is a plain dot product with it.
        """
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return (-self.p * v[0],) + tuple(v[1:])

    def gram(self, vectors) -> list[list[int]]:
        """The Gram matrix, each unordered pair computed once as the dot
        product dual(u) . v; dual, once per vector, checks every length."""
        k = len(vectors)
        G = [[0] * k for _ in range(k)]
        for i, u in enumerate(map(self.dual, vectors)):
            for j in range(i, k):
                G[i][j] = G[j][i] = sum(map(mul, u, vectors[j]))
        return G

    @property
    def form_matrix(self) -> list[list[int]]:
        d = self.dim
        return [
            [(-self.p if i == 0 else 1) if i == j else 0 for j in range(d)]
            for i in range(d)
        ]

    def is_primitive(self, v: Vector) -> bool:
        return gcd(*v) == 1

    def satisfies_crystallographic_condition(self, v: Vector, m: int | None = None) -> bool:
        """Whether reflection in v maps the lattice to itself.

        The reflection x -> x - 2 <x,v>/<v,v> v is integral exactly when
        <v,v> divides 2 <b,v> for every basis vector b, i.e. m | 2 p v0 and
        m | 2 vi for i >= 1.  Pass m to test divisibility against a declared
        norm instead of <v,v>.
        """
        if m is None:
            m = self.norm(v)
        if m <= 0:
            return False
        if (2 * self.p * v[0]) % m != 0:
            return False
        return all((2 * x) % m == 0 for x in v[1:])

    def is_root(self, v: Vector) -> bool:
        """Primitive, positive norm, and reflection in v preserves the lattice."""
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        m = self.norm(v)
        if m <= 0:
            return False
        if not self.is_primitive(v):
            return False
        return self.satisfies_crystallographic_condition(v, m)

    @cached_property
    def admissible_root_norms(self) -> tuple[int, ...]:
        """Norms that roots of this form can have, in increasing order.

        A root norm m satisfies m | 2 v_i and m | 2 p v_0, hence
        m | 2 gcd(p v_0, v_1, ..., v_n) and m | 2p; the candidates are
        1, 2, p, 2p.  Norm p needs v_0^2 = -1 (mod p) solvable and norm 2p
        needs v_0^2 = -2 (mod p) solvable, because p must divide every v_i
        with i >= 1 in those cases.  By the supplementary laws of quadratic
        reciprocity, -1 is a square mod p iff p = 1 (mod 4), and -2 iff
        p = 1 or 3 (mod 8).
        """
        norms = [1, 2]
        if self.p % 4 == 1:
            norms.append(self.p)
        if self.p % 8 in (1, 3):
            norms.append(2 * self.p)
        return tuple(norms)

    def initial_roots(self) -> list[Vector]:
        """Simple roots of the stabilizer of the control vector.

        e_i = v_{i+1} - v_i for 1 <= i < n and e_n = -v_n cut out the cone
        of vectors with x_1 >= x_2 >= ... >= x_n >= 0.
        """
        roots = []
        for i in range(1, self.n):
            e = [0] * self.dim
            e[i] = -1
            e[i + 1] = 1
            roots.append(tuple(e))
        last = [0] * self.dim
        last[self.n] = -1
        roots.append(tuple(last))
        return roots

    def height(self, v: Vector) -> Fraction:
        """Distance measure k0^2 / <v,v> ordering the root search."""
        return Fraction(v[0] * v[0], self.norm(v))
