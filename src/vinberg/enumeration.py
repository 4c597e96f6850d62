"""Batch candidate enumeration.

A batch (k0, m) holds the candidate roots with first coordinate k0 and
norm m.  Their spatial parts are the sorted nonnegative vectors of
squared length m + p k0^2, found by a depth-first walk over coordinates
in non-increasing order, in exact integer arithmetic, that solves the
last two coordinates in one loop.  A prior root's row is checked at the
leaves only if it can reject a vector of the batch, by a bound in k_1
alone (Abel summation); the initial roots' rows never can.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt


def kernel_backend() -> str:
    """Name of the enumeration kernel; there is one, in pure Python."""
    return "pure"


def enumerate_batch_vectors(n, target, step, prior_consts, prior_coeffs):
    """Spatial parts of candidate roots for one batch.

    Yields every tuple (k_1, ..., k_n), n >= 2, with
      k_1 >= k_2 >= ... >= k_n >= 0,
      step | k_i for all i,
      k_1^2 + ... + k_n^2 = target,
      prior_consts[r] + sum_i prior_coeffs[r][i] * k_i <= 0 for every r,
    as a list in lexicographically decreasing order.

    With C_j = c_1 + ... + c_j the prefix sums of a row and k_{n+1} = 0,
    sum_i c_i k_i = sum_j C_j (k_j - k_{j+1}) <= k_1 max(0, max_j C_j),
    since the differences are nonnegative and sum to k_1.  Every vector
    has k_1 <= isqrt(target), so a row whose constant plus that bound at
    k_1 = isqrt(target) is <= 0 cannot reject one and is not checked.
    """
    if step > 1:
        sq = step * step
        if target % sq:
            return []
        target //= sq
        prior_coeffs = [[c * step for c in row] for row in prior_coeffs]
    top = isqrt(target)
    priors = [
        (base, row)
        for base, row in zip(prior_consts, prior_coeffs)
        if base + top * max(0, *accumulate(row)) > 0
    ]
    out = []
    j = [0] * n
    last = n - 2

    def pairs(remaining, cap):
        # k_{n-1} = a and k_n = b with a >= b >= 0, a <= cap, a^2 + b^2 =
        # remaining; b <= a holds from a down to the least a with
        # 2 a^2 >= remaining
        a = isqrt(remaining)
        if a > cap:
            a = cap
        least = isqrt((remaining - 1) // 2) + 1 if remaining else 0
        for a in range(a, least - 1, -1):
            b2 = remaining - a * a
            b = isqrt(b2)
            if b * b != b2:
                continue
            j[last] = a
            j[-1] = b
            for base, row in priors:
                s = base
                for c, k in zip(row, j):
                    s += c * k
                if s > 0:
                    break
            else:
                out.append(tuple(x * step for x in j))

    def dfs(depth, remaining, cap):
        if depth == last:
            pairs(remaining, cap)
            return
        v = isqrt(remaining)
        if v > cap:
            v = cap
        slots = n - depth
        while v >= 0:
            sq = v * v
            if sq * slots < remaining:
                break
            j[depth] = v
            dfs(depth + 1, remaining - sq, v)
            v -= 1

    dfs(0, target, top)
    return out


def enumerate_batch(form, k0, m, prior_roots) -> list[tuple[int, ...]]:
    """Candidate roots with first coordinate k0 and norm m.

    Candidates satisfy the root divisibility conditions, have non-increasing
    nonnegative spatial coordinates (the initial chamber), and inner product
    <= 0 with every vector of prior_roots.  Ordered lexicographically
    decreasing in the spatial part.
    """
    target = m + form.p * k0 * k0
    # norm p or 2p forces p | k_i for i >= 1; norms 1 and 2 impose nothing
    step = form.p if m % form.p == 0 else 1
    consts = [-form.p * k0 * r[0] for r in prior_roots]
    coeffs = [list(r[1:]) for r in prior_roots]
    vecs = enumerate_batch_vectors(form.n, target, step, consts, coeffs)
    return [(k0, *v) for v in vecs]
