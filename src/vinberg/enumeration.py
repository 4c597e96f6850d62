"""Batch candidate enumeration.

A batch (k0, m) holds the candidate roots with first coordinate k0 and
norm m.  Their spatial parts are the sorted nonnegative vectors of
squared length m + p k0^2, found by a depth-first walk over coordinates
in non-increasing order, in exact integer arithmetic.
"""

from __future__ import annotations

from math import isqrt


def kernel_backend() -> str:
    """Name of the enumeration kernel; there is one, in pure Python."""
    return "pure"


def enumerate_batch_vectors(n, target, step, prior_consts, prior_coeffs):
    """Spatial parts of candidate roots for one batch.

    Yields every tuple (k_1, ..., k_n) with
      k_1 >= k_2 >= ... >= k_n >= 0,
      step | k_i for all i,
      k_1^2 + ... + k_n^2 = target,
      prior_consts[r] + sum_i prior_coeffs[r][i] * k_i <= 0 for every r,
    as a list in lexicographically decreasing order.
    """
    if step > 1:
        sq = step * step
        if target % sq:
            return []
        target //= sq
        prior_coeffs = [[c * step for c in row] for row in prior_coeffs]
    priors = list(zip(prior_consts, prior_coeffs))
    out = []
    j = [0] * n

    def emit():
        for base, row in priors:
            s = base
            for a, b in zip(row, j):
                s += a * b
            if s > 0:
                return
        out.append(tuple(x * step for x in j))

    def dfs(depth, remaining, cap):
        if depth == n - 1:
            r = isqrt(remaining)
            if r * r == remaining and r <= cap:
                j[depth] = r
                emit()
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

    dfs(0, target, isqrt(target))
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
