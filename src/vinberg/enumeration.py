"""Batch candidate enumeration.

A batch (k0, m) holds the candidate roots with first coordinate k0 and
norm m.  Their spatial parts are the sorted nonnegative vectors of
squared length m + p k0^2, found by a depth-first walk over coordinates
in non-increasing order, in exact integer arithmetic, that solves the
last two coordinates in one loop.  For n >= 3 the level above calls
that loop only where the rest of the squared length is a sum of two
squares, read off a table of such sums that grows lazily, by doubling,
to the largest target seen.  With n = 2 the loop is the whole walk and
runs once per batch, and a table reaching its targets (about 10^6 for
(83,2) at max_height 6400) would cost more to build than it saves, so
n = 2 never reads it.

A norm-p batch whose target is not divisible by p^2 is empty, and
returns before its prior rows are read.  A prior root's row is checked
at the leaves only if it can reject a vector of the batch, by a bound in
k_1 alone (Abel summation) whose peak search.replay computes once per
root (prior_row); the initial roots' rows never can.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import mul

# _TWO_SQUARES[r] == 1 iff r = a^2 + b^2 for some integers a, b, for
# every r < len(_TWO_SQUARES): an arithmetic fact, not search data
_TWO_SQUARES = bytearray()


def two_squares_table(bound: int) -> bytearray:
    """The table t with t[r] == 1 iff r is a sum of two squares, for every
    r <= bound at least.  When bound lies past its end it is grown to the
    least power of two (1024 or more) above bound, marking only the new
    entries: a^2 + b^2 with a >= b >= 0 in the new range."""
    t = _TWO_SQUARES
    old = len(t)
    if bound < old:
        return t
    size = max(old, 1024)
    while size <= bound:
        size *= 2
    t.extend(bytes(size - old))
    for a in range(isqrt(size - 1) + 1):
        a2 = a * a
        low = isqrt(old - 1 - a2) + 1 if a2 < old else 0
        for b in range(low, min(a, isqrt(size - 1 - a2)) + 1):
            t[a2 + b * b] = 1
    return t


def kernel_backend() -> str:
    """Name of the enumeration kernel; there is one, in pure Python."""
    return "pure"


def prior_row(root) -> tuple:
    """A prior root as enumerate_batch reads it: (r_0, spatial part, peak),
    with peak = max(0, C_1, ..., C_n) over the prefix sums C_j of the
    spatial part."""
    spatial = root[1:]
    return root[0], spatial, max(0, *accumulate(spatial))


def enumerate_batch_vectors(n, target, step, priors):
    """Spatial parts of candidate roots for one batch.

    Yields every tuple (k_1, ..., k_n), n >= 2, with
      k_1 >= k_2 >= ... >= k_n >= 0,
      step | k_i for all i,
      k_1^2 + ... + k_n^2 = target,
      const + sum_i c_i * k_i <= 0 for every (const, c, peak) in priors,
    as a list in lexicographically decreasing order.

    With C_j = c_1 + ... + c_j the prefix sums of a row and k_{n+1} = 0,
    sum_i c_i k_i = sum_j C_j (k_j - k_{j+1}) <= k_1 max(0, max_j C_j),
    since the differences are nonnegative and sum to k_1.  Every vector
    has k_1 <= step isqrt(target / step^2), so a row whose constant plus
    that bound is <= 0 cannot reject one and is not checked.  A row's
    peak is that max(0, max_j C_j), as prior_row gives it.
    """
    if step > 1:
        sq = step * step
        if target % sq:
            return []
        target //= sq
    top = isqrt(target)
    reach = top * step
    live = [
        (base, [c * step for c in row] if step > 1 else row)
        for base, row, peak in priors
        if base + reach * peak > 0
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
            for base, row in live:
                if base + sum(map(mul, row, j)) > 0:
                    break
            else:
                out.append(tuple(x * step for x in j))

    def dfs(depth, remaining, cap):
        # depth < last: sets k_{depth+1}, and hands the last two
        # coordinates to pairs only where they can be a sum of two squares
        v = isqrt(remaining)
        if v > cap:
            v = cap
        slots = n - depth
        while v >= 0:
            sq = v * v
            if sq * slots < remaining:
                break
            j[depth] = v
            rest = remaining - sq
            if depth + 1 < last:
                dfs(depth + 1, rest, v)
            elif two_squares[rest]:
                pairs(rest, v)
            v -= 1

    if last:
        two_squares = two_squares_table(target)
        dfs(0, target, top)
    else:
        pairs(target, top)
    # dfs holds itself through its closure cell: unbound, the closures are
    # freed here, not left as cyclic garbage for the collector
    dfs = None
    return out


def enumerate_batch(form, k0, m, prior_rows) -> list[tuple[int, ...]]:
    """Candidate roots with first coordinate k0 and norm m.

    Candidates satisfy the root divisibility conditions, have non-increasing
    nonnegative spatial coordinates (the initial chamber), and inner product
    <= 0 with every prior root, given by its prior_row.  Ordered
    lexicographically decreasing in the spatial part.
    """
    p = form.p
    target = m + p * k0 * k0
    # norm p or 2p forces p | k_i for i >= 1, so p^2 | target; norms 1 and
    # 2 impose nothing
    step = p if m % p == 0 else 1
    if target % (step * step):
        return []
    c = -p * k0
    priors = [(c * r0, row, peak) for r0, row, peak in prior_rows]
    vecs = enumerate_batch_vectors(form.n, target, step, priors)
    return [(k0, *v) for v in vecs]
