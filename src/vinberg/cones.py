"""Exact polyhedral cone computations via the double description method.

A cone {y : a . y <= 0 for all a} in Q^d is carried as generators split
into lines (the lineality space) and rays, all scaled to primitive integer
vectors.  Adjacency of rays is decided algebraically, by the rank of the
common tight constraint set, so redundant rays can never corrupt the
result; they only cost a little time at the sizes that occur here.
"""

from __future__ import annotations

from fractions import Fraction

from vinberg import linalg


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector."""
    den = 1
    for x in v:
        d = Fraction(x).denominator
        den = den * d // linalg.gcd_int(den, d)
    w = [int(Fraction(x) * den) for x in v]
    g = linalg.vec_content(w)
    if g > 1:
        w = [x // g for x in w]
    return tuple(w)


def _dot(a, v):
    return sum(x * y for x, y in zip(a, v))


def cone_generators(constraints, dim) -> tuple[list, list]:
    """Generators (lines, rays) of {y in Q^dim : a . y <= 0 for all a}.

    Each ray carries the set of indices of the processed constraints it
    is tight on, updated as constraints are added, so adjacency never
    re-evaluates old constraints.
    """
    lines = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[tuple] = []
    tight: list[frozenset] = []  # tight[k]: processed constraints zero on rays[k]
    processed: list[tuple] = []

    for a in constraints:
        a = tuple(a)
        here = frozenset([len(processed)])
        pivot_idx = next((i for i, l in enumerate(lines) if _dot(a, l) != 0), None)
        if pivot_idx is not None:
            pivot = lines.pop(pivot_idx)
            pv = _dot(a, pivot)
            s = 1 if pv > 0 else -1
            # project every other generator onto the hyperplane a . y = 0;
            # the scaling factor s*pv is positive, so ray directions survive
            lines = [
                l if _dot(a, l) == 0 else primitive_vector(
                    [s * pv * x - s * _dot(a, l) * y for x, y in zip(l, pivot)]
                )
                for l in lines
            ]
            rays = [
                r if _dot(a, r) == 0 else primitive_vector(
                    [s * pv * x - s * _dot(a, r) * y for x, y in zip(r, pivot)]
                )
                for r in rays
            ]
            # the pivot line lies in every processed hyperplane, and so do
            # the projections' pivot components: old tight sets carry over
            tight = [t | here for t in tight]
            # the pivot line itself survives as the ray pointing inside
            rays.append(pivot if pv < 0 else tuple(-x for x in pivot))
            tight.append(frozenset(range(len(processed))))
        else:
            values = [_dot(a, r) for r in rays]
            neg = [k for k, v in enumerate(values) if v < 0]
            zero = [k for k, v in enumerate(values) if v == 0]
            pos = [k for k, v in enumerate(values) if v > 0]
            new_rays = [rays[k] for k in neg + zero]
            new_tight = [tight[k] for k in neg] + [tight[k] | here for k in zero]
            for kp in pos:
                for kn in neg:
                    common = tight[kp] & tight[kn]
                    # rays span a 2-face exactly when the common tight
                    # constraints cut the space down to lineality plus a plane
                    if len(rays) > 2 and linalg.rank(
                        [processed[c] for c in sorted(common)]
                    ) != dim - len(lines) - 2:
                        continue
                    vp, vn = values[kp], values[kn]
                    new_rays.append(primitive_vector(
                        [vp * x - vn * y for x, y in zip(rays[kn], rays[kp])]
                    ))
                    new_tight.append(common | here)
            rays, tight = new_rays, new_tight
        processed.append(a)

    seen = set()
    unique = []
    for r in rays:
        if r not in seen and any(r):
            seen.add(r)
            unique.append(r)
    return sorted(lines), sorted(unique)
