"""Exact polyhedral cone computations via the double description method.

A cone {y : a . y <= 0 for all a} in Q^d is carried as generators split
into lines (the lineality space) and rays, all scaled to primitive integer
vectors.  Adjacency of rays is decided algebraically, by the rank of the
common tight constraint set, so redundant rays can never corrupt the
result; they only cost a little time at the sizes that occur here.

A Cone holds the double-description state: lines, rays, the constraints
each ray is tight on, and the constraints processed so far.  Passing one
to cone_generators adds constraints to it one at a time (Fukuda and
Prodon 1996), so a cone cut out by a growing list is never recomputed;
without one, the call starts from the whole space.
"""

from __future__ import annotations

from math import gcd

from vinberg import linalg


def primitive_vector(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _dot(a, v):
    return sum(x * y for x, y in zip(a, v))


class Cone:
    """Double-description state of {y : a . y <= 0 for every processed a}.

    rays[k] is tight on processed[i] exactly for i in tight[k].  Rays may
    repeat or be redundant; generators() gives the canonical generators.
    """

    def __init__(self, dim):
        self.lines = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
        self.rays: list[tuple] = []
        self.tight: list[frozenset] = []
        self.processed: list[tuple] = []

    def generators(self) -> tuple[list, list]:
        """(lines, rays), sorted, the rays distinct and nonzero."""
        return sorted(self.lines), sorted({r for r in self.rays if any(r)})


def cone_generators(constraints, dim, cone=None) -> tuple[list, list]:
    """Generators (lines, rays) of {y in Q^dim : a . y <= 0 for all a}.

    The constraints are added to cone, a Cone of dimension dim holding
    earlier constraints, or to a fresh one; the generators are those of
    every constraint it then holds.  Each ray carries the set of indices
    of the processed constraints it is tight on, updated as constraints
    are added, so adjacency never re-evaluates old constraints.  The cone
    is updated only once every constraint is in.
    """
    if cone is None:
        cone = Cone(dim)
    lines, rays, tight, processed = map(list, (cone.lines, cone.rays, cone.tight, cone.processed))

    for a in constraints:
        a = tuple(a)
        here = frozenset([len(processed)])
        pivot_idx = next((i for i, l in enumerate(lines) if _dot(a, l) != 0), None)
        if pivot_idx is not None:
            pivot = lines.pop(pivot_idx)
            pv = _dot(a, pivot)
            s = 1 if pv > 0 else -1

            def project(v):
                # onto the hyperplane a . y = 0, along the pivot; the
                # scaling factor s*pv is positive, so ray directions survive
                d = _dot(a, v)
                return v if d == 0 else primitive_vector(
                    [s * pv * x - s * d * y for x, y in zip(v, pivot)]
                )

            lines = [project(l) for l in lines]
            rays = [project(r) for r in rays]
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
            need = dim - len(lines) - 2
            for kp in pos:
                for kn in neg:
                    common = tight[kp] & tight[kn]
                    # rays span a 2-face exactly when the common tight
                    # constraints cut the space down to lineality plus a
                    # plane, which takes at least need of them
                    if len(rays) > 2 and (len(common) < need or linalg.rank(
                        [processed[c] for c in sorted(common)]
                    ) != need):
                        continue
                    vp, vn = values[kp], values[kn]
                    new_rays.append(primitive_vector(
                        [vp * x - vn * y for x, y in zip(rays[kn], rays[kp])]
                    ))
                    new_tight.append(common | here)
            rays, tight = new_rays, new_tight
        processed.append(a)

    cone.lines, cone.rays, cone.tight, cone.processed = lines, rays, tight, processed
    return cone.generators()
